"""Retry with exponential backoff in virtual time.

Every self-healing component (checkpointed map/reduce, reliable bulk
transfer, the secure table, broker failover) shares one policy object
and one driver loop instead of growing its own ad-hoc while-loop.
Failures are classified by type -- :class:`~repro.errors.TransientError`
is retryable, everything else propagates immediately -- and backoff is
charged to *virtual* time (an accumulator, optionally mirrored onto a
simulation clock), never to the wall clock, so recovery experiments
stay fast and deterministic.
"""

from dataclasses import dataclass

from repro.errors import ConfigurationError, RetryExhaustedError, TransientError


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with capped exponential backoff.

    ``max_attempts`` counts the first try: ``max_attempts=4`` means one
    try plus at most three retries.  The delay before retry *n*
    (1-based) is ``base_delay * 2 ** (n - 1)``, capped at
    ``max_delay``.
    """

    max_attempts: int = 4
    base_delay: float = 0.010        # 10 ms of virtual time
    max_delay: float = 1.0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ConfigurationError("invalid backoff parameters")

    def delay(self, attempt):
        """Backoff before retrying after failed attempt ``attempt``."""
        if attempt < 1:
            raise ConfigurationError("attempts are counted from 1")
        return min(self.base_delay * 2.0 ** (attempt - 1),
                   self.max_delay)


class BackoffClock:
    """Accumulates virtual seconds spent waiting between retries.

    Components own one of these and report :attr:`seconds` in their
    recovery statistics; benchmarks convert it into
    detection-to-recovery latency without ever sleeping for real.
    """

    def __init__(self):
        self.seconds = 0.0
        self.sleeps = 0

    def sleep(self, seconds):
        """Charge ``seconds`` of virtual backoff."""
        if seconds < 0:
            raise ConfigurationError("cannot sleep a negative duration")
        self.seconds += seconds
        self.sleeps += 1


def retry_call(operation, policy=None, clock=None, on_retry=None):
    """Run ``operation(attempt)`` until it succeeds or the budget ends.

    ``attempt`` is 1-based.  Only :class:`TransientError` triggers a
    retry; any other exception propagates unchanged.  After
    ``policy.max_attempts`` failures a :class:`RetryExhaustedError`
    wrapping the last transient fault is raised -- the job fails
    cleanly with one typed error.

    ``clock`` (a :class:`BackoffClock`) is charged the backoff delay;
    ``on_retry(attempt, error, delay)`` observes each recovery step.
    """
    policy = policy or RetryPolicy()
    attempt = 0
    while True:
        attempt += 1
        try:
            return operation(attempt)
        except TransientError as exc:
            if attempt >= policy.max_attempts:
                raise RetryExhaustedError(
                    "gave up after %d attempts: %s" % (attempt, exc),
                    attempts=attempt,
                    last_error=exc,
                ) from exc
            delay = policy.delay(attempt)
            if clock is not None:
                clock.sleep(delay)
            if on_retry is not None:
                on_retry(attempt, exc, delay)
