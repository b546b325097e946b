"""Tests for the error taxonomy and the retry/backoff machinery."""

import pytest

from repro.errors import (
    BrokerUnavailableError,
    CapacityError,
    ConfigurationError,
    EnclaveError,
    EnclaveLostError,
    FatalError,
    IntegrityError,
    RetryExhaustedError,
    SecureCloudError,
    StorageUnavailableError,
    TransientError,
    TransportError,
    WorkerCrashError,
)
from repro.retry import BackoffClock, RetryPolicy, retry_call


class TestHierarchy:
    def test_transient_vs_fatal_split(self):
        for transient in (
            CapacityError, WorkerCrashError, BrokerUnavailableError,
            StorageUnavailableError, TransportError, EnclaveLostError,
        ):
            assert issubclass(transient, TransientError)
            assert not issubclass(transient, FatalError)
        for fatal in (IntegrityError, ConfigurationError,
                      RetryExhaustedError):
            assert issubclass(fatal, FatalError)
            assert not issubclass(fatal, TransientError)

    def test_everything_is_a_securecloud_error(self):
        assert issubclass(TransientError, SecureCloudError)
        assert issubclass(FatalError, SecureCloudError)

    def test_enclave_lost_is_both_enclave_and_transient(self):
        # Failover paths catch it as transient; existing enclave
        # plumbing still catches it as EnclaveError.
        assert issubclass(EnclaveLostError, EnclaveError)
        assert issubclass(EnclaveLostError, TransientError)

    def test_retry_exhausted_carries_cause(self):
        error = RetryExhaustedError(
            "gave up", attempts=3, last_error=TransportError("down")
        )
        assert error.attempts == 3
        assert isinstance(error.last_error, TransportError)


class TestRetryPolicy:
    def test_exponential_delays_capped(self):
        policy = RetryPolicy(max_attempts=6, base_delay=0.010,
                             max_delay=0.050)
        assert policy.delay(1) == pytest.approx(0.010)
        assert policy.delay(2) == pytest.approx(0.020)
        assert policy.delay(3) == pytest.approx(0.040)
        assert policy.delay(4) == pytest.approx(0.050)  # capped
        assert policy.delay(5) == pytest.approx(0.050)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(base_delay=-1.0)


class TestBackoffClock:
    def test_accumulates_virtual_time(self):
        clock = BackoffClock()
        clock.sleep(0.25)
        clock.sleep(0.5)
        assert clock.seconds == pytest.approx(0.75)
        assert clock.sleeps == 2


class TestRetryCall:
    def test_succeeds_after_transient_failures(self):
        attempts = []

        def flaky(attempt):
            attempts.append(attempt)
            if attempt < 3:
                raise StorageUnavailableError("hiccup")
            return "done"

        clock = BackoffClock()
        result = retry_call(
            flaky, RetryPolicy(max_attempts=5, base_delay=0.010), clock=clock
        )
        assert result == "done"
        assert attempts == [1, 2, 3]
        assert clock.seconds == pytest.approx(0.010 + 0.020)

    def test_fatal_errors_are_not_retried(self):
        attempts = []

        def poisoned(attempt):
            attempts.append(attempt)
            raise IntegrityError("tampered")

        with pytest.raises(IntegrityError):
            retry_call(poisoned, RetryPolicy(max_attempts=5))
        assert attempts == [1]

    def test_budget_exhaustion_is_typed(self):
        def always_down(attempt):
            raise TransportError("down")

        with pytest.raises(RetryExhaustedError) as excinfo:
            retry_call(always_down, RetryPolicy(max_attempts=3,
                                                base_delay=0.001))
        assert excinfo.value.attempts == 3
        assert isinstance(excinfo.value.last_error, TransportError)

    def test_on_retry_hook_sees_each_recovery(self):
        episodes = []

        def flaky(attempt):
            if attempt == 1:
                raise WorkerCrashError("boom")
            return attempt

        retry_call(
            flaky, RetryPolicy(max_attempts=3, base_delay=0.002),
            on_retry=lambda attempt, exc, delay: episodes.append(
                (attempt, type(exc).__name__, delay)
            ),
        )
        assert episodes == [(1, "WorkerCrashError", pytest.approx(0.002))]
