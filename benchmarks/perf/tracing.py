"""Run-time span tracing at the package boundaries, kept out of ``src``.

``Tracer.install()`` resolves the fixed :data:`BOUNDARIES` table by
dotted name and replaces each entry point with a timing wrapper;
``uninstall()`` puts the originals back.  A name that no longer
resolves is listed in ``Tracer.unresolved`` and its metrics read null:
a refactor may rename an entry point without breaking the benchmark.

Two kinds of wrapper:

- *span*: records ``[id, boundary, thread, start, end, parent,
  child seconds, request id, amount]`` in memory.  ``parent`` is the
  enclosing span on the same thread, or -- for the first span of a
  worker thread -- the span the main thread was in when the worker
  started (the call that spawned the pool).
- *hot*: call count and busy seconds only, per thread, for entry
  points called too often to record one by one.

Self time is computed on the fly: when a span or hot call ends its
duration is added to its parent's child seconds.  ``Tracer.window``
then folds a time window into per-boundary and per-layer numbers.
"""

import importlib
import itertools
import json
import threading
from time import perf_counter

from benchmarks.perf.metrics import LAYERS

SPAN, HOT = "span", "hot"

# What a boundary's "amount" counts: bytes of the sealed body it made
# or consumed, or its numeric result.
RESULT_BODY, ARG_BODY, RESULT = "result_body", "arg_body", "result"

_DOOR = "repro.service.SecureFrontDoor."
_AEAD = "repro.crypto.AeadKey."

# (layer, dotted name, kind, amount)
BOUNDARIES = tuple(
    [("service", _DOOR + method, SPAN, None) for method in (
        "register_tenant", "upload_dataset", "open_dataset", "submit_job",
        "subscribe", "publish", "attach_stream", "stream_round",
        "verify_audit",
    )] + [
        ("service", "repro.service.AdmissionController.admit", SPAN, None),
        ("service", "repro.service.QuotaLedger.charge", SPAN, None),
        ("sgx", "repro.sgx.Enclave.ecall", SPAN, None),
        ("sgx", "repro.sgx.SgxPlatform.load_enclave", SPAN, None),
        ("sgx", "repro.sgx.SgxPlatform.quote", SPAN, None),
        ("sgx", "repro.sgx.AttestationService.verify", SPAN, None),
        ("sgx", "repro.sgx.SimulatedMemory.access", HOT, None),
        ("crypto", _AEAD + "encrypt", HOT, RESULT_BODY),
        ("crypto", _AEAD + "decrypt", HOT, ARG_BODY),
        ("crypto", _AEAD + "encrypt_batch", SPAN, RESULT_BODY),
        ("crypto", _AEAD + "decrypt_batch", SPAN, ARG_BODY),
        ("crypto", "repro.crypto.RsaKeyPair.generate", SPAN, None),
        ("crypto", "repro.crypto.RsaKeyPair.sign", SPAN, None),
        ("crypto", "repro.crypto.RsaPublicKey.verify", SPAN, None),
        ("crypto", "repro.crypto.DhKeyPair.generate", SPAN, None),
        ("crypto", "repro.crypto.DhKeyPair.shared_key", SPAN, None),
        ("scbr", "repro.scbr.ShardedScbrRouter.subscribe", SPAN, None),
        ("scbr", "repro.scbr.ShardedScbrRouter.publish", SPAN, None),
        ("scbr", "repro.scbr.ContainmentIndex.insert", SPAN, None),
        ("scbr", "repro.scbr.ContainmentIndex.match", SPAN, None),
        ("scbr", "repro.scbr.LinearIndex.match", SPAN, None),
        ("scbr", "repro.scbr.provisioning.CachedAttestationVerifier.verify",
         SPAN, None),
        ("bigdata", "repro.bigdata.SecureMapReduce.run", SPAN, None),
        ("streams", "repro.streams.SecureStreamPlane.pump", SPAN, None),
        ("streams", "repro.streams.MeterStreamSource.produce", SPAN, RESULT),
        ("cluster", "repro.cluster.NodeTopology.build", SPAN, None),
        ("sim", "repro.sim.Environment.run", SPAN, None),
    ]
)

# Span record slots.
ID, BOUNDARY, THREAD, START, END, PARENT, CHILD_S, REQUEST, AMOUNT = range(9)


def resolve(dotted):
    """``(owner, attribute)`` for a dotted entry-point name.

    Imports the longest importable module prefix, then walks
    attributes.  Raises ImportError or AttributeError if the name is
    gone.
    """
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for part in parts[cut:-1]:
            owner = getattr(owner, part)
        getattr(owner, parts[-1])
        return owner, parts[-1]
    raise ImportError("no importable prefix in %r" % dotted)


def _amount_of(amount, args, result):
    """The size a call moved; 0 if the call was shaped unexpectedly."""
    try:
        if amount == RESULT_BODY:
            return len(result.body)
        if amount == ARG_BODY:
            return len(args[1].body)      # args[0] is self
        return result if isinstance(result, (int, float)) else 0
    except (AttributeError, IndexError, TypeError):
        return 0


class _ThreadState:
    """Open spans and hot totals of one thread."""

    __slots__ = ("thread", "stack", "hot", "owner", "created", "ended")

    def __init__(self, thread, owner):
        self.thread = thread
        self.stack = []
        self.hot = {}            # boundary index -> [calls, busy_s, amount]
        self.owner = owner       # id of the main-thread span that spawned us
        self.created = perf_counter()
        self.ended = self.created


class Mark:
    """A point in time plus the main thread's hot totals at it."""

    def __init__(self, tracer):
        self.hot = {
            index: list(totals)
            for index, totals in tracer.main.hot.items()
        }
        self.time = perf_counter()


class Stat:
    """What one boundary did inside a window (all threads)."""

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0       # inclusive
        self.self_s = 0.0        # minus traced children on the thread
        self.amount = 0
        self.durations = []      # spans only

    def mean(self, unit=1.0):
        return unit * self.total_s / self.calls if self.calls else None

    def add_span(self, record):
        duration = record[END] - record[START]
        self.calls += 1
        self.total_s += duration
        self.self_s += duration - record[CHILD_S]
        self.amount += record[AMOUNT]
        self.durations.append(duration)

    def add_hot(self, calls, busy, amount):
        self.calls += calls
        self.total_s += busy
        self.self_s += busy
        self.amount += amount


class Tracer:
    """Installs the wrappers and holds everything they record."""

    def __init__(self, boundaries=None):
        self.boundaries = BOUNDARIES if boundaries is None else boundaries
        self.spans = []
        self.unresolved = []
        self._ids = itertools.count()
        # Serial numbers, not thread idents: idents are reused as the
        # program's short-lived pools come and go.
        self._thread_ids = itertools.count()
        self._local = threading.local()
        self._originals = []
        self._states = []
        self.main = self._state()

    # -- wrappers -------------------------------------------------------

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            owner = -1
            if self._states and self.main.stack:
                owner = self.main.stack[-1][ID]
            state = _ThreadState(next(self._thread_ids), owner)
            self._local.state = state
            self._states.append(state)
        return state

    def _span(self, index, function, amount, is_service):
        get_state, spans, ids = self._state, self.spans, self._ids

        def traced(*args, **kwargs):
            state = get_state()
            stack = state.stack
            record = [next(ids), index, state.thread, 0.0, 0.0,
                      stack[-1][ID] if stack else state.owner,
                      0.0, None, 0]
            stack.append(record)
            record[START] = perf_counter()
            try:
                result = function(*args, **kwargs)
                if amount is not None:
                    record[AMOUNT] = _amount_of(amount, args, result)
                if is_service:
                    record[REQUEST] = getattr(result, "request_id", None)
                return result
            finally:
                end = record[END] = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][CHILD_S] += end - record[START]
                else:
                    state.ended = end
                spans.append(record)

        return traced

    def _hot(self, index, function, amount):
        get_state = self._state

        def counted(*args, **kwargs):
            state = get_state()
            totals = state.hot.get(index)
            if totals is None:
                totals = state.hot[index] = [0, 0.0, 0]
            start = perf_counter()
            try:
                result = function(*args, **kwargs)
                if amount is not None:
                    totals[2] += _amount_of(amount, args, result)
                return result
            finally:
                end = perf_counter()
                totals[0] += 1
                totals[1] += end - start
                if state.stack:
                    state.stack[-1][CHILD_S] += end - start
                else:
                    state.ended = end

        return counted

    def install(self):
        for index, (layer, dotted, kind, amount) in enumerate(
            self.boundaries
        ):
            try:
                owner, attribute = resolve(dotted)
            except (ImportError, AttributeError):
                self.unresolved.append(dotted)
                continue
            raw = owner.__dict__.get(attribute, getattr(owner, attribute))
            binder = type(raw) if isinstance(
                raw, (classmethod, staticmethod)
            ) else None
            function = raw.__func__ if binder else raw
            if kind == HOT:
                wrapper = self._hot(index, function, amount)
            else:
                wrapper = self._span(
                    index, function, amount, layer == "service"
                )
            self._originals.append((owner, attribute, raw))
            setattr(owner, attribute, binder(wrapper) if binder else wrapper)

    def uninstall(self):
        for owner, attribute, raw in reversed(self._originals):
            setattr(owner, attribute, raw)
        self._originals = []

    # -- analysis -------------------------------------------------------

    def mark(self):
        return Mark(self)

    def window(self, begin, end, wall_s):
        """Fold the spans and hot calls between two marks.

        Returns ``(stats, layer_self)``: a :class:`Stat` per resolved
        dotted name (``None`` for an unresolved one), and seconds of
        the window's wall owned by each layer plus ``"harness"``, which
        together add up to ``wall_s``.

        Wall ownership follows the main thread.  While it waits inside
        a span for worker threads it spawned, that span's self time
        (up to the union of the workers' lifetimes) is handed to the
        layers the workers were busy in, in proportion.
        """
        stats = {
            dotted: None if dotted in self.unresolved else Stat()
            for _layer, dotted, _kind, _amount in self.boundaries
        }
        by_index = [stats[b[1]] for b in self.boundaries]
        layer_of = [b[0] for b in self.boundaries]
        layer_self = dict.fromkeys(LAYERS + ("harness",), 0.0)
        main_thread = self.main.thread
        main_spans = {}
        busy_by_thread = {}      # worker thread -> {layer: seconds}

        def worker_busy(thread, layer, seconds):
            layers = busy_by_thread.setdefault(thread, {})
            layers[layer] = layers.get(layer, 0.0) + seconds

        for record in self.spans:
            if not begin.time <= record[START] < end.time:
                continue
            index = record[BOUNDARY]
            by_index[index].add_span(record)
            own = record[END] - record[START] - record[CHILD_S]
            if record[THREAD] == main_thread:
                layer_self[layer_of[index]] += own
                main_spans[record[ID]] = record
            else:
                worker_busy(record[THREAD], layer_of[index], own)

        for state in self._states:
            if state is self.main:
                hot = {
                    index: [now - before for now, before in zip(
                        end.hot[index], begin.hot.get(index, (0, 0.0, 0))
                    )]
                    for index in end.hot
                }
            elif begin.time <= state.created < end.time:
                hot = state.hot
            else:
                continue
            for index, (calls, busy, amount) in hot.items():
                by_index[index].add_hot(calls, busy, amount)
                if state is self.main:
                    layer_self[layer_of[index]] += busy
                else:
                    worker_busy(state.thread, layer_of[index], busy)

        layer_self["harness"] = wall_s - sum(layer_self.values())

        workers_of = {}
        for state in self._states:
            if state.thread in busy_by_thread and state.owner in main_spans:
                workers_of.setdefault(state.owner, []).append(state)
        for owner_id, states in workers_of.items():
            owner = main_spans[owner_id]
            covered, reach = 0.0, float("-inf")
            for state in sorted(states, key=lambda s: s.created):
                covered += max(0.0, state.ended - max(state.created, reach))
                reach = max(reach, state.ended)
            credit = min(
                covered, owner[END] - owner[START] - owner[CHILD_S]
            )
            weights = {}
            for state in states:
                for layer, seconds in busy_by_thread[state.thread].items():
                    weights[layer] = weights.get(layer, 0.0) + seconds
            total = sum(weights.values())
            if total <= 0.0:
                continue
            layer_self[layer_of[owner[BOUNDARY]]] -= credit
            for layer, seconds in weights.items():
                layer_self[layer] += credit * seconds / total
        return stats, layer_self

    def dump(self, path):
        """Write every span as one JSON line (kept in memory until now)."""
        request_of = {}
        ordered = sorted(self.spans, key=lambda record: record[ID])
        with open(path, "w") as handle:
            for record in ordered:
                # Parents get lower ids than their children, so a
                # request id set on a door span reaches its subtree.
                request = record[REQUEST] or request_of.get(record[PARENT])
                request_of[record[ID]] = request
                layer, dotted, _kind, _amount = (
                    self.boundaries[record[BOUNDARY]]
                )
                handle.write(json.dumps({
                    "id": record[ID], "name": dotted, "layer": layer,
                    "thread": record[THREAD], "start": record[START],
                    "end": record[END], "parent": record[PARENT],
                    "request": request,
                }) + "\n")
