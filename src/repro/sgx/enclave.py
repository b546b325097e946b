"""Enclaves: measured code with ECALL/OCALL transitions.

An :class:`Enclave` is created from :class:`EnclaveCode` -- a named set
of entry points whose *measurement* is a hash over the code identity
(entry-point bytecode) and initial configuration, mirroring MRENCLAVE:
identical code and config produce identical measurements; any change
produces a different one.

Calling into the enclave (:meth:`Enclave.ecall`) charges an enclave
transition, runs the entry point with an :class:`EnclaveContext` (the
in-enclave world: protected memory, state, sealing, reports, OCALLs),
and charges the exit transition.  Code outside never sees the context
or the in-enclave state, which is how the reproduction enforces the
paper's "plaintext only inside the processor" property.
"""

import itertools

from repro.errors import EnclaveError, EnclaveLostError
from repro.crypto.primitives import sha256
from repro.sgx.memory import SimulatedMemory
from repro.telemetry import default_registry

_enclave_ids = itertools.count(1)


class EnclaveCode:
    """A named, measurable bundle of enclave entry points."""

    def __init__(self, name, entry_points, config=b"", version=1):
        if not entry_points:
            raise EnclaveError("enclave code needs at least one entry point")
        self.name = name
        self.entry_points = dict(entry_points)
        self.config = bytes(config)
        self.version = version
        self._identity = self._compute_identity()

    def _compute_identity(self):
        pieces = [
            b"enclave-code",
            self.name.encode("utf-8"),
            str(self.version).encode("ascii"),
            self.config,
        ]
        for entry_name in sorted(self.entry_points):
            function = self.entry_points[entry_name]
            code = getattr(function, "__code__", None)
            if code is not None:
                # Bytecode alone is not enough: two functions differing
                # only in constants or referenced names share co_code.
                body = (
                    code.co_code
                    + repr(code.co_consts).encode("utf-8")
                    + repr(code.co_names).encode("utf-8")
                )
            else:
                body = repr(function).encode("utf-8")
            pieces.append(entry_name.encode("utf-8"))
            pieces.append(body)
        return sha256(b"|".join(pieces))

    @property
    def measurement(self):
        """Hex MRENCLAVE-like identity of this code bundle."""
        return self._identity.hex()

    def with_config(self, config):
        """The same code under different initial configuration."""
        return EnclaveCode(self.name, self.entry_points, config, self.version)


class Report:
    """A local attestation report: measurement bound to report data."""

    def __init__(self, measurement, report_data, enclave_id):
        self.measurement = measurement
        self.report_data = bytes(report_data)
        self.enclave_id = enclave_id

    def digest(self):
        """Canonical bytes of the report (signed by the quoting enclave)."""
        return (
            self.measurement.encode("ascii")
            + b"|"
            + str(self.enclave_id).encode("ascii")
            + b"|"
            + self.report_data
        )


class EnclaveContext:
    """What entry-point code sees while executing inside the enclave.

    - :attr:`memory` -- protected memory (EPC-backed, costs charged);
    - :attr:`state` -- a dict persisted across ECALLs (the enclave heap);
    - :meth:`ocall` -- call out to untrusted code (charges a transition);
    - :meth:`report` -- produce a local attestation report;
    - :meth:`seal`/:meth:`unseal` -- persist secrets via platform keys.
    """

    def __init__(self, enclave):
        self._enclave = enclave
        self.memory = enclave.memory
        self.state = enclave._state
        self.clock = enclave.platform.clock

    @property
    def measurement(self):
        """This enclave's own measurement."""
        return self._enclave.measurement

    def compute(self, cycles):
        """Charge pure computation cycles."""
        self.memory.compute(cycles)

    def ocall(self, function, *args, **kwargs):
        """Leave the enclave to run untrusted ``function``, then re-enter."""
        costs = self._enclave.platform.costs
        self._enclave._tel_ocalls.inc()
        self._enclave._tel_transitions.inc(2)
        self.clock.charge(costs.transition_cycles)
        try:
            return function(*args, **kwargs)
        finally:
            self.clock.charge(costs.transition_cycles)

    def report(self, report_data=b""):
        """A local attestation report over ``report_data``."""
        return Report(self._enclave.measurement, report_data, self._enclave.enclave_id)

    def seal(self, data, policy=None):
        """Seal ``data`` to this enclave's identity (see sealing module)."""
        return self._enclave.platform.seal(self._enclave, data, policy=policy)

    def unseal(self, blob):
        """Recover data sealed by this enclave identity on this platform."""
        return self._enclave.platform.unseal(self._enclave, blob)


class Enclave:
    """A loaded enclave instance on an :class:`~repro.sgx.platform.SgxPlatform`."""

    def __init__(self, platform, code, name=None):
        self.platform = platform
        self.code = code
        self.name = name or code.name
        self.enclave_id = next(_enclave_ids)
        self.memory = SimulatedMemory(
            clock=platform.clock,
            costs=platform.costs,
            enclave=True,
            epc=platform.epc,
            llc=platform.llc,
            name="enclave-%d" % self.enclave_id,
        )
        self._state = {}
        self._destroyed = False
        self._ecall_count = 0
        # Telemetry handles resolve once here; with the default no-op
        # registry the per-ecall cost is one no-op call per instrument.
        registry = default_registry()
        self._tel_ecalls = registry.counter("sgx.ecalls", enclave=self.name)
        self._tel_transitions = registry.counter(
            "sgx.transitions", enclave=self.name
        )
        self._tel_ocalls = registry.counter("sgx.ocalls", enclave=self.name)

    @property
    def measurement(self):
        """The enclave's MRENCLAVE-like identity (hex)."""
        return self.code.measurement

    @property
    def ecall_count(self):
        """Number of ECALLs served (for transition accounting)."""
        return self._ecall_count

    def ecall(self, entry_point, *args, **kwargs):
        """Enter the enclave and run ``entry_point`` with the context.

        Charges an EENTER/EEXIT transition pair around the call.
        """
        if self._destroyed:
            # Transient from the caller's view: the same measured code
            # can be reloaded (or a standby promoted) and the call
            # replayed -- this is what failover paths catch.
            raise EnclaveLostError("enclave %s has been destroyed" % self.name)
        function = self.code.entry_points.get(entry_point)
        if function is None:
            raise EnclaveError(
                "enclave %s has no entry point %r" % (self.name, entry_point)
            )
        self.platform.clock.charge(self.platform.costs.transition_cycles)
        self._ecall_count += 1
        self._tel_ecalls.inc()
        self._tel_transitions.inc(2)
        context = EnclaveContext(self)
        try:
            return function(context, *args, **kwargs)
        finally:
            self.platform.clock.charge(self.platform.costs.transition_cycles)

    @property
    def destroyed(self):
        """True once the enclave has been torn down."""
        return self._destroyed

    def destroy(self):
        """Tear the enclave down; its protected state becomes unreachable.

        Also releases the enclave's simulated memory: the OS reclaims a
        dead enclave's EPC pages (EREMOVE) and its cache lines stop
        being resident, so survivors on the platform no longer pay
        paging pressure for state that can never be touched again.
        """
        self._destroyed = True
        self._state.clear()
        self.memory.release_all()

    def identity_summary(self):
        """A loggable description (no secrets)."""
        return {
            "name": self.name,
            "enclave_id": self.enclave_id,
            "measurement": self.measurement,
            "heap_bytes": self.memory.allocated_bytes,
        }


def measure_code(entry_points, name="anonymous", config=b"", version=1):
    """Convenience: the measurement an :class:`EnclaveCode` would have."""
    return EnclaveCode(name, entry_points, config, version).measurement
