"""Sealed telemetry snapshots: the enclave side of the trust boundary.

The paper's model allows the untrusted host to observe *that* an
enclave was entered, but not what it computed -- and fine-grained
in-enclave timings are a well-known side channel (they reveal match
counts, key-dependent work, data skew).  So telemetry recorded inside
an enclave (an :class:`EnclaveTelemetry` living in the enclave's state)
never leaves as plaintext: :meth:`EnclaveTelemetry.export_sealed`
serialises the metric snapshot and span table canonically and seals
them with AEAD under the *telemetry key*, provisioned at enclave setup
over the same attested channel as the other plane secrets.  The host
stores and forwards opaque blobs; only the operator holding the
telemetry key (``repro.cli trace`` / ``repro.cli metrics`` model that
operator) can open them with :func:`open_snapshot`.

Tampering, truncating, or splicing a sealed snapshot fails closed on
the AEAD tag -- an observability channel must not become an integrity
hole.
"""

import json

from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.tracing import Span, SpanRecorder

# Domain-separates telemetry snapshots from every other sealed payload
# in the system (plane messages, checkpoints, snapshots).
TELEMETRY_AAD = b"telemetry|snapshot|v1"


def seal_snapshot(key, payload):
    """Seal a JSON-able telemetry payload under the telemetry key."""
    raw = json.dumps(payload, sort_keys=True,
                     separators=(",", ":")).encode("utf-8")
    return key.seal_records([raw], TELEMETRY_AAD)


def open_snapshot(key, blob):
    """Open a sealed telemetry blob; fails closed on any tampering."""
    records = key.open_records(
        blob, TELEMETRY_AAD, what="sealed telemetry snapshot"
    )
    return json.loads(records[0].decode("utf-8"))


def spans_from_snapshot(payload):
    """Rehydrate :class:`Span` objects from an opened snapshot."""
    return [Span.from_dict(raw) for raw in payload.get("spans", [])]


class EnclaveTelemetry:
    """Metrics + spans buffered inside one enclave.

    Created by an enclave's ``setup`` entry point when a telemetry key
    is provisioned, and kept in ``ctx.state`` -- enclave state the host
    cannot read.  The registry here is always live (the enclave decided
    to record by accepting the key); the host-global on/off switch
    governs only *host-side* instruments.
    """

    def __init__(self, key, domain):
        self.key = key
        self.domain = domain
        self.registry = MetricsRegistry()
        self.recorder = SpanRecorder(domain)

    def export_sealed(self):
        """The sealed snapshot the host may relay to the operator."""
        return seal_snapshot(self.key, {
            "domain": self.domain,
            "metrics": self.registry.snapshot(),
            "spans": self.recorder.export(),
        })
