"""Fleet-scale attestation and key provisioning for the matching plane.

Every shard join used to run a full RSA quote verification plus a
fresh Diffie-Hellman handshake inline -- fine for four shards, ruinous
for a fleet.  This module is the CAS-style provisioning plane (paper
Section V-A; BigDL's PPML attestation agent is the exemplar) that
makes enclave joins a cached, batched, amortized hot path:

- Quotes are judged by the deployment's one
  :class:`~repro.sgx.attestation.AttestationService`, whose cache of
  verified signatures turns a re-offered, byte-identical quote into a
  policy re-check; the enclaves hand it their ``compute`` so hits and
  misses are priced in virtual cycles.

- Every join is the attested channel of :mod:`repro.sgx.channel`:
  each shard offers a DH value committed in its quote, and
  :func:`coord_enroll_batch` accepts N such offers in one coordinator
  ECALL, then offers back ONE coordinator DH value whose commitment
  carries the whole roster as its transcript (:func:`roster_transcript`),
  one channel key per shard, per-shard wrapped plane keys returned in
  a single round.  A host dropping, reordering, or substituting an
  offer changes the commitment and every shard aborts.

- Resumption tickets: at enrollment each shard platform earns a
  per-platform resumption secret, platform-sealed on the shard side
  (it dies with the machine's fuse secret) and bound into a ticket
  sealed under the coordinator's ticket key, which never leaves the
  coordinator.  A re-join presents the ticket and runs
  :func:`coord_resume` / :func:`shard_resume_offer` /
  :func:`shard_resume_complete` -- no RSA, no modular exponentiation --
  falling back to the full handshake on a ticket another coordinator
  minted, revocation, or a foreign platform.

All signing, DH, and resume costs are charged in *virtual cycles* (the
``*_CYCLES`` constants below; verification prices itself, see
:mod:`repro.sgx.attestation`), so the E8 benchmark measures the same
cost model the rest of the reproduction gates on.
"""

import json

from repro.errors import (
    AttestationError,
    ConfigurationError,
    IntegrityError,
)
from repro.crypto.aead import AeadKey
from repro.crypto.dh import DhKeyPair
from repro.crypto.kdf import hkdf
from repro.crypto.primitives import sha256
from repro.sgx import channel
from repro.telemetry import default_registry

# --- the virtual cost model -------------------------------------------
#
# Quote verification is priced by the attestation service itself
# (``repro.sgx.attestation.QUOTE_VERIFY_CYCLES``); a quote signature
# here is the quoting enclave's share.  DH costs model one 2048-bit
# modular exponentiation each; ticket resumption is pure symmetric
# crypto.

QUOTE_SIGN_CYCLES = 900_000
DH_KEYGEN_CYCLES = 450_000
DH_SHARED_CYCLES = 450_000
TICKET_RESUME_CYCLES = 30_000

# Associated-data labels of the provisioning message kinds.
AAD_BATCH_JOIN = b"plane|join2|"
AAD_TICKET = b"plane|ticket"
AAD_RESUME = b"plane|resume|"


def _encode_int(value):
    """Minimal big-endian encoding; zero still encodes as one byte."""
    width = max((value.bit_length() + 7) // 8, 1)
    return value.to_bytes(width, "big")


def roster_transcript(offers):
    """The channel transcript of one whole enrollment batch.

    Every offered ``(shard_id, shard_public)`` pair, order-significant
    and length-prefixed: a host that drops, reorders, substitutes, or
    injects an offer changes the coordinator's commitment, so its quote
    no longer matches and every shard in the batch aborts its join.
    """
    pieces = []
    for shard_id, shard_public in offers:
        pieces.append(str(shard_id).encode("ascii"))
        pieces.append(channel.public_bytes(shard_public))
    return channel.frame(pieces)


def _roster(offers, width):
    """A host-relayed roster as a list of ``width``-tuples, each led by
    an ``int`` shard id; any other shape raises :class:`IntegrityError`
    (not the ``TypeError`` / ``ValueError`` of unpacking it)."""
    if type(offers) not in (list, tuple):
        raise IntegrityError("malformed enrollment roster")
    roster = []
    for entry in offers:
        if (type(entry) not in (list, tuple) or len(entry) != width
                or type(entry[0]) is not int):
            raise IntegrityError("malformed enrollment roster")
        roster.append(tuple(entry))
    return roster


def platform_fingerprint(platform):
    """Host-visible stable identity of a machine.

    ``platform_id`` is a process-local ordinal that changes when a
    seeded platform object is recreated; the quoting enclave's public
    key derives from the machine's provisioning seed and is what the
    attestation service actually pins.  Hashing it gives the host a
    durable index for per-machine state (sealed join keys, resumption
    tickets) without learning anything the registry does not publish.
    """
    key = platform.quoting_enclave.public_key
    return sha256(
        b"quoting-key|" + channel.frame(
            [_encode_int(key.modulus), _encode_int(key.exponent)]
        )
    ).hex()


def _require_verifier(attestation):
    """There is no unverified mode: an enclave set up without a
    verifier cannot grant or complete any plane join."""
    if attestation is None:
        raise ConfigurationError(
            "no attestation service configured; refusing an unverified "
            "plane join"
        )
    return attestation


# --- shard-side ECALLs -------------------------------------------------
#
# Registered in repro.scbr.sharding's SHARD_ENTRY_POINTS; they share
# the shard enclave's state dict with the partition ECALLs there.

_JOIN_KEY_REUSE_CYCLES = 2_000     # unseal + keypair reconstruction


def shard_join_offer2(ctx, sealed_join_key=None):
    """ECALL: start a join with an optionally platform-bound DH key.

    With ``sealed_join_key`` (a blob this *machine* sealed on an
    earlier join) the enclave unseals and reuses the join keypair, so
    its quote is byte-identical to the earlier one and the verifier's
    cache can hit; a blob sealed by a different machine or measurement
    fails to unseal and the enclave falls back to a fresh keypair.
    Returns the offer plus the (re)sealed join key for the host to
    store -- the host only ever holds ciphertext.
    """
    dh = None
    if sealed_join_key is not None:
        try:
            private = int.from_bytes(ctx.unseal(sealed_join_key), "big")
            ctx.compute(_JOIN_KEY_REUSE_CYCLES)
            dh = DhKeyPair(private)
        except IntegrityError:
            dh = None  # foreign machine or code: mint fresh below
    if dh is None:
        ctx.compute(DH_KEYGEN_CYCLES)
        dh = DhKeyPair.generate()
        sealed_join_key = ctx.seal(_encode_int(dh._private))
    ctx.state["join_dh"] = dh
    _dh, report = channel.offer(ctx.report, channel.PLANE_JOIN, dh)
    return {
        "dh_public": dh.public_value,
        "report": report,
        "sealed_join_key": sealed_join_key,
    }


def shard_join_complete_batch(ctx, coordinator_public, quote, offers, grant):
    """ECALL: finish a batched join; unwraps this shard's grant.

    ``offers`` is the full batch roster the host relayed.  The shard
    recomputes the batch commitment itself, checks its *own* offer is
    in the roster, and verifies the coordinator's quote against the
    recomputed commitment -- so a host editing the roster (or replaying
    a quote from a different batch) fails every shard closed.

    The grant carries the plane key and this machine's resumption
    secret; the secret is platform-sealed and
    returned to the host, which can store but never open it.
    """
    dh = ctx.state.pop("join_dh", None)
    if dh is None:
        raise AttestationError("no pending plane join")
    roster = _roster(offers, 2)
    if (ctx.state["shard_id"], dh.public_value) not in roster:
        raise AttestationError("this shard's offer is not in the batch")
    transcript = roster_transcript(roster)
    channel.accept(
        _require_verifier(ctx.state.get("attestation")), quote,
        channel.PLANE_JOIN, coordinator_public, transcript,
        expected_measurement=ctx.state.get("coordinator_measurement"),
        compute=ctx.compute,
    )
    ctx.compute(DH_SHARED_CYCLES)
    transport = channel.derive(
        dh, coordinator_public, channel.PLANE_JOIN, transcript
    )
    aad = AAD_BATCH_JOIN + str(ctx.state["shard_id"]).encode("ascii")
    payload = transport.open(grant, aad, what="join grant")
    record = json.loads(payload.decode("utf-8"))
    ctx.state["plane_key"] = AeadKey(bytes.fromhex(record["plane_key"]))
    secret = bytes.fromhex(record["resume_secret"])
    ctx.state["resume_secret"] = secret
    return ctx.seal(secret)


def _resume_transport(secret, shard_nonce, coordinator_nonce, shard_id):
    return AeadKey(hkdf(
        secret,
        b"scbr-resume|" + channel.frame([
            str(shard_id).encode("ascii"), shard_nonce, coordinator_nonce,
        ]),
    ))


def shard_resume_offer(ctx, sealed_secret):
    """ECALL: start a ticket re-join from this machine.

    Unseals the platform-bound resumption secret -- a blob sealed by a
    different machine or measurement raises
    :class:`~repro.errors.IntegrityError`, which the host treats as
    "fall back to the full handshake".  No RSA, no modexp: the fresh
    nonce is all that leaves the enclave.
    """
    secret = ctx.unseal(sealed_secret)
    ctx.compute(TICKET_RESUME_CYCLES)
    nonce = AeadKey.generate().key_bytes
    ctx.state["resume_secret"] = secret
    ctx.state["resume_nonce"] = nonce
    return {"nonce": nonce}


def shard_resume_complete(ctx, coordinator_nonce, wrapped):
    """ECALL: finish a ticket re-join; installs the plane key."""
    secret = ctx.state.get("resume_secret")
    nonce = ctx.state.pop("resume_nonce", None)
    if secret is None or nonce is None:
        raise AttestationError("no pending plane resumption")
    ctx.compute(TICKET_RESUME_CYCLES)
    transport = _resume_transport(
        secret, nonce, coordinator_nonce, ctx.state["shard_id"]
    )
    aad = AAD_RESUME + str(ctx.state["shard_id"]).encode("ascii")
    payload = transport.open(wrapped, aad, what="resume grant")
    record = json.loads(payload.decode("utf-8"))
    ctx.state["plane_key"] = AeadKey(bytes.fromhex(record["plane_key"]))
    return True


# --- coordinator-side ECALLs ------------------------------------------

def _mint_ticket(ctx, platform_id):
    """Seal a resumption ticket for ``platform_id``.

    The per-platform secret is minted once and reused across that
    machine's enrollments; the ticket itself is sealed
    under the coordinator's ticket key, so the host can store and
    present it but neither read nor forge it.
    """
    secret = ctx.state["resumption"].setdefault(
        platform_id, AeadKey.generate().key_bytes
    )
    payload = json.dumps({
        "platform": platform_id,
        "secret": secret.hex(),
    }, sort_keys=True).encode("utf-8")
    return secret, ctx.state["ticket_key"].seal(payload, AAD_TICKET)


def coord_enroll_batch(ctx, offers):
    """ECALL: enroll N join offers in one round.

    ``offers`` is a list of ``(shard_id, shard_public, quote)``.  Every
    shard quote is verified (cache-priced), then ONE coordinator DH
    value -- minted on the first batch and reused across batches -- is
    quoted over the batch commitment, and each shard's grant (plane
    key + its machine's resumption secret) is wrapped under its
    own DH transport key.  Returns the roster, the grants, and a fresh
    resumption ticket per shard.
    """
    offers = _roster(offers, 3)
    if not offers:
        raise ConfigurationError("an enrollment batch cannot be empty")
    attestation = _require_verifier(ctx.state.get("attestation"))
    roster = []
    platforms = {}
    for shard_id, shard_public, quote in offers:
        channel.accept(
            attestation, quote, channel.PLANE_JOIN, shard_public,
            expected_measurement=ctx.state.get("shard_measurement"),
            compute=ctx.compute,
        )
        roster.append((shard_id, shard_public))
        platforms[shard_id] = quote.platform_id
    dh = ctx.state.get("batch_join_dh")
    if dh is None:
        ctx.compute(DH_KEYGEN_CYCLES)
        dh = DhKeyPair.generate()
        ctx.state["batch_join_dh"] = dh
    transcript = roster_transcript(roster)
    _dh, report = channel.offer(
        ctx.report, channel.PLANE_JOIN, dh, transcript
    )
    plane_key_hex = ctx.state["plane_key"].key_bytes.hex()
    grants = {}
    tickets = {}
    for shard_id, shard_public in roster:
        platform_id = platforms[shard_id]
        secret, ticket = _mint_ticket(ctx, platform_id)
        ctx.compute(DH_SHARED_CYCLES)
        transport = channel.derive(
            dh, shard_public, channel.PLANE_JOIN, transcript
        )
        payload = json.dumps({
            "plane_key": plane_key_hex,
            "resume_secret": secret.hex(),
        }, sort_keys=True).encode("utf-8")
        aad = AAD_BATCH_JOIN + str(shard_id).encode("ascii")
        grants[shard_id] = transport.seal(payload, aad)
        tickets[shard_id] = ticket
        ctx.state.setdefault("enrolled", set()).add(shard_id)
    return {
        "dh_public": dh.public_value,
        "report": report,
        "offers": roster,
        "grants": grants,
        "tickets": tickets,
    }


def coord_resume(ctx, shard_id, ticket, shard_nonce):
    """ECALL: admit a ticket re-join, skipping quote-verify and DH.

    Fails closed -- :class:`~repro.errors.AttestationError` -- when the
    ticket does not authenticate under this coordinator's ticket key
    (another plane's ticket, or a truncated or edited one), names a
    deregistered platform, or the shard measurement has been revoked
    since the ticket was minted.  The host then falls back to the full
    attested handshake.
    """
    attestation = _require_verifier(ctx.state.get("attestation"))
    ctx.compute(TICKET_RESUME_CYCLES)
    try:
        payload = ctx.state["ticket_key"].open(ticket, AAD_TICKET)
    except IntegrityError as exc:
        raise AttestationError("resumption ticket invalid") from exc
    record = json.loads(payload.decode("utf-8"))
    measurement = ctx.state.get("shard_measurement")
    if measurement is not None and attestation.measurement_revoked(
        measurement
    ):
        raise AttestationError(
            "shard measurement revoked; resumption refused"
        )
    platform_id = record["platform"]
    if not attestation.platform_registered(platform_id):
        raise AttestationError(
            "platform %r deregistered; resumption refused" % platform_id
        )
    secret = bytes.fromhex(record["secret"])
    if ctx.state["resumption"].get(record["platform"]) != secret:
        raise AttestationError("resumption secret no longer current")
    coordinator_nonce = AeadKey.generate().key_bytes
    transport = _resume_transport(
        secret, shard_nonce, coordinator_nonce, shard_id
    )
    payload = json.dumps({
        "plane_key": ctx.state["plane_key"].key_bytes.hex(),
    }, sort_keys=True).encode("utf-8")
    aad = AAD_RESUME + str(shard_id).encode("ascii")
    wrapped = transport.seal(payload, aad)
    ctx.state.setdefault("enrolled", set()).add(shard_id)
    return {"nonce": coordinator_nonce, "wrapped": wrapped}


# --- the host-side provisioner ----------------------------------------

class PlaneProvisioner:
    """Untrusted driver of plane enrollment.

    Relays offers, quotes, grants, and tickets between the coordinator
    and shard enclaves -- it stores sealed blobs and presents tickets,
    but never sees key material.  Three independently-switchable
    amortizations:

    - ``reuse_join_keys``: shards reuse a platform-sealed join keypair,
      so a machine's re-join quote is byte-identical to its first --
      the verifier's cache (and the host's quote cache, which skips
      re-signing a deterministic signature) can hit;
    - ``batch``: all pending joins enroll through ONE
      :func:`coord_enroll_batch` round instead of per-shard ECALLs;
    - ``tickets``: machines holding a live resumption ticket re-join
      via the ticket path, skipping quote-verify and DH entirely, with
      automatic fallback to the full handshake when the ticket does
      not open under the coordinator's ticket key, its platform or
      measurement was revoked, or it was lost (``chaos.loses_ticket``).
    """

    def __init__(self, reuse_join_keys=True, batch=True, tickets=True,
                 chaos=None):
        self.reuse_join_keys = reuse_join_keys
        self.batch = batch
        self.tickets = tickets
        self.chaos = chaos
        self._join_keys = {}     # machine fingerprint -> sealed DH key
        self._quotes = {}        # (fingerprint, measurement, data) -> Quote
        self._resume = {}        # machine fingerprint -> (ticket, sealed R)
        self._resume_attempts = {}
        self.cold_joins = 0
        self.batched_joins = 0
        self.resumed_joins = 0
        self.batches = 0
        self.ticket_fallbacks = 0
        registry = default_registry()
        self._tel_cold = registry.counter("provisioning.joins.cold")
        self._tel_batched = registry.counter("provisioning.joins.batched")
        self._tel_resumed = registry.counter("provisioning.joins.resumed")
        self._tel_batches = registry.counter("provisioning.batches")
        self._tel_fallbacks = registry.counter(
            "provisioning.ticket_fallbacks"
        )

    # -- quoting --------------------------------------------------------

    def quote_for(self, platform, report):
        """Quote ``report`` on ``platform``, reusing identical quotes.

        The quoting enclave's FDH signature is deterministic, so the
        same (platform, measurement, report data) always yields the
        same quote -- caching it host-side skips only the redundant
        signing cost, never changes the bytes on the wire.  Keyed by
        ``platform_id`` (the live object), not fingerprint: a respawned
        platform earns a fresh id, and a cached quote naming its
        predecessor would misattribute (and break against a registry
        that deregistered the predecessor).
        """
        key = (
            platform.platform_id,
            report.measurement,
            bytes(report.report_data),
        )
        quote = self._quotes.get(key)
        if quote is None:
            platform.clock.charge(QUOTE_SIGN_CYCLES)
            quote = platform.quoting_enclave.quote(report)
            self._quotes[key] = quote
        return quote

    # -- enrollment -----------------------------------------------------

    def join(self, coordinator, coordinator_platform, entries):
        """Provision every ``(shard_id, platform, enclave)`` entry.

        Machines with a live ticket resume; the rest enroll through the
        batched (or, with ``batch=False``, per-shard) attested
        handshake.  A failed resumption -- a ticket another coordinator
        minted, revocation, foreign machine, chaos-lost ticket -- falls
        back to the full handshake for that entry, never fails the join.
        """
        pending = []
        for entry in entries:
            if not self._try_resume(coordinator, entry):
                pending.append(entry)
        if not pending:
            return
        if self.batch:
            self._enroll_batch(coordinator, coordinator_platform, pending)
            return
        for entry in pending:
            self._enroll_batch(
                coordinator, coordinator_platform, [entry], cold=True
            )

    def _offer_for(self, shard_id, platform, enclave):
        fingerprint = platform_fingerprint(platform)
        sealed = (
            self._join_keys.get(fingerprint)
            if self.reuse_join_keys else None
        )
        offer = enclave.ecall("join_offer2", sealed)
        if self.reuse_join_keys:
            self._join_keys[fingerprint] = offer["sealed_join_key"]
        quote = self.quote_for(platform, offer["report"])
        return (shard_id, offer["dh_public"], quote)

    def _enroll_batch(self, coordinator, coordinator_platform, entries,
                      cold=False):
        offers = [
            self._offer_for(shard_id, platform, enclave)
            for shard_id, platform, enclave in entries
        ]
        grant = coordinator.ecall("enroll_batch", offers)
        coordinator_quote = self.quote_for(
            coordinator_platform, grant["report"]
        )
        for shard_id, platform, enclave in entries:
            sealed_secret = enclave.ecall(
                "join_complete_batch", grant["dh_public"],
                coordinator_quote, grant["offers"],
                grant["grants"][shard_id],
            )
            self._store_ticket(
                platform, grant["tickets"][shard_id], sealed_secret
            )
        self.batches += 1
        self._tel_batches.inc()
        if cold:
            self.cold_joins += len(entries)
            self._tel_cold.inc(len(entries))
        else:
            self.batched_joins += len(entries)
            self._tel_batched.inc(len(entries))

    def _store_ticket(self, platform, ticket, sealed_secret):
        if self.tickets and ticket is not None:
            self._resume[platform_fingerprint(platform)] = (
                ticket, sealed_secret
            )

    def _try_resume(self, coordinator, entry):
        shard_id, platform, enclave = entry
        if not self.tickets:
            return False
        fingerprint = platform_fingerprint(platform)
        stored = self._resume.get(fingerprint)
        if stored is None:
            return False
        attempt = self._resume_attempts.get(fingerprint, 0)
        self._resume_attempts[fingerprint] = attempt + 1
        if self.chaos is not None and self.chaos.loses_ticket(
            fingerprint, attempt
        ):
            # The untrusted host lost (or dropped) the ticket; the
            # machine re-earns one through the full handshake.
            del self._resume[fingerprint]
            self.ticket_fallbacks += 1
            self._tel_fallbacks.inc()
            return False
        ticket, sealed_secret = stored
        try:
            offer = enclave.ecall("resume_offer", sealed_secret)
            answer = coordinator.ecall(
                "resume", shard_id, ticket, offer["nonce"]
            )
            enclave.ecall(
                "resume_complete", answer["nonce"], answer["wrapped"]
            )
        except (AttestationError, IntegrityError):
            # A ticket another coordinator minted, revoked measurement,
            # deregistered platform, or a blob from a foreign machine:
            # drop the dead ticket and fall back to the full handshake.
            del self._resume[fingerprint]
            self.ticket_fallbacks += 1
            self._tel_fallbacks.inc()
            return False
        self.resumed_joins += 1
        self._tel_resumed.inc()
        return True
