"""DESIGN section 17 has a row for everything that crosses the boundary.

``make surface`` (``tools/knob_census.py --surface``) prints two tables
that DESIGN section 17 carries: one row per ECALL parameter of every
enclave code the package defines, and one row per field of every sealed
format.  What a row says (types passed, readers, use) needs the runs;
which rows exist does not.  This test rebuilds the row keys in-process
-- entry points by import, labels and fields off the AST -- and fails
when one has no row in section 17, or a row names one that is gone.
Starts no subprocess.
"""

import ast
import importlib.util
import inspect
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _census():
    spec = importlib.util.spec_from_file_location(
        "knob_census", os.path.join(ROOT, "tools", "knob_census.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


census = _census()
PACKAGE = census._Package(ROOT)
CODES = census.enclave_codes(census.package_modules(ROOT))
FORMATS = census.sealed_formats(ROOT, PACKAGE)


def _section17():
    """Table title -> rows (cells) of DESIGN section 17."""
    tables, inside, title = {}, False, None
    with open(os.path.join(ROOT, "DESIGN.md")) as handle:
        for line in handle:
            if line.startswith("## "):
                inside = line.startswith("## 17.")
            elif inside and line.startswith("### "):
                title = line[4:].strip()
                tables[title] = []
            elif inside and title and line.startswith("| "):
                cells = census.table_cells(line)
                if cells[0] not in ("code", "label") and not cells[0] \
                        .startswith("---"):
                    tables[title].append(cells)
    return tables


TABLES = _section17()


def _compare(documented, found):
    missing = sorted(found - documented)
    stale = sorted(documented - found)
    assert not missing and not stale, (
        "DESIGN section 17 is out of date (run make surface): "
        "no row for %s; rows for what is gone: %s" % (missing, stale))


def test_every_ecall_parameter_has_a_row():
    rows = {tuple(cells[:3]) for cells in TABLES["ECALL parameters"]}
    _compare(rows, set(census.ecall_rows(CODES)))


def test_every_sealed_field_has_a_row():
    rows = {tuple(cells[:2]) for cells in TABLES["Sealed formats"]}
    _compare(rows, set(census.format_rows(FORMATS)))


def test_discovery_finds_every_code_and_the_micro_service_table():
    assert set(CODES) == {
        "SERVICE_ENTRY_POINTS", "mapreduce-worker", "scbr-coordinator",
        "scbr-router", "scbr-shard", "service-gateway",
        "stream-coordinator", "stream-shard",
    }
    rows = census.ecall_rows(CODES)
    assert ("scbr-shard", "setup", "attestation") in rows
    assert ("scbr-shard", "ping", "-") in rows
    assert ("SERVICE_ENTRY_POINTS", "handle", "handler") in rows


def test_fields_are_read_off_literal_dicts_through_locals_and_callees():
    # a local dict plus a conditional ``payload["counters"] = ...``
    assert FORMATS["streams|range|"]["fields"] == [
        "counters", "from", "part", "range", "to"]
    # a header record plus records a package function encodes
    assert {"shard_id", "version", "count", "id", "subscriber"} <= set(
        FORMATS["plane|snapshot"]["fields"])
    # a ``**`` spread of a method's returned dict, platform-sealed
    assert FORMATS["platform:_seal_head"]["fields"] == [
        "count", "head", "tenant"]
    # the last assignment above the seal, not an earlier one
    assert FORMATS["plane|resume|"] == {
        "sites": ["scbr.provisioning.coord_resume"],
        "fields": ["plane_key"], "opaque": []}
    assert FORMATS["platform:shard_join_offer2"]["opaque"] == [
        "_encode_int(dh._private)"]
    for entry in FORMATS.values():
        assert "epoch" not in entry["fields"]


def test_a_parameter_is_sealed_when_it_reaches_an_open():
    def opens(label, entry, name):
        function = CODES[label][entry]
        key = census.code_key(function.__code__, ROOT)
        names = list(inspect.signature(function).parameters)
        return census.opens_parameter(PACKAGE, key, names.index(name))

    # through admit_subscription and open_from_client to envelope.open
    assert opens("scbr-coordinator", "admit", "envelope")
    # a loop over a list of blobs, then a helper's open
    assert opens("service-gateway", "verify_audit", "blobs")
    assert opens("scbr-shard", "join_offer2", "sealed_join_key")
    assert not opens("scbr-coordinator", "resume", "shard_nonce")
    assert not opens("service-gateway", "append_audit", "position")


def test_kinds():
    kind = census.argument_kind
    assert kind({"function": "callable"}, False, "map_fn") == "callable"
    assert kind({"AttestationService": "object"}, False,
                "attestation") == "live object"
    assert kind({"bytes": "value"}, True, "blob") == "sealed"
    assert kind({"int": "value"}, False, "shard_id") == "bookkeeping"
    assert kind({"str": "value"}, False,
                "shard_measurement") == "plaintext"
    assert kind({"str": "value"}, False, "job_key_bytes") == "plaintext"


def test_a_read_is_compared_checked_adopted_or_used():
    node = ast.parse(
        "def restore(ctx, blob):\n"
        "    header = json.loads(open(blob))\n"
        "    if header['shard'] != ctx.state['shard']:\n"
        "        raise ValueError\n"
        "    if header['count'] != len(blob):\n"
        "        raise ValueError\n"
        "    ctx.state['version'] = header['version']\n"
        "    use(header['rest'])\n"
    ).body[0]
    assert census.read_use(node, "shard", 3) == "compared"
    assert census.read_use(node, "count", 5) == "checked"
    assert census.read_use(node, "version", 7) == "adopted"
    assert census.read_use(node, "rest", 8) == "used"
    assert census.read_use(node, "rest", 7) is None


def test_section_17_flags_the_unanchored_versions():
    flagged = {(cells[0], cells[1]) for cells in TABLES["Sealed formats"]
               if cells[-1] == "not anchored"}
    assert ("plane|snapshot", "version") in flagged
    assert ("streams|checkpoint|", "version") in flagged
