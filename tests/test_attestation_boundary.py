"""Only ``repro.sgx.attestation`` decides whether a quote is acceptable.

Every quote in the stack goes through ``AttestationService.verify``,
which owns the platform registry, the allowlist, the one revocation
rule and the verification cache.  A second class with its own
``verify(self, quote, ...)``, a module checking a quote signature
itself, or a caller branching on which kind of verifier it was handed
would each fork that decision -- and two verifiers had already come to
disagree about a revoked measurement pinned by ``expected_measurement``.

Likewise only ``repro.sgx.channel`` binds a DH value to a quote and
derives a key from it: three handshakes had each done so their own way,
and three of their four entry points let a malformed value escape the
error hierarchy.
"""

import ast
import os

import repro

SRC = os.path.dirname(repro.__file__)
ATTESTATION = os.path.join("sgx", "attestation.py")
CHANNEL = os.path.join("sgx", "channel.py")


def _modules():
    for folder, _dirs, files in os.walk(SRC):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.relpath(os.path.join(folder, name), SRC)
                with open(os.path.join(SRC, path), encoding="utf-8") as handle:
                    yield path, ast.parse(handle.read(), filename=path)


def _dotted(node):
    """``a.b.c`` for a Name/Attribute chain, else ``""``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return _dotted(node.value) + "." + node.attr
    return ""


def _is_call_to(node, attr):
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == attr)


def test_only_the_service_checks_a_quote_signature():
    offences = [
        "%s:%d" % (path, node.lineno)
        for path, tree in _modules() if path != ATTESTATION
        for node in ast.walk(tree)
        if _is_call_to(node, "verify") and node.args
        and _is_call_to(node.args[0], "signed_payload")
    ]
    assert not offences, (
        "quote signatures are checked in AttestationService.verify "
        "only:\n  " + "\n  ".join(offences)
    )


def test_no_second_quote_verifier():
    offences = []
    for path, tree in _modules():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for method in cls.body:
                if (isinstance(method, ast.FunctionDef)
                        and method.name == "verify"
                        and [arg.arg for arg in method.args.args[:2]]
                        == ["self", "quote"]
                        and cls.name != "AttestationService"):
                    offences.append("%s:%d %s.verify" % (
                        path, method.lineno, cls.name
                    ))
    assert not offences, (
        "AttestationService is the one quote verifier; hand it around "
        "instead of wrapping it:\n  " + "\n  ".join(offences)
    )


def test_no_caller_probes_which_verifier_it_holds():
    offences = []
    for path, tree in _modules():
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in ("isinstance", "getattr", "hasattr")):
                continue
            probed = ", ".join(_dotted(arg) for arg in node.args[:2])
            if "attestation" in probed.lower() or "verifier" in probed.lower():
                offences.append("%s:%d %s" % (
                    path, node.lineno, ast.unparse(node)
                ))
    assert not offences, (
        "every attestation object is an AttestationService; call it "
        "instead of asking what it is:\n  " + "\n  ".join(offences)
    )


def _callee(node):
    func = node.func
    return func.attr if isinstance(func, ast.Attribute) else _dotted(func)


def _mentions_dh_value(node):
    return any(
        (isinstance(sub, ast.Attribute) and sub.attr == "public_value")
        or (isinstance(sub, ast.Name) and (
            sub.id == "public_value" or sub.id.endswith("_public")))
        for sub in ast.walk(node)
    )


def test_only_the_channel_derives_a_dh_key():
    offences = [
        "%s:%d" % (path, node.lineno)
        for path, tree in _modules() if path != CHANNEL
        for node in ast.walk(tree)
        if _is_call_to(node, "shared_key")
    ]
    assert not offences, (
        "DH keys are derived by repro.sgx.channel.derive only:\n  "
        + "\n  ".join(offences)
    )


def test_only_the_channel_builds_a_dh_commitment():
    offences = []
    for path, tree in _modules():
        if path == CHANNEL:
            continue
        for node in ast.walk(tree):
            if (isinstance(node, ast.FunctionDef)
                    and "commitment" in node.name):
                offences.append("%s:%d def %s" % (
                    path, node.lineno, node.name
                ))
            elif (isinstance(node, ast.Call)
                    and _callee(node) in ("sha256", "hkdf", "report", "quote")
                    and any(_mentions_dh_value(arg) for arg in
                            node.args + [kw.value for kw in node.keywords])):
                offences.append("%s:%d %s" % (
                    path, node.lineno, ast.unparse(node)
                ))
    assert not offences, (
        "a DH value reaches a quote through repro.sgx.channel.commitment "
        "only:\n  " + "\n  ".join(offences)
    )
