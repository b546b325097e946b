"""Only ``repro.crypto`` knows the wire format of a sealed blob.

Every other package seals and opens through the bytes-in/bytes-out
boundary -- ``AeadKey.seal`` / ``open`` / ``seal_records`` /
``open_records`` -- so a framing decision is a change to one module and
a malformed blob fails closed in one place.  The one exception is
``scone/fs_shield.py``, which keeps a chunk's tag in the protection
file, detached from the nonce and body in the untrusted store, and so
has to assemble a ``Ciphertext`` itself (DESIGN section 10).
"""

import ast
import os

import repro

SRC = os.path.dirname(repro.__file__)
CIPHERTEXT_ALLOWED = {os.path.join("scone", "fs_shield.py")}
BATCH_METHODS = {"encrypt_batch", "decrypt_batch"}


def _names(tree):
    """Every identifier a module mentions: names, attributes, imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield node.lineno, alias.name.rpartition(".")[2]


def test_no_module_outside_crypto_names_a_framing():
    offences = []
    for folder, _dirs, files in os.walk(SRC):
        for name in sorted(files):
            path = os.path.relpath(os.path.join(folder, name), SRC)
            if not name.endswith(".py") or path.split(os.sep)[0] == "crypto":
                continue
            with open(os.path.join(SRC, path), encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), filename=path)
            for lineno, identifier in sorted(_names(tree)):
                if (
                    identifier == "SealedBatch"
                    or identifier in BATCH_METHODS
                    or (identifier == "Ciphertext"
                        and path not in CIPHERTEXT_ALLOWED)
                ):
                    offences.append(
                        "%s:%d names %s" % (path, lineno, identifier)
                    )
    assert not offences, (
        "seal and open through AeadKey.seal / AeadKey.open (one payload) "
        "or AeadKey.seal_records / AeadKey.open_records (a record list) "
        "instead of the framing classes:\n  " + "\n  ".join(offences)
    )
