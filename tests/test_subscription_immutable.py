"""Nothing under ``src/repro`` changes a subscription after it is built.

``serialize_subscription`` keeps a subscription's encoded bytes on the
object, and a checkpoint seals those instead of re-encoding.  The class
refuses re-assignment of its own attributes, but its ``constraints``
mapping is a plain dict (``matches()`` iterates it on the hottest path
in the repository, so it is not wrapped); this test is what keeps code
from storing through it, or from binding ``subscriber`` /
``subscription_id`` / ``wire_memo`` on anything outside the two places
that own them.  A constraint's carried comparisons (``test``, what
``matches()`` calls, and ``covering``, what ``covers()`` reads) are
held the same way: a frozen dataclass refuses plain assignment, and
this scan refuses the ``object.__setattr__`` that would get around it
anywhere but in ``Constraint.__post_init__``.
"""

import ast
import os

import repro

SRC = os.path.dirname(repro.__file__)
SUBSCRIPTION_FIELDS = {"subscription_id", "subscriber", "constraints",
                       "wire_memo"}
DERIVED = {"test", "covering"}
FIELDS = SUBSCRIPTION_FIELDS | DERIVED
MUTATORS = {"pop", "popitem", "update", "clear", "setdefault", "__setitem__",
            "__delitem__"}
SETTERS = {"setattr", "__setattr__", "_set"}
# (module, function) pairs that may bind a field: the constructor, and
# the encoder that fills the memo it is the only source of.
OWNERS = {
    (os.path.join("scbr", "filters.py"), "__init__"): SUBSCRIPTION_FIELDS,
    (os.path.join("scbr", "filters.py"), "__post_init__"): DERIVED,
    (os.path.join("scbr", "messages.py"), "serialize_subscription"):
        {"wire_memo"},
}


def _is_constraints(node):
    return isinstance(node, ast.Attribute) and node.attr == "constraints"


def _stores(tree):
    """``(lineno, function, what)`` for every write this test forbids."""
    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        written = isinstance(
            getattr(node, "ctx", None), (ast.Store, ast.Del)
        )
        if isinstance(node, ast.Attribute) and node.attr in FIELDS and written:
            yield node.lineno, function, node.attr
        if isinstance(node, ast.Subscript) and _is_constraints(node.value) \
                and written:
            yield node.lineno, function, "constraints[...]"
        if isinstance(node, ast.Call):
            called = node.func
            name = getattr(called, "attr", None) or getattr(called, "id", None)
            if name in MUTATORS and _is_constraints(
                getattr(called, "value", None)
            ):
                yield node.lineno, function, "constraints.%s()" % name
            # setattr(s, "subscriber", ...), object.__setattr__(s, ...)
            # and filters.py's alias of it, ``_set``.
            if name in SETTERS:
                for argument in node.args[:2]:
                    if isinstance(argument, ast.Constant) \
                            and argument.value in FIELDS:
                        yield node.lineno, function, argument.value
        for child in ast.iter_child_nodes(node):
            yield from visit(child, function)

    yield from visit(tree, None)


def test_no_module_writes_to_a_built_subscription():
    offences = []
    for folder, _dirs, files in os.walk(SRC):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.relpath(os.path.join(folder, name), SRC)
            with open(os.path.join(SRC, path), encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), filename=path)
            for lineno, function, what in _stores(tree):
                if what not in OWNERS.get((path, function), ()):
                    offences.append("%s:%d writes %s" % (path, lineno, what))
    assert not offences, (
        "a Subscription is immutable once built (its encoded bytes are "
        "kept and sealed as they are); build a new one instead:\n  "
        + "\n  ".join(offences)
    )


def test_the_scan_sees_each_kind_of_write():
    source = (
        "def f(s):\n"
        "    s.subscriber = 'x'\n"
        "    s.constraints['a'] = 1\n"
        "    del s.constraints['a']\n"
        "    s.constraints.update({})\n"
        "    object.__setattr__(s, 'wire_memo', b'')\n"
        "    setattr(s, 'subscription_id', 1)\n"
        "    s.subscription_id += 1\n"
        "    object.__setattr__(s.constraints['a'], 'test', max)\n"
        "    object.__setattr__(s.constraints['a'], 'covering', {})\n"
    )
    found = [what for _line, _fn, what in _stores(ast.parse(source))]
    assert found == [
        "subscriber", "constraints[...]", "constraints[...]",
        "constraints.update()", "wire_memo", "subscription_id",
        "subscription_id", "test", "covering",
    ]
