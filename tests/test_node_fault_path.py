"""A machine failure has one path, and seeded node faults one step.

A node crash or partition means the same thing to every plane placed
on a topology only if nothing side-steps
:meth:`repro.cluster.nodes.NodeTopology.crash_node` /
``partition_node``: a bare ``ClusterNode.crash()`` kills the enclaves
of every fleet on the node without telling any of them, so none counts
the failure or latches its onset.  Likewise every seeded node fault is
drawn in :func:`repro.chaos.wrappers.node_fault_step`, so the chaos
wrapper and the stream plane's ``pump`` cannot drift apart.

The scan is syntactic (standard library ``ast``): a ``ClusterNode`` is
reached through an expression that names a node (``node``,
``topology.node(name)``, ``member.node``, ``self.nodes[i]``), which
keeps ``server.crash()``, ``service.crash()`` and ``str.partition``
out of it.  The primitives' own unit tests are the only other callers.
"""

import ast
import os

import repro

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(repro.__file__)
SCANNED = [SRC] + [
    os.path.join(REPO, folder)
    for folder in ("tests", "benchmarks", "examples", "tools")
]
NODE_PRIMITIVES = {"crash", "partition"}
CHAOS_DRAWS = {"crashes_node", "partition_for_node"}
# (path relative to the repo, enclosing qualified-name prefix)
ALLOWED = {
    "crash": {
        ("src/repro/cluster/nodes.py", "NodeTopology.crash_node"),
        ("tests/cluster/test_nodes.py", "TestClusterNode."),
    },
    "partition": {
        ("src/repro/cluster/nodes.py", "NodeTopology.partition_node"),
        ("tests/cluster/test_nodes.py", "TestClusterNode."),
    },
    "crashes_node": {
        ("src/repro/chaos/wrappers.py", "node_fault_step"),
        ("tests/chaos/test_injector.py", "TestNodeFaults."),
    },
    "partition_for_node": {
        ("src/repro/chaos/wrappers.py", "node_fault_step"),
        ("tests/chaos/test_injector.py", "TestNodeFaults."),
    },
}


def _names_a_node(receiver):
    return "node" in ast.unparse(receiver).lower()


def fault_calls(source, filename="<source>"):
    """``(lineno, qualified name of the enclosing def, method)`` for
    every node-primitive call on a node and every chaos node draw."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            scope = scope + (node.name,)
        if isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute):
            method = node.func.attr
            if method in CHAOS_DRAWS or (
                    method in NODE_PRIMITIVES
                    and _names_a_node(node.func.value)):
                found.append((node.lineno, ".".join(scope), method))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source, filename=filename), ())
    return found


def _allowed(path, qualname, method):
    return any(
        path == allowed_path and (
            qualname == prefix or qualname.startswith(prefix)
        )
        for allowed_path, prefix in ALLOWED[method]
    )


def test_scanner_sees_node_faults_and_nothing_else():
    source = '''
def crash_everything(topology, member, plane, server, service, name):
    node.crash()
    topology.node("node-1").partition(until=5.0)
    member.node.crash()
    plane.topology.nodes[0].crash()
    injector.crashes_node("node-0", 3)
    plane.chaos.partition_for_node("node-0", 3)
    server.crash()
    service.crash()
    name.partition(".")
    topology.crash_node("node-1")
'''
    assert [(line, method) for line, _q, method in fault_calls(source)] == [
        (3, "crash"), (4, "partition"), (5, "crash"), (6, "crash"),
        (7, "crashes_node"), (8, "partition_for_node"),
    ]
    assert {q for _l, q, _m in fault_calls(source)} == {"crash_everything"}
    assert _allowed(
        "src/repro/cluster/nodes.py", "NodeTopology.crash_node", "crash"
    )
    assert not _allowed(
        "src/repro/cluster/nodes.py", "NodeTopology.partition_node", "crash"
    )
    assert not _allowed("src/repro/plane.py", "ShardFleet.fail_node", "crash")


def test_node_faults_take_the_one_path():
    offences = []
    for root in SCANNED:
        for folder, _dirs, files in os.walk(root):
            for name in sorted(files):
                if not name.endswith(".py"):
                    continue
                full = os.path.join(folder, name)
                path = os.path.relpath(full, REPO).replace(os.sep, "/")
                with open(full, encoding="utf-8") as handle:
                    calls = fault_calls(handle.read(), filename=path)
                offences.extend(
                    "%s:%d %s calls .%s()" % (path, line, qualname, method)
                    for line, qualname, method in calls
                    if not _allowed(path, qualname, method)
                )
    assert not offences, (
        "crash or partition a node through NodeTopology.crash_node / "
        "partition_node (a plane: plane.fleet.fail_node / partition_node), "
        "and draw seeded node faults only in "
        "repro.chaos.wrappers.node_fault_step:\n  " + "\n  ".join(offences)
    )
