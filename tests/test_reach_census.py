"""``make reach`` keys every def the way its recorder sees the code.

``tools/knob_census.py --reach`` profiles each run and maps every code
object it saw called to an AST definition by (file, first line,
decorators included).  Discovery must find every ``def`` under
``src/repro``, and a decorated def, a nested def and a method must each
map to the code object a call of it runs.  Starts no subprocess.
"""

import ast
import importlib.util
import inspect
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "repro")


def _census():
    spec = importlib.util.spec_from_file_location(
        "knob_census", os.path.join(ROOT, "tools", "knob_census.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


census = _census()
FOUND = census.definitions(ROOT)


def _sources():
    for folder, _dirs, files in os.walk(PACKAGE):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                with open(path) as handle:
                    yield path, handle.read()


def _found(code):
    return FOUND[census.code_key(code, ROOT)]


def test_discovery_finds_every_def_of_the_package():
    defs = sum(
        isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for _path, source in _sources()
        for node in ast.walk(ast.parse(source))
    )
    assert len(FOUND) == defs
    assert all(definition.size >= 2 for definition in FOUND.values())


def test_every_compiled_def_maps_to_its_definition():
    """Each function code object the compiler makes -- methods, nested
    and decorated defs alike -- lands on the def of the same qualname."""
    for path, source in _sources():
        stack = [compile(source, path, "exec")]
        while stack:
            code = stack.pop()
            stack.extend(const for const in code.co_consts
                         if hasattr(const, "co_code"))
            if code.co_name.startswith("<") or (
                    code.co_flags & 0x02 == 0):     # not a function
                continue
            assert _found(code).qualname == code.co_qualname, (
                path, code.co_firstlineno)


def test_a_method_a_decorated_and_a_nested_def_map_at_run_time():
    from repro.cluster.nodes import NodeTopology
    from repro.microservices.eventbus import EventBus
    from repro.sim.events import Environment, Event

    method = _found(Environment.run.__code__)
    assert method.name == "repro.sim.events.Environment.run"

    decorated = _found(Event.triggered.fget.__code__)
    assert decorated.qualname == "Event.triggered"
    with open(os.path.join(ROOT, decorated.path)) as handle:
        first = handle.read().splitlines()[decorated.line - 1]
    assert first.strip() == "@property"
    # unwrap: ``make knobs`` runs tier-1 with constructors wrapped.
    build = inspect.unwrap(NodeTopology.build.__func__)
    assert _found(build.__code__).qualname == "NodeTopology.build"

    bus = EventBus(Environment())
    unsubscribe = bus.subscribe("topic", lambda _event: None)
    nested = _found(unsubscribe.__code__)
    assert nested.qualname == "EventBus.subscribe.<locals>.unsubscribe"


def test_code_outside_the_package_has_no_key():
    assert census.code_key(_census.__code__, ROOT) is None


def test_a_raise_in_a_nested_def_does_not_tag_its_parent():
    outer = ast.parse(
        "def outer():\n"
        "    def inner():\n"
        "        raise ValueError\n"
        "    return inner\n"
    ).body[0]
    assert not census._raises(outer)
    assert census._raises(outer.body[0])


def test_every_section_16_name_resolves_to_a_def():
    tagged, stale = census.tags(ROOT, FOUND)
    assert stale == []
    assert census.section16_names(ROOT)
    kept = {FOUND[key].name for key, tags in tagged.items()
            if "s16" in tags}
    assert "repro.scbr.sharding.coord_unsubscribe" in kept
