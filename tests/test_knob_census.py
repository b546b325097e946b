"""``tools/knob_census.py`` finds its own surfaces and counts strictly.

The census (``make knobs``) is only as good as the constructors it
wraps: discovery must reach every class under ``src/repro`` that owns a
constructor, skip classes that only inherit one, and never name a class
the package does not define.  Starts no subprocess.
"""

import ast
import dataclasses
import importlib.util
import os
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _census():
    spec = importlib.util.spec_from_file_location(
        "knob_census", os.path.join(ROOT, "tools", "knob_census.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


census = _census()
SURFACES = census.discover(ROOT)
FOUND = {(module, label) for module, label, _function in SURFACES}


def test_discovery_finds_init_dataclass_and_build_surfaces():
    assert ("repro.service.frontdoor", "SecureFrontDoor") in FOUND
    assert ("repro.chaos.injector", "ChaosConfig") in FOUND
    assert ("repro.cluster.nodes", "NodeTopology.build") in FOUND
    params = {
        (module, label): [p.name for p in census.parameters(function)]
        for module, label, function in SURFACES
    }
    assert params[("repro.cluster.nodes", "NodeTopology.build")][0] \
        == "count"


def test_discovery_skips_an_inherited_init():
    assert ("repro.genpack.monitor", "ResourceMonitor") in FOUND
    assert ("repro.genpack.monitor", "RequestOnlyMonitor") not in FOUND

    module = types.ModuleType("probe")

    class Base:
        def __init__(self, size=1):
            self.size = size

    class Child(Base):
        pass

    @dataclasses.dataclass
    class Record:
        value: int = 0

    for cls in (Base, Child, Record):
        cls.__module__ = "probe"
        setattr(module, cls.__name__, cls)
    module.Imported = types.SimpleNamespace   # defined elsewhere
    assert [label for label, *_rest in census.surfaces(module)] \
        == ["test_discovery_skips_an_inherited_init.<locals>.Base",
            "test_discovery_skips_an_inherited_init.<locals>.Record"]


def test_every_surface_is_a_class_its_module_defines():
    defined = {}
    for module in {module for module, _label, _function in SURFACES}:
        path = os.path.join(ROOT, "src", *module.split("."))
        path = (os.path.join(path, "__init__.py") if os.path.isdir(path)
                else path + ".py")
        with open(path) as handle:
            tree = ast.parse(handle.read())
        defined[module] = {
            node.name for node in tree.body
            if isinstance(node, ast.ClassDef)
        }
    for module, label, _function in SURFACES:
        assert label.split(".")[0] in defined[module], (module, label)
    assert not any(label == "FrontDoorConfig" for _m, label in FOUND)


def test_a_default_matches_only_a_value_of_its_own_type():
    is_default = census._is_default
    assert is_default(0.0, 0.0)
    assert is_default(None, None)
    assert is_default((1, 2), (1, 2))
    assert not is_default(0, 0.0)
    assert not is_default(0.0, 0)
    assert not is_default(False, 0)
    assert not is_default(1, True)
    assert not is_default(0.5, 0.25)
