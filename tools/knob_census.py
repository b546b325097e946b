"""Which construction values of the package any run sets, which
definitions any run reaches, and what crosses the enclave boundary.

A *settable value* is one parameter of a constructor.  The surfaces are
found, not listed: every class defined under ``src/repro`` that defines
its own ``__init__`` or is a ``@dataclass``, plus ``NodeTopology.build``
(``discover``).  This tool counts their values, then runs tier-1,
``repro.cli smoke``, ``benchmarks.perf --seconds 1`` (all five
workloads) and every ``examples/*.py`` with each surface's constructor
wrapped, and prints, per value, which caller groups (``tests``,
``benchmarks``, ``benchmarks/perf``, ``examples``, ``tools``) ever pass
it a non-default value.  A value no group sets is a setting that every
reader must rule out and that nothing covers.

The wrapping is done by a ``sitecustomize`` module on ``PYTHONPATH``
(written to a temporary directory), so it reaches every interpreter a
run starts -- the benchmark's worker processes included -- and it
patches each ``repro`` module right after it is first imported.  No
source file is edited.  A call is attributed to its nearest frame
outside ``src/repro`` inside the checkout, the immediate caller
included.  A call made by a module body under ``src/repro`` (a
library constant, built once at import) and a call with no frame in
the checkout outside ``src/repro`` are attributed to ``src``.

It measures the checkout it runs in: for a before/after, run the same
file in a parent clone (``cd parent && python3
<repo>/tools/knob_census.py``).  Standard library only.

With ``--reach`` it asks the same of code (``make reach``): every
``def`` under ``src/repro``, found by AST (``definitions``), is keyed by
its file and first line, decorators included -- the ``co_firstlineno``
of the code object a call runs.  The same ``sitecustomize`` then
profiles each run with ``cProfile`` (call events on code objects) and
keeps the keys of the package's code objects it saw called.  The runs
are tier-1, ``repro.cli smoke``, ``smoke --chaos``, ``gate``, ``run
all``, ``benchmarks.perf --seconds 1``, every example and the person-run
subcommands ``trace`` and ``metrics a10``; ``run all`` and ``metrics``
write their artifacts to a temporary directory, not ``benchmarks/out``.
The report gives, per definition, its size in lines, the runs that
reach it and its tags, then lists the definitions only tier-1 reaches
and those nothing reaches.  A tag names why a definition may stay
anyway: ``raise`` (it raises: a fail-closed or error path), ``cli`` (a
``repro.cli`` subcommand), ``boundary`` (an entry point of
``benchmarks/perf/tracing.BOUNDARIES``) and ``s16`` (DESIGN section 16
names it with its reason).

With ``--surface`` it asks what crosses the enclave boundary (``make
surface``, DESIGN section 17).  The same ``sitecustomize`` wraps
``Enclave.ecall`` -- noting per enclave code, entry point and parameter
the types the host passed -- the enclave context's platform ``seal`` /
``unseal``, ``AeadKey.open`` / ``open_records`` and ``json.loads``, so a
payload opened inside an ECALL and parsed notes each field read, with
the reading def and line.  The runs are tier-1, ``repro.cli smoke``,
``gate`` and ``benchmarks.perf --seconds 1``.  The rows themselves
come from the code, not the runs: entry points by import (``ecall_rows``)
and each AAD label's and platform seal's fields off the AST at its seal
sites (``sealed_formats``).  The report gives each parameter one kind and
each field its readers, how they use it (compared with enclave state,
checked, adopted into it, used) and a flag (unread; adopted from a blob
the host stores and compared with nothing).

Usage: ``python3 tools/knob_census.py [--runs tier1,smoke,perf,examples]``
(``make knobs``); ``python3 tools/knob_census.py --reach [--runs ...]``
(``make reach``); ``python3 tools/knob_census.py --surface [--runs ...]``
(``make surface``).
"""

import argparse
import ast
import atexit
import collections
import cProfile
import dataclasses
import functools
import glob
import importlib
import inspect
import json
import os
import pkgutil
import re
import subprocess
import sys
import tempfile

PACKAGE = "repro"
# Constructors that are not a class's ``__init__``: (class, attribute).
EXTRA = {"repro.cluster.nodes": (("NodeTopology", "build"),)}
GROUPS = ("tests", "benchmarks", "benchmarks/perf", "examples", "tools",
          "src")
MAX_SITES = 3       # call sites kept per (value, group) for --sites
RUNS = ("tier1", "smoke", "perf", "examples")
REACH_RUNS = ("tier1", "smoke", "chaos", "gate", "run", "perf", "examples",
              "trace", "metrics")
OUT_VAR = "KNOB_CENSUS_OUT"
ROOT_VAR = "KNOB_CENSUS_ROOT"
GROUP_VAR = "KNOB_CENSUS_REACH"     # set (to the run's name) in reach mode
HARNESS = "benchmarks._harness"     # writes the experiment artifacts
ARTIFACT_RUNS = ("run", "metrics")  # the runs that write them
SITECUSTOMIZE = """\
import importlib.util
_spec = importlib.util.spec_from_file_location("_knob_census", %r)
_census = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_census)
_census.install()
"""


def parameters(function):
    """The settable parameters of a constructor (``self``/``cls`` and
    ``*args``/``**kwargs`` excluded)."""
    signature = inspect.signature(function)
    return [
        param for param in list(signature.parameters.values())[1:]
        if param.kind not in (param.VAR_POSITIONAL, param.VAR_KEYWORD)
    ]


def surfaces(module):
    """(label, class, attribute, function) of every constructor that
    ``module`` itself defines, in definition order."""
    found = []
    for cls in list(vars(module).values()):
        if not inspect.isclass(cls) or cls.__module__ != module.__name__:
            continue
        own = vars(cls)
        if "__init__" in own or "__dataclass_fields__" in own:
            found.append((cls.__qualname__, cls, "__init__",
                          cls.__init__))
    for owner, attribute in EXTRA.get(module.__name__, ()):
        cls = getattr(module, owner)
        raw = vars(cls)[attribute]
        found.append(("%s.%s" % (owner, attribute), cls, attribute,
                      raw.__func__ if isinstance(raw, classmethod) else raw))
    return found


def modules(root):
    """Every module name of the package under ``root/src``."""
    package = os.path.join(root, "src", PACKAGE)
    names = [PACKAGE] + [
        info.name for info in pkgutil.walk_packages([package],
                                                    PACKAGE + ".")
    ]
    return sorted(name for name in names if not name.endswith("__main__"))


def discover(root):
    """(module, label, function) of every surface under ``root/src``."""
    source = os.path.join(root, "src")
    if source not in sys.path:
        sys.path.insert(0, source)
    return [
        (name, label, function)
        for name in modules(root)
        for label, _cls, _attr, function in surfaces(
            importlib.import_module(name))
    ]


# -- reach: every def, keyed as its code object is ---------------------

Definition = collections.namedtuple(
    "Definition", "path line name qualname size raises"
)


def _defs(node, prefix=""):
    """(node, qualname) of every def under ``node``, qualnames spelt as
    Python spells them (``outer.<locals>.inner``)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = prefix + child.name
            yield child, name
            yield from _defs(child, name + ".<locals>.")
        elif isinstance(child, ast.ClassDef):
            yield from _defs(child, prefix + child.name + ".")
        else:
            yield from _defs(child, prefix)


def _raises(node):
    """Whether the def's own body (nested defs excluded) raises."""
    stack = list(node.body)
    while stack:
        child = stack.pop()
        if isinstance(child, ast.Raise):
            return True
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(child))
    return False


def _module_name(rel):
    """The dotted module of a ``src/...py`` path."""
    module = rel[len("src/"):-len(".py")].replace("/", ".")
    return module[:-len(".__init__")] if module.endswith(
        ".__init__") else module


def definitions(root):
    """Every ``def`` under ``root/src/repro``: ``"path:line"`` ->
    Definition, ``line`` being its first line, decorators included."""
    found = {}
    for folder, _dirs, files in os.walk(os.path.join(root, "src", PACKAGE)):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(folder, name)
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            module = _module_name(rel)
            with open(path) as handle:
                tree = ast.parse(handle.read(), path)
            for node, qualname in _defs(tree):
                line = min([node.lineno]
                           + [deco.lineno for deco in node.decorator_list])
                found["%s:%d" % (rel, line)] = Definition(
                    rel, line, "%s.%s" % (module, qualname), qualname,
                    node.end_lineno - line + 1, _raises(node),
                )
    return found


def _importable(root):
    for path in (os.path.join(root, "src"), root):
        if path not in sys.path:
            sys.path.insert(0, path)


def resolved_key(dotted, root):
    """The ``definitions`` key of the def a dotted name resolves to,
    through re-exports, properties and wrappers; None if it resolves to
    no def of the package."""
    _importable(root)
    from benchmarks.perf.tracing import resolve

    try:
        owner, attribute = resolve(dotted)
    except (ImportError, AttributeError):
        return None
    target = inspect.getattr_static(owner, attribute)
    if isinstance(target, property):
        target = target.fget
    target = inspect.unwrap(getattr(target, "__func__", target))
    code = getattr(target, "__code__", None)
    return code_key(code, root) if code is not None else None


def section16_names(root):
    """The definitions DESIGN section 16 keeps, one bullet each, named
    as ``Definition.name`` spells them (module + qualname)."""
    names, inside = [], False
    with open(os.path.join(root, "DESIGN.md")) as handle:
        for line in handle:
            if line.startswith("## "):
                inside = line.startswith("## 16.")
            elif inside:
                match = re.match(r"- `(repro\.[\w.<>]+)`", line)
                if match:
                    names.append(match.group(1))
    return names


def tags(root, found):
    """Each definition's tags (``raise``, ``cli``, ``boundary``,
    ``s16``), and the section-16 names that name no def."""
    _importable(root)
    from benchmarks.perf.tracing import BOUNDARIES

    tagged = {key: set() for key in found}
    for key, definition in found.items():
        if definition.raises:
            tagged[key].add("raise")
        if definition.path == "src/%s/cli.py" % PACKAGE:
            tagged[key].add("cli")
    for _layer, name, *_rest in BOUNDARIES:
        key = resolved_key(name, root)
        if key in tagged:
            tagged[key].add("boundary")
    by_name = {definition.name: key for key, definition in found.items()}
    stale = []
    for name in section16_names(root):
        if name in by_name:
            tagged[by_name[name]].add("s16")
        else:
            stale.append(name)
    return tagged, stale


# -- the in-process recorder (loaded by the generated sitecustomize) ----

_calls = {}         # "module:label" -> calls
_set = {}           # "module:label" -> {param: {group: [count, [sites]]}}
_EMPTY = inspect.Parameter.empty


def _is_default(value, default):
    if value is default:
        return True
    try:
        return type(value) is type(default) and bool(value == default)
    except Exception:
        return False


def _attribute(frame, root):
    """(group, "file:line") of the nearest frame outside ``src/repro``."""
    library = os.path.join(root, "src", PACKAGE) + os.sep
    this = os.path.abspath(__file__)
    while frame is not None:
        path = frame.f_code.co_filename
        if not path.startswith("<"):
            path = os.path.abspath(path)
        if path.startswith(library) and frame.f_code.co_name == "<module>":
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            return "src", "%s:%d" % (rel, frame.f_lineno)
        if (path.startswith(root + os.sep)
                and not path.startswith(library) and path != this):
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            if rel.startswith("benchmarks/perf/"):
                group = "benchmarks/perf"
            else:
                group = rel.split("/", 1)[0]
            return group, "%s:%d" % (rel, frame.f_lineno)
        frame = frame.f_back
    return "src", "-"


def _defaults(function):
    """(positional, by_name): each parameter's (name, default) in
    positional order, and each default by name."""
    params = parameters(function)
    positional = [(param.name, param.default) for param in params
                  if param.kind is not param.KEYWORD_ONLY]
    return positional, {param.name: param.default for param in params}


def _record(key, spec, args, kwargs, frame, root):
    _calls[key] = _calls.get(key, 0) + 1
    positional, by_name = spec
    changed = []
    for (name, default), value in zip(positional, args[1:]):
        if default is not _EMPTY and not _is_default(value, default):
            changed.append(name)
    for name, value in kwargs.items():
        default = by_name.get(name, _EMPTY)
        if default is not _EMPTY and not _is_default(value, default):
            changed.append(name)
    if not changed:
        return
    group, site = _attribute(frame, root)
    for name in changed:
        entry = _set.setdefault(key, {}).setdefault(name, {}).setdefault(
            group, [0, []]
        )
        entry[0] += 1
        if site not in entry[1] and len(entry[1]) < MAX_SITES:
            entry[1].append(site)


def _wrap(module, root):
    for label, cls, attribute, function in surfaces(module):
        key = "%s:%s" % (module.__name__, label)
        spec = _defaults(function)

        def wrapper(*args, _key=key, _spec=spec, _function=function,
                    **kwargs):
            try:
                _record(_key, _spec, args, kwargs, sys._getframe(1), root)
            except Exception:
                pass    # recording must never change what the call does
            return _function(*args, **kwargs)

        functools.update_wrapper(wrapper, function)
        is_classmethod = isinstance(vars(cls).get(attribute), classmethod)
        setattr(cls, attribute,
                classmethod(wrapper) if is_classmethod else wrapper)


class _Finder:
    """Calls ``after(module)`` right after the first import of each
    module whose name ``match`` accepts."""

    def __init__(self, match, after):
        self.match = match
        self.after = after
        self.seen = set()

    def find_spec(self, name, path=None, target=None):
        if name in self.seen or not self.match(name):
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(name, path, target)
            if spec is not None:
                break
        else:
            return None
        self.seen.add(name)
        execute = spec.loader.exec_module
        after = self.after

        def exec_module(module):
            execute(module)
            after(module)

        spec.loader.exec_module = exec_module
        return spec


def _dump(directory):
    path = os.path.join(directory, "census-%d.json" % os.getpid())
    with open(path, "w") as handle:
        json.dump({"calls": _calls, "set": _set}, handle)


def code_key(code, root):
    """The ``definitions`` key of a code object; None outside the
    package."""
    path = code.co_filename
    if not os.path.isabs(path):
        path = os.path.join(root, path)
    if not path.startswith(os.path.join(root, "src", PACKAGE) + os.sep):
        return None
    return "%s:%d" % (os.path.relpath(path, root).replace(os.sep, "/"),
                      code.co_firstlineno)


def _record_reach(directory, root, group):
    """Profile this interpreter; at exit, dump the package's code
    objects it saw called."""
    profiler = cProfile.Profile()

    def dump():
        profiler.disable()
        reached = {
            code_key(entry.code, root) for entry in profiler.getstats()
            if not isinstance(entry.code, str)
        }
        reached.discard(None)
        path = os.path.join(directory, "reach-%d.json" % os.getpid())
        with open(path, "w") as handle:
            json.dump({"group": group, "reached": sorted(reached)}, handle)

    atexit.register(dump)
    profiler.enable()


def install():
    """Start recording in this interpreter (no-op without the env)."""
    directory = os.environ.get(OUT_VAR)
    root = os.environ.get(ROOT_VAR)
    if not directory or not root:
        return
    if os.environ.get(SURFACE_VAR):
        _record_surface(directory, root)
        return
    group = os.environ.get(GROUP_VAR)
    if group is None:
        sys.meta_path.insert(0, _Finder(
            lambda name: name.split(".", 1)[0] == PACKAGE,
            lambda module: _wrap(module, root),
        ))
        atexit.register(_dump, directory)
        return
    if group in ARTIFACT_RUNS:
        # Full runs rewrite benchmarks/out; keep the checkout as it is.
        artifacts = os.path.join(directory, "artifacts")
        sys.meta_path.insert(0, _Finder(
            lambda name: name == HARNESS,
            lambda module: setattr(module, "_OUT_DIR", artifacts),
        ))
    _record_reach(directory, root, group)


# -- surface: what crosses the enclave boundary --------------------------

OPENERS = frozenset(("open", "open_records", "open_record", "open_batch",
                     "unseal"))
SEALERS = frozenset(("seal", "seal_records"))
SCALARS = frozenset(("int", "float", "bool", "str", "NoneType"))
BOOKKEEPING = re.compile(
    r"(_id|_shard|^token|^position|^vtime|^timestamp|^trace"
    r"|^target_bytes|_budget|^reducers)$"
)
KINDS = ("callable", "live object", "sealed", "plaintext", "bookkeeping")
SURFACE_RUNS = ("tier1", "smoke", "gate", "perf")
SURFACE_VAR = "KNOB_CENSUS_SURFACE"    # set in surface mode
NO_PARAMETER = "-"


def enclave_codes(loaded):
    """label -> entry points of every enclave code the modules in
    ``loaded`` define: each module-level ``EnclaveCode`` (labelled by its
    name), and each module-level ``*_ENTRY_POINTS`` table no such code
    loads (labelled by the table's name: the micro-service table, whose
    codes are named per service)."""
    codes, tables = {}, {}
    for module in loaded:
        for name, value in sorted(vars(module).items()):
            if type(value).__name__ == "EnclaveCode":
                codes[value.name] = value.entry_points
            elif name.endswith("ENTRY_POINTS") and isinstance(value, dict):
                tables[name] = value
    for name, table in sorted(tables.items()):
        if all(table != entries for entries in codes.values()):
            codes[name] = dict(table)
    return dict(sorted(codes.items()))


def package_modules(root):
    """Every module of the package, imported."""
    _importable(root)
    return [importlib.import_module(name) for name in modules(root)]


def ecall_rows(codes):
    """(code, entry point, parameter) of every host-supplied ECALL
    argument, ``-`` for an entry point that takes none."""
    rows = []
    for label, entries in codes.items():
        for entry in sorted(entries):
            names = list(inspect.signature(entries[entry]).parameters)[1:]
            rows.extend((label, entry, name)
                        for name in names or [NO_PARAMETER])
    return rows


# Static analysis over the package's ASTs: the defs by name, what a
# payload expression seals, where a host argument is opened.

class _Package:
    """The package's parsed defs: by key, by qualname and by name."""

    def __init__(self, root):
        self.root = root
        self.nodes = {}         # "path:line" -> FunctionDef
        self.module_of = {}     # "path:line" -> module name
        self.by_name = {}       # bare name -> [keys]
        self.by_qualname = {}   # "module.qualname" -> key
        self.constants = {}     # module -> {NAME: value}
        self.imports = {}       # module -> {local name: "module.name"}
        for folder, _dirs, files in os.walk(os.path.join(root, "src",
                                                         PACKAGE)):
            for filename in sorted(files):
                if filename.endswith(".py"):
                    self._parse(os.path.join(folder, filename))

    def _parse(self, path):
        rel = os.path.relpath(path, self.root).replace(os.sep, "/")
        module = _module_name(rel)
        with open(path) as handle:
            tree = ast.parse(handle.read(), path)
        constants, imports = {}, {}
        for node in tree.body:
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and isinstance(node.value, ast.Constant)):
                constants[node.targets[0].id] = node.value.value
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    imports[alias.asname or alias.name] = "%s.%s" % (
                        node.module, alias.name)
        self.constants[module] = constants
        self.imports[module] = imports
        for node, qualname in _defs(tree):
            line = min([node.lineno]
                       + [deco.lineno for deco in node.decorator_list])
            key = "%s:%d" % (rel, line)
            self.nodes[key] = node
            self.module_of[key] = module
            self.by_name.setdefault(node.name, []).append(key)
            self.by_qualname["%s.%s" % (module, qualname)] = key

    def constant(self, module, name):
        """The value of module-level constant ``name`` as ``module``
        sees it (its own, or one it imports by name)."""
        if name in self.constants.get(module, {}):
            return self.constants[module][name]
        target = self.imports.get(module, {}).get(name)
        if target:
            owner, _dot, attr = target.rpartition(".")
            return self.constants.get(owner, {}).get(attr)
        return None

    def callee(self, key, func):
        """The def key a call's ``func`` names: a module-level function
        of this module or imported by name, or a method whose name only
        one def of the package has; None otherwise."""
        module = self.module_of[key]
        if isinstance(func, ast.Name):
            found = self.by_qualname.get("%s.%s" % (module, func.id))
            target = self.imports.get(module, {}).get(func.id)
            return found or (self.by_qualname.get(target) if target
                             else None)
        if isinstance(func, ast.Attribute):
            keys = self.by_name.get(func.attr, [])
            return keys[0] if len(keys) == 1 else None
        return None


def _assigned(node, name, before=None):
    """Every value assigned to local ``name`` in def ``node`` -- only
    the last one above line ``before`` when one is -- as ``(value,
    index)``: ``index`` is the name's position in a tuple target."""
    values = []
    for child in ast.walk(node):
        if isinstance(child, ast.Assign):
            for target in child.targets:
                if isinstance(target, ast.Name) and target.id == name:
                    values.append((child.lineno, child.value, None))
                elif isinstance(target, ast.Tuple):
                    for index, item in enumerate(target.elts):
                        if isinstance(item, ast.Name) and item.id == name:
                            values.append((child.lineno, child.value, index))
    above = sorted(item for item in values
                   if before is not None and item[0] < before)
    chosen = above[-1:] if above else values
    return [(value, index) for _line, value, index in chosen]


def _string_keys(node, name):
    """Keys of ``name["key"] = ...`` assignments in def ``node``."""
    keys = []
    for child in ast.walk(node):
        if isinstance(child, ast.Assign):
            for target in child.targets:
                if (isinstance(target, ast.Subscript)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == name
                        and isinstance(target.slice, ast.Constant)):
                    keys.append(target.slice.value)
    return keys


def _returns(node):
    return [child.value for child in ast.walk(node)
            if isinstance(child, ast.Return) and child.value is not None]


def payload_fields(package, key, expr, depth=0):
    """(fields, opaque) of what ``expr`` in def ``key`` seals: the keys
    of every literal dict it is built from (through ``json.dumps``,
    ``.encode``, locals, lists of records, ``**`` spreads and the return
    value of a function the package names once), and a description of
    each part that is not such a dict."""
    node = package.nodes[key]
    fields, opaque = [], []

    def visit(value, key, node, depth, index=None):
        if index is not None:
            if isinstance(value, ast.Tuple) and index < len(value.elts):
                visit(value.elts[index], key, node, depth)
            elif isinstance(value, ast.Call) and depth < 3 and (
                    package.callee(key, value.func) is not None):
                target = package.callee(key, value.func)
                for item in _returns(package.nodes[target]):
                    visit(item, target, package.nodes[target], depth + 1,
                          index)
            else:
                opaque.append(_short(value))
            return
        if isinstance(value, ast.Dict):
            for field, item in zip(value.keys, value.values):
                if field is None:
                    visit(item, key, node, depth)
                elif isinstance(field, ast.Constant):
                    fields.append(str(field.value))
            return
        if isinstance(value, (ast.List, ast.Tuple)):
            for item in value.elts:
                visit(item, key, node, depth)
            return
        if isinstance(value, ast.ListComp):
            visit(value.elt, key, node, depth)
            return
        if isinstance(value, ast.BinOp) and any(
                isinstance(side, (ast.List, ast.ListComp))
                for side in (value.left, value.right)):
            visit(value.left, key, node, depth)
            visit(value.right, key, node, depth)
            return
        if isinstance(value, ast.Name):
            values = _assigned(node, value.id, value.lineno)
            for item, index in values:
                visit(item, key, node, depth, index)
            fields.extend(_string_keys(node, value.id))
            if not values:
                opaque.append(value.id)
            return
        if isinstance(value, ast.Call):
            func = value.func
            if isinstance(func, ast.Attribute) and func.attr == "encode":
                visit(func.value, key, node, depth)
                return
            if (isinstance(func, ast.Attribute) and func.attr == "dumps"
                    and value.args):
                visit(value.args[0], key, node, depth)
                return
            target = package.callee(key, func)
            if target is not None and depth < 3:
                found, hidden = len(fields), len(opaque)
                for item in _returns(package.nodes[target]):
                    visit(item, target, package.nodes[target], depth + 1)
                if len(fields) == found:
                    del opaque[hidden:]
                    opaque.append(_short(value))
                return
        opaque.append(_short(value))

    visit(expr, key, node, depth)
    return sorted(set(fields)), sorted(set(opaque))


def _short(expr):
    text = ast.unparse(expr)
    return text if len(text) <= 48 else text[:45] + "..."


def _label_prefix(package, key, aad):
    """The constant an AAD expression starts with, or None."""
    node = package.nodes[key]
    module = package.module_of[key]
    while True:
        if isinstance(aad, ast.BinOp):
            aad = aad.left
        elif isinstance(aad, ast.Name):
            value = package.constant(module, aad.id)
            if isinstance(value, bytes):
                return value
            values = _assigned(node, aad.id, aad.lineno)
            if len(values) != 1 or values[0][1] is not None:
                return None
            aad = values[0][0]
        elif isinstance(aad, ast.Call) and isinstance(aad.func, ast.Name):
            target = package.callee(key, aad.func)
            if target is None or not aad.func.id.endswith("_aad"):
                return None
            returns = _returns(package.nodes[target])
            if len(returns) != 1:
                return None
            key, node, aad = target, package.nodes[target], returns[0]
            module = package.module_of[key]
        elif isinstance(aad, ast.Constant) and isinstance(aad.value, bytes):
            return aad.value
        else:
            return None


def sealed_labels(package):
    """Every AAD label of the package: each module-level bytes constant
    whose name says AAD, and what each module-level ``*_aad`` function's
    result starts with."""
    labels = set()
    for module, constants in package.constants.items():
        for name, value in constants.items():
            if "AAD" in name and isinstance(value, bytes):
                labels.add(value)
    for qualname, key in package.by_qualname.items():
        name = package.nodes[key].name
        if (name.endswith("_aad") and qualname
                == "%s.%s" % (package.module_of[key], name)):
            returns = _returns(package.nodes[key])
            prefix = _label_prefix(package, key, returns[0]) if len(
                returns) == 1 else None
            if prefix is not None:
                labels.add(prefix)
    return labels


def _label_text(prefix):
    return prefix.decode("ascii")


def sealed_formats(root, package=None):
    """label -> {"sites": [...], "fields": [...], "opaque": [...]} for
    every sealed format of the package: each AAD label (its ``seal`` /
    ``seal_records`` sites) and each platform seal (an ``X.seal(...)``
    call whose receiver is the enclave context, labelled
    ``platform:<def>``).  Fields are read off the AST."""
    package = package or _Package(root)
    labels = sealed_labels(package)
    formats = {_label_text(label): {"sites": set(), "fields": set(),
                                    "opaque": set()} for label in labels}
    for key, node in sorted(package.nodes.items()):
        for call in ast.walk(node):
            if not (isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Attribute)
                    and call.func.attr in SEALERS and call.args):
                continue
            receiver = call.func.value
            if isinstance(receiver, ast.Name) and receiver.id == "ctx":
                label = "platform:%s" % node.name
                formats.setdefault(label, {"sites": set(), "fields": set(),
                                           "opaque": set()})
            else:
                aad = call.args[1] if len(call.args) > 1 else next(
                    (kw.value for kw in call.keywords if kw.arg == "aad"),
                    None)
                prefix = None if aad is None else _label_prefix(
                    package, key, aad)
                if prefix not in labels:
                    continue
                label = _label_text(prefix)
            fields, opaque = payload_fields(package, key, call.args[0])
            entry = formats[label]
            entry["sites"].add("%s.%s" % (
                package.module_of[key].split(".", 1)[1], node.name))
            entry["fields"].update(fields)
            entry["opaque"].update(opaque)
    return {label: {part: sorted(values) for part, values in entry.items()}
            for label, entry in sorted(formats.items())}


def format_rows(formats):
    """(label, field) of every sealed field, and ``(part)`` of every
    sealed part that is no literal dict; ``-`` where nothing seals the
    label."""
    rows = []
    for label, entry in formats.items():
        parts = entry["fields"] + ["(%s)" % part for part in entry["opaque"]]
        rows.extend((label, part) for part in parts or [NO_PARAMETER])
    return rows


def _aliases(node, name):
    """``name`` plus every local bound from it in def ``node``: by plain
    assignment, subscript, iteration, or a builtin wrapping it."""
    names = {name}
    changed = True
    while changed:
        changed = False
        for child in ast.walk(node):
            if isinstance(child, ast.Assign):
                source, targets = child.value, child.targets
            elif isinstance(child, (ast.For, ast.comprehension)):
                source, targets = child.iter, [child.target]
            else:
                continue
            if not _derived(source, names):
                continue
            for target in targets:
                for bound in ast.walk(target):
                    if isinstance(bound, ast.Name) and bound.id not in names:
                        names.add(bound.id)
                        changed = True
    return names


def _derived(expr, names):
    if isinstance(expr, ast.Name):
        return expr.id in names
    if isinstance(expr, (ast.Subscript, ast.Attribute)):
        return _derived(expr.value, names)
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name) and \
            expr.func.id in ("list", "tuple", "sorted", "enumerate", "zip",
                             "dict", "bytes", "reversed"):
        return any(_derived(arg, names) for arg in expr.args)
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute) \
            and expr.func.attr in ("items", "values"):
        return _derived(expr.func.value, names)
    return False


def opens_parameter(package, key, index, depth=0):
    """Whether positional parameter ``index`` of def ``key`` (``ctx``
    counted) reaches an opening call -- ``open`` / ``open_records`` /
    ``open_record`` / ``unseal`` on it, or on a local bound from it --
    in the def or in a package function it is handed to."""
    node = package.nodes[key]
    params = [arg.arg for arg in node.args.posonlyargs + node.args.args]
    if index >= len(params):
        return False
    names = _aliases(node, params[index])
    for call in ast.walk(node):
        if not isinstance(call, ast.Call):
            continue
        func = call.func
        if isinstance(func, ast.Attribute) and func.attr in OPENERS and (
                (call.args and _derived(call.args[0], names))
                or _derived(func.value, names)):
            return True
        if depth >= 3:
            continue
        target = package.callee(key, func)
        if target is None:
            continue
        offset = 1 if isinstance(func, ast.Attribute) else 0
        for position, arg in enumerate(call.args):
            if _derived(arg, names) and opens_parameter(
                    package, target, position + offset, depth + 1):
                return True
    return False


def _parents(node):
    parents = {}
    for parent in ast.walk(node):
        for child in ast.iter_child_nodes(parent):
            parents[child] = parent
    return parents


def _mentions(expr, names):
    return any(isinstance(sub, ast.Name) and sub.id in names
               for sub in ast.walk(expr))


def _held_names(node):
    """Locals of def ``node`` that hold enclave state: ``ctx`` and
    ``self``, and every local bound from an expression naming one --
    unless that expression opens or parses a blob."""
    held = {"ctx", "self"}
    changed = True
    while changed:
        changed = False
        for child in ast.walk(node):
            if not isinstance(child, ast.Assign) or not _mentions(
                    child.value, held):
                continue
            if any(isinstance(sub, ast.Call)
                   and isinstance(sub.func, ast.Attribute)
                   and sub.func.attr in OPENERS | {"loads"}
                   for sub in ast.walk(child.value)):
                continue
            for target in child.targets:
                for bound in ast.walk(target):
                    if isinstance(bound, ast.Name) and isinstance(
                            bound.ctx, ast.Store) and bound.id not in held:
                        held.add(bound.id)
                        changed = True
    return held


def _reads(node, field, line):
    """The expressions in def ``node`` at ``line`` that read ``field``
    off a dict: ``x["field"]``, ``x.get("field")``, ``x.pop(...)``."""
    found = []
    for sub in ast.walk(node):
        if not (getattr(sub, "lineno", 0) <= line
                <= getattr(sub, "end_lineno", 0)):
            continue
        if (isinstance(sub, ast.Subscript)
                and isinstance(sub.slice, ast.Constant)
                and sub.slice.value == field):
            found.append(sub)
        elif (isinstance(sub, ast.Call)
              and isinstance(sub.func, ast.Attribute)
              and sub.func.attr in ("get", "pop") and sub.args
              and isinstance(sub.args[0], ast.Constant)
              and sub.args[0].value == field):
            found.append(sub)
    return found


def _stored_into_state(target):
    """Whether an assignment target is enclave state: ``ctx.state[...]``
    or an attribute of ``self``."""
    if isinstance(target, ast.Subscript):
        return _stored_into_state(target.value) or (
            isinstance(target.value, ast.Attribute)
            and target.value.attr == "state")
    if isinstance(target, ast.Attribute):
        return isinstance(target.value, ast.Name) and target.value.id in (
            "ctx", "self")
    return False


def read_use(node, field, line):
    """How def ``node`` uses ``field`` read at ``line``, strongest
    first: ``compared`` (it, or a local bound from it, sits in a
    comparison or a guarding ``if`` / ``assert`` with enclave state, or
    keys a lookup into enclave state), ``checked`` (compared with
    something else only), ``adopted`` (stored into enclave state),
    ``used``; None when no read of it is at that line."""
    reads = _reads(node, field, line)
    if not reads:
        return None
    parents = _parents(node)
    held = _held_names(node)
    exprs = list(reads)
    for read in reads:
        child, parent = read, parents.get(read)
        bound = []
        while isinstance(parent, (ast.Call, ast.BinOp, ast.UnaryOp,
                                  ast.Tuple)):
            if isinstance(parent, ast.Call) and isinstance(
                    parent.func, ast.Attribute):
                if (child in parent.args
                        and parent.func.attr in ("add", "append", "extend")
                        and isinstance(parent.func.value, ast.Name)):
                    bound = [parent.func.value.id]  # collected in a local
                if child not in parent.args or bound:
                    break
            child, parent = parent, parents.get(parent)
        if isinstance(parent, ast.Assign):
            bound = [name.id for target in parent.targets
                     for name in ast.walk(target)
                     if isinstance(name, ast.Name)
                     and isinstance(name.ctx, ast.Store)]
        exprs.extend(sub for sub in ast.walk(node)
                     if isinstance(sub, ast.Name) and sub.id in bound
                     and isinstance(sub.ctx, ast.Load))
    uses = set()
    for expr in exprs:
        child, parent = expr, parents.get(expr)
        while parent is not None and not isinstance(parent, ast.stmt):
            if isinstance(parent, ast.Compare):
                others = [part for part in [parent.left] + parent.comparators
                          if part is not child]
                uses.add("compared" if any(_mentions(part, held)
                                           for part in others)
                         else "checked")
            elif isinstance(parent, ast.Subscript) and child is \
                    parent.slice and _mentions(parent.value, held):
                uses.add("compared")
            elif isinstance(parent, ast.BinOp) and isinstance(
                    parent.op, (ast.Sub, ast.BitAnd, ast.BitXor)) and \
                    _mentions(parent.left if child is parent.right
                              else parent.right, held):
                uses.add("compared")    # a set difference with state
            elif (isinstance(parent, ast.Call)
                  and isinstance(parent.func, ast.Attribute)
                  and child in parent.args
                  and parent.func.attr in ("get", "pop", "contains")
                  and _mentions(parent.func.value, held)):
                uses.add("compared")
            child, parent = parent, parents.get(parent)
        if isinstance(parent, (ast.If, ast.Assert)) and child is \
                parent.test and _mentions(parent.test, held - {expr}):
            uses.add("compared")
        elif isinstance(parent, ast.Assign) and any(
                _stored_into_state(target) for target in parent.targets):
            uses.add("adopted")
        uses.add("used")
    for use in ("compared", "checked", "adopted", "used"):
        if use in uses:
            return use
    return "used"


def session_labels(package, labels):
    """The AAD labels every open site of which opens under a per-session
    transport key (a local bound from a ``derive`` or ``*_transport``
    call), not a key the enclave keeps."""
    sessions, others = set(), set()
    for key, node in package.nodes.items():
        for call in ast.walk(node):
            if not (isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Attribute)
                    and call.func.attr in OPENERS and len(call.args) > 1):
                continue
            prefix = _label_prefix(package, key, call.args[1])
            if prefix not in labels:
                continue
            receiver = call.func.value
            made = _assigned(node, receiver.id, call.lineno) if isinstance(
                receiver, ast.Name) else []
            session = bool(made) and all(
                isinstance(value, ast.Call) and any(
                    word in ast.unparse(value.func)
                    for word in ("derive", "_transport"))
                for value, _index in made)
            (sessions if session else others).add(_label_text(prefix))
    return sessions - others


# -- the in-process surface recorder ------------------------------------

_stack = []         # labels of the enclave codes whose ECALLs are running
_labels_of = {}     # id(EnclaveCode) -> label, or None outside the table
_arguments = {}     # "code|entry|param" -> {type name: type kind}
_opened_by = {}     # "label" -> {codes that opened it in an ECALL}
_read = {}          # "label|field" -> {"code|path:line"}
_opened = {}        # payload bytes opened in the running ECALL -> label
_platform = {}      # platform-sealed ciphertext -> label
_prefixes = []      # (AAD prefix, label), longest first
_signatures = {}
_root = None        # the checkout, for the keys of reading defs


def _code_label(code):
    label = _labels_of.get(id(code), False)
    if label is False:
        loaded = [module for name, module in list(sys.modules.items())
                  if name.split(".", 1)[0] == PACKAGE and module]
        label = next((name for name, entries in
                      enclave_codes(loaded).items()
                      if entries == code.entry_points), None)
        _labels_of[id(code)] = label
    return label


def _type_of(value):
    """(name, kind) of a value the host passed: kind is ``callable``,
    ``object`` (an instance of a class with behaviour), ``record`` (a
    dataclass or named tuple) or ``value`` (builtins)."""
    cls = type(value)
    if (inspect.isfunction(value) or inspect.ismethod(value)
            or inspect.isbuiltin(value)
            or isinstance(value, functools.partial)):
        return cls.__name__, "callable"
    if cls.__module__ == "builtins":
        name = cls.__name__
        if isinstance(value, (list, tuple, set, frozenset)) and value:
            name += "[%s]" % _type_of(next(iter(value)))[0]
        elif isinstance(value, dict) and value:
            name += "[%s]" % _type_of(next(iter(value.values())))[0]
        return name, "value"
    if dataclasses.is_dataclass(value) or isinstance(value, tuple):
        return cls.__name__, "record"
    return cls.__name__, "object"


def _note_arguments(label, entry, function, args, kwargs):
    signature = _signatures.get(function)
    if signature is None:
        signature = _signatures[function] = inspect.signature(function)
    bound = signature.bind_partial(None, *args, **kwargs).arguments
    for name in list(signature.parameters)[1:]:
        types = _arguments.setdefault("%s|%s|%s" % (label, entry, name), {})
        if name in bound:
            kind_name, kind = _type_of(bound[name])
            types[kind_name] = kind
        else:
            types["(default)"] = "value"


class _Tracked(dict):
    """A parsed sealed payload that notes which fields are read, where,
    and by which enclave code."""

    def _note(self, field):
        try:
            frame = sys._getframe(2)
            site = code_key(frame.f_code, _root)
            code = _stack[-1] if _stack else "host"
            _read.setdefault("%s|%s" % (self._label, field), set()).add(
                "%s|%s:%d" % (code, site, frame.f_lineno) if site else code)
        except Exception:
            pass

    def __getitem__(self, field):
        self._note(field)
        return dict.__getitem__(self, field)

    def get(self, field, default=None):
        self._note(field)
        return dict.get(self, field, default)

    def pop(self, field, *default):
        self._note(field)
        return dict.pop(self, field, *default)


def _label_for(aad):
    if not _prefixes:
        _prefixes.extend(sorted(
            ((label.encode("ascii"), label)
             for label in sealed_formats(_root) if ":" not in label),
            key=lambda item: -len(item[0])))
    if isinstance(aad, (bytes, bytearray)):
        for prefix, label in _prefixes:
            if aad.startswith(prefix):
                return label
    return None


def _note_opened(label, payloads):
    if not _stack or label is None:
        return
    _opened_by.setdefault(label, set()).add(_stack[-1])
    for payload in payloads:
        if isinstance(payload, (bytes, bytearray)):
            _opened[bytes(payload)] = label


def _wrap_surface(module):
    """Patch the boundary of an imported module: ECALL entry, the AEAD
    key's seal and open calls, the enclave context's platform seal."""
    name = module.__name__
    if name == PACKAGE + ".sgx.enclave":
        enclave, context = module.Enclave, module.EnclaveContext
        ecall, seal, unseal = enclave.ecall, context.seal, context.unseal

        def surface_ecall(self, entry_point, *args, **kwargs):
            try:
                label = _code_label(self.code)
                function = self.code.entry_points.get(entry_point)
                if label is not None and function is not None:
                    _note_arguments(label, entry_point, function, args,
                                    kwargs)
            except Exception:
                label = None
            if label is None:
                return ecall(self, entry_point, *args, **kwargs)
            _stack.append(label)
            try:
                return ecall(self, entry_point, *args, **kwargs)
            finally:
                _stack.pop()
                if not _stack:
                    _opened.clear()

        def surface_seal(self, data, policy=None):
            blob = seal(self, data, policy)
            try:
                caller = sys._getframe(1).f_code.co_name
                _platform[bytes(blob.ciphertext)] = "platform:" + caller
            except Exception:
                pass
            return blob

        def surface_unseal(self, blob):
            data = unseal(self, blob)
            try:
                _note_opened(_platform.get(bytes(blob.ciphertext)), [data])
            except Exception:
                pass
            return data

        enclave.ecall = functools.update_wrapper(surface_ecall, ecall)
        context.seal = functools.update_wrapper(surface_seal, seal)
        context.unseal = functools.update_wrapper(surface_unseal, unseal)
    elif name == PACKAGE + ".crypto.aead":
        key = module.AeadKey
        opened = key.open, key.open_records

        def surface_open(self, blob, aad, what=None):
            payload = opened[0](self, blob, aad, what)
            _note_opened(_label_for(aad), [payload])
            return payload

        def surface_open_records(self, blob, aad, what=None):
            payloads = opened[1](self, blob, aad, what)
            _note_opened(_label_for(aad), payloads)
            return payloads

        key.open = functools.update_wrapper(surface_open, opened[0])
        key.open_records = functools.update_wrapper(surface_open_records,
                                                    opened[1])


def _record_surface(directory, root):
    """Record the boundary in this interpreter; dump it at exit."""
    global _root
    _root = root
    loads = json.loads

    def surface_loads(text, *args, **kwargs):
        value = loads(text, *args, **kwargs)
        if _opened and isinstance(value, dict):
            raw = text.encode("utf-8") if isinstance(text, str) else text
            label = _opened.get(bytes(raw))
            if label is not None:
                tracked = _Tracked(value)
                tracked._label = label
                return tracked
        return value

    json.loads = surface_loads
    sys.meta_path.insert(0, _Finder(
        lambda name: name in (PACKAGE + ".sgx.enclave",
                              PACKAGE + ".crypto.aead"),
        _wrap_surface,
    ))

    def dump():
        path = os.path.join(directory, "surface-%d.json" % os.getpid())
        with open(path, "w") as handle:
            json.dump({
                "arguments": _arguments,
                "opened": {label: sorted(codes)
                           for label, codes in _opened_by.items()},
                "read": {key: sorted(sites) for key, sites in _read.items()},
            }, handle)

    atexit.register(dump)


# -- the surface report ---------------------------------------------------

def merge_surface(records):
    arguments, opened, read = {}, {}, {}
    for record in records:
        for key, types in record["arguments"].items():
            arguments.setdefault(key, {}).update(types)
        for label, codes in record["opened"].items():
            opened.setdefault(label, set()).update(codes)
        for key, sites in record["read"].items():
            read.setdefault(key, set()).update(sites)
    return arguments, opened, read


def _cell(text):
    return text.replace("|", "\\|")


def _row(cells):
    return "| " + " | ".join(cells) + " |"


def table_cells(line):
    """The cells of one generated table row, unescaped."""
    return [cell.strip().replace("\\|", "|").strip("`")
            for cell in re.split(r"(?<!\\)\|", line.strip())[1:-1]]


def argument_kind(types, opens, name):
    """One kind per ECALL parameter, from the types the host passed and
    whether the entry point opens it."""
    kinds = set(types.values())
    if "callable" in kinds:
        return "callable"
    if opens:
        return "sealed"
    if "object" in kinds:
        return "live object"
    names = {kind.split("[")[0] for kind in types if kind != "(default)"}
    if names and names <= SCALARS | {"tuple"} and BOOKKEEPING.search(name):
        return "bookkeeping"
    return "plaintext"


def surface_tables(root, arguments, opened, read):
    """The ECALL table and the sealed-format table, as markdown lines."""
    package = _Package(root)
    codes = enclave_codes(package_modules(root))
    lines = ["### ECALL parameters", "",
             _row(["code", "entry point", "parameter", "types passed",
                   "kind", "flag"]),
             "|---|---|---|---|---|---|"]
    counts = collections.Counter()
    for label, entry, name in ecall_rows(codes):
        function = inspect.unwrap(codes[label][entry])
        if name == NO_PARAMETER:
            lines.append(_row([label, entry, NO_PARAMETER, "", "", ""]))
            continue
        types = arguments.get("%s|%s|%s" % (label, entry, name), {})
        index = list(inspect.signature(function).parameters).index(name)
        kind = argument_kind(types, opens_parameter(
            package, code_key(function.__code__, root), index), name)
        counts[kind] += 1
        flag = {"callable": "host code runs inside",
                "live object": "host object inside"}.get(kind, "")
        lines.append(_row([label, entry, name,
                           ", ".join(sorted(types)) or "not passed",
                           kind, flag]))
    lines += ["", "codes %d; entry points %d; parameters %d (%s)" % (
        len(codes), sum(len(entries) for entries in codes.values()),
        sum(counts.values()),
        ", ".join("%s %d" % (kind, counts[kind]) for kind in KINDS)), ""]

    formats = sealed_formats(root, package)
    sessions = session_labels(package, {
        label.encode("ascii") for label in formats if ":" not in label})
    lines += ["### Sealed formats", "",
              _row(["label", "field", "sealed at", "opened by", "read by",
                    "use", "flag"]),
              "|---|---|---|---|---|---|---|"]
    flagged = 0
    for label, field in format_rows(formats):
        sites = read.get("%s|%s" % (label, field), set())
        readers, uses = set(), set()
        for site in sites:
            code, _bar, where = site.partition("|")
            readers.add(code)
            if code == "host" or not where:
                continue
            key, _colon, line = where.rpartition(":")
            use = key in package.nodes and read_use(
                package.nodes[key], field, int(line))
            if use:
                uses.add(use)
        use = next((use for use in ("compared", "checked", "adopted",
                                    "used") if use in uses), "")
        flag = ""
        if field.startswith("("):
            use = ""
        elif not readers:
            flag = "unread"
        elif readers == {"host"}:
            use = "returned to host"
        elif use == "adopted" and label not in sessions:
            flag = "not anchored"
        flagged += bool(flag)
        lines.append(_row([
            "`%s`" % _cell(label), "`%s`" % _cell(field),
            ", ".join(formats[label]["sites"]) or "-",
            ", ".join(sorted(opened.get(label, ()))) or "-",
            ", ".join(sorted(readers)) or "-", use, flag]))
    lines += ["", "formats %d; fields %d; flagged %d" % (
        len(formats), len(format_rows(formats)), flagged)]
    return lines


# -- the driver ---------------------------------------------------------

def commands(runs):
    """(name, argv) of each selected run; a run's group is its name up
    to the first slash (every example is in ``examples``)."""
    python = sys.executable
    cli = [python, "-m", "repro.cli"]
    table = (
        # One hypothesis seed, so two checkouts draw the same examples.
        ("tier1", [python, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                   "--hypothesis-seed=0"]),
        ("smoke", cli + ["smoke"]),
        ("chaos", cli + ["smoke", "--chaos"]),
        ("gate", cli + ["gate"]),
        ("run", cli + ["run", "all"]),
        ("perf", [python, "-m", "benchmarks.perf", "--seconds", "1"]),
        ("trace", cli + ["trace"]),
        ("metrics", cli + ["metrics", "a10"]),
    )
    for name, argv in table:
        if name in runs:
            yield name, argv
    if "examples" in runs:
        for script in sorted(glob.glob(os.path.join("examples", "*.py"))):
            yield script, [python, script]


def run_all(root, runs, mode="knobs"):
    """Run every command under the recorder; returns the records its
    interpreters dumped and each command's exit status."""
    records, statuses = [], []
    with tempfile.TemporaryDirectory(prefix="knob-census-") as workdir:
        site = os.path.join(workdir, "site")
        out = os.path.join(workdir, "out")
        os.makedirs(site)
        os.makedirs(out)
        with open(os.path.join(site, "sitecustomize.py"), "w") as handle:
            handle.write(SITECUSTOMIZE % os.path.abspath(__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [site, os.path.join(root, "src")]
            + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
        )
        env[OUT_VAR] = out
        env[ROOT_VAR] = root
        if mode == "surface":
            env[SURFACE_VAR] = "1"
        for name, argv in commands(runs):
            if mode == "reach":
                env[GROUP_VAR] = name.split("/", 1)[0]
            print("census: running %s" % name, file=sys.stderr, flush=True)
            done = subprocess.run(
                argv, cwd=root, env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )
            statuses.append((name, done.returncode))
        for path in sorted(glob.glob(os.path.join(out, "*.json"))):
            with open(path) as handle:
                records.append(json.load(handle))
    return records, statuses


def merge_knobs(records):
    """(calls, setters) summed over every interpreter's record."""
    merged_calls, merged_set = {}, {}
    for record in records:
        for key, count in record["calls"].items():
            merged_calls[key] = merged_calls.get(key, 0) + count
        for label, values in record["set"].items():
            for name, groups in values.items():
                into = merged_set.setdefault(label, {}).setdefault(name, {})
                for group, (count, sites) in groups.items():
                    have = into.setdefault(group, [0, []])
                    have[0] += count
                    for site_name in sites:
                        if (site_name not in have[1]
                                and len(have[1]) < MAX_SITES):
                            have[1].append(site_name)
    return merged_calls, merged_set


def _order(group):
    return (GROUPS.index(group) if group in GROUPS else len(GROUPS), group)


def report(root, calls, setters, statuses):
    total = surfaces_seen = 0
    never = []
    module = None
    for name, label, function in discover(root):
        if name != module:
            module = name
            print(name)
        key = "%s:%s" % (name, label)
        params = parameters(function)
        total += len(params)
        surfaces_seen += 1
        print("  %-30s %3d  (%d calls)" % (label, len(params),
                                          calls.get(key, 0)))
        for param in params:
            groups = setters.get(key, {}).get(param.name, {})
            if param.default is param.empty:
                verdict = "required"
            elif groups:
                verdict = ", ".join(sorted(groups, key=_order))
            else:
                verdict = "default everywhere"
                never.append("%s.%s" % (key, param.name))
            print("      %-26s %s" % (param.name, verdict))
    print("never set off default:")
    for value in never:
        print("  " + value)
    print("surfaces: %d; settable values: %d; never set off default: %d"
          % (surfaces_seen, total, len(never)))
    for name, status in statuses:
        print("run %-34s exit %d" % (name, status))


def merge_reach(records):
    """``"path:line"`` -> the groups whose runs called it."""
    reached = {}
    for record in records:
        for key in record["reached"]:
            reached.setdefault(key, set()).add(record["group"])
    return reached


def reach_report(root, reached, statuses, runs):
    found = definitions(root)
    tagged, stale = tags(root, found)
    groups = [name for name in REACH_RUNS if name in runs]
    only_tests, nothing = [], []
    path = None
    for key, definition in sorted(found.items(),
                                  key=lambda item: item[1][:2]):
        if definition.path != path:
            path = definition.path
            print(path)
        by = reached.get(key, set())
        shown = [name for name in groups if name in by]
        if by == {"tier1"}:
            only_tests.append(key)
        elif not by:
            nothing.append(key)
        print("  %5d  %-44s %s%s" % (
            definition.size, definition.qualname,
            " ".join(shown) if len(shown) < len(groups) else "all",
            "  [%s]" % " ".join(sorted(tagged[key])) if tagged[key] else "",
        ))
    totals = []
    for title, keys in (("reached only by tier1", only_tests),
                        ("reached by nothing", nothing)):
        print("%s:" % title)
        for key in keys:
            definition = found[key]
            print("  %-52s %4d  %s" % (
                definition.name, definition.size,
                " ".join(sorted(tagged[key])) or "UNTAGGED",
            ))
        untagged = [key for key in keys if not tagged[key]]
        totals.append("%s %d (%d lines; untagged %d, %d lines)" % (
            title, len(keys), sum(found[key].size for key in keys),
            len(untagged), sum(found[key].size for key in untagged),
        ))
    for name in stale:
        print("section 16 names %s, which is no def" % name)
    print("definitions %d (%d lines); %s" % (
        len(found), sum(item.size for item in found.values()),
        "; ".join(totals),
    ))
    for name, status in statuses:
        print("run %-34s exit %d" % (name, status))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--reach", action="store_true",
                        help="report which runs reach each definition")
    parser.add_argument("--surface", action="store_true",
                        help="report what crosses the enclave boundary")
    parser.add_argument("--runs", default=None,
                        help="comma-separated subset of %s (knobs), %s "
                             "(--reach) or %s (--surface)"
                             % (RUNS, REACH_RUNS, SURFACE_RUNS))
    parser.add_argument("--sites", action="store_true",
                        help="also print where each non-default is set")
    args = parser.parse_args(argv)
    mode = "reach" if args.reach else "surface" if args.surface else "knobs"
    every = {"reach": REACH_RUNS, "surface": SURFACE_RUNS}.get(mode, RUNS)
    runs = set(args.runs.split(",") if args.runs else every)
    root = os.path.abspath(os.getcwd())
    records, statuses = run_all(root, runs, mode)
    if args.surface:
        for line in surface_tables(root, *merge_surface(records)):
            print(line)
        for name, status in statuses:
            print("run %-34s exit %d" % (name, status))
        return 0
    if args.reach:
        reach_report(root, merge_reach(records), statuses, runs)
        return 0
    calls, setters = merge_knobs(records)
    report(root, calls, setters, statuses)
    if args.sites:
        for key in sorted(setters):
            for name in sorted(setters[key]):
                for group, (count, sites) in sorted(
                        setters[key][name].items()):
                    print("site %s.%s [%s] x%d: %s" % (
                        key, name, group, count, " ".join(sites)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
