"""Which construction values of the package any run sets, and which
definitions any run reaches.

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

Usage: ``python3 tools/knob_census.py [--runs tier1,smoke,perf,examples]``
(``make knobs``); ``python3 tools/knob_census.py --reach [--runs ...]``
(``make reach``).
"""

import argparse
import ast
import atexit
import collections
import cProfile
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
            module = rel[len("src/"):-len(".py")].replace("/", ".")
            module = module[:-len(".__init__")] if module.endswith(
                ".__init__") else module
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


def run_all(root, runs, reach=False):
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
        for name, argv in commands(runs):
            if reach:
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
    parser.add_argument("--runs", default=None,
                        help="comma-separated subset of %s (knobs) or %s "
                             "(--reach)" % (RUNS, REACH_RUNS))
    parser.add_argument("--sites", action="store_true",
                        help="also print where each non-default is set")
    args = parser.parse_args(argv)
    every = REACH_RUNS if args.reach else RUNS
    runs = set(args.runs.split(",") if args.runs else every)
    root = os.path.abspath(os.getcwd())
    records, statuses = run_all(root, runs, reach=args.reach)
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
