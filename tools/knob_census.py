"""Which construction values of the package any run sets.

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

Usage: ``python3 tools/knob_census.py [--runs tier1,smoke,perf,examples]``
(``make knobs``).
"""

import argparse
import atexit
import functools
import glob
import importlib
import inspect
import json
import os
import pkgutil
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
OUT_VAR = "KNOB_CENSUS_OUT"
ROOT_VAR = "KNOB_CENSUS_ROOT"
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
    """Patches each package module right after its first import."""

    def __init__(self, root):
        self.root = root
        self.seen = set()

    def find_spec(self, name, path=None, target=None):
        if name in self.seen or name.split(".", 1)[0] != PACKAGE:
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
        root = self.root

        def exec_module(module):
            execute(module)
            _wrap(module, root)

        spec.loader.exec_module = exec_module
        return spec


def _dump(directory):
    path = os.path.join(directory, "census-%d.json" % os.getpid())
    with open(path, "w") as handle:
        json.dump({"calls": _calls, "set": _set}, handle)


def install():
    """Start recording in this interpreter (no-op without the env)."""
    directory = os.environ.get(OUT_VAR)
    root = os.environ.get(ROOT_VAR)
    if not directory or not root:
        return
    sys.meta_path.insert(0, _Finder(root))
    atexit.register(_dump, directory)


# -- the driver ---------------------------------------------------------

def commands(runs):
    python = sys.executable
    if "tier1" in runs:
        # One hypothesis seed, so two checkouts draw the same examples.
        yield "tier1", [python, "-m", "pytest", "-q", "-p",
                        "no:cacheprovider", "--hypothesis-seed=0"]
    if "smoke" in runs:
        yield "smoke", [python, "-m", "repro.cli", "smoke"]
    if "perf" in runs:
        yield "perf", [python, "-m", "benchmarks.perf", "--seconds", "1"]
    if "examples" in runs:
        for script in sorted(glob.glob(os.path.join("examples", "*.py"))):
            yield script, [python, script]


def run_all(root, runs):
    """Run every command under the recorder; returns the merged
    records and each command's exit status."""
    merged_calls, merged_set, statuses = {}, {}, []
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
            print("census: running %s" % name, file=sys.stderr, flush=True)
            done = subprocess.run(
                argv, cwd=root, env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )
            statuses.append((name, done.returncode))
        for path in sorted(glob.glob(os.path.join(out, "*.json"))):
            with open(path) as handle:
                record = json.load(handle)
            for key, count in record["calls"].items():
                merged_calls[key] = merged_calls.get(key, 0) + count
            for label, values in record["set"].items():
                for name, groups in values.items():
                    into = merged_set.setdefault(label, {}).setdefault(
                        name, {}
                    )
                    for group, (count, sites) in groups.items():
                        have = into.setdefault(group, [0, []])
                        have[0] += count
                        for site_name in sites:
                            if (site_name not in have[1]
                                    and len(have[1]) < MAX_SITES):
                                have[1].append(site_name)
    return merged_calls, merged_set, statuses


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


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", default=",".join(RUNS),
                        help="comma-separated subset of %s" % (RUNS,))
    parser.add_argument("--sites", action="store_true",
                        help="also print where each non-default is set")
    args = parser.parse_args(argv)
    runs = set(args.runs.split(","))
    root = os.path.abspath(os.getcwd())
    calls, setters, statuses = run_all(root, runs)
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
