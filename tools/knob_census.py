"""Which construction values of the composed system any run sets.

A *settable value* is one parameter of a constructor on the composed
system's surface (``SURFACES``).  This tool counts them, then runs
tier-1, ``repro.cli smoke``, ``benchmarks.perf --seconds 1`` (all five
workloads) and every ``examples/*.py`` with each surface's constructor
wrapped, and prints, per value, which caller groups (``tests``,
``benchmarks``, ``benchmarks/perf``, ``examples``, ``tools``) ever pass
it a non-default value.  A value no group sets is a setting that every
reader must rule out and that nothing covers.

The wrapping is done by a ``sitecustomize`` module on ``PYTHONPATH``
(written to a temporary directory), so it reaches every interpreter a
run starts -- the benchmark's worker processes included -- and it
patches each surface module right after it is first imported.  No
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
import subprocess
import sys
import tempfile

# (label, module, class, attribute) of every constructor counted.
SURFACES = (
    ("SecureFrontDoor", "repro.service.frontdoor", "SecureFrontDoor",
     "__init__"),
    ("FrontDoorConfig", "repro.service.frontdoor", "FrontDoorConfig",
     "__init__"),
    ("ShardedScbrRouter", "repro.scbr.sharding", "ShardedScbrRouter",
     "__init__"),
    ("EpcWatermarkPolicy", "repro.scbr.sharding", "EpcWatermarkPolicy",
     "__init__"),
    ("SecureStreamPlane", "repro.streams.plane", "SecureStreamPlane",
     "__init__"),
    ("StreamConfig", "repro.streams.plane", "StreamConfig", "__init__"),
    ("NodeSpec", "repro.cluster.nodes", "NodeSpec", "__init__"),
    ("ClusterNode", "repro.cluster.nodes", "ClusterNode", "__init__"),
    ("NodeTopology.build", "repro.cluster.nodes", "NodeTopology", "build"),
    ("RetryPolicy", "repro.retry", "RetryPolicy", "__init__"),
)
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


def _raw(module, owner, attribute):
    cls = getattr(module, owner, None)
    if cls is None or attribute not in vars(cls):
        return None, None
    raw = vars(cls)[attribute]
    return cls, raw.__func__ if isinstance(raw, classmethod) else raw


# -- the in-process recorder (loaded by the generated sitecustomize) ----

_calls = {}         # label -> {group: calls}
_set = {}           # label -> {param: {group: [count, [sites]]}}


def _is_default(value, default):
    if value is default:
        return True
    try:
        return type(value) is type(default) and bool(value == default)
    except Exception:
        return False


def _attribute(frame, root):
    """(group, "file:line") of the nearest frame outside ``src/repro``."""
    library = os.path.join(root, "src", "repro") + os.sep
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


def _record(label, signature, args, kwargs, frame, root):
    bound = signature.bind(*args, **kwargs)
    group, site = _attribute(frame, root)
    calls = _calls.setdefault(label, {})
    calls[group] = calls.get(group, 0) + 1
    for name, value in list(bound.arguments.items())[1:]:
        param = signature.parameters[name]
        if param.kind in (param.VAR_POSITIONAL, param.VAR_KEYWORD):
            continue
        if param.default is not param.empty and _is_default(
                value, param.default):
            continue
        entry = _set.setdefault(label, {}).setdefault(name, {}).setdefault(
            group, [0, []]
        )
        entry[0] += 1
        if site not in entry[1] and len(entry[1]) < MAX_SITES:
            entry[1].append(site)


def _wrap(module, root):
    for label, name, owner, attribute in SURFACES:
        if name != module.__name__:
            continue
        cls, function = _raw(module, owner, attribute)
        if function is None:
            continue
        signature = inspect.signature(function)

        def wrapper(*args, _label=label, _signature=signature,
                    _function=function, **kwargs):
            try:
                _record(_label, _signature, args, kwargs,
                        sys._getframe(1), root)
            except Exception:
                pass    # an unbindable call fails in the original
            return _function(*args, **kwargs)

        functools.update_wrapper(wrapper, function)
        is_classmethod = isinstance(vars(cls)[attribute], classmethod)
        setattr(cls, attribute,
                classmethod(wrapper) if is_classmethod else wrapper)


class _Finder:
    """Patches each surface module right after its first import."""

    def __init__(self, root):
        self.root = root
        self.pending = {name for _l, name, _c, _a in SURFACES}

    def find_spec(self, name, path=None, target=None):
        if name not in self.pending:
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(name, path, target)
            if spec is not None:
                break
        else:
            return None
        self.pending.discard(name)
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
        yield "tier1", [python, "-m", "pytest", "-q", "-p",
                        "no:cacheprovider"]
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
            for label, groups in record["calls"].items():
                into = merged_calls.setdefault(label, {})
                for group, count in groups.items():
                    into[group] = into.get(group, 0) + count
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
    sys.path.insert(0, os.path.join(root, "src"))
    total = unused = 0
    for label, name, owner, attribute in SURFACES:
        _cls, function = _raw(importlib.import_module(name), owner,
                              attribute)
        if function is None:
            print("%-22s %3s  (not defined)" % (label, "-"))
            continue
        params = parameters(function)
        total += len(params)
        made = sum(calls.get(label, {}).values())
        print("%-22s %3d  (%d calls)" % (label, len(params), made))
        for param in params:
            groups = setters.get(label, {}).get(param.name, {})
            if param.default is param.empty:
                verdict = "required"
            elif groups:
                verdict = ", ".join(sorted(groups, key=_order))
            else:
                verdict = "default everywhere"
                unused += 1
            print("    %-24s %s" % (param.name, verdict))
    print("settable values: %d; never set off default: %d" % (total, unused))
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
        for label in sorted(setters):
            for name in sorted(setters[label]):
                for group, (count, sites) in sorted(
                        setters[label][name].items()):
                    print("site %s.%s [%s] x%d: %s" % (
                        label, name, group, count, " ".join(sites)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
