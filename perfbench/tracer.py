"""Outside-in span recorder for one traced multinoise CLI command.

    python3 perfbench/tracer.py OUT_STEM -- <multinoise CLI arguments>

Runs in a fresh interpreter.  After ``import multinoise`` it wraps the public
functions of each layer, rebinding every name in every ``multinoise``
namespace (the package ``__init__`` included) that holds the same object:
the modules import each other with ``from .forms import ...``, so patching
only the defining module would miss most calls.  Methods are wrapped on their
class.  It then runs ``cli.main`` in-process on the given arguments.

Spans (name, start, end, parent) are kept in memory, one log per thread, and
written when the command ends: ``OUT_STEM.json`` holds the span names, the
per-thread span counts and the counters, ``OUT_STEM.bin`` the span columns
(see ``read_spans`` in ``run.py``).  The program's code is not modified; a
function missing from a later version of the program is reported under
``unwrapped`` and simply records nothing.
"""

from __future__ import annotations

import functools
import importlib
import json
import resource
import sys
import threading
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

MODULES = ("atoms", "forms", "fock", "wick", "gamma", "expansion", "checks",
           "config", "cli")
THREAD_SHIFT = 32  # span id = thread index << THREAD_SHIFT | index in thread


class ThreadLog:
    """Spans and counters of one thread; only that thread writes to it."""

    def __init__(self, index: int):
        self.base = index << THREAD_SHIFT
        self.names = array("i")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.seen: dict[str, set] = defaultdict(set)


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self.logs: list[ThreadLog] = []
        self.main = self.log()

    def log(self) -> ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            with self._lock:
                log = ThreadLog(len(self.logs))
                self.logs.append(log)
            self._local.log = log
        return log

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, before=None, after=None):
        """Span wrapper; ``before`` may replace the arguments, ``after`` sees
        the result.  A root span in a worker thread gets the span that is open
        in the main thread as its parent (the CLI submits pool work from
        there)."""
        nid = self.name_id(name)
        main = self.main

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            log = self.log()
            stack = log.stack
            if stack:
                parent = stack[-1]
            else:
                parent = main.stack[-1] if log is not main and main.stack else -1
            idx = len(log.names)
            log.names.append(nid)
            log.parents.append(parent)
            log.ends.append(0.0)
            stack.append(log.base | idx)
            state = None
            if before is not None:
                args, kwargs, state = before(log, args, kwargs)
            log.starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                log.ends[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(log, state, result)
            return result

        return wrapper

    def counters(self) -> dict[str, float]:
        total: dict[str, float] = defaultdict(float)
        seen: dict[str, set] = defaultdict(set)
        for log in self.logs:
            for key, value in log.counts.items():
                total[key] += value
            for key, keys in log.seen.items():
                seen[key] |= keys
        for key, keys in seen.items():
            total[key + ".distinct"] = len(keys)
        return dict(total)

    def dump(self, stem: str, extra: dict) -> None:
        with open(stem + ".bin", "wb") as handle:
            for log in self.logs:
                for column in (log.names, log.parents, log.starts, log.ends):
                    column.tofile(handle)
        header = {"names": self.names,
                  "threads": [len(log.names) for log in self.logs],
                  "thread_shift": THREAD_SHIFT,
                  "counters": self.counters(), **extra}
        with open(stem + ".json", "w") as handle:
            json.dump(header, handle, sort_keys=True)


# -- hooks: counters measured at the span boundary ------------------------------

def count_points(log, args, kwargs):
    t = args[1] if len(args) > 1 else kwargs["t"]
    log.counts["atoms.eval.points"] += 1 if isinstance(t, float) else np.size(t)
    return args, kwargs, None


def count_integrand(log, args, kwargs):
    """Wrap the integrand handed to complex_quad so its calls are counted."""
    args = list(args)
    fun = args[0] if args else kwargs["fun"]
    counts = log.counts

    def counted(*a):
        counts["forms.quad.integrand_calls"] += 1
        return fun(*a)

    if args:
        args[0] = counted
    else:
        kwargs = dict(kwargs, fun=counted)
    return tuple(args), kwargs, None


def distinct(name: str, skip: tuple[int, str] | None = None):
    """Record the argument tuple; the program's value types hash.

    ``skip`` names one argument (position, keyword) left out of the key.
    """
    def before(log, args, kwargs):
        key_args, key_kwargs = args, kwargs
        if skip is not None:
            pos, kw = skip
            key_args = args[:pos] + args[pos + 1:]
            key_kwargs = {k: v for k, v in kwargs.items() if k != kw}
        key = (key_args, tuple(sorted(key_kwargs.items())))
        try:
            hash(key)
        except TypeError:
            key = object()  # unhashable arguments count as distinct
        log.seen[name].add(key)
        return args, kwargs, None
    return before


def count_matchings(log, _state, result):
    log.counts["wick.matchings.count"] += len(result)


def rss_before(log, args, kwargs):
    return args, kwargs, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def rss_after(log, before_kb, _result):
    grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before_kb
    log.counts["gamma.osc.rss_growth_mb"] += grown / 1024.0


# (span name, module, attribute, before hook, after hook)
SPANS = (
    ("atoms.eval", "atoms", "TestFunction.__call__", count_points, None),
    ("atoms.envelope", "atoms", "TestFunction.envelope_interval", None, None),
    ("atoms.calculus", "atoms", "TestFunction.derivative", None, None),
    ("atoms.calculus", "atoms", "TestFunction.fourier", None, None),
    ("forms.indefinite_inner", "forms", "indefinite_inner",
     distinct("forms.indefinite_inner"), None),
    ("forms.weighted_inner", "forms", "weighted_inner",
     distinct("forms.weighted_inner"), None),
    ("forms.quad", "forms", "complex_quad", count_integrand, None),
    ("forms.grid", "forms", "frequency_grid", None, None),
    ("forms.grid", "forms", "to_grid", None, None),
    ("forms.grid", "forms", "metric_apply", None, None),
    ("forms.grid", "forms", "grid_weighted_inner", None, None),
    ("fock.build_sector", "fock", "build_sector", None, None),
    ("fock.create", "fock", "create", None, None),
    ("fock.annihilate", "fock", "annihilate", None, None),
    ("fock.fock_inner", "fock", "fock_inner", None, None),
    ("fock.word", "fock", "apply_word", None, None),
    ("fock.word", "fock", "multi_inner", None, None),
    ("wick.reservoir_pair", "wick", "reservoir_pair",
     distinct("wick.reservoir_pair"), None),
    # noise_pair is lam^(2n) times a lam-independent kernel: count distinct
    # kernels, the part a memo or a hoist out of the lambda loop could reuse
    ("wick.noise_pair", "wick", "noise_pair",
     distinct("wick.noise_pair", skip=(2, "lam")), None),
    ("wick.correlation", "wick", "correlation", None, None),
    ("wick.matchings", "wick", "enumerate_matchings", None, count_matchings),
    ("gamma.osc", "gamma", "gamma_osc", rss_before, rss_after),
    ("gamma.shell", "gamma", "gamma_shell", None, None),
    ("gamma.support", "gamma", "check_support", None, None),
    ("expansion.kernel_error", "expansion", "kernel_error", None, None),
    ("expansion.correlation_error", "expansion", "correlation_error", None, None),
    ("expansion.truncated", "expansion", "truncated_pair", None, None),
    ("expansion.truncated", "expansion", "noise_correlation_truncated", None, None),
    ("expansion.fit_rate", "expansion", "fit_rate", None, None),
    ("checks.ccr", "checks", "ccr_suite", None, None),
    ("checks.adjoint", "checks", "adjoint_suite", None, None),
    ("checks.metric", "checks", "metric_suite", None, None),
    ("checks.fock_wick", "checks", "fock_wick_suite", None, None),
    ("config.load", "config", "load_config", None, None),
    ("cli.main", "cli", "main", None, None),
)


def install(recorder: Recorder) -> list[str]:
    """Wrap every SPANS entry; returns the ones this program does not have."""
    import multinoise

    modules = {}
    for name in MODULES:
        try:
            modules[name] = importlib.import_module(f"multinoise.{name}")
        except ImportError:
            pass
    namespaces = [multinoise, *modules.values()]
    missing = []
    for span, module, attr, before, after in SPANS:
        owner = modules.get(module)
        cls_name, _, method = attr.rpartition(".")
        if cls_name:
            owner = getattr(owner, cls_name, None)
        original = owner.__dict__.get(method) if owner is not None else None
        if not callable(original):
            missing.append(f"{module}.{attr}")
            recorder.name_id(span)
            continue
        wrapper = recorder.wrap(original, span, before, after)
        if cls_name:
            setattr(owner, method, wrapper)
            continue
        for namespace in namespaces:
            for key, value in list(vars(namespace).items()):
                if value is original:
                    setattr(namespace, key, wrapper)
    return missing


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py OUT_STEM -- <multinoise CLI arguments>",
              file=sys.stderr)
        return 2
    stem, cli_args = argv[0], argv[2:]
    recorder = Recorder()
    missing = install(recorder)
    from multinoise import cli

    try:
        code = cli.main(cli_args)
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code if isinstance(exc.code, int) else 2
    recorder.dump(stem, {"exit_code": code, "unwrapped": missing})
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
