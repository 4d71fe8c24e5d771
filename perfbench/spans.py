"""Span tracing of trimreg's layers, installed from outside the package.

``Tracer.install`` wraps every public function of the layer modules and
rebinds each name that refers to one, in every trimreg module.  Callers
look functions up by module global (``trimreg.inference.fit`` is the same
function as ``trimreg.solver.fit``), so a span opens wherever the call is
made, not only where the function is defined.  ``uninstall`` restores the
original bindings.

A span records its name, the span that was open when it started, its start
and end on the monotonic clock (shared by all processes of the machine),
and a few counts read from its arguments and result.  Spans stay in
memory.  Process-pool workers forked inside a span inherit the wrappers;
each writes its spans to a file when it exits, and ``records`` merges them.

``tracemalloc`` doubles the time of allocation-heavy code, so a timing
pass runs without it and a separate memory pass records the traced peak of
the spans in ``MEMORY_SPANS`` only.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import multiprocessing.util
import os
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

PACKAGE = "trimreg"
LAYERS = ("cli", "solver", "model", "numerics", "inference", "simulate")

# cli.run is the body of cli.main: a span of its own would move argument
# handling and artifact serialization out of cli.main's self time.
UNTRACED = {"cli.run"}

STUDIES = ("simulate.run_consistency_study", "simulate.run_normality_study")

# Spans whose peak of traced memory the memory pass records.
MEMORY_SPANS = {"solver.fit"}

MB = 2.0 ** 20


def _fit_counts(call, result, error):
    config = call.arguments.get("config")
    if config is None:  # the solver's defaults
        config = importlib.import_module(f"{PACKAGE}.solver").SolverConfig()
    counts = {"row_starts": call.arguments["data"].n * config.n_starts,
              "degenerate": int(error == "AllStartsDegenerate")}
    if result is not None:
        counts["iterations"] = result.iterations
        counts["nonconverged"] = int(not result.converged)
    return counts


def _enumerate_counts(call, result, error):
    args = call.arguments
    return {"subsets": math.comb(args["data"].n, args["trim"].h)}


# Counts read from a call's bound arguments, result and error type name.
COUNTS = {"solver.fit": _fit_counts, "solver.exact_enumerate": _enumerate_counts}


class Tracer:
    """Records spans for the wrapped functions while installed.

    With ``memory`` set, the spans in MEMORY_SPANS run under tracemalloc and
    record their peak traced bytes; their times then include its cost.
    """

    def __init__(self, worker_dir: Path, memory: bool = False):
        self.worker_dir = Path(worker_dir)
        self.memory = memory
        self.spans = []       # (id, parent, name, start, end, peak_bytes, counts)
        self._stack = []      # ids of the open spans
        self._next_id = 0
        self._patches = []    # (module, attribute, original)
        self._root_parent = None
        self.active = False

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in vars(module).items():
                name = f"{layer}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_") and name not in UNTRACED):
                    wrappers[id(obj)] = (obj, self._wrap(obj, name))
        modules = [m for key, m in list(sys.modules.items())
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, entry[1])
        self.worker_dir.mkdir(parents=True, exist_ok=True)
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, fn, name):
        signature = inspect.signature(fn)
        counter = COUNTS.get(name)
        watch = self.memory and name in MEMORY_SPANS

        def span(*args, **kwargs):
            return self._call(fn, name, signature, counter, watch, args, kwargs)

        span.__wrapped__ = fn
        span.__name__ = fn.__name__
        span.__doc__ = fn.__doc__
        return span

    def _call(self, fn, name, signature, counter, watch, args, kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        parent = self._stack[-1] if self._stack else self._root_parent
        sid = self._next_id
        self._next_id += 1
        self._stack.append(sid)
        watch = watch and not tracemalloc.is_tracing()
        if watch:
            tracemalloc.start()
        result = error = None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            end = time.perf_counter()
            peak = None
            if watch:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            self._stack.pop()
            counts = None
            if counter is not None:
                counts = counter(signature.bind(*args, **kwargs), result, error)
            self.spans.append((sid, parent, name, start, end, peak, counts))

    # -- pool workers --------------------------------------------------------

    def _after_fork(self) -> None:
        """In a forked pool worker: drop the parent's spans, parent the
        worker's root spans to the span open at the fork, and write the
        spans out when the worker exits."""
        if not self.active:
            return
        self._root_parent = [os.getppid(), self._stack[-1]] if self._stack else None
        self.spans = []
        self._stack = []
        multiprocessing.util.Finalize(self, self._write_worker_spans, exitpriority=10)

    def _write_worker_spans(self) -> None:
        path = self.worker_dir / f"worker-{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps({"pid": os.getpid(), "spans": self.spans}))
        tmp.replace(path)

    def records(self) -> list[dict]:
        """Spans of this process and of its exited workers, as dicts keyed
        by (pid, span id).  Worker span files are consumed."""
        out = _span_records(self.spans, os.getpid())
        for path in sorted(self.worker_dir.glob("worker-*.json")):
            worker = json.loads(path.read_text())
            out += _span_records(worker["spans"], worker["pid"])
            path.unlink()
        return out


# -- aggregation -------------------------------------------------------------

def _span_records(spans, pid):
    """Flatten one process's spans into dicts keyed by (pid, id)."""
    records = []
    for sid, parent, name, start, end, peak, counts in spans:
        if isinstance(parent, list):
            parent_key = tuple(parent)
        elif parent is None:
            parent_key = None
        else:
            parent_key = (pid, parent)
        records.append({"key": (pid, sid), "parent": parent_key, "name": name,
                        "pid": pid, "start": start, "end": end, "dur": end - start,
                        "peak": peak, "counts": counts or {}})
    return records


def self_times(records) -> dict:
    """Span duration minus the time of its direct children in the same
    process; children in other processes ran in parallel and are kept."""
    child = {}
    for r in records:
        parent = r["parent"]
        if parent is not None and parent[0] == r["pid"]:
            child[parent] = child.get(parent, 0.0) + r["dur"]
    return {r["key"]: r["dur"] - child.get(r["key"], 0.0) for r in records}


def layer_metrics(timing, memory, untraced_s: float, traced_s: float) -> dict:
    """Per-layer metrics from the span records of the timing and memory
    passes over the same operations."""
    selfs = self_times(timing)
    by_name = {}
    for r in timing:
        by_name.setdefault(r["name"], []).append(r)

    def calls(name):
        return len(by_name.get(name, ()))

    def self_s(name):
        return sum(selfs[r["key"]] for r in by_name.get(name, ()))

    def total(name, field):
        return sum(r["counts"].get(field, 0) for r in by_name.get(name, ()))

    def wall(name):
        return sum(r["dur"] for r in by_name.get(name, ()))

    fits = by_name.get("solver.fit", [])
    m = {}
    for name in ("solver.fit", "solver.exact_enumerate", "solver.ls_fit_subset",
                 "numerics.spd_solve", "model.objective", "model.h_subset",
                 "solver.check_stationarity", "cli.load_dataset",
                 "inference.ci_depth_region", "simulate.generate"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
    m["solver.fit.p50_s"] = statistics.median(r["dur"] for r in fits) if fits else 0.0
    m["solver.fit.peak_alloc_mb"] = max(
        (r["peak"] for r in memory if r["name"] == "solver.fit"), default=0) / MB
    for field in ("row_starts", "iterations", "nonconverged", "degenerate"):
        m[f"solver.fit.{field}"] = total("solver.fit", field)
    m["solver.fit.row_starts_per_s"] = _ratio(m["solver.fit.row_starts"], wall("solver.fit"))
    m["solver.exact_enumerate.subsets"] = total("solver.exact_enumerate", "subsets")
    m["solver.exact_enumerate.subsets_per_s"] = _ratio(
        m["solver.exact_enumerate.subsets"], wall("solver.exact_enumerate"))
    m["cli.main.self_s"] = self_s("cli.main")
    m["inference.bootstrap_fits.self_s"] = self_s("inference.bootstrap_fits")
    boot = {r["key"] for r in by_name.get("inference.bootstrap_fits", ())}
    m["inference.bootstrap_fits.redraws"] = sum(
        r["counts"].get("degenerate", 0) for r in fits if r["parent"] in boot)
    m.update(_pool_metrics(timing, selfs, by_name))
    m["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    return m


def _pool_metrics(records, selfs, by_name) -> dict:
    """Study wait (the parent's self time in study spans, i.e. not inside a
    traced call of its own) and the busy share of the pool's workers over
    the studies they served."""
    studies = [r for name in STUDIES for r in by_name.get(name, ())]
    busy, workers_of = {}, {}
    for r in records:
        parent = r["parent"]
        if parent is not None and parent[0] != r["pid"]:
            busy[parent] = busy.get(parent, 0.0) + r["dur"]
            workers_of.setdefault(parent, set()).add(r["pid"])
    capacity = sum(len(workers_of.get(s["key"], ())) * s["dur"] for s in studies)
    return {
        "simulate.study.wait_s": sum(selfs[s["key"]] for s in studies),
        "simulate.worker_busy_frac": _ratio(
            sum(busy.get(s["key"], 0.0) for s in studies), capacity),
    }


def _ratio(num, den) -> float:
    return num / den if den > 0 else 0.0


SPAN_FIELDS = ("key", "parent", "name", "start", "end", "peak", "counts")


def write_spans(path: Path, timing, memory) -> None:
    """Write the timing pass's spans, and the memory pass's spans that
    carry a peak, as rows of SPAN_FIELDS."""
    def rows(records):
        return [[r[f] for f in SPAN_FIELDS] for r in records]

    Path(path).write_text(json.dumps({
        "fields": SPAN_FIELDS,
        "timing": rows(timing),
        "memory": rows(r for r in memory if r["peak"] is not None),
    }))
