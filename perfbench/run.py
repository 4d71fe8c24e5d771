"""trimreg benchmark: four CLI workloads driven through ``trimreg.cli.main``.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fit_large --seed 1 --trace 0

One client runs a closed loop: each command starts when the previous one
has returned.  The loop repeats whole cycles of the workload's commands
(see ``workloads.py``) while the next cycle is expected to end within
``--seconds`` (by default ``run_seconds`` of BENCHMARK.json).  Every
artifact is checked; a nonzero exit code, a failed check or a payload
digest that differs from an earlier run of the same command counts as a
failure.  The digests are printed and recorded per command, so that runs
in other processes can be compared with them (``spread.py --same-seed``).

``--trace 0`` prints the end-to-end metrics:

  setup_s      median over SETUP_REPEATS fresh processes of the time from
               process start until trimreg is imported and the inputs are
               written; the set-ups are spread evenly over the run, between
               operations, so that their median spans the same stretch of
               host load as the operations' median
  ops_per_s    operations completed per second of operation time
  op_p50_s     median operation time
  op_tail_s    the highest percentile of operation time with at least ten
               samples beyond it, but not below the median: with twenty
               operations or fewer no percentile above the median has ten
               beyond it, and the tail is the upper median.  The percentile
               and the count beyond it are printed beside it.
  peak_rss_mb  peak resident memory of the operations, the larger of this
               process and its reaped children (pool workers); the set-up
               processes are children of a helper process that is reaped
               only after this is read

Failed operations over attempted ones (``failed_frac``) is printed on its
own line and carried by the ``attempted`` and ``failed`` fields.

``--trace 1`` runs one cycle to warm up, one untraced, and the same cycle
again with every public function of the layers cli, solver, model,
numerics, inference and simulate wrapped in spans (``spans.py``), and
prints the per-layer metrics, all summed over that one traced cycle.
Counts repeat exactly for a given seed.

The last line of standard output is the JSON result.  Earlier lines give
the environment, a table of the metrics with units, and the tail sample
count.  Work files go to ``.perfbench_work/`` and traces and results to
``.perfbench_out/`` at the root of the checkout.  BLAS is capped at one
thread per process.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402

SETUP_REPEATS = 7
TAIL_BEYOND = 10


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_units(kind: str) -> dict:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics that
    BENCHMARK.json declares; a run prints exactly these."""
    return {m["name"]: m["unit"] for m in spec()[kind]}


def import_trimreg():
    """Import trimreg.cli from this checkout's src/; refuse any other copy."""
    if not (SRC / "trimreg" / "__init__.py").is_file():
        raise SystemExit(f"no trimreg sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import trimreg.cli

    if Path(trimreg.cli.__file__).resolve().parent != SRC / "trimreg":
        raise SystemExit(f"imported trimreg from {trimreg.cli.__file__}, not {SRC}")
    return trimreg.cli


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "pool_workers": workloads.POOL_WORKERS,
        "machine": platform.machine(),
    }


# -- set-up ------------------------------------------------------------------

def write_inputs(workload, seed: int, workdir: Path) -> None:
    """Body of one timed set-up: import trimreg, then write the inputs."""
    import_trimreg()
    workdir.mkdir(exist_ok=True)
    workload.write_inputs(workdir, seed)


def timed_setup(name: str, seed: int, workdir: Path) -> float:
    """Run the set-up in a fresh process, which reports the monotonic clock
    when its inputs are written; return the seconds since its start."""
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, __file__, "--workload", name, "--seed", str(seed),
         "--write-inputs", str(workdir)],
        check=True, capture_output=True, text=True, timeout=120,
    )
    return float(done.stdout.split()[-1]) - start


def serve_setups(name: str, seed: int, workdir: Path) -> None:
    """Helper process: time one set-up per line read from stdin."""
    print("ready", flush=True)
    for _ in sys.stdin:
        print(timed_setup(name, seed, workdir), flush=True)


class SetupClock:
    """Times set-ups on request, in fresh processes started by a helper.

    The set-up processes are the helper's children, not ours, so they enter
    this process's RUSAGE_CHILDREN only when ``close`` reaps the helper.
    """

    def __init__(self, name: str, seed: int, workdir: Path):
        self.times = []
        self.proc = subprocess.Popen(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--serve-setups", str(workdir)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self._reply()  # the helper has started before any operation runs

    def _reply(self) -> str:
        line = self.proc.stdout.readline()
        if not line:
            self.close()
            raise RuntimeError(f"set-up helper exited with code {self.proc.returncode}")
        return line

    def time_one(self) -> None:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        self.times.append(float(self._reply()))

    def close(self) -> None:
        if self.proc.stdin and not self.proc.stdin.closed:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=150)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


# -- operations --------------------------------------------------------------

class Runner:
    """Runs operations through cli.main and keeps their outcomes."""

    def __init__(self, cli, workdir: Path):
        self.cli = cli
        self.workdir = str(workdir)
        self.times = []
        self.attempted = 0
        self.failures = []
        self.digests = {}

    def _portable(self, text: str) -> str:
        """``text`` with this run's work directory written as ``<work>``."""
        return text.replace(self.workdir, "<work>")

    def _invoke(self, argv) -> tuple:
        """(exit code, captured stdout, seconds) of one cli.main call."""
        sink = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(sink):
            try:
                code = self.cli.main(list(argv))
            except Exception:  # a crash is a failed operation, not a dead run
                code = -1
                sink.write(traceback.format_exc())
        return code, sink.getvalue(), time.perf_counter() - start

    def _artifact(self, argv, output) -> tuple:
        """Run a command; (artifact, None) or (None, reason it failed)."""
        code, text, elapsed = self._invoke(argv)
        if code != 0:
            return None, f"exit code {code}: {text.strip()[-300:]}", elapsed
        try:
            artifact = json.loads(Path(output).read_text())
        except (OSError, ValueError) as exc:
            return None, f"unreadable artifact: {exc}", elapsed
        # The artifact echoes the input and output paths, which lie in this
        # run's work directory; without it the digest is the same in every
        # process that runs the command on the same seed.
        digest = workloads.payload_digest(artifact, self._portable)
        if self.digests.setdefault(self._portable(" ".join(argv)), digest) != digest:
            return None, "payload digest differs from an earlier run", elapsed
        return artifact, None, elapsed

    def run(self, op) -> float:
        """Run and check one operation; return the seconds cli.main took."""
        self.attempted += 1
        artifact, error, elapsed = self._artifact(op.argv, op.output)
        followup = None
        if error is None and op.followup:
            followup, error, _ = self._artifact(op.followup, op.followup_output)
        if error is None:
            try:
                error = op.check(artifact, followup)
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                error = f"malformed artifact: {exc!r}"
        if error is not None:
            self.failures.append(f"{op.argv[0]}: {error}")
            print(f"FAILED {' '.join(op.argv)}: {error}", file=sys.stderr)
        self.times.append(elapsed)
        return elapsed

    def run_cycles(self, cycle, seconds: float, between=None) -> None:
        """Whole cycles, one at least, while the next one is expected to
        end within ``seconds`` of wall time.  ``between(elapsed)`` is called
        after each operation and its time counts toward ``seconds``."""
        start = last = time.perf_counter()
        while True:
            for op in cycle:
                self.run(op)
                if between is not None:
                    between(time.perf_counter() - start)
            now = time.perf_counter()
            if now + (now - last) - start > seconds:
                return
            last = now


def tail(times) -> tuple:
    """(value, percentile, samples beyond) of the highest percentile with
    at least TAIL_BEYOND samples beyond it, but not below the (upper)
    median: with 20 samples or fewer the tail is reported at the median."""
    ordered = sorted(times)
    n = len(ordered)
    rank = max(n - TAIL_BEYOND - 1, n // 2)
    return ordered[rank], 100.0 * (rank + 1) / n, n - rank - 1


def peak_rss_mb() -> float:
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def measure(workload, seed: int, seconds: float, workdir: Path,
            setups: int = SETUP_REPEATS) -> tuple:
    """Operations for ``seconds``, with ``setups`` timed set-ups spread
    evenly among them: set-up k runs once k/setups of the time is gone."""
    cli = import_trimreg()
    runner = Runner(cli, workdir)
    clock = SetupClock(workload.name, seed, workdir / "setup") if setups else None

    def pace(elapsed: float) -> None:
        due = setups if elapsed >= seconds else 1 + int(setups * elapsed / seconds)
        while len(clock.times) < due:
            clock.time_one()

    try:
        runner.run_cycles(workload.cycle(workdir, seed), seconds,
                          pace if clock else None)
        while clock and len(clock.times) < setups:
            clock.time_one()
        rss = peak_rss_mb()  # before the helper and its set-ups are reaped
    finally:
        if clock:
            clock.close()
    value, pct, beyond = tail(runner.times)
    metrics = {
        "ops_per_s": len(runner.times) / sum(runner.times),
        "op_p50_s": statistics.median(runner.times),
        "op_tail_s": value,
        "peak_rss_mb": rss,
    }
    notes = {"op_times_s": runner.times, "op_count": len(runner.times),
             "op_tail_percentile": pct, "op_tail_beyond": beyond}
    if clock:
        metrics = {"setup_s": statistics.median(clock.times), **metrics}
        notes["setup_samples_s"] = clock.times
    return runner, metrics, notes


def measure_traced(workload, seed: int, workdir: Path) -> tuple:
    """A warm-up cycle and an untraced one, then a timing pass and a
    memory pass of spans over the same cycle."""
    from spans import Tracer, layer_metrics, write_spans

    cli = import_trimreg()
    runner = Runner(cli, workdir)
    cycle = workload.cycle(workdir, seed)
    for op in cycle:
        runner.run(op)
    untraced = sum(runner.run(op) for op in cycle)
    passes = {}
    for memory in (False, True):
        tracer = Tracer(workdir / f"worker-spans-{int(memory)}", memory=memory)
        tracer.install()
        try:
            seconds = sum(runner.run(op) for op in cycle)
        finally:
            tracer.uninstall()
        passes[memory] = (tracer.records(), seconds)
    (timing, traced), (memory, _) = passes[False], passes[True]
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload.name}.json"
    write_spans(spans_path, timing, memory)
    metrics = layer_metrics(timing, memory, untraced, traced)
    notes = {"untraced_cycle_s": untraced, "traced_cycle_s": traced,
             "spans": len(timing), "spans_file": spans_path.name}
    return runner, metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-inputs", metavar="DIR", default=None,
                        help="only import trimreg and write the inputs into DIR "
                             "(the unit that setup_s times)")
    parser.add_argument("--serve-setups", metavar="DIR", default=None,
                        help="time one set-up into DIR per line read from stdin")
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]

    if args.write_inputs:
        write_inputs(workload, args.seed, Path(args.write_inputs))
        print(time.perf_counter())
        return 0
    if args.serve_setups:
        serve_setups(workload.name, args.seed, Path(args.serve_setups))
        return 0

    import_trimreg()  # fail before any work if the sources are missing
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    try:
        workload.write_inputs(workdir, args.seed)
        if args.trace:
            runner, metrics, notes = measure_traced(workload, args.seed, workdir)
            units = metric_units("per_layer")
        else:
            runner, metrics, notes = measure(workload, args.seed, args.seconds, workdir)
            units = metric_units("end_to_end")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if set(metrics) != set(units):
        raise SystemExit(f"metrics {sorted(set(metrics) ^ set(units))} disagree "
                         "with BENCHMARK.json")
    notes["digests"] = runner.digests
    failed = len(runner.failures)
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": environment(), "notes": notes,
              "failed_frac": failed / runner.attempted, "failures": runner.failures,
              "result": result}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")

    print(json.dumps({"env": record["env"], "notes": notes}))
    for k, v in metrics.items():
        print(f"  {workload.name:<17} {k:<38} {v:>14.6g} {units[k]}")
    print(f"  {workload.name:<17} {'failed_frac':<38} "
          f"{record['failed_frac']:>14.6g} ratio ({failed}/{runner.attempted})")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
