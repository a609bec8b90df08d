"""Benchmark for specdbl: one command per workload, end-to-end or traced.

    python3 bench/run.py --workload certify --seed 1 --seconds 25 --trace 0

Set-up runs ``bench/workloads.py`` in REPS fresh child processes (import
plus input generation each; ``setup_s`` is their median CPU time).  The
timed phase then calls ``specdbl.cli.main(argv)`` in this process, in a
closed loop with one client and one BLAS thread, whole rounds of the
workload's ops at a time, until --seconds of wall time have passed.  The
gated op times are CPU seconds of this single-threaded process, divided by
the host slowdown that ``bench/pace.py`` measures between the ops of the
same run; the CPU times before that division and the wall times are
printed alongside.  Outputs are checked against the oracles in
``bench/oracle.py`` after the timed phase.  With --trace 1 every op runs
twice, untraced and traced in alternating order, and the per-layer metrics
come from the traced copies.  The last line of stdout is the JSON result;
the lines before it are a readable summary and the environment.
"""

from __future__ import annotations

import os

# Fix BLAS threads before numpy loads; children inherit the setting.  One
# thread keeps an op's CPU time equal to its wall time on an idle core; with
# two, OpenBLAS's spinning threads make both readings follow the neighbours.
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

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
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import pace  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / ".out"
WORKLOADS = ("certify", "shrink", "recheck")
REPS = 3
SETUP_TIMEOUT_S = 120


def _parse_args(argv):
    parser = argparse.ArgumentParser(description="specdbl benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _setup(workload: str, seed: int, work: Path) -> tuple[list, list, list]:
    """Run the set-up repetitions; return their CPU times, wall times and rounds."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cpu, wall, rounds = [], [], []
    for rep in range(REPS):
        out = work / f"rep{rep}"
        cpu_start, start = _children_cpu(), time.perf_counter()
        subprocess.run(
            [sys.executable, str(BENCH / "workloads.py"), "--workload", workload,
             "--seed", str(seed), "--rep", str(rep), "--out", str(out)],
            env=env, check=True, timeout=SETUP_TIMEOUT_S,
        )
        wall.append(time.perf_counter() - start)
        cpu.append(_children_cpu() - cpu_start)
        rounds.append(json.loads((out / "manifest.json").read_text())["rounds"])
    return cpu, wall, rounds


def _round_robin(per_rep: list):
    """Rounds of rep 0, rep 1, ... interleaved, then again from the start."""
    order = [r for group in zip(*per_rep) for r in group]
    while True:
        yield from order


class Runner:
    """Runs ops through specdbl.cli.main and keeps what the checks need."""

    def __init__(self, work: Path, tracer=None):
        from specdbl import cli

        self.main = cli.main
        self.work = work
        self.tracer = tracer
        self.records = []  # dicts: op, out, seconds, cpu, code, stdout, error, traced

    def run(self, op: dict, traced: bool) -> None:
        index = len(self.records)
        out_path = str(self.work / f"out{index}.json")
        argv = [out_path if a == "{out}" else a for a in op["argv"]]
        stdout, stderr = io.StringIO(), io.StringIO()
        code, error = None, None
        root = self.tracer.begin(index) if traced else None
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = self.main(argv)
        except SystemExit as exc:  # argparse rejects a command line
            code = exc.code
        except Exception as exc:  # noqa: BLE001 - an op that raises counts as failed
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        cpu = time.process_time() - cpu_start
        if traced:
            self.tracer.end(root)
            seconds = root[2] - root[1]  # the span the self times add up to
        self.records.append({"op": op, "out": out_path, "seconds": seconds, "cpu": cpu, "code": code,
                             "stdout": stdout.getvalue(), "error": error or stderr.getvalue(),
                             "traced": traced})


def _warm_up(work: Path, first_round: list) -> None:
    """Run one round untimed, so that lazy imports, allocator growth and
    first-touch page faults fall outside the timed phase."""
    warm = work / "warm"
    warm.mkdir()
    runner = Runner(warm)
    for op in first_round:
        runner.run(op, traced=False)


def _timed_phase(runner: Runner, rounds, seconds: float, paired: bool,
                 pace_pass) -> tuple[float, list, list]:
    """Closed loop over whole rounds until `seconds` have passed, with one
    pace pass after every op.

    Returns the wall time, per round its op count and CPU time without the
    pace passes, and the CPU times of the pace passes."""
    start = time.perf_counter()
    per_round, passes = [], []
    pair = 0
    for ops in rounds:
        cpu_start = time.process_time()
        for op in ops:
            if paired:
                first = pair % 2 == 1
                runner.run(op, traced=first)
                runner.run(op, traced=not first)
                pair += 1
            else:
                runner.run(op, traced=False)
            passes.append(pace_pass())
        spent = time.process_time() - cpu_start - sum(passes[-len(ops):])
        per_round.append((len(ops), spent))
        if time.perf_counter() - start >= seconds:
            break
    return time.perf_counter() - start, per_round, passes


def _check(records) -> list:
    """Check every op's output after the timed phase; return the failures."""
    import oracle

    cache = {}
    verdicts = {}  # a read-side op that printed the same output gets the same verdict
    failures = []
    for i, rec in enumerate(records):
        name = f"op {i} {rec['op']['argv'][0]}"
        if rec["code"] != 0:
            failures.append(f"{name}: exit {rec['code']} {rec['error']}")
            continue
        check = rec["op"]["check"]
        key = (json.dumps(check, sort_keys=True), rec["stdout"])
        if check["kind"] == "refine" or key not in verdicts:  # refine output files differ
            try:
                oracle.check_op(check, rec["stdout"], rec["out"], cache)
                verdicts[key] = None
            except (oracle.CheckFailed, KeyError, ValueError, OSError) as exc:
                verdicts[key] = f"{type(exc).__name__}: {exc}"
        if verdicts[key] is not None:
            failures.append(f"{name}: {verdicts[key]}")
    return failures


def op_median(records) -> float:
    """Median over the distinct ops of each op's median CPU time.

    A workload that repeats a few kinds of op of very different cost would
    otherwise have its median sit at the edge of one kind's spread."""
    by_op = defaultdict(list)
    for rec in records:
        by_op[tuple(rec["op"]["argv"])].append(rec["cpu"])
    return statistics.median(statistics.median(times) for times in by_op.values())


def tail(times: list) -> tuple[float, float]:
    """Highest order statistic with at least ten ops beyond it, and its percentile."""
    ordered = sorted(times)
    k = max(0, len(ordered) - 11)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.exists():
                return loose.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _blas() -> dict:
    import ctypes

    import numpy as np

    info = {"requested_threads": BLAS_THREADS, "threads": None, "library": None}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["library"] = f"{deps.get('name')} {deps.get('version')}"
    except (KeyError, TypeError, ValueError):
        pass
    # ask a bundled OpenBLAS how many threads it actually uses
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                info["threads"] = getter()
                return info
    return info


def _environment(workload: str, seed: int, trace: int) -> dict:
    import numpy as np

    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "nproc": NPROC,
        "commit": _git_commit(),
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "src_lines": src_lines,
        "clients": 1,
        "loop": "closed",
    }


def _layer_summary(tracer, records, summary: list) -> dict:
    """Per-layer metrics of the traced ops; appends the readable table."""
    from tracing import layer_metrics

    traced = [r["seconds"] for r in records if r["traced"]]
    plain = [r["seconds"] for r in records if not r["traced"]]
    layers = layer_metrics(tracer, len(traced))
    overhead = statistics.median(traced) - statistics.median(plain)
    layers["trace.overhead_s"] = {"value": overhead, "unit": "s", "absent": False}
    own = sum(m["value"] for name, m in layers.items()
              if m["unit"] == "s" and name != "trace.overhead_s")
    mean_op = statistics.fmean(traced)
    summary.append(f"# traced ops {len(traced)}: mean {mean_op:.6f} s, sum of self times "
                   f"{own:.6f} s (difference {own - mean_op:.2e}), median traced "
                   f"{statistics.median(traced):.6f} s vs untraced {statistics.median(plain):.6f} s")
    if tracer.missing:
        summary.append(f"# wrappers missing: {', '.join(tracer.missing)}")
    absent = sorted(name for name, m in layers.items() if m["absent"])
    if absent:
        summary.append(f"# absent metrics (reported as 0): {', '.join(absent)}")
    summary.append("# per-layer metrics per traced op (share of traced op time for seconds)")
    for name, m in layers.items():
        share = f"{100 * m['value'] / mean_op:6.2f} %" if m["unit"] == "s" else ""
        summary.append(f"#   {name:38s} {m['value']:>16.6f} {m['unit']:6s} {share}")
    return {name: {"value": m["value"], "unit": m["unit"]} for name, m in layers.items()}


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "specdbl" / "cli.py").is_file():
        print(f"error: no specdbl sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    work = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return _bench(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _bench(args, work: Path) -> int:
    try:
        setup_cpu, setup_wall, per_rep = _setup(args.workload, args.seed, work)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    _warm_up(work, per_rep[0][0])
    runner = Runner(work, tracer)
    wall, per_round, passes = _timed_phase(
        runner, _round_robin(per_rep), args.seconds, bool(args.trace),
        lambda: pace.sample(args.workload, work))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    failures = _check(runner.records)
    env = _environment(args.workload, args.seed, args.trace)

    records = runner.records
    attempted = len(records)
    failed = len(failures)
    summary = [f"# workload {args.workload}, seed {args.seed}, {attempted} ops in {wall:.3f} s, "
               f"{failed} failed (fail_rate {failed / attempted:.4f} ratio)"]
    summary += [f"# FAIL {msg}" for msg in failures[:20]]
    if args.trace:
        metrics = _layer_summary(tracer, records, summary)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(spans_path)
        summary.append(f"# spans written to {spans_path.relative_to(ROOT)}")
    else:
        cpu_times = [r["cpu"] for r in records]
        wall_times = [r["seconds"] for r in records]
        tail_s, tail_pct = tail(cpu_times)
        passed = (attempted - failed) / attempted
        p50_s, rate = op_median(records), passed * statistics.median(n / c for n, c in per_round)
        slowdown = statistics.median(passes) / pace.NOMINAL_S[args.workload]
        metrics = {
            "op_cpu_p50_s": {"value": p50_s / slowdown, "unit": "s"},
            "op_cpu_tail_s": {"value": tail_s / slowdown, "unit": "s"},
            "ops_per_cpu_s": {"value": rate * slowdown, "unit": "1/s"},
            "setup_s": {"value": statistics.median(setup_cpu), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        summary.append(f"# host slowdown {slowdown:.4f} (median of {len(passes)} pace passes "
                       f"over {pace.NOMINAL_S[args.workload]} s); CPU values before dividing "
                       f"by it: op p50 {p50_s:.6f} s, tail {tail_s:.6f} s, {rate:.4f} ops/s")
        summary.append(f"# op_cpu_tail_s is p{tail_pct:.1f} of {attempted} ops; "
                       f"setup runs {', '.join(f'{t:.3f}' for t in setup_cpu)} s CPU, "
                       f"{', '.join(f'{t:.3f}' for t in setup_wall)} s wall")
        summary.append(f"# wall time, not gated: op p50 {statistics.median(wall_times):.6f} s, "
                       f"tail {tail(wall_times)[0]:.6f} s, {(attempted - failed) / wall:.4f} ops/s")
        summary += [f"#   {name:12s} {m['value']:>14.6f} {m['unit']}" for name, m in metrics.items()]

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"env": env, "result": result, "failures": failures,
                    "ops": [[r["op"]["argv"][0], Path(r["op"]["argv"][2]).name, r["traced"],
                             r["seconds"], r["cpu"]] for r in records]}, indent=1))
    print("\n".join(summary))
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
