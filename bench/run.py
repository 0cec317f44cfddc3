"""linview benchmark: online verdicts, the offline checker, and the
simulator, timed end to end and layer by layer.

Run every workload, each in its own process, and print every metric::

    python3 bench/run.py                 # end-to-end metrics, tracing off
    python3 bench/run.py --trace 1       # per-layer metrics, traced pass

Run one workload (the last stdout line is one JSON result)::

    python3 bench/run.py --workload enforce-queue --seed 1 --seconds 20 --trace 0

A run measures for ``--seconds`` seconds of timed work, then reports
rates and percentiles over every sample, each time scaled to the pace of
an uncontended core (see ``measure``).  Outputs are checked outside the
timed region; ``failed`` counts the outputs that fail those checks.
With ``--trace 1`` the run instead times one fixed batch of inputs
untraced and then traced, repeatedly, and reports per-layer self times,
counts, and the tracing overhead.  Standard library only; the program is
imported from ``src/`` of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent

END_TO_END = ("setup_s", "verdicts_per_s", "verdict_ms_p50", "verdict_ms_p90",
              "peak_rss_mb")
PER_LAYER = ("sim.self_s", "sim.steps", "sim.base_steps_per_op",
             "views.validate_views_s", "views.build_history_s",
             "membership.is_linearizable_s", "seqspec.delta_calls",
             "enforce.tuples_per_verdict_mean", "enforce.decode_items_s",
             "enforce.verdict_ms_q1", "enforce.verdict_ms_q4",
             "verifier.repeat_ratio", "trace.parse_history_s",
             "tracing.overhead_ratio")
UNITS = {"setup_s": "s", "verdicts_per_s": "1/s", "verdict_ms_p50": "ms",
         "verdict_ms_p90": "ms", "verdict_ms_p99": "ms", "runs_per_s": "1/s",
         "peak_rss_mb": "MB", "sim.steps": "count",
         "sim.base_steps_per_op": "count", "seqspec.delta_calls": "count",
         "enforce.tuples_per_verdict_mean": "count",
         "enforce.verdict_ms_q1": "ms", "enforce.verdict_ms_q4": "ms",
         "verifier.repeat_ratio": "ratio", "tracing.overhead_ratio": "ratio",
         "host_slowdown": "ratio", "verdict_ms_p50_as_timed": "ms"}
SETUP_REPEATS = 9
SETUP_PACE_SAMPLES = 32


def import_program():
    """Import linview from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "linview" / "__init__.py").is_file():
        sys.exit(f"error: no linview sources under {src}")
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH_DIR))
    import linview
    if Path(linview.__file__).resolve().parent != src / "linview":
        sys.exit(f"error: imported linview from {linview.__file__}")


def quantile(values, q: float) -> float:
    """Nearest-rank quantile of a non-empty sample."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def git_commit() -> str:
    """The checkout's commit, read from ``.git`` without leaving ROOT."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "pythonhashseed": os.environ.get("PYTHONHASHSEED", "random"),
            "commit": git_commit()}


# -- one workload --------------------------------------------------------

class Tally:
    """Samples and output checks of one pass over some units."""

    def __init__(self):
        self.laps: list[float] = []     # per-verdict seconds, as timed
        self.scaled: list[float] = []   # the same at the uncontended pace
        self.scaled_timed = self.scaled_work = 0.0
        self.paces: list[float] = []    # mean pace sample after each lap
        self.quarters: tuple[list, list] = ([], [])
        self.sim_s = self.work_s = 0.0
        self.units = self.verdicts = 0
        self.attempted = 0
        self.problems: list[str] = []
        self.outcomes: list = []    # kept only in the traced pass

    def add(self, workload, unit, out, keep: bool) -> None:
        self.units += 1
        self.sim_s += out.sim_s
        self.work_s += out.work_s
        self.laps.extend(out.laps)
        self.verdicts += len(out.laps)
        if out.laps:
            self.add_scaled(workload, out)
        if workload.online and len(out.laps) >= 4:
            q = len(out.laps) // 4
            self.quarters[0].extend(out.laps[:q])
            self.quarters[1].extend(out.laps[-q:])
        attempted, problems = workload.check(unit, out)
        self.attempted += attempted
        self.problems.extend(problems)
        if keep:
            self.outcomes.append(out)

    def add_scaled(self, workload, out) -> None:
        """Scale each lap by the uncontended pace over the mean pace of
        the samples taken just before and just after it, and the rest of
        the unit's time by the uncontended pace over the unit's mean."""
        from workloads import PACE_UNCONTENDED_S as uncontended
        local = [(a + b) / 2 for a, b in zip(out.paces[:1] + out.paces,
                                               out.paces)]
        scaled = [lap * uncontended / pace
                  for lap, pace in zip(out.laps, local)]
        mean_pace = statistics.fmean(out.paces)
        rest = (out.sim_s if workload.online else out.work_s) - sum(out.laps)
        self.scaled.extend(scaled)
        self.scaled_timed += sum(scaled) + rest * uncontended / mean_pace
        self.scaled_work += out.work_s * uncontended / mean_pace
        self.paces.extend(out.paces)

    def absorb(self, other: Tally) -> None:
        self.units += other.units
        self.verdicts += other.verdicts
        self.work_s += other.work_s
        self.laps.extend(other.laps)
        self.attempted += other.attempted
        self.problems.extend(other.problems)

    def fail(self, unit, exc: Exception) -> None:
        self.units += 1
        self.attempted += 1
        self.problems.append(f"unit {unit.index}: {type(exc).__name__}: "
                             f"{exc}")


def run_unit(workload, unit, tally: Tally, tracer=None) -> None:
    from workloads import Outcome, capturing
    out = Outcome()
    try:
        if tracer is None:
            with capturing(out.found):
                workload.execute(unit, out)
        else:
            with capturing(out.found), tracer.installed():
                workload.execute(unit, out)
        tally.add(workload, unit, out, keep=tracer is not None)
    except Exception as exc:  # any crash is a failed output, not a stop
        tally.fail(unit, exc)


def timed_setup(workload, b: int, samples: list):
    """Make batch ``b``; record its set-up time at the uncontended pace,
    scaled by pace samples taken just before and just after it."""
    from workloads import PACE_UNCONTENDED_S, Outcome, pace
    paced = Outcome()
    pace(paced, SETUP_PACE_SAMPLES)
    start = time.perf_counter()
    units = workload.batch(b)
    took = time.perf_counter() - start
    pace(paced, SETUP_PACE_SAMPLES)
    samples.append(took * PACE_UNCONTENDED_S / statistics.fmean(paced.paces))
    return units


def run_batch(workload, units) -> dict:
    """Execute one batch of units; runs in a child of ``in_fork``."""
    gc.freeze()     # the parent's heap is not this execution's garbage
    t = Tally()
    for unit in units:
        run_unit(workload, unit, t)
    return {"units": t.units, "work_s": t.work_s, "laps": t.laps,
            "scaled": t.scaled, "scaled_timed": t.scaled_timed,
            "scaled_work": t.scaled_work, "paces": t.paces,
            "attempted": t.attempted,
            "problems": t.problems, "peak_rss_mb": peak_rss_mb()}


def in_fork(fn, *args):
    """Return ``fn(*args)``, computed in a forked child.

    Every child starts from this process as it is now, so nothing one
    batch leaves behind -- a cache, a grown heap -- reaches the next, and
    the child's peak resident memory is that batch's alone.  The result
    comes back as JSON through a pipe; the child is always waited for,
    and killed first if this process is stopped early."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "w") as pipe:
                json.dump(fn(*args), pipe)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    done = False
    try:
        with os.fdopen(read_fd) as pipe:
            data = pipe.read()
        done = True
    finally:
        if not done:
            os.kill(pid, signal.SIGKILL)
        _, status = os.waitpid(pid, 0)
    if status != 0:
        sys.exit(f"error: a measured batch exited with status {status}")
    return json.loads(data)


def measure(args, specs) -> tuple[dict, Tally]:
    """The untraced run: a few warm-up units, then whole batches of timed
    work, each in a fresh fork, until ``--seconds`` of it are done.

    Every time is reported at the pace of an uncontended core, scaled by
    the pace measured beside it (``Tally.add_scaled``, ``timed_setup``).
    Latency percentiles are taken over every verdict; rates and peak
    memory per batch, and reported as the median over batches, which the
    rare unit whose search runs far longer than the rest does not move.
    The mean slowdown and the median latency as timed are printed beside
    the metrics."""
    from workloads import PACE_UNCONTENDED_S, WORKLOADS
    workload = WORKLOADS[args.workload](args.seed, specs)
    for unit in workload.warmup():  # specialise the bytecode children share
        run_unit(workload, unit, Tally())
    setups: list[float] = []
    for _ in range(SETUP_REPEATS - 1):
        timed_setup(workload, 0, setups)
    batches: list[dict] = []
    while sum(b["work_s"] for b in batches) < args.seconds:
        units = timed_setup(workload, len(batches), setups)
        batches.append(in_fork(run_batch, workload, units))
    timed = [b for b in batches if b["scaled"]]
    if not timed:
        sys.exit("error: no verdict was timed")
    paces = [pace for b in timed for pace in b["paces"]]
    slow = statistics.fmean(paces) / PACE_UNCONTENDED_S
    ms = [x * 1e3 for b in timed for x in b["scaled"]]
    laps = [lap for b in timed for lap in b["laps"]]
    n = len(ms)
    metrics = {
        "setup_s": (statistics.median(setups), len(setups)),
        "verdicts_per_s": (statistics.median(
            len(b["scaled"]) / b["scaled_timed"] for b in timed),
            len(timed)),
        "verdict_ms_p50": (statistics.median(ms), n),
        "verdict_ms_p90": (quantile(ms, 0.90), n),
        "verdict_ms_p99": (quantile(ms, 0.99), n),
        "runs_per_s": (statistics.median(
            b["units"] / b["scaled_work"] for b in timed),
            len(timed)),
        "peak_rss_mb": (statistics.median(b["peak_rss_mb"] for b in batches),
                        len(batches)),
        "host_slowdown": (slow, len(paces)),
        "verdict_ms_p50_as_timed": (statistics.median(laps) * 1e3, n),
    }
    total = Tally()
    for b in batches:
        total.units += b["units"]
        total.attempted += b["attempted"]
        total.problems.extend(b["problems"])
    return metrics, total


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def traced(args, plain_specs) -> tuple[dict, Tally]:
    """The traced run: pairs of untraced and traced passes over batch 0."""
    from spans import CountingSpec, Tracer
    from workloads import WORKLOADS
    cls = WORKLOADS[args.workload]
    total = Tally()
    passes: list[dict] = []
    while not passes or sum(p["wall"] for p in passes) < args.seconds:
        untraced, plain = cls(args.seed, plain_specs), Tally()
        for unit in untraced.batch(0):
            run_unit(untraced, unit, plain)
        counting = {name: CountingSpec(spec)
                    for name, spec in plain_specs.items()}
        workload = cls(args.seed, {n: c.spec for n, c in counting.items()})
        tracer, traced_tally = Tracer(), Tally()
        workload.span = tracer.span
        for unit in workload.batch(0):
            run_unit(workload, unit, traced_tally, tracer)
        passes.append(layer_metrics(workload, tracer, traced_tally, counting,
                                    plain))
        total.absorb(plain)
        total.absorb(traced_tally)
    metrics = {}
    for name in PER_LAYER:
        values = [p[name] for p in passes]
        metrics[name] = (statistics.median(values), len(values))
    return metrics, total


def layer_metrics(workload, tracer, tally: Tally, counting: dict,
                  plain: Tally) -> dict:
    own = tracer.self_times()
    steps = base = tuples = repeats = verdicts = 0
    for out in tally.outcomes:
        if out.recorded is None:
            continue
        steps += len(out.recorded.entries)
        per_op: dict = {}
        for e in out.recorded.base_steps():
            if e.uid is not None:
                per_op[e.uid] = per_op.get(e.uid, 0) + 1
        base = max(base, max(per_op.values(), default=0))
        last: dict = {}
        for v in (e.value for e in out.recorded.verdicts()):
            verdicts += 1
            tuples += len(v.tuples)
            repeats += last.get(v.process) == v.tuples
            last[v.process] = v.tuples
    q1, q4 = plain.quarters
    return {
        "wall": plain.work_s + tally.work_s,
        "sim.self_s": own.get("sim.run", 0.0),
        "sim.steps": steps,
        "sim.base_steps_per_op": base,
        "views.validate_views_s": own.get("views.validate_views", 0.0),
        "views.build_history_s": own.get("views.build_history", 0.0),
        "membership.is_linearizable_s":
            own.get("membership.is_linearizable", 0.0),
        "seqspec.delta_calls": sum(c.calls for c in counting.values()),
        "enforce.tuples_per_verdict_mean": tuples / verdicts if verdicts
        else 0.0,
        "enforce.decode_items_s": own.get("enforce.decode_items", 0.0),
        "enforce.verdict_ms_q1": statistics.median(q1) * 1e3 if q1 else 0.0,
        "enforce.verdict_ms_q4": statistics.median(q4) * 1e3 if q4 else 0.0,
        "verifier.repeat_ratio": repeats / verdicts if verdicts else 0.0,
        "trace.parse_history_s": own.get("trace.parse_history", 0.0),
        "tracing.overhead_ratio": tally.work_s / plain.work_s,
    }


def run_one(args) -> int:
    from linview.seqspec import get_spec
    specs = {name: get_spec(name) for name in ("queue", "set", "register")}
    print("# env " + json.dumps(environment(args), sort_keys=True))
    # stopped early, unwind so that a measured child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.trace:
        metrics, tally = traced(args, specs)
        names = PER_LAYER
    else:
        metrics, tally = measure(args, specs)
        names = END_TO_END
    shown = names if args.trace else END_TO_END + (
        "runs_per_s", "verdict_ms_p99", "host_slowdown",
        "verdict_ms_p50_as_timed")
    for name in shown:
        value, n = metrics[name]
        print(f"{args.workload:17s} {name:32s} {value:14.6f} "
              f"{UNITS.get(name, 's'):6s} n={n}")
    failed = len(tally.problems)
    for problem in tally.problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"{args.workload:17s} {'failed_ratio':32s} {failed}/"
          f"{tally.attempted} = {failed / max(tally.attempted, 1):.6f}")
    print(json.dumps({
        "correct": failed == 0, "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0],
                           "unit": UNITS.get(name, "s")} for name in names},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; relay output, then one summary."""
    from workloads import WORKLOADS
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               name, "--seed", str(args.seed), "--seconds",
               str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}",
                  file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        help="enforce-queue | monitor-register | check-long "
                             "| fuzz-short | all (default)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_program()
    from workloads import WORKLOADS
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
