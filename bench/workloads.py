"""The benchmark's four workloads: inputs from a seed, a timed region,
and checks on every output made outside the timed region.

Every workload is split into *units* (one simulator run, or one history
to check) grouped in fixed-size *batches*.  Unit ``i`` of a seed is drawn
from its own ``random.Random``, so a unit's inputs never depend on how
many units came before it or on the hash seed.

Why these workloads:

* ``enforce-queue`` -- self-enforced queue runs.  Every operation
  rebuilds and rechecks the whole history so far, so per-verdict cost
  climbs along the run; this is where an incremental checker or a linear
  rebuild must show.  Search-heavy, and no verdict sees the same input
  twice.
* ``monitor-register`` -- the same layers used by a monitor.  The search
  is cheap on a register and the rebuild dominates; most verdicts recheck
  a tuple set identical to that verifier's previous one, so a verdict
  cache shows here and not on ``enforce-queue``.
* ``check-long`` -- the ``linview check`` path alone (parse, then
  check) on long generated histories with known answers, after Lowe,
  "Testing for linearizability" (CCPE 2017).  No simulator and no views:
  it isolates the checker and the parser.
* ``fuzz-short`` -- many tiny coupled-mode runs shaped like ``linview
  fuzz``.  Simulator stepping dominates and the search is trivial: the
  workload for simulator work, and one that checker work bypasses.  The
  phantom inner drives the error-witness path at small size.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

from linview import enforce, gen, membership, sim, trace, verifier, views
from linview.history import Event, History
from linview.scenarios import new_item_bug_inner
from linview.seqspec import get_spec

clock = time.perf_counter

# Every history stays well below ~1,000 operations, where the recursive
# search raises RecursionError: past that length a later fix would turn
# instant failures into timed successes and read as a slowdown.
# Runs are kept short so that one measurement holds dozens of them: the
# cost of a run varies by a third or more between schedules, and verdict
# latencies pooled over few runs jump with the mix.
ENFORCE_OPS = 32          # per process, 3 processes: 96 operations
MONITOR_OPS = 24          # per client, 3 clients: 72 operations
# Clients need 3 * 24 * 7 = 504 steps; over 1,500 schedules the last
# client finished by step 740.  The verifier keeps checking after that,
# so about two thirds of its verdicts come late and repeat their input.
# Near one half, the median verdict would sit on the edge between mid-run
# and full-history costs and jump between them from run to run.
MONITOR_STEPS = 1_050
# check-long leaves out queues and stacks: on the histories
# gen.linearizable_history makes for them, the search has a tail no run
# can absorb.  Of 400 queue histories of 60 operations one took over 3 s,
# one of 300 operations took 130 s and 941 MB, and of 300 stack
# histories of 300 operations one took over 3 s.  On sets and registers
# the slowest of 300 took 55 ms.  Queue search is timed on enforce-queue.
CHECK_OPS = 300
CHECK_SPECS = ("set", "register")
# Non-members are poisoned in one of their first few responses: poisoned
# late, a long history can take the search far longer to reject (a queue
# history of 300 operations poisoned near its end took 56 s), while
# poisoned early it fails within milliseconds.
POISON_WITHIN = 3
POISON = "bogus"          # a trace-safe word no catalog spec returns
FUZZ_PROCS, FUZZ_OPS = 3, 3


def unit_rng(workload: str, seed: int, index: int) -> random.Random:
    # str seeds hash with SHA-512, independent of PYTHONHASHSEED
    return random.Random(f"{workload}/{seed}/{index}")


# -- measuring from outside ----------------------------------------------

# The host lends each core to other tenants' work in slices of a few
# milliseconds, and while a neighbour runs, this program runs 1.7-1.9
# times slower; how much of the time a neighbour runs drifts over
# minutes, and some stretches of half a minute have no uncontended moment
# at all.  So after every verdict the benchmark also times a fixed loop
# that is no part of the program ("pace" samples), and run.py scales
# each time by PACE_UNCONTENDED_S over the mean pace sample measured
# beside it.  Over 4-s windows that cut verdict times' swing of 1.7-1.8x
# to 1.1-1.2x.  A loop over a large table matched the program's slowdown
# more closely, but the program evicts such a table from the cache, so
# a change in the program's memory use would have moved its pace.
PACE_SAMPLES = 8          # per verdict; a check-long history takes 64
# pace_loop's time on an uncontended core: the low mode of its samples on
# the machine the benchmark was tuned on (2 vCPUs of a Xeon "Sapphire
# Rapids" host, Python 3.11.7).  It only fixes the unit: on an
# uncontended core, scaled times equal timed ones.
PACE_UNCONTENDED_S = 16.5e-6


def pace_loop() -> int:
    total = 0
    for i in range(300):
        total += i * i % 7
    return total


def pace(out, samples: int = PACE_SAMPLES) -> None:
    """Time ``pace_loop`` a few times, outside every lap, into ``out``."""
    begin = clock()
    total = 0.0
    for _ in range(samples):
        start = clock()
        pace_loop()
        total += clock() - start
    out.paces.append(total / samples)
    out.paced_s += clock() - begin


def stopwatch(prog, out):
    """Pass a process program through unchanged, timing every resume
    that ends in a verdict intent: decode, rebuild and membership test.
    Pace samples follow each verdict."""
    value = None
    while True:
        start = clock()
        try:
            intent = prog.send(value)
        except StopIteration as stop:
            return stop.value
        if getattr(intent, "kind", None) == "verdict":
            out.laps.append(clock() - start)
            pace(out)
        value = yield intent


@contextmanager
def rebound(module, attr: str, make):
    """Rebind ``module.attr`` to ``make(original)`` for the block."""
    original = getattr(module, attr)
    setattr(module, attr, make(original))
    try:
        yield
    finally:
        setattr(module, attr, original)


def capturing(found: list):
    """Record each membership answer the run computes, so the output
    checks can validate linearizations without searching again.  The
    histories are not kept: holding them would grow the heap the timed
    region's garbage collections walk."""
    def make(is_linearizable):
        def recording(h, spec):
            lin = is_linearizable(h, spec)
            found.append(lin)
            return lin
        return recording
    return rebound(membership, "is_linearizable", make)


def stopwatched(module, attr: str, out):
    """Wrap every program the factory ``module.attr`` makes."""
    def make(factory):
        return lambda *args, **kwargs: stopwatch(factory(*args, **kwargs),
                                                 out)
    return rebound(module, attr, make)


# -- results -------------------------------------------------------------

@dataclass
class Outcome:
    """What the timed region of one unit produced."""

    sim_s: float = 0.0              # wall time of the simulator run
    work_s: float = 0.0             # the unit's whole timed region
    laps: list = field(default_factory=list)   # per-verdict seconds
    paces: list = field(default_factory=list)  # mean pace after each lap
    paced_s: float = 0.0            # pacing time, left out of sim/work
    recorded: object = None         # sim.RecordedExecution
    found: list = field(default_factory=list)  # linearizations, in order
    lin: object = None              # check-long: the answer
    history: object = None          # check-long: the parsed history
    view_violation: object = None   # fuzz-short: lambda_of check


@dataclass
class Unit:
    index: int
    spec_name: str
    system: object = None           # enforce.StarSystem
    scripts: dict = field(default_factory=dict)
    schedule: object = None
    correct_inner: bool = True
    text: str = ""                  # check-long: the trace file
    member: bool = True             # check-long: the known answer


# -- the workloads -------------------------------------------------------

class Workload:
    """Each batch runs in its own fork, and rates and peak memory are
    medians over batches: a batch holds a second or two of work, so that
    a run of twenty seconds holds ten batches or more."""

    name = ""
    batch_size = 1
    online = True
    span = staticmethod(lambda name: nullcontext())  # a traced pass rebinds

    def __init__(self, seed: int, specs: dict):
        self.seed = seed
        self.specs = specs          # spec name -> SeqSpec the checker uses

    def batch(self, b: int) -> list[Unit]:
        first = b * self.batch_size
        return [self.make_unit(i, unit_rng(self.name, self.seed, i))
                for i in range(first, first + self.batch_size)]

    def warmup(self) -> list[Unit]:
        """A few units outside every batch, to run before timing starts."""
        return [self.make_unit(i, unit_rng(self.name, self.seed, i))
                for i in range(-min(self.batch_size, 4), 0)]

    def star_system(self, spec_name: str, inner, engine: str = "atomic"):
        return enforce.StarSystem(spec=self.specs[spec_name], inner=inner,
                                  procs=3, engine=engine)

    def make_unit(self, index: int, rng: random.Random) -> Unit:
        raise NotImplementedError

    def execute(self, unit: Unit, outcome: Outcome) -> None:
        raise NotImplementedError

    def check(self, unit: Unit, out: Outcome) -> tuple[int, list[str]]:
        """Outputs attempted and a description of each failure."""
        return check_run(unit, out, f"{self.name} unit {unit.index}")


class EnforceQueue(Workload):
    name = "enforce-queue"
    batch_size = 2

    def make_unit(self, index, rng):
        plain = get_spec("queue")
        scripts = {p: gen.op_script("queue", p, ENFORCE_OPS, rng)
                   for p in (1, 2, 3)}
        return Unit(index, "queue",
                    self.star_system("queue", enforce.AtomicInner(plain)),
                    scripts, gen.random_schedule(rng, 3))

    def execute(self, unit, out):
        s = unit.system
        programs = {p: stopwatch(enforce.enforced_process(s, p, ops), out)
                    for p, ops in unit.scripts.items()}
        start = clock()
        with self.span("sim.run"):
            out.recorded = sim.run(programs, unit.schedule, s.memory,
                                   max_steps=100_000, meta=s.meta())
        out.sim_s = out.work_s = clock() - start - out.paced_s


class MonitorRegister(Workload):
    name = "monitor-register"
    batch_size = 1

    def make_unit(self, index, rng):
        plain = get_spec("register")
        scripts = {p: gen.op_script("register", p, MONITOR_OPS, rng)
                   for p in (1, 2, 3)}
        return Unit(index, "register",
                    self.star_system("register", enforce.AtomicInner(plain)),
                    scripts, gen.random_schedule(rng, 4))

    def execute(self, unit, out):
        with stopwatched(verifier, "monitor_process", out):
            start = clock()
            with self.span("sim.run"):
                rep = verifier.run_monitor_mode(
                    unit.system, unit.scripts, [4], unit.schedule,
                    max_steps=MONITOR_STEPS)
            out.sim_s = out.work_s = clock() - start - out.paced_s
        out.recorded = rep.recorded


class FuzzShort(Workload):
    name = "fuzz-short"
    batch_size = 200

    def make_unit(self, index, rng):
        correct = index % 2 == 0
        inner = (enforce.AtomicInner(get_spec("queue")) if correct
                 else new_item_bug_inner())
        scripts = {p: gen.op_script("queue", p, FUZZ_OPS, rng)
                   for p in range(1, FUZZ_PROCS + 1)}
        return Unit(index, "queue",
                    self.star_system("queue", inner, engine="collect"),
                    scripts, gen.random_schedule(rng, FUZZ_PROCS),
                    correct_inner=correct)

    def execute(self, unit, out):
        with stopwatched(verifier, "verifier_process", out):
            start = clock()
            with self.span("sim.run"):
                rep = verifier.run_verification(
                    unit.system, unit.scripts, unit.schedule,
                    max_steps=20_000)
            mid = clock() - out.paced_s
            out.view_violation = views.validate_views(
                views.lambda_of(rep.recorded))
            end = clock() - out.paced_s
        out.sim_s, out.work_s = mid - start, end - start
        out.recorded = rep.recorded


class CheckLong(Workload):
    name = "check-long"
    batch_size = 50
    online = False

    def make_unit(self, index, rng):
        spec_name = CHECK_SPECS[index % len(CHECK_SPECS)]
        h = gen.linearizable_history(rng, spec_name, 3, CHECK_OPS)
        member = (index // len(CHECK_SPECS)) % 4 != 3   # a quarter poisoned
        if not member:
            h = poison_early(rng, h)
        return Unit(index, spec_name, text=trace.format_history(h),
                    member=member)

    def execute(self, unit, out):
        start = clock()
        out.history = trace.parse_history(unit.text)
        out.lin = membership.is_linearizable(out.history,
                                             self.specs[unit.spec_name])
        out.work_s = clock() - start
        out.laps.append(out.work_s)
        pace(out, 8 * PACE_SAMPLES)

    def check(self, unit, out):
        if (out.lin is not None) != unit.member:
            return 1, [f"history {unit.index}: membership answer "
                       f"{out.lin is not None}, expected {unit.member}"]
        if out.lin is not None and not membership.check_linearization(
                out.history, get_spec(unit.spec_name), out.lin):
            return 1, [f"history {unit.index}: linearization rejected"]
        return 1, []


def poison_early(rng: random.Random, h: History) -> History:
    """Replace one of the first responses with a value no spec returns."""
    events = list(h.events)
    responses = [i for i, e in enumerate(events) if e.kind == "res"]
    i = rng.choice(responses[:POISON_WITHIN])
    events[i] = Event("res", events[i].op, POISON)
    return History(events)


def check_run(unit: Unit, out: Outcome, where: str) -> tuple[int, list[str]]:
    """Check every verdict of one online run, plus the run itself.

    A verdict fails if a correct inner got an error, if its membership
    answer disagrees with the search's, if a claimed linearization of the
    history its tuples encode fails ``check_linearization``, or if an
    error witness is not that history or is linearizable.  The run fails
    on a view-property violation in ``lambda_of`` or on an unfinished
    operation.
    """
    spec = get_spec(unit.spec_name)
    rec = out.recorded
    verdicts = [e.value for e in rec.verdicts()]
    problems: list[str] = []
    # The simulator is sequential and each verdict searches once, so the
    # k-th answer captured belongs to the k-th verdict.  Otherwise search
    # again, outside the timed region.
    paired = len(out.found) == len(verdicts)
    built: dict = {}    # tuple set -> (history, last linearization accepted)
    for k, v in enumerate(verdicts):
        h, accepted = built.get(v.tuples) or (views.build_history(v.tuples),
                                              None)
        lin = out.found[k] if paired else membership.is_linearizable(h, spec)
        if lin is not None and lin != accepted \
                and membership.check_linearization(h, spec, lin):
            accepted = lin
        built[v.tuples] = h, accepted
        bad = None
        if v.error and unit.correct_inner:
            bad = "error verdict from a correct inner"
        elif v.error != (lin is None):
            bad = "membership answer disagrees with the search"
        elif lin is not None and lin != accepted:
            bad = "linearization rejected"
        elif v.error and (v.witness != h or membership.is_linearizable(
                v.witness, spec) is not None):
            bad = "error witness is linearizable"
        if bad:
            problems.append(f"{where} verdict {k}: {bad}")
    violation = out.view_violation or views.validate_views(
        views.lambda_of(rec))
    if violation is not None:
        problems.append(f"{where}: {violation.describe()}")
    star = rec.star_history()
    if star.pending_uids():
        problems.append(f"{where}: {len(star.pending_uids())} operations "
                        "unfinished")
    return len(verdicts) + 1, problems


WORKLOADS = {w.name: w for w in (EnforceQueue, MonitorRegister, CheckLong,
                                  FuzzShort)}
