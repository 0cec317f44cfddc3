"""Deterministic shared-memory simulator.

Processes are Python generators that yield one intent per scheduler step:
a read, a write, an atomic snapshot, a boundary event (invocation,
response, verdict, ...), or an inner-object response.  The scheduler
executes the intent atomically, appends one log entry, and resumes the
generator with the outcome.  Local computation between yields costs
nothing, matching a model where only shared-memory accesses are steps.

Snapshot arrays come in two engines:

* ``atomic``  -- a snapshot is one scheduler step.
* ``collect`` -- wait-free from reads and writes: scans double-collect
  until clean, and every write embeds the writer's latest scan so that a
  scanner observing the same process move twice adopts that embedded
  view.  Only ``read``/``write`` entries reach the log.

Every scan reports a linearization point: a log index such that the scan
is equivalent to an atomic snapshot taken just after that step.  For a
clean double collect this is the last read of the first collect; adopted
scans inherit the embedded point, which the helping argument places
inside the adopter's interval.

Runs are reproducible: the same programs, schedule, and seed produce an
identical log.  A separate ``run_threads`` entry point drives the same
programs from native threads with no determinism guarantee.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field
from typing import Callable, Generator, Iterable, NamedTuple


class SimError(RuntimeError):
    pass


class MalformedSchedule(ValueError):
    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (token {position})"
        super().__init__(message)
        self.position = position


# -- log -----------------------------------------------------------------

#: kinds of base-object steps, as opposed to boundary/local events
BASE_KINDS = frozenset({"read", "write", "snap"})


@dataclass(slots=True)
class LogEntry:
    index: int
    process: int
    kind: str
    ctx: str = ""
    uid: str | None = None
    target: str | None = None
    cell: int | None = None
    value: object = None
    seq: int | None = None
    view: object = None
    linpoint: int | None = None
    announce: bool = False


class StepResult(NamedTuple):
    value: object
    index: int


# -- shared objects ------------------------------------------------------

class CellRecord(NamedTuple):
    """Collect-engine register content: payload plus helping metadata."""
    seq: int
    value: object
    embedded: tuple
    linpoint: int


class SnapshotArray:
    """n single-writer registers supporting snapshot reads."""

    def __init__(self, name: str, n: int, initial: object = None,
                 engine: str = "atomic"):
        if engine not in ("atomic", "collect"):
            raise ValueError(f"unknown snapshot engine {engine!r}")
        self.name = name
        self.n = n
        self.engine = engine
        self.initial = initial
        if engine == "atomic":
            self.cells: list = [initial] * n
        else:
            base = (initial,) * n
            self.cells = [CellRecord(0, initial, base, -1) for _ in range(n)]
        self.writes: list[tuple[int, int, int, object]] = []  # audit

    def payload(self, cell: int) -> object:
        v = self.cells[cell]
        return v.value if self.engine == "collect" else v


class Memory:
    """All shared state of one run: named arrays plus an append-only node
    store for the bounded (linked-list) announce representation."""

    def __init__(self):
        self.arrays: dict[str, SnapshotArray] = {}
        self.nodes: list[tuple[object, int | None]] = []

    def new_array(self, name: str, n: int, initial: object = None,
                  engine: str = "atomic") -> SnapshotArray:
        if name in self.arrays:
            raise ValueError(f"array {name!r} already exists")
        arr = SnapshotArray(name, n, initial, engine)
        self.arrays[name] = arr
        return arr

    def array(self, name: str) -> SnapshotArray:
        return self.arrays[name]

    def alloc_node(self, item: object, prev: int | None) -> int:
        self.nodes.append((item, prev))
        return len(self.nodes) - 1

    def chain_items(self, node_id: int | None) -> list[object]:
        items = []
        while node_id is not None:
            item, node_id = self.nodes[node_id]
            items.append(item)
        return items


def decode_items(vector: Iterable, memory: Memory) -> frozenset:
    """Union the announce cells of a snapshot vector; cells hold item
    sets or, in bounded mode, linked-list node ids."""
    items: set = set()
    for cell in vector:
        if cell is None:
            continue
        if isinstance(cell, int):
            items.update(memory.chain_items(cell))
        else:
            items.update(cell)
    return frozenset(items)


class ProcCtx:
    """Per-process local bookkeeping that needs no shared steps: write
    sequence numbers (single-writer registers) and linked-list heads."""

    def __init__(self, process: int):
        self.process = process
        self.seqs: dict[str, int] = {}
        self.heads: dict[str, int | None] = {}
        self.sets: dict[str, frozenset] = {}

    def next_seq(self, array: str) -> int:
        self.seqs[array] = self.seqs.get(array, 0) + 1
        return self.seqs[array]


# -- intents -------------------------------------------------------------

@dataclass(slots=True)
class ReadI:
    array: SnapshotArray
    cell: int
    ctx: str = ""
    uid: str | None = None


@dataclass(slots=True)
class WriteI:
    array: SnapshotArray
    cell: int
    value: object  # payload (atomic) or CellRecord (collect)
    ctx: str = ""
    uid: str | None = None
    announce: bool = False


@dataclass(slots=True)
class SnapI:
    array: SnapshotArray
    ctx: str = ""
    uid: str | None = None


@dataclass(slots=True)
class EmitI:
    """A boundary or local event that owns one log entry."""
    kind: str
    ctx: str = ""
    uid: str | None = None
    value: object = None
    view: object = None
    linpoint: int | None = None


@dataclass(slots=True)
class InnerResI:
    """Deliver the inner object's response; its effect is atomic here."""
    inner: object
    op: object
    ctx: str = "inner"


Intent = object
Program = Generator[Intent, StepResult, None]


# -- snapshot subroutines ------------------------------------------------

def sa_write(arr: SnapshotArray, ctx_: ProcCtx, value: object,
             ctx: str = "", uid: str | None = None,
             announce: bool = False) -> Program:
    """Write the caller's cell.  Collect engine embeds a fresh scan so
    concurrent scanners can adopt it."""
    cell = ctx_.process - 1
    if arr.engine == "atomic":
        yield WriteI(arr, cell, value, ctx=ctx, uid=uid, announce=announce)
        return
    vec, lp = yield from sa_scan(arr, ctx_, ctx=ctx, uid=uid)
    rec = CellRecord(ctx_.next_seq(arr.name), value, vec, lp)
    yield WriteI(arr, cell, rec, ctx=ctx, uid=uid, announce=announce)


def sa_scan(arr: SnapshotArray, ctx_: ProcCtx, ctx: str = "",
            uid: str | None = None):
    """Snapshot the array; returns (payload vector, linearization point)."""
    if arr.engine == "atomic":
        got = yield SnapI(arr, ctx=ctx, uid=uid)
        return got.value, got.index
    moved: dict[int, int] = {}
    prev: list | None = None
    while True:
        cur = []
        for k in range(arr.n):
            cur.append((yield ReadI(arr, k, ctx=ctx, uid=uid)))
        if prev is not None:
            if all(a.value.seq == b.value.seq for a, b in zip(prev, cur)):
                return (tuple(r.value.value for r in prev), prev[-1].index)
            for k in range(arr.n):
                if prev[k].value.seq != cur[k].value.seq:
                    moved[k] = moved.get(k, 0) + 1
                    if moved[k] >= 2:
                        # second move since our scan began: its embedded
                        # vector was produced inside our window
                        rec = cur[k].value
                        return rec.embedded, rec.linpoint
        prev = cur


# -- schedules -----------------------------------------------------------

@dataclass(frozen=True)
class Schedule:
    """Who moves when.  Explicit slots replay exactly; random mode draws
    among live unfinished processes with optional weights.  After the
    explicit slots run out, ``fair_tail`` continues round-robin."""

    slots: tuple[int, ...] = ()
    seed: int | None = None
    weights: dict[int, float] = field(default_factory=dict)
    crash_at: dict[int, int] = field(default_factory=dict)
    fair_tail: bool = False

    @classmethod
    def explicit(cls, slots: Iterable[int], crash_at: dict[int, int] | None = None,
                 fair_tail: bool = False) -> Schedule:
        return cls(slots=tuple(slots), crash_at=dict(crash_at or {}),
                   fair_tail=fair_tail)

    @classmethod
    def random(cls, seed: int, weights: dict[int, float] | None = None,
               crash_at: dict[int, int] | None = None) -> Schedule:
        return cls(seed=seed, weights=dict(weights or {}),
                   crash_at=dict(crash_at or {}))


def parse_schedule(text: str) -> Schedule:
    slots: list[int] = []
    crash_at: dict[int, int] = {}
    fair_tail = False
    tokens = [t for line in text.splitlines() or [text]
              for t in line.split("#", 1)[0].split()]
    i = 0
    pos = 0
    while i < len(tokens):
        tok = tokens[i]
        pos += 1
        if tok == "crash":
            try:
                proc = int(tokens[i + 1])
                step = int(tokens[i + 2])
            except (IndexError, ValueError):
                raise MalformedSchedule("crash needs <process> <step>", pos)
            crash_at[proc] = step
            i += 3
        elif tok == "fair":
            fair_tail = True
            i += 1
        else:
            try:
                slots.append(int(tok))
            except ValueError:
                raise MalformedSchedule(f"bad token {tok!r}", pos)
            i += 1
    return Schedule(slots=tuple(slots), crash_at=crash_at,
                    fair_tail=fair_tail)


def format_schedule(s: Schedule) -> str:
    parts = [str(p) for p in s.slots]
    for proc, step in sorted(s.crash_at.items()):
        parts.append(f"crash {proc} {step}")
    if s.fair_tail:
        parts.append("fair")
    return " ".join(parts) + "\n"


# -- execution -----------------------------------------------------------

@dataclass
class RecordedExecution:
    """A complete step-level log of one simulated run."""

    entries: list[LogEntry]
    procs: tuple[int, ...]
    crash_at: dict[int, int]
    memory: Memory
    meta: dict = field(default_factory=dict)

    def by_kind(self, *kinds: str) -> list[LogEntry]:
        return [e for e in self.entries if e.kind in kinds]

    def base_steps(self, ctx: str | None = None) -> list[LogEntry]:
        return [e for e in self.entries
                if e.kind in BASE_KINDS and (ctx is None or e.ctx == ctx)]

    def _boundary_history(self, inv_kind: str, res_kind: str):
        from .history import History, Event
        events = []
        ops = {}
        for e in self.entries:
            if e.kind == inv_kind:
                ops[e.uid] = e.value
                events.append(Event("inv", e.value))
            elif e.kind == res_kind:
                events.append(Event("res", ops[e.uid], e.value))
        return History(events)

    def star_history(self):
        """The history of the wrapper: its Apply invocations/responses."""
        return self._boundary_history("inv", "res")

    def inner_history(self):
        """The history of the wrapped implementation."""
        return self._boundary_history("inner_inv", "inner_res")

    def outer_history(self):
        """The history the self-enforced wrapper shows its callers."""
        return self._boundary_history("outer_inv", "outer_res")

    def verdicts(self) -> list[LogEntry]:
        return [e for e in self.entries if e.kind == "verdict"]


def _execute(intent, process: int, memory: Memory,
             log: list[LogEntry]) -> object:
    index = len(log)
    if isinstance(intent, ReadI):
        rec = intent.array.cells[intent.cell]
        payload = rec.value if intent.array.engine == "collect" else rec
        seq = rec.seq if intent.array.engine == "collect" else None
        log.append(LogEntry(index, process, "read", intent.ctx, intent.uid,
                            intent.array.name, intent.cell, payload, seq))
        return rec
    if isinstance(intent, WriteI):
        arr = intent.array
        arr.cells[intent.cell] = intent.value
        if arr.engine == "collect":
            payload, seq = intent.value.value, intent.value.seq
        else:
            payload, seq = intent.value, None
        arr.writes.append((index, process, intent.cell, payload))
        log.append(LogEntry(index, process, "write", intent.ctx, intent.uid,
                            arr.name, intent.cell, payload, seq,
                            announce=intent.announce))
        return payload
    if isinstance(intent, SnapI):
        arr = intent.array
        if arr.engine != "atomic":
            raise SimError("SnapI is only valid on the atomic engine")
        vector = tuple(arr.cells)
        log.append(LogEntry(index, process, "snap", intent.ctx, intent.uid,
                            arr.name, None, vector, linpoint=index))
        return vector
    if isinstance(intent, EmitI):
        log.append(LogEntry(index, process, intent.kind, intent.ctx,
                            intent.uid, None, None, intent.value, None,
                            intent.view, intent.linpoint))
        return intent.value
    if isinstance(intent, InnerResI):
        y = intent.inner.respond(intent.op, process)
        log.append(LogEntry(index, process, "inner_res", intent.ctx,
                            intent.op.uid, None, None, y))
        return y
    raise SimError(f"unknown intent {intent!r}")


def run(programs: dict[int, Program], schedule: Schedule, memory: Memory,
        max_steps: int = 10_000, meta: dict | None = None,
        log: list[LogEntry] | None = None) -> RecordedExecution:
    """Drive the programs under the schedule until the step budget is
    spent or every process has finished or crashed.

    Passing the entry list of an earlier run as ``log`` continues that
    run on the same memory: indices keep counting and the budget bounds
    the added steps.
    """
    procs = tuple(sorted(programs))
    for p in schedule.slots:
        if p not in programs:
            raise MalformedSchedule(f"schedule names unknown process {p}")
    if log is None:
        log = []
    max_steps += len(log)
    gens = dict(programs)
    started: set[int] = set()
    finished: set[int] = set()
    crashed: set[int] = set()
    results: dict[int, StepResult | None] = {p: None for p in procs}

    def live(p: int) -> bool:
        if p in finished or p in crashed:
            return False
        if schedule.crash_at.get(p, None) is not None \
                and len(log) >= schedule.crash_at[p]:
            crashed.add(p)
            return False
        return True

    def step(p: int) -> None:
        gen = gens[p]
        try:
            if p not in started:
                started.add(p)
                intent = next(gen)
            else:
                intent = gen.send(results[p])
        except StopIteration:
            finished.add(p)
            return
        value = _execute(intent, p, memory, log)
        results[p] = StepResult(value, len(log) - 1)

    rng = random.Random(schedule.seed) if schedule.seed is not None else None
    slot_iter = iter(schedule.slots)
    rr = 0
    while len(log) < max_steps:
        if all(p in finished or not live(p) for p in procs):
            break
        p = next(slot_iter, None)
        if p is None:
            if rng is not None:
                candidates = [q for q in procs if live(q)]
                if not candidates:
                    break
                weights = [schedule.weights.get(q, 1.0) for q in candidates]
                p = rng.choices(candidates, weights)[0]
            elif schedule.fair_tail:
                p = procs[rr % len(procs)]
                rr += 1
            else:
                break
        if not live(p):
            continue
        step(p)
    return RecordedExecution(log, procs, dict(schedule.crash_at), memory,
                             dict(meta or {}))


def run_threads(program_factories: dict[int, Callable[[], Program]],
                memory: Memory, max_steps: int = 10_000,
                meta: dict | None = None) -> RecordedExecution:
    """Run the same kind of programs from native threads.  Steps stay
    atomic under a global lock, but interleaving is up to the OS, so the
    log is *not* reproducible."""
    log: list[LogEntry] = []
    lock = threading.Lock()
    stop = threading.Event()

    def drive(p: int, gen: Program) -> None:
        result: StepResult | None = None
        first = True
        while not stop.is_set():
            try:
                with lock:
                    if len(log) >= max_steps:
                        stop.set()
                        return
                    intent = next(gen) if first else gen.send(result)
                    first = False
                    value = _execute(intent, p, memory, log)
                    result = StepResult(value, len(log) - 1)
            except StopIteration:
                return

    threads = [threading.Thread(target=drive, args=(p, factory()))
               for p, factory in sorted(program_factories.items())]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return RecordedExecution(log, tuple(sorted(program_factories)), {},
                             memory, dict(meta or {}))
