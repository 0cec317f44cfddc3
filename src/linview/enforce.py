"""The announcing wrapper and the self-enforced object built on it.

``star_apply`` dresses one operation of an arbitrary inner implementation
with the view protocol: announce the operation in the shared array ``N``,
run the inner operation, snapshot ``N``, and return the inner result
together with the announced set seen (the view).  The wrapper adds a
constant number of array accesses per operation, preserves wait-freedom,
and never changes inner results.

``enforced_apply`` goes one step further: after the wrapped call it
publishes the operation's view tuple in a second array ``M``, snapshots
``M``, rebuilds the history every published tuple encodes, and checks it
against the object's specification.  If the check fails the caller gets
``("error", witness)`` instead of a result; the witness is the rebuilt
history itself, which provably cannot come from a correct object.

Inner implementations are black boxes: ``AtomicInner`` applies a
sequential spec atomically at the response step (a correct object);
``ScriptedInner`` answers from a response table (arbitrary, possibly
wrong behavior).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from .history import History, Op
from .membership import AbstractObject, lin_object
from .seqspec import SeqSpec
from .sim import (EmitI, InnerResI, Memory, ProcCtx, Program,
                  RecordedExecution, Schedule, SimError, decode_items, run,
                  sa_scan, sa_write)
from .views import TupleSet, ViewTuple, build_history


# -- inner implementations ----------------------------------------------

class AtomicInner:
    """A correct implementation of a sequential spec: each operation
    takes effect atomically at its response step."""

    def __init__(self, spec: SeqSpec, latency: int = 0):
        self.name = f"atomic-{spec.name}"
        self.spec = spec
        self.state = spec.initial
        self.latency = latency

    def call(self, op: Op) -> Program:
        yield EmitI("inner_inv", "inner", op.uid, op)
        for _ in range(self.latency):
            yield EmitI("inner_step", "inner", op.uid)
        got = yield InnerResI(self, op)
        return got.value

    def respond(self, op: Op, process: int) -> object:
        steps = self.spec.delta(self.state, op)
        if not steps:
            raise SimError(f"spec {self.spec.name} rejects {op.pretty()}")
        self.state, result = steps[0]
        return result


class ScriptedInner:
    """Answers the k-th operation of each process from a script function
    ``(process, k, op) -> result``; knows nothing about correctness."""

    def __init__(self, name: str, script: Callable[[int, int, Op], object],
                 latency: int = 0):
        self.name = name
        self.script = script
        self.latency = latency
        self.counts: dict[int, int] = {}

    def call(self, op: Op) -> Program:
        yield EmitI("inner_inv", "inner", op.uid, op)
        for _ in range(self.latency):
            yield EmitI("inner_step", "inner", op.uid)
        got = yield InnerResI(self, op)
        return got.value

    def respond(self, op: Op, process: int) -> object:
        k = self.counts.get(process, 0)
        self.counts[process] = k + 1
        return self.script(process, k, op)


def scripted_inner_from_text(text: str, name: str = "scripted") -> ScriptedInner:
    """Build a scripted inner from response table text.

    Lines are either ``* <label> <value>`` (default response for a label)
    or ``<process> <k> <value>`` (override for one process's k-th
    operation, 0-based).
    """
    from .trace import parse_value, TraceParseError
    defaults: dict[str, object] = {}
    overrides: dict[tuple[int, int], object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 3:
            raise TraceParseError("expected 3 fields", lineno)
        a, b, c = fields
        try:
            value = parse_value(c)
        except ValueError as exc:
            raise TraceParseError(str(exc), lineno) from None
        if a == "*":
            defaults[b] = value
        else:
            try:
                overrides[(int(a), int(b))] = value
            except ValueError:
                raise TraceParseError("expected '* <label> <value>' or "
                                      "'<process> <k> <value>'", lineno) from None

    def script(process: int, k: int, op: Op) -> object:
        if (process, k) in overrides:
            return overrides[(process, k)]
        if op.label in defaults:
            return defaults[op.label]
        raise SimError(f"script has no response for {op.pretty()} (k={k})")

    return ScriptedInner(name, script)


# -- announce payloads ---------------------------------------------------

def _announce_payload(pctx: ProcCtx, memory: Memory, array: str, item: object,
                      bounded: bool) -> object:
    """The next value of this process's announce cell: a grown set, or in
    bounded mode a fresh linked-list node holding just the new item."""
    if bounded:
        node = memory.alloc_node(item, pctx.heads.get(array))
        pctx.heads[array] = node
        return node
    new = pctx.sets.get(array, frozenset()) | {item}
    pctx.sets[array] = new
    return new


# -- the wrapper ---------------------------------------------------------

@dataclass
class StarSystem:
    """Shared plumbing of one wrapped run: the announce array ``N``, the
    record array ``M``, the inner implementation, and the object spec."""

    spec: SeqSpec
    inner: object
    procs: int
    engine: str = "atomic"
    bounded: bool = False
    halt_on_error: bool = False
    memory: Memory = field(default_factory=Memory)
    obj: AbstractObject | None = None

    def __post_init__(self):
        init = None if self.bounded else frozenset()
        self.N = self.memory.new_array("N", self.procs, init, self.engine)
        self.M = self.memory.new_array("M", self.procs, init, self.engine)
        if self.obj is None:
            self.obj = lin_object(self.spec)
        self.ctxs = {p: ProcCtx(p) for p in range(1, self.procs + 1)}

    def meta(self) -> dict:
        return {"spec": self.spec.name, "inner": self.inner.name,
                "engine": self.engine, "bounded": self.bounded}


def star_apply(sys_: StarSystem, pctx: ProcCtx, op: Op) -> Program:
    """One wrapped operation; returns (result, view, snapshot point)."""
    yield EmitI("inv", "star", op.uid, op)
    payload = _announce_payload(pctx, sys_.memory, "N", op, sys_.bounded)
    yield from sa_write(sys_.N, pctx, payload, ctx="star", uid=op.uid,
                        announce=True)
    y = yield from sys_.inner.call(op)
    vec, lp = yield from sa_scan(sys_.N, pctx, ctx="star", uid=op.uid)
    view = decode_items(vec, sys_.memory)
    yield EmitI("res", "star", op.uid, y, view=view, linpoint=lp)
    return y, view, lp


def star_process(sys_: StarSystem, p: int, ops: Iterable[Op]) -> Program:
    pctx = sys_.ctxs[p]
    for op in ops:
        yield from star_apply(sys_, pctx, op)


# -- record-and-check tail (shared by verifier and enforcement) ----------

@dataclass(frozen=True)
class Verdict:
    process: int
    uid: str | None
    error: bool
    tuples: TupleSet
    witness: History | None  # the rebuilt history when error


def publish_tuple(sys_: StarSystem, pctx: ProcCtx, op: Op,
                  tup: ViewTuple) -> Program:
    """Append the operation's view tuple to this process's record cell."""
    payload = _announce_payload(pctx, sys_.memory, "M", tup, sys_.bounded)
    yield from sa_write(sys_.M, pctx, payload, ctx="verify", uid=op.uid)


def snap_and_check(sys_: StarSystem, pctx: ProcCtx,
                   uid: str | None) -> Program:
    """Snapshot the record array, rebuild the history it encodes, and
    test membership; returns the verdict after logging it."""
    vec, _ = yield from sa_scan(sys_.M, pctx, ctx="verify", uid=uid)
    tau = decode_items(vec, sys_.memory)
    witness = build_history(tau)
    ok = sys_.obj.member(witness)
    verdict = Verdict(pctx.process, uid, not ok, tau,
                      None if ok else witness)
    yield EmitI("verdict", "verify", uid, verdict)
    return verdict


def enforced_apply(sys_: StarSystem, pctx: ProcCtx, op: Op) -> Program:
    """One operation of the self-enforced object: apply, publish, check.
    Returns the inner result, or ``("error", witness)``."""
    yield EmitI("outer_inv", "outer", op.uid, op)
    y, view, lp = yield from star_apply(sys_, pctx, op)
    yield from publish_tuple(sys_, pctx, op, ViewTuple(op, y, view))
    verdict = yield from snap_and_check(sys_, pctx, op.uid)
    result = ("error", verdict.witness) if verdict.error else y
    yield EmitI("outer_res", "outer", op.uid, result)
    return result


def enforced_process(sys_: StarSystem, p: int, ops: Iterable[Op]) -> Program:
    pctx = sys_.ctxs[p]
    for op in ops:
        result = yield from enforced_apply(sys_, pctx, op)
        if sys_.halt_on_error and isinstance(result, tuple) \
                and result and result[0] == "error":
            return


def certificate_program(sys_: StarSystem, p: int, out: list) -> Program:
    """A one-shot run segment: fresh record snapshot, rebuilt history."""
    verdict = yield from snap_and_check(sys_, sys_.ctxs[p], None)
    out.append(build_history(verdict.tuples))


def certificate(sys_: StarSystem, p: int,
                recorded: RecordedExecution) -> History:
    """Issue a certificate: process ``p`` continues the recorded run with
    one fresh snapshot of the record array and rebuilds the history it
    encodes.  The extra steps land in the same log."""
    out: list[History] = []
    prog = certificate_program(sys_, p, out)
    run({p: prog}, Schedule.explicit([p] * 10_000), sys_.memory,
        max_steps=10_000, meta=sys_.meta(), log=recorded.entries)
    return out[0]
