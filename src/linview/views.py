"""Views: reconstructing histories from announced operation sets.

The wrapper in :mod:`linview.enforce` has every operation announce itself
in a shared array before running and snapshot the array right after; the
snapshot becomes the operation's *view*.  Because snapshots are atomic,
views of completed operations always satisfy three properties:

1. self-inclusion: an operation's view contains the operation itself;
2. containment comparability: any two views are ordered by inclusion;
3. process sequentiality: two operations of one process never both
   contain each other's announcement.

``build_history`` inverts the mechanism: given the set of (operation,
result, view) tuples it rebuilds a history, block by block along the
inclusion chain of distinct views -- first the invocations that are new
in a view, then the responses of the operations holding exactly that
view.  Operations mentioned in views but owning no tuple come back as
pending invocations.  Within a block the order is canonically (process,
uid); any within-block order yields an equivalent history with the same
real-time relation, so the construction really names an equivalence
class.

``tighten`` extracts from a recorded run the history whose operation
boundaries are the announce write and the snapshot: invocations move to
the announce, responses move to the snapshot's linearization point, and
operations that snapped but had not yet returned are completed.
``lambda_of`` harvests the view tuples of that tight history, reading the
views out of the log rather than trusting the values the run returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable

from .history import Event, History, Op
from .sim import RecordedExecution, decode_items


@dataclass(frozen=True)
class ViewTuple:
    """One completed operation: what it was, what it answered, what it saw."""

    op: Op
    result: object
    view: frozenset[Op]


TupleSet = frozenset


@dataclass(frozen=True)
class ViewViolation:
    property: str  # "self-inclusion" | "containment" | "process-sequential"
    offenders: tuple[Op, ...]

    def describe(self) -> str:
        who = ", ".join(o.pretty() for o in self.offenders)
        return f"{self.property} violated by {who}"


class ViewPropertyViolation(ValueError):
    def __init__(self, violation: ViewViolation):
        super().__init__(violation.describe())
        self.violation = violation


class MalformedLog(ValueError):
    pass


_by_process = attrgetter("process", "uid")


def mentioned_pending(tuples: Iterable[ViewTuple]) -> set[Op]:
    """Operations that appear in some view but own no tuple."""
    owned = {t.op for t in tuples}
    seen: set[Op] = set()
    for t in tuples:
        seen |= t.view
    return seen - owned


def validate_views(tuples: Iterable[ViewTuple]) -> ViewViolation | None:
    """Check the three snapshot-order properties; None means all hold.

    Process sequentiality extends to operations that are still pending:
    a view may not contain a same-process operation that never finished,
    and one process may not leave two unfinished operations behind --
    either situation is impossible under per-process sequential callers.

    The checks run along the inclusion chain.  Views sorted by size are
    totally ordered exactly when each contains its predecessor.  Along
    that chain an operation is *open* from the first view that holds it
    to the last view it owns, or to the end if it owns none; two
    operations of one process may never be open at once, which is the
    pairwise rule, the pending-operation rule and the two-pending rule
    in one sweep.
    """
    ts = list(tuples)
    outside = [t.op for t in ts if t.op not in t.view]
    if outside:
        return ViewViolation("self-inclusion",
                             (min(outside, key=_by_process),))
    owners: dict[frozenset[Op], list[Op]] = {}
    for t in ts:
        owners.setdefault(t.view, []).append(t.op)
    chain = sorted(owners, key=len)
    for lo, hi in zip(chain, chain[1:]):
        if not lo <= hi:
            return ViewViolation("containment",
                                 (min(owners[lo], key=_by_process),
                                  min(owners[hi], key=_by_process)))
    # views on a chain have distinct sizes, so a size names a view
    last_size = {op: len(sigma) for sigma in chain for op in owners[sigma]}
    open_op: dict[int, Op] = {}
    covered: frozenset[Op] = frozenset()
    for sigma in chain:
        for o in sorted(sigma - covered, key=_by_process):
            other = open_op.get(o.process)
            if other is not None:
                return ViewViolation("process-sequential", (other, o))
            open_op[o.process] = o
        for o in owners[sigma]:
            if last_size[o] == len(sigma):
                open_op.pop(o.process, None)
        covered = sigma
    return None


def build_history(tuples: Iterable[ViewTuple], shuffle=None) -> History:
    """The history encoded by a tuple set (the canonical representative).

    ``shuffle`` may be a ``random.Random``; it reorders invocations and
    responses inside each block, picking another member of the same
    equivalence class.
    """
    ts = frozenset(tuples)
    bad = validate_views(ts)
    if bad is not None:
        raise ViewPropertyViolation(bad)
    distinct: dict[frozenset[Op], list[ViewTuple]] = {}
    for t in ts:
        distinct.setdefault(t.view, []).append(t)
    chain = sorted(distinct, key=len)
    events: list[Event] = []
    covered: frozenset[Op] = frozenset()
    for sigma in chain:
        new_invs = sorted(sigma - covered, key=_by_process)
        responders = sorted(distinct[sigma],
                            key=lambda t: (t.op.process, t.op.uid))
        if shuffle is not None:
            shuffle.shuffle(new_invs)
            shuffle.shuffle(responders)
        events.extend(Event("inv", o) for o in new_invs)
        events.extend(Event("res", t.op, t.result) for t in responders)
        covered = sigma
    try:
        return History(events)
    except ValueError as exc:  # pragma: no cover - guarded by validation
        raise MalformedLog(f"tuple set encodes no history: {exc}") from None


# -- extraction from recorded runs ---------------------------------------

@dataclass(frozen=True)
class _OpTrace:
    op: Op
    announce: int | None
    inner_result: object
    has_inner: bool
    snapped: bool
    view: frozenset[Op] | None
    linpoint: int | None
    result: object


def _op_traces(recorded: RecordedExecution) -> dict[str, _OpTrace]:
    ops: dict[str, Op] = {}
    announce: dict[str, int] = {}
    inner: dict[str, object] = {}
    snap_entry: dict[str, tuple[frozenset[Op], int]] = {}
    res_entry: dict[str, tuple[object, frozenset[Op], int]] = {}
    for e in recorded.entries:
        if e.kind == "inv" and e.ctx == "star":
            ops[e.uid] = e.value
        elif e.kind == "write" and e.announce:
            if e.uid in announce:
                raise MalformedLog(f"operation {e.uid} announced twice")
            announce[e.uid] = e.index
        elif e.kind == "inner_res":
            inner[e.uid] = e.value
        elif e.kind == "snap" and e.uid is not None:
            snap_entry[e.uid] = (decode_items(e.value, recorded.memory),
                                 e.linpoint)
        elif e.kind == "res" and e.ctx == "star":
            res_entry[e.uid] = (e.value, e.view, e.linpoint)
    traces: dict[str, _OpTrace] = {}
    for uid, op in ops.items():
        ann = announce.get(uid)
        if uid in res_entry:
            y, view, lp = res_entry[uid]
            snapped = True
        elif uid in snap_entry:
            view, lp = snap_entry[uid]
            y = inner.get(uid)
            snapped = True
        else:
            view, lp, y = None, None, inner.get(uid)
            snapped = False
        if snapped:
            if ann is None:
                raise MalformedLog(f"operation {uid} snapped but never "
                                   f"announced")
            if uid not in inner:
                raise MalformedLog(f"operation {uid} snapped without an "
                                   f"inner response")
            if lp is None or lp <= ann:
                raise MalformedLog(f"operation {uid} has snapshot point "
                                   f"{lp} not after announce {ann}")
        traces[uid] = _OpTrace(op, ann, inner.get(uid), uid in inner,
                               snapped, view, lp, y)
    return traces


def tighten(recorded: RecordedExecution) -> History:
    """The tight history of a recorded run.

    Operation boundaries become announce-write and snapshot point.
    Operations that never announced disappear; operations that snapped
    are completed with the inner response they had already received.
    """
    traces = _op_traces(recorded)
    marks: list[tuple[int, int, int, str, Event]] = []
    for uid, t in traces.items():
        if t.announce is None:
            continue
        marks.append((t.announce, 0, t.op.process, uid, Event("inv", t.op)))
        if t.snapped:
            marks.append((t.linpoint, 1, t.op.process, uid,
                          Event("res", t.op, t.result)))
    marks.sort(key=lambda m: m[:4])
    return History(m[4] for m in marks)


def lambda_of(recorded: RecordedExecution) -> TupleSet:
    """View tuples of the tight history, with log-derived views.

    An operation's view is recomputed as the set of operations whose
    announce write lands at or before the operation's snapshot point;
    trusting the log rather than returned values keeps the reconstruction
    honest even if a wrapper misreports its views.
    """
    traces = _op_traces(recorded)
    announced = [(t.announce, t.op) for t in traces.values()
                 if t.announce is not None]
    out = set()
    for uid, t in traces.items():
        if not t.snapped:
            continue
        view = frozenset(op for ann, op in announced if ann <= t.linpoint)
        out.add(ViewTuple(t.op, t.result, view))
    return frozenset(out)


def returned_views(recorded: RecordedExecution) -> dict[str, frozenset[Op]]:
    """Views as the run reported them (from response entries), keyed by
    uid; for cross-checking against ``lambda_of``."""
    return {e.uid: e.view for e in recorded.entries
            if e.kind == "res" and e.ctx == "star"}


def visible_ops(tuples: Iterable[ViewTuple]) -> set[Op]:
    """All operations a tuple set mentions (completed or pending)."""
    seen: set[Op] = {t.op for t in tuples}
    for t in tuples:
        seen |= t.view
    return seen
