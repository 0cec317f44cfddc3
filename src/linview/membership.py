"""Linearizability membership checking.

``is_linearizable`` decides whether a history belongs to the set of
correct histories of a sequential spec: some extension of the history
(append responses for a subset of the pending operations, drop the rest)
must have a legal sequential ordering that keeps the real-time order of
complete operations.  The search schedules one operation at a time, only
ever picking operations whose real-time predecessors are all scheduled,
and memoizes failed (scheduled-set, spec-state) pairs.

Cost model.  Indexing is one sweep over the events: operations are
numbered by invocation, and an operation's predecessor bitmask is the
mask of operations that had responded when it was invoked, so masks only
grow with the slot number.  A search node therefore scans only its
frontier: from the lowest unscheduled slot up to the first operation with
an unscheduled predecessor (the "minimal operations" of Wing and Gong),
never all n slots.  The search is depth-first with an explicit stack, so
history length is not bounded by Python's recursion limit; it visits the
same nodes, in the same order, as a scan of every slot at every node.

``brute_force_linearizable`` answers the same question by enumerating
drop subsets and whole orderings with no memoization; it exists as an
independent oracle for differential testing and refuses large inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
from typing import Callable

from .history import History, Op
from .seqspec import SeqSpec, SeqHistory, accepts


class TooLarge(ValueError):
    """Brute-force oracle asked to enumerate an unreasonable history."""


@dataclass(frozen=True)
class Linearization:
    """A sequential witness: operations in order with their results.

    ``appended`` holds the responses invented for pending operations that
    were kept; ``dropped`` holds the pending operations that were not.
    """

    order: tuple[tuple[Op, object], ...]
    appended: dict[str, object]
    dropped: frozenset[str]


def _index_ops(h: History):
    """Number the operations by invocation and bit-encode real-time
    predecessors in one sweep: an operation's predecessors are exactly
    the operations that had responded when it was invoked."""
    uids: list[str] = []
    preds: list[int] = []
    slot: dict[str, int] = {}
    responded = 0
    for e in h.events:
        if e.kind == "inv":
            slot[e.op.uid] = len(uids)
            uids.append(e.op.uid)
            preds.append(responded)
        else:
            responded |= 1 << slot[e.op.uid]
    complete = [bool(responded >> i & 1) for i in range(len(uids))]
    return uids, complete, preds


def is_linearizable(h: History, spec: SeqSpec) -> Linearization | None:
    uids, complete, preds = _index_ops(h)
    n = len(uids)
    ops = [h.op(u) for u in uids]
    results = [h.result_of(u) if complete[i] else None
               for i, u in enumerate(uids)]
    complete_mask = 0
    for i in range(n):
        if complete[i]:
            complete_mask |= 1 << i
    delta = spec.delta

    def moves(done: int, state: object):
        """The children of a search node, lazily and in slot order.

        Predecessor masks grow with invocation order, so the candidates
        start at the lowest unscheduled slot and end at the first
        operation with an unscheduled predecessor."""
        lowest = (~done & (done + 1)).bit_length() - 1
        for i in range(lowest, n):
            bit = 1 << i
            if done & bit:
                continue
            if preds[i] & ~done:
                break
            if complete[i]:
                want = results[i]
                for s2, r in delta(state, ops[i]):
                    if r == want:
                        yield done | bit, s2, (ops[i], r)
            else:
                for s2, r in delta(state, ops[i]):
                    yield done | bit, s2, (ops[i], r)

    # Depth-first over (scheduled set, spec state) nodes with an explicit
    # stack; failed nodes are memoized.  ``order`` holds the step taken
    # into each node on the stack below the root.
    failed: set[tuple[int, object]] = set()
    order: list[tuple[Op, object]] = []
    found = complete_mask == 0
    stack = [] if found else [((0, spec.initial), moves(0, spec.initial))]
    while stack and not found:
        key, children = stack[-1]
        for done, s2, step in children:
            if done & complete_mask == complete_mask:
                found = True
            elif (done, s2) in failed:
                continue
            else:
                stack.append(((done, s2), moves(done, s2)))
            order.append(step)
            break
        else:
            failed.add(key)
            stack.pop()
            if order:
                order.pop()
    if not found:
        return None
    scheduled = {op.uid for op, _ in order}
    appended = {op.uid: r for op, r in order if not h.is_complete(op.uid)}
    dropped = frozenset(u for u in uids
                        if not h.is_complete(u) and u not in scheduled)
    return Linearization(tuple(order), appended, dropped)


def _subsets(items):
    return chain.from_iterable(combinations(items, k)
                               for k in range(len(items) + 1))


def brute_force_linearizable(h: History, spec: SeqSpec,
                             max_ops: int = 8) -> bool:
    """Exhaustive reference answer; raises TooLarge beyond ``max_ops``."""
    if len(h.ops) > max_ops:
        raise TooLarge(f"{len(h.ops)} operations exceeds limit {max_ops}")
    pending = h.pending_uids()
    complete = h.complete_uids()

    def orderable(kept: list[str]) -> bool:
        # Thread every ordering of complete + kept ops through the spec,
        # a set of candidate states at a time.
        total = len(kept)

        def extend(placed: set[str], states: set, count: int) -> bool:
            if count == total:
                return True
            for u in kept:
                if u in placed:
                    continue
                if any(v not in placed for v in kept
                       if h.is_complete(v) and v != u
                       and h.res_index(v) < h.inv_index(u)):
                    continue
                op = h.op(u)
                if h.is_complete(u):
                    want = h.result_of(u)
                    nxt = {s2 for s in states
                           for s2, r in spec.delta(s, op) if r == want}
                else:
                    nxt = {s2 for s in states for s2, r in spec.delta(s, op)}
                if nxt and extend(placed | {u}, nxt, count + 1):
                    return True
            return False

        return extend(set(), {spec.initial}, 0)

    return any(orderable(complete + list(keep)) for keep in _subsets(pending))


@dataclass(frozen=True)
class AbstractObject:
    """An object given extensionally by a history membership predicate.

    Any predicate closed under prefixes and under similarity qualifies;
    the instances this package ships are the linearizable histories of a
    sequential spec.
    """

    name: str
    member: Callable[[History], bool]


def lin_object(spec: SeqSpec) -> AbstractObject:
    return AbstractObject(f"lin({spec.name})",
                        lambda h: is_linearizable(h, spec) is not None)


def check_linearization(h: History, spec: SeqSpec,
                        lin: Linearization) -> bool:
    """Validate a claimed witness independently of how it was found."""
    seq: SeqHistory = lin.order
    if not accepts(spec, seq):
        return False
    scheduled = [op.uid for op, _ in lin.order]
    expected = set(h.complete_uids()) | set(lin.appended)
    if set(scheduled) != expected or len(scheduled) != len(expected):
        return False
    if not lin.dropped.isdisjoint(scheduled):
        return False
    for op, r in lin.order:
        if h.is_complete(op.uid) and h.result_of(op.uid) != r:
            return False
    pos = {u: i for i, u in enumerate(scheduled)}
    for a in h.complete_uids():
        for b in scheduled:
            if a != b and h.res_index(a) < h.inv_index(b):
                if pos[a] > pos[b]:
                    return False
    return True
