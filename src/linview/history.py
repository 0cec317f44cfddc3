"""Histories of concurrent objects.

A history is a finite sequence of invocation and response events.  Each
operation is identified by a uid that is unique within the history; by
convention uids look like ``"2.5"`` (process 2, fifth operation) but any
unique string works.  Well-formedness means: per process, invocations and
responses strictly alternate starting with an invocation, and every
response matches the invocation that opened it.

Two real-time orders are derived from a history:

* ``precedes_lt``  -- both operations complete, the first responds before
  the second is invoked.  This is the order preserved by linearizations.
* ``precedes_prec`` -- the first operation is complete and responds before
  the second is invoked; the second may still be pending.

``is_similar`` implements the weakening relation used throughout this
package: ``e`` is similar to ``f`` when ``e`` can be turned into ``f`` by
completing some of its pending operations (appending their responses at
the end) and deleting others, without introducing new real-time order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence


class HistoryError(ValueError):
    """Raised when an event sequence is not a well-formed history."""

    def __init__(self, message: str, index: int | None = None):
        if index is not None:
            message = f"{message} (event {index})"
        super().__init__(message)
        self.index = index


class NotSequentialPerProcess(HistoryError):
    pass


class ResponseWithoutInvocation(HistoryError):
    pass


class DuplicateUid(HistoryError):
    pass


class NotComplete(ValueError):
    """Real-time order queried on a pending operation."""


@dataclass(frozen=True, slots=True)
class Op:
    """One operation instance: who runs it, what it is, and its uid."""

    process: int
    uid: str
    label: str
    argument: object = None

    def pretty(self) -> str:
        arg = "" if self.argument is None else repr(self.argument)
        return f"p{self.process}:{self.label}({arg})#{self.uid}"


@dataclass(frozen=True, slots=True)
class Event:
    kind: str  # "inv" or "res"
    op: Op
    result: object = None


def inv(op: Op) -> Event:
    return Event("inv", op)


def res(op: Op, result: object) -> Event:
    return Event("res", op, result)


class History:
    """An immutable, validated event sequence."""

    __slots__ = ("events", "_inv_index", "_res_index", "_ops")

    def __init__(self, events: Iterable[Event] = ()):
        evs = tuple(events)
        inv_index: dict[str, int] = {}
        res_index: dict[str, int] = {}
        ops: dict[str, Op] = {}
        open_op: dict[int, Op] = {}
        for i, e in enumerate(evs):
            op = e.op
            if e.kind == "inv":
                if op.process in open_op:
                    raise NotSequentialPerProcess(
                        f"process {op.process} invokes {op.uid} while "
                        f"{open_op[op.process].uid} is pending", i)
                if op.uid in ops:
                    raise DuplicateUid(f"uid {op.uid} invoked twice", i)
                open_op[op.process] = op
                ops[op.uid] = op
                inv_index[op.uid] = i
            elif e.kind == "res":
                current = open_op.get(op.process)
                if current is None or current != op:
                    raise ResponseWithoutInvocation(
                        f"response for {op.uid} does not match the pending "
                        f"invocation of process {op.process}", i)
                del open_op[op.process]
                res_index[op.uid] = i
            else:
                raise HistoryError(f"unknown event kind {e.kind!r}", i)
        self.events = evs
        self._inv_index = inv_index
        self._res_index = res_index
        self._ops = ops

    # -- basic queries ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def __getitem__(self, i: int) -> Event:
        return self.events[i]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, History) and self.events == other.events

    def __hash__(self) -> int:
        return hash(self.events)

    def __repr__(self) -> str:
        return f"History({len(self.events)} events, {len(self._ops)} ops)"

    @property
    def ops(self) -> Mapping[str, Op]:
        """Operations by uid, in invocation order (a read-only view)."""
        return MappingProxyType(self._ops)

    @property
    def processes(self) -> set[int]:
        return {op.process for op in self._ops.values()}

    def op(self, uid: str) -> Op:
        return self._ops[uid]

    def inv_index(self, uid: str) -> int:
        return self._inv_index[uid]

    def res_index(self, uid: str) -> int | None:
        return self._res_index.get(uid)

    def is_complete(self, uid: str) -> bool:
        return uid in self._res_index

    def result_of(self, uid: str) -> object:
        return self.events[self._res_index[uid]].result

    def complete_uids(self) -> list[str]:
        """Uids of complete operations, in invocation order."""
        return [u for u in self._invocation_order() if u in self._res_index]

    def pending_uids(self) -> list[str]:
        """Uids of pending operations, in invocation order."""
        return [u for u in self._invocation_order() if u not in self._res_index]

    def _invocation_order(self) -> list[str]:
        return sorted(self._inv_index, key=self._inv_index.__getitem__)

    # -- derived histories -----------------------------------------------

    def project(self, process: int) -> tuple[Event, ...]:
        """The subsequence of events of one process."""
        return tuple(e for e in self.events if e.op.process == process)

    def comp(self) -> History:
        """The history with all pending invocations removed."""
        return History(e for e in self.events
                       if e.op.uid in self._res_index)

    def drop_pending(self, uids: Iterable[str]) -> History:
        """Remove the invocations of the given pending operations."""
        doomed = set(uids)
        bad = [u for u in doomed if u in self._res_index]
        if bad:
            raise ValueError(f"cannot drop complete operations: {bad}")
        return History(e for e in self.events if e.op.uid not in doomed)

    def append_responses(self, results: dict[str, object]) -> History:
        """Extend by appending responses for the given pending operations."""
        for u in results:
            if u not in self._inv_index:
                raise KeyError(u)
            if u in self._res_index:
                raise ValueError(f"operation {u} is already complete")
        tail = [res(self._ops[u], results[u]) for u in sorted(results)]
        return History(self.events + tuple(tail))

    def prefixes(self) -> Iterator[History]:
        """All event-wise prefixes, from empty to the full history."""
        for k in range(len(self.events) + 1):
            yield History(self.events[:k])

    # -- real-time orders ------------------------------------------------

    def precedes_lt(self, a: str, b: str) -> bool:
        """Real-time order over complete operations (uids ``a``, ``b``)."""
        ra = self._res_index.get(a)
        rb = self._res_index.get(b)
        if ra is None or rb is None:
            raise NotComplete(f"precedes_lt needs complete operations: {a}, {b}")
        return ra < self._inv_index[b]

    def precedes_prec(self, a: str, b: str) -> bool:
        """Like ``precedes_lt`` but ``b`` may be pending; pending ``a``
        precedes nothing."""
        ra = self._res_index.get(a)
        if ra is None:
            return False
        return ra < self._inv_index[b]

    def prec_pairs(self) -> frozenset[tuple[str, str]]:
        """All (a, b) with a complete and res(a) before inv(b)."""
        pairs = set()
        for a, ra in self._res_index.items():
            for b, ib in self._inv_index.items():
                if a != b and ra < ib:
                    pairs.add((a, b))
        return frozenset(pairs)


def equivalent(e: History, f: History) -> bool:
    """Same per-process event sequences."""
    procs = e.processes | f.processes
    return all(e.project(p) == f.project(p) for p in procs)


@dataclass(frozen=True)
class Similarity:
    """Witness that ``e`` is similar to ``f``.

    ``e_prime`` is ``e`` with ``removed`` pending invocations deleted and
    responses for ``completed`` appended; it is equivalent to ``f`` and
    introduces no real-time order missing from ``f``.
    """

    e_prime: History
    removed: frozenset[str]
    completed: dict[str, object] = field(default_factory=dict)


def is_similar(e: History, f: History) -> Similarity | None:
    """Check whether ``e`` is similar to ``f``; return a witness or None.

    Only pending operations of ``e`` may be adjusted, and each process has
    at most one, so per process the choice (keep / remove / complete) is
    forced by ``f``'s projection.  Appended responses land at the end of
    ``e_prime`` where they order after every invocation, so they never add
    real-time precedence.
    """
    removed: set[str] = set()
    completed: dict[str, object] = {}
    for p in e.processes | f.processes:
        ep = e.project(p)
        fp = f.project(p)
        if ep == fp:
            continue
        if not ep or ep[-1].kind == "res":
            return None  # nothing pending to adjust for this process
        pending = ep[-1].op
        if ep[:-1] == fp:
            removed.add(pending.uid)
        elif (len(fp) == len(ep) + 1 and fp[:-1] == ep
              and fp[-1].kind == "res" and fp[-1].op == pending):
            completed[pending.uid] = fp[-1].result
        else:
            return None
    e_prime = e.drop_pending(removed).append_responses(completed)
    if not equivalent(e_prime, f):
        return None
    if not e_prime.prec_pairs() <= f.prec_pairs():
        return None
    return Similarity(e_prime, frozenset(removed), completed)
