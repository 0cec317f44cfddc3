"""Plain-text interchange formats.

Histories travel as trace files, one event per line::

    # comment
    inv 1 1.1 Enq(5)
    res 1 1.1 true
    inv 2 2.1 Deq()

View tuple sets serialize one completed operation per ``tuple`` line and
declare announced-but-unfinished operations on ``pending`` lines so that
their descriptors survive the round trip::

    tuple 1 1.1 Deq() -> 1 view{1.1,2.1}
    pending 2 2.1 Enq(1)

Values: integers, ``true``/``false``, ``none``, the reserved ``empty``,
tuples like ``(1,2)``, and bare words.
"""

from __future__ import annotations

import re

from .history import Event, History, Op, inv, res
from .views import ViewTuple, TupleSet


class TraceParseError(ValueError):
    def __init__(self, message: str, lineno: int | None = None):
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)
        self.lineno = lineno


_SAFE_WORD = re.compile(r"[A-Za-z_][\w.\-]*\Z|-?\d[\w.\-]*\Z")
_CALL = re.compile(r"([A-Za-z_]\w*)\((.*)\)\Z")


def format_value(v: object) -> str:
    if v is True:
        return "true"
    if v is False:
        return "false"
    if v is None:
        return "none"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, tuple):
        return "(" + ",".join(format_value(x) for x in v) + ")"
    if isinstance(v, str):
        if not _SAFE_WORD.match(v):
            raise ValueError(f"string value {v!r} is not trace-safe")
        return v
    raise ValueError(f"cannot serialize value of type {type(v).__name__}")


def parse_value(text: str) -> object:
    text = text.strip()
    if text == "true":
        return True
    if text == "false":
        return False
    if text == "none":
        return None
    if text.startswith("("):
        if not text.endswith(")"):
            raise ValueError(f"unbalanced tuple {text!r}")
        return tuple(parse_value(part) for part in _split_args(text[1:-1]))
    try:
        return int(text)
    except ValueError:
        pass
    if _SAFE_WORD.match(text):
        return text
    raise ValueError(f"cannot parse value {text!r}")


def _split_args(body: str) -> list[str]:
    parts, depth, start = [], 0, 0
    for i, c in enumerate(body):
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
        elif c == "," and depth == 0:
            parts.append(body[start:i])
            start = i + 1
    tail = body[start:]
    if tail.strip() or parts:
        parts.append(tail)
    return parts


def _parse_call(text: str, lineno: int) -> tuple[str, object]:
    m = _CALL.match(text.strip())
    if not m:
        raise TraceParseError(f"expected label(arg), got {text!r}", lineno)
    label, arg = m.groups()
    try:
        return label, (parse_value(arg) if arg.strip() else None)
    except ValueError as exc:
        raise TraceParseError(str(exc), lineno) from None


def format_call(op: Op) -> str:
    arg = "" if op.argument is None else format_value(op.argument)
    return f"{op.label}({arg})"


# -- histories -----------------------------------------------------------

def format_history(h: History) -> str:
    lines = []
    for e in h.events:
        if e.kind == "inv":
            lines.append(f"inv {e.op.process} {e.op.uid} {format_call(e.op)}")
        else:
            lines.append(f"res {e.op.process} {e.op.uid} "
                         f"{format_value(e.result)}")
    return "\n".join(lines) + ("\n" if lines else "")


def parse_history(text: str) -> History:
    events: list[Event] = []
    known: dict[str, Op] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split(None, 3)
        if len(fields) != 4:
            raise TraceParseError(f"expected 4 fields, got {len(fields)}",
                                  lineno)
        kind, proc_s, uid, rest = fields
        try:
            proc = int(proc_s)
        except ValueError:
            raise TraceParseError(f"bad process id {proc_s!r}", lineno) from None
        if kind == "inv":
            label, arg = _parse_call(rest, lineno)
            op = Op(proc, uid, label, arg)
            known[uid] = op
            events.append(inv(op))
        elif kind == "res":
            op = known.get(uid)
            if op is None or op.process != proc:
                raise TraceParseError(
                    f"response for unknown operation {uid!r}", lineno)
            try:
                value = parse_value(rest)
            except ValueError as exc:
                raise TraceParseError(str(exc), lineno) from None
            events.append(res(op, value))
        else:
            raise TraceParseError(f"unknown event kind {kind!r}", lineno)
    try:
        return History(events)
    except ValueError as exc:
        raise TraceParseError(str(exc)) from None


# -- view tuple sets -----------------------------------------------------

def format_tuples(tuples: TupleSet, pending: dict[str, Op] | None = None) -> str:
    """Serialize a tuple set; ``pending`` maps uid to announced ops that
    own no tuple but appear in views."""
    own = {t.op.uid: t.op for t in tuples}
    mentioned: dict[str, Op] = {}
    for t in tuples:
        for op in t.view:
            mentioned[op.uid] = op
    extra = {u: op for u, op in mentioned.items() if u not in own}
    if pending:
        extra.update(pending)
    lines = []
    for t in sorted(tuples, key=lambda t: (len(t.view), t.op.process, t.op.uid)):
        uids = ",".join(sorted((o.uid for o in t.view),
                               key=_uid_sort_key))
        lines.append(f"tuple {t.op.process} {t.op.uid} {format_call(t.op)} "
                     f"-> {format_value(t.result)} view{{{uids}}}")
    for u in sorted(extra, key=_uid_sort_key):
        op = extra[u]
        lines.append(f"pending {op.process} {op.uid} {format_call(op)}")
    return "\n".join(lines) + ("\n" if lines else "")


def _uid_sort_key(uid: str):
    parts = uid.split(".")
    try:
        return (0, tuple(int(p) for p in parts))
    except ValueError:
        return (1, tuple(parts))


_TUPLE_LINE = re.compile(
    r"tuple\s+(\d+)\s+(\S+)\s+(.+?)\s*->\s*(\S+)\s+view\{([^}]*)\}\Z")
_PENDING_LINE = re.compile(r"pending\s+(\d+)\s+(\S+)\s+(.+)\Z")


def parse_tuples(text: str) -> tuple[TupleSet, dict[str, Op]]:
    """Parse tuple and pending lines; resolve view uids to operations."""
    raw_tuples: list[tuple[Op, object, list[str], int]] = []
    known: dict[str, Op] = {}
    pending: dict[str, Op] = {}
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("tuple"):
            m = _TUPLE_LINE.match(line)
            if not m:
                raise TraceParseError("malformed tuple line", lineno)
            proc_s, uid, call, result_s, view_s = m.groups()
            label, arg = _parse_call(call, lineno)
            op = Op(int(proc_s), uid, label, arg)
            if uid in known:
                raise TraceParseError(f"duplicate uid {uid!r}", lineno)
            known[uid] = op
            try:
                result = parse_value(result_s)
            except ValueError as exc:
                raise TraceParseError(str(exc), lineno) from None
            view_uids = [u.strip() for u in view_s.split(",") if u.strip()]
            raw_tuples.append((op, result, view_uids, lineno))
        elif line.startswith("pending"):
            m = _PENDING_LINE.match(line)
            if not m:
                raise TraceParseError("malformed pending line", lineno)
            proc_s, uid, call = m.groups()
            label, arg = _parse_call(call, lineno)
            if uid in known or uid in pending:
                raise TraceParseError(f"duplicate uid {uid!r}", lineno)
            pending[uid] = Op(int(proc_s), uid, label, arg)
        else:
            raise TraceParseError(f"unknown line kind {line.split()[0]!r}",
                                  lineno)
    resolved: set[ViewTuple] = set()
    everything = dict(known)
    everything.update(pending)
    for op, result, view_uids, lineno in raw_tuples:
        try:
            view = frozenset(everything[u] for u in view_uids)
        except KeyError as exc:
            raise TraceParseError(
                f"view references undeclared operation {exc.args[0]!r}",
                lineno) from None
        resolved.add(ViewTuple(op, result, view))
    return frozenset(resolved), pending
