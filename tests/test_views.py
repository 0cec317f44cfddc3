"""Views: property validation, history reconstruction, tightening."""

import random

import pytest

from linview.enforce import AtomicInner, StarSystem, star_process
from linview.history import History, Op, equivalent, inv, is_similar, res
from linview.seqspec import get_spec
from linview.sim import RecordedExecution, Schedule, run
from linview.views import (MalformedLog, ViewPropertyViolation, ViewTuple,
                           build_history, lambda_of, mentioned_pending,
                           returned_views, tighten, validate_views,
                           visible_ops)

from _util import fuzzed_star_run, op, sketch_matches_tight


def vt(o, result, *view):
    return ViewTuple(o, result, frozenset(view))


def solo_star_run(k=3):
    spec = get_spec("queue")
    sys_ = StarSystem(spec=spec, inner=AtomicInner(spec), procs=1)
    ops = [Op(1, f"1.{i}", "Enq", i + 1) for i in range(k)]
    rec = run({1: star_process(sys_, 1, ops)},
              Schedule.explicit([1] * (k * 6 + 1)), sys_.memory)
    return rec


# -- validate_views ------------------------------------------------------

def test_valid_tuple_set_passes():
    a, b = op(1, 0, "Enq", 1), op(2, 0, "Deq")
    ts = {vt(a, True, a), vt(b, 1, a, b)}
    assert validate_views(ts) is None


def test_missing_own_pair_is_a_self_inclusion_violation():
    a, b = op(1, 0, "Enq", 1), op(2, 0, "Deq")
    bad = validate_views({vt(a, True, b)})
    assert bad is not None
    assert bad.property == "self-inclusion"
    assert bad.offenders == (a,)
    assert "self-inclusion violated by p1:Enq(1)#1.0" == bad.describe()


def test_incomparable_views_are_a_containment_violation():
    a, b = op(1, 0, "Enq", 1), op(2, 0, "Deq")
    bad = validate_views({vt(a, True, a), vt(b, 1, b)})
    assert bad is not None
    assert bad.property == "containment"
    assert set(bad.offenders) == {a, b}


def test_mutual_containment_of_same_process_ops_is_rejected():
    a, b = op(1, 0, "Enq", 1), op(1, 1, "Deq")
    bad = validate_views({vt(a, True, a, b), vt(b, 1, a, b)})
    assert bad is not None
    assert bad.property == "process-sequential"


def test_view_holding_a_later_same_process_pending_op_is_rejected():
    a, b = op(1, 0, "Enq", 1), op(1, 1, "Deq")
    # b owns no tuple yet a's view contains it: p1 cannot have announced
    # b before a's snapshot and still be running a
    bad = validate_views({vt(a, True, a, b)})
    assert bad is not None
    assert bad.property == "process-sequential"


def test_two_pending_ops_of_one_process_are_rejected():
    a = op(2, 0, "Enq", 1)
    b, c = op(1, 0, "Deq"), op(1, 1, "Deq")
    bad = validate_views({vt(a, True, a, b, c)})
    assert bad is not None
    assert bad.property == "process-sequential"


def test_harvested_views_always_validate():
    rng = random.Random(51)
    for _ in range(40):
        _, rec = fuzzed_star_run(rng, procs=rng.randint(2, 4))
        assert validate_views(lambda_of(rec)) is None


def pairwise_validate(tuples):
    """The pairwise reference: every pair of views, every pending op."""
    ts = sorted(tuples, key=lambda t: (t.op.process, t.op.uid))
    for t in ts:
        if t.op not in t.view:
            return "self-inclusion"
    for i, a in enumerate(ts):
        for b in ts[i + 1:]:
            if not (a.view <= b.view or b.view <= a.view):
                return "containment"
    for i, a in enumerate(ts):
        for b in ts[i + 1:]:
            if (a.op.process == b.op.process and a.op != b.op
                    and a.op in b.view and b.op in a.view):
                return "process-sequential"
    pend = sorted(mentioned_pending(ts), key=lambda o: (o.process, o.uid))
    for t in ts:
        for p in pend:
            if p.process == t.op.process and p != t.op and p in t.view:
                return "process-sequential"
    for i, a in enumerate(pend):
        for b in pend[i + 1:]:
            if a.process == b.process:
                return "process-sequential"
    return None


def harvested_tuple_sets(seed, count):
    """Tuple sets of fuzzed wrapped runs; some runs are cut short so
    their views mention pending operations."""
    rng = random.Random(seed)
    for _ in range(count):
        inner = AtomicInner(get_spec("queue"), latency=rng.randint(0, 6))
        steps = rng.choice((20_000, rng.randint(10, 80)))
        _, rec = fuzzed_star_run(rng, inner=inner, procs=rng.randint(1, 4),
                                 ops_per_proc=rng.randint(1, 4),
                                 max_steps=steps)
        yield rng, sorted(lambda_of(rec), key=lambda t: len(t.view))


def with_view(t, view):
    return ViewTuple(t.op, t.result, frozenset(view))


def corrupt(rng, ts):
    """One random corruption of a (length-sorted) tuple list."""
    ts = list(ts)
    k = rng.randrange(len(ts))
    kind = rng.randrange(5)
    if kind == 0 and ts[k].view:  # an operation removed from one view
        ts[k] = with_view(ts[k], ts[k].view - {rng.choice(sorted(
            ts[k].view, key=lambda o: o.uid))})
    elif kind == 1 and len(ts) > 1:  # two views made incomparable
        j = rng.randrange(len(ts))
        ts[k] = with_view(ts[k], ts[k].view | {Op(9, "9.0", "Deq")})
        ts[j] = with_view(ts[j], ts[j].view | {Op(9, "9.1", "Deq")})
    elif kind == 2:  # a same-process pending op in this and later views
        ghost = Op(ts[k].op.process, "ghost", "Deq")
        ts = [with_view(t, t.view | {ghost}) if i >= k else t
              for i, t in enumerate(ts)]
    elif kind == 3:  # two pendings of one process
        p = rng.randint(1, 5)
        ghosts = {Op(p, f"ghost{i}", "Deq") for i in range(2)}
        ts = [with_view(t, t.view | ghosts) if i >= k else t
              for i, t in enumerate(ts)]
    else:  # another tuple's operation leaks into an earlier view
        j = rng.randrange(len(ts))
        ts = [with_view(t, t.view | {ts[j].op}) if i >= k else t
              for i, t in enumerate(ts)]
    return ts


def property_of(tuples):
    bad = validate_views(tuples)
    return None if bad is None else bad.property


def test_chain_validation_agrees_with_pairwise_on_harvested_sets():
    for _, ts in harvested_tuple_sets(61, 150):
        assert property_of(ts) is None
        assert pairwise_validate(ts) is None


def test_chain_validation_agrees_with_pairwise_on_corrupted_sets():
    seen = set()
    for rng, ts in harvested_tuple_sets(62, 300):
        if not ts:
            continue
        for _ in range(4):
            bad = corrupt(rng, ts)
            want = pairwise_validate(bad)
            assert property_of(bad) == want
            seen.add(want)
            ts = bad if rng.random() < 0.3 else ts
    assert seen == {None, "self-inclusion", "containment",
                    "process-sequential"}


def test_duplicate_op_tuples_stay_open_until_their_last_view():
    a, b = op(1, 0, "Enq", 1), op(1, 1, "Deq")
    c = op(2, 0, "Enq", 2)
    ts = {vt(a, True, a), vt(a, False, a, c), vt(b, 1, a, c, b)}
    assert property_of(ts) is None and pairwise_validate(ts) is None
    ts = {vt(a, True, a), vt(a, False, a, c, b), vt(b, 1, a, c, b)}
    assert property_of(ts) == pairwise_validate(ts) == "process-sequential"


# -- build_history -------------------------------------------------------

def test_empty_tuple_set_builds_the_empty_history():
    assert build_history(frozenset()) == History(())


def test_single_tuple_builds_inv_then_res():
    a = op(1, 0, "Enq", 1)
    h = build_history({vt(a, True, a)})
    assert [e.kind for e in h.events] == ["inv", "res"]
    assert h.result_of("1.0") is True


def test_mentioned_but_unresponded_ops_stay_pending():
    a, b = op(1, 0, "Enq", 1), op(2, 0, "Deq")
    h = build_history({vt(a, True, a, b)})
    assert h.pending_uids() == ["2.0"]
    assert mentioned_pending({vt(a, True, a, b)}) == {b}


def test_block_order_is_canonical():
    a, b = op(2, 0, "Enq", 2), op(1, 0, "Enq", 1)
    c = op(3, 0, "Deq")
    ts = {vt(a, True, a, b), vt(b, True, a, b), vt(c, 1, a, b, c)}
    h = build_history(ts)
    assert [(e.kind, e.op.uid) for e in h.events] == [
        ("inv", "1.0"), ("inv", "2.0"), ("res", "1.0"), ("res", "2.0"),
        ("inv", "3.0"), ("res", "3.0")]


def test_build_rejects_violating_sets():
    a, b = op(1, 0, "Enq", 1), op(2, 0, "Deq")
    with pytest.raises(ViewPropertyViolation):
        build_history({vt(a, True, a), vt(b, 1, b)})


def test_shuffled_blocks_stay_in_the_equivalence_class():
    rng = random.Random(52)
    for _ in range(25):
        _, rec = fuzzed_star_run(rng, procs=3)
        lam = lambda_of(rec)
        canonical = build_history(lam)
        other = build_history(lam, shuffle=random.Random(rng.random()))
        assert equivalent(canonical, other)
        assert canonical.prec_pairs() == other.prec_pairs()
        assert is_similar(canonical, other) is not None
        assert is_similar(other, canonical) is not None


# -- tighten and lambda_of -----------------------------------------------

def test_already_tight_solo_run():
    rec = solo_star_run(3)
    t = tighten(rec)
    star = rec.star_history()
    # solo: no interference, so tightening only renames the boundaries
    assert equivalent(t, star)
    assert t.prec_pairs() == star.prec_pairs()


def test_solo_views_grow_by_one_pair():
    rec = solo_star_run(4)
    lam = lambda_of(rec)
    views = sorted((t.view for t in lam), key=len)
    assert [len(v) for v in views] == [1, 2, 3, 4]
    for small, big in zip(views, views[1:]):
        assert small < big


def test_returned_views_match_log_derived_views():
    rng = random.Random(53)
    for _ in range(25):
        _, rec = fuzzed_star_run(rng, procs=3,
                                 engine=rng.choice(["atomic", "collect"]))
        reported = returned_views(rec)
        for t in lambda_of(rec):
            assert reported[t.op.uid] == t.view


def test_crash_between_announce_and_inner_call_leaves_a_pending_op():
    spec = get_spec("queue")
    sys_ = StarSystem(spec=spec, inner=AtomicInner(spec), procs=2)
    programs = {1: star_process(sys_, 1, [Op(1, "1.0", "Enq", 1)]),
                2: star_process(sys_, 2, [Op(2, "2.0", "Enq", 2)])}
    # p1 stops right after its announce write (entries: inv, write)
    sched = Schedule.explicit([1, 1], crash_at={1: 2}, fair_tail=True)
    rec = run(programs, sched, sys_.memory)
    t = tighten(rec)
    assert "1.0" in t.pending_uids()
    assert t.is_complete("2.0")
    # the pending op is visible: p2's snapshot saw the announce
    assert Op(1, "1.0", "Enq", 1) in visible_ops(lambda_of(rec))


def test_never_announced_ops_are_absent_from_tight_history():
    spec = get_spec("queue")
    sys_ = StarSystem(spec=spec, inner=AtomicInner(spec), procs=2)
    programs = {1: star_process(sys_, 1, [Op(1, "1.0", "Enq", 1)]),
                2: star_process(sys_, 2, [Op(2, "2.0", "Enq", 2)])}
    # p1 crashes after logging only its invocation boundary
    sched = Schedule.explicit([1], crash_at={1: 1}, fair_tail=True)
    rec = run(programs, sched, sys_.memory)
    t = tighten(rec)
    assert "1.0" not in t.ops
    assert t.is_complete("2.0")


def test_zero_completed_snapshots_give_an_empty_tuple_set():
    spec = get_spec("queue")
    sys_ = StarSystem(spec=spec, inner=AtomicInner(spec), procs=1)
    programs = {1: star_process(sys_, 1, [Op(1, "1.0", "Enq", 1)])}
    rec = run(programs, Schedule.explicit([1] * 4), sys_.memory)  # cut early
    assert lambda_of(rec) == frozenset()
    assert tighten(rec).pending_uids() == ["1.0"]


def test_sketch_agrees_with_tight_history_on_fuzzed_runs():
    rng = random.Random(54)
    for _ in range(40):
        _, rec = fuzzed_star_run(
            rng, procs=rng.randint(2, 4),
            engine=rng.choice(["atomic", "collect"]),
            max_steps=rng.choice([40, 80, 20_000]))
        assert sketch_matches_tight(rec)


def test_tampered_log_raises_malformed():
    rec = solo_star_run(1)
    no_announce = [e for e in rec.entries
                   if not (e.kind == "write" and e.announce)]
    broken = RecordedExecution(no_announce, rec.procs, {}, rec.memory)
    with pytest.raises(MalformedLog, match="never announced"):
        tighten(broken)

    no_inner = [e for e in rec.entries if e.kind != "inner_res"]
    broken = RecordedExecution(no_inner, rec.procs, {}, rec.memory)
    with pytest.raises(MalformedLog, match="without an inner response"):
        lambda_of(broken)

    twice = rec.entries + [e for e in rec.entries
                           if e.kind == "write" and e.announce]
    broken = RecordedExecution(twice, rec.procs, {}, rec.memory)
    with pytest.raises(MalformedLog, match="announced twice"):
        tighten(broken)
