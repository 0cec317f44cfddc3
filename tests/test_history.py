"""History model: validation, projections, orders, similarity."""

import random

import pytest

from linview.gen import random_history
from linview.history import (DuplicateUid, History, NotComplete,
                             NotSequentialPerProcess, Op,
                             ResponseWithoutInvocation, equivalent, inv,
                             is_similar, res)

from _util import op


def three_proc_stack() -> History:
    # Push(2) and Push(1) overlap; then Pop():1, then Pop():2.
    pu1, pu2 = op(1, 0, "Push", 1), op(2, 0, "Push", 2)
    po3, po2 = op(3, 0, "Pop"), op(2, 1, "Pop")
    return History((inv(pu2), inv(pu1), res(pu2, True), res(pu1, True),
                    inv(po3), res(po3, 1), inv(po2), res(po2, 2)))


# -- validation ----------------------------------------------------------

def test_sequential_single_process_is_valid():
    a, b = op(1, 0, "Push", 2), op(1, 1, "Pop")
    h = History((inv(a), res(a, True), inv(b), res(b, 1)))
    assert len(h) == 4
    assert h.complete_uids() == ["1.0", "1.1"]
    assert h.pending_uids() == []


def test_second_invocation_while_pending_is_rejected():
    a, b = op(1, 0, "Push", 2), op(1, 1, "Push", 1)
    with pytest.raises(NotSequentialPerProcess) as exc:
        History((inv(a), inv(b)))
    assert exc.value.index == 1


def test_three_process_stack_history_is_valid():
    h = three_proc_stack()
    assert len(h.ops) == 4
    assert h.processes == {1, 2, 3}


def test_ops_is_a_read_only_view_in_invocation_order():
    h = three_proc_stack()
    assert list(h.ops) == sorted(h.ops, key=h.inv_index)
    with pytest.raises(TypeError):
        h.ops["9.9"] = op(9, 9, "Pop")
    assert len(h.ops) == 4


def test_response_without_invocation_is_rejected():
    a = op(1, 0, "Pop")
    with pytest.raises(ResponseWithoutInvocation) as exc:
        History((res(a, 1),))
    assert exc.value.index == 0


def test_response_for_wrong_open_operation_is_rejected():
    a, b = op(1, 0, "Push", 1), op(1, 1, "Pop")
    with pytest.raises(ResponseWithoutInvocation):
        History((inv(a), res(b, 1)))


def test_duplicate_uid_is_rejected():
    a = op(1, 0, "Push", 1)
    again = Op(2, "1.0", "Pop")
    with pytest.raises(DuplicateUid) as exc:
        History((inv(a), res(a, True), inv(again)))
    assert exc.value.index == 2


def test_result_lookup_and_indices():
    h = three_proc_stack()
    assert h.result_of("3.0") == 1
    assert h.inv_index("2.0") == 0
    assert h.res_index("2.0") == 2
    assert h.is_complete("2.1")


# -- comp ----------------------------------------------------------------

def test_comp_is_identity_without_pending():
    h = three_proc_stack()
    assert h.comp() == h


def test_comp_removes_pending_invocation():
    a, b = op(1, 0, "A"), op(2, 0, "B")
    h = History((inv(a), inv(b), res(a, "x")))
    assert h.comp() == History((inv(a), res(a, "x")))


def test_comp_is_idempotent_on_random_histories():
    rng = random.Random(101)
    for _ in range(60):
        h = random_history(rng, "queue", procs=3, max_ops=6)
        c = h.comp()
        assert c.comp() == c
        assert set(c.ops) == set(h.complete_uids())


# -- real-time orders ----------------------------------------------------

def test_completed_push_precedes_later_pop():
    h = three_proc_stack()
    assert h.precedes_lt("2.0", "2.1")       # Push(2) before Pop():2
    assert not h.precedes_lt("2.1", "2.0")


def test_overlapping_ops_are_incomparable():
    h = three_proc_stack()
    assert not h.precedes_lt("1.0", "2.0")
    assert not h.precedes_lt("2.0", "1.0")


def test_precedes_lt_requires_complete_operations():
    a, b = op(1, 0, "A"), op(2, 0, "B")
    h = History((inv(a), res(a, 1), inv(b)))
    with pytest.raises(NotComplete):
        h.precedes_lt("1.0", "2.0")


def test_precedes_prec_reaches_pending_operations():
    a, b = op(1, 0, "A"), op(2, 0, "B")
    h = History((inv(a), res(a, 1), inv(b)))
    assert h.precedes_prec("1.0", "2.0")     # b pending, still ordered
    assert not h.precedes_prec("2.0", "1.0")  # pending precedes nothing


def test_orders_agree_with_index_scan_on_random_histories():
    rng = random.Random(7)
    for _ in range(40):
        h = random_history(rng, "stack", procs=3, max_ops=6)
        uids = list(h.ops)
        for a in uids:
            for b in uids:
                if a == b:
                    continue
                ra = next((i for i, e in enumerate(h.events)
                           if e.kind == "res" and e.op.uid == a), None)
                ib = next(i for i, e in enumerate(h.events)
                          if e.kind == "inv" and e.op.uid == b)
                expect = ra is not None and ra < ib
                assert h.precedes_prec(a, b) == expect
                if h.is_complete(a) and h.is_complete(b):
                    assert h.precedes_lt(a, b) == expect


def test_lt_pairs_are_a_subset_of_prec_pairs():
    rng = random.Random(8)
    for _ in range(40):
        h = random_history(rng, "queue", procs=3, max_ops=6)
        lt = {(a, b) for a in h.complete_uids() for b in h.complete_uids()
              if a != b and h.precedes_lt(a, b)}
        assert lt <= h.prec_pairs()


def test_prec_pairs_match_pointwise_queries():
    rng = random.Random(9)
    for _ in range(30):
        h = random_history(rng, "set", procs=3, max_ops=5)
        pairs = h.prec_pairs()
        for a in h.complete_uids():
            for b in h.ops:
                if a != b:
                    assert ((a, b) in pairs) == h.precedes_prec(a, b)


# -- equivalence ---------------------------------------------------------

def test_equivalent_is_reflexive():
    h = three_proc_stack()
    assert equivalent(h, h)


def test_same_projections_different_real_time_are_equivalent():
    a, b = op(1, 0, "A"), op(2, 0, "B")
    sequential = History((inv(a), res(a, 1), inv(b), res(b, 2)))
    overlapped = History((inv(a), inv(b), res(a, 1), res(b, 2)))
    assert equivalent(sequential, overlapped)
    assert equivalent(overlapped, sequential)
    assert sequential.prec_pairs() != overlapped.prec_pairs()


def test_differing_result_breaks_equivalence():
    a = op(1, 0, "A")
    assert not equivalent(History((inv(a), res(a, 1))),
                          History((inv(a), res(a, 2))))


def test_equivalence_relation_spot_checks():
    rng = random.Random(10)
    for _ in range(20):
        f = random_history(rng, "queue", procs=3, max_ops=5)
        perm = list(f.events)
        # reorder across processes without touching projections
        for _ in range(10):
            i = rng.randrange(max(1, len(perm) - 1))
            if len(perm) > 1 and perm[i].op.process != perm[i + 1].op.process:
                try:
                    g = History(tuple(perm[:i] + [perm[i + 1], perm[i]]
                                      + perm[i + 2:]))
                except ValueError:
                    continue
                perm[i], perm[i + 1] = perm[i + 1], perm[i]
                assert equivalent(f, g) and equivalent(g, f)
        h = History(tuple(perm))
        assert equivalent(f, h) and equivalent(h, f)  # transitive chain


# -- similarity ----------------------------------------------------------

def test_similar_to_itself_without_pending():
    h = three_proc_stack()
    w = is_similar(h, h)
    assert w is not None
    assert w.e_prime == h
    assert not w.removed and not w.completed


def test_similar_to_itself_with_pending():
    a, b = op(1, 0, "A"), op(2, 0, "B")
    h = History((inv(a), res(a, 1), inv(b)))
    w = is_similar(h, h)
    assert w is not None
    assert not w.removed and not w.completed


def test_pending_invocation_similar_to_empty():
    h = History((inv(op(1, 0, "A")),))
    w = is_similar(h, History(()))
    assert w is not None
    assert w.removed == frozenset({"1.0"})
    assert len(w.e_prime) == 0


def test_pending_completion_copies_result_from_target():
    a = op(1, 0, "A")
    e = History((inv(a),))
    f = History((inv(a), res(a, 5)))
    w = is_similar(e, f)
    assert w is not None
    assert w.completed == {"1.0": 5}
    assert equivalent(w.e_prime, f)


def test_complete_operations_cannot_be_adjusted():
    a = op(1, 0, "A")
    e = History((inv(a), res(a, 1)))
    assert is_similar(e, History(())) is None
    assert is_similar(e, History((inv(a), res(a, 2)))) is None


def test_extra_real_time_order_blocks_similarity():
    a, b = op(1, 0, "A"), op(2, 0, "B")
    e = History((inv(a), res(a, 1), inv(b)))          # a precedes pending b
    f = History((inv(a), inv(b), res(a, 1), res(b, 2)))  # a, b overlap
    # completing b in e orders a before b, which f does not
    assert is_similar(e, f) is None
    # dropping instead is not allowed since f contains b complete
    assert is_similar(f, e) is None  # f has no pending ops to adjust


def test_similarity_accepts_mixed_choices_per_process():
    a, b, c = op(1, 0, "A"), op(2, 0, "B"), op(3, 0, "C")
    e = History((inv(a), inv(b), inv(c)))
    f = History((inv(b), res(b, 7)))
    w = is_similar(e, f)
    assert w is not None
    assert w.removed == frozenset({"1.0", "3.0"})
    assert w.completed == {"2.0": 7}


# -- prefixes ------------------------------------------------------------

def test_empty_history_has_one_prefix():
    assert [len(p) for p in History(()).prefixes()] == [0]


def test_prefix_count_and_validity():
    h = three_proc_stack()
    ps = list(h.prefixes())
    assert len(ps) == len(h) + 1
    assert ps[0] == History(())
    assert ps[-1] == h
    for k, p in enumerate(ps):
        assert len(p) == k  # each prefix validated on construction


def test_projection_alternates_inv_res():
    rng = random.Random(11)
    for _ in range(30):
        h = random_history(rng, "pqueue", procs=3, max_ops=6)
        for p in h.processes:
            kinds = [e.kind for e in h.project(p)]
            assert all(k == ("inv" if i % 2 == 0 else "res")
                       for i, k in enumerate(kinds))


def test_op_pretty_rendering():
    assert op(2, 0, "Push", 2).pretty() == "p2:Push(2)#2.0"
    assert op(1, 3, "Pop").pretty() == "p1:Pop()#1.3"
