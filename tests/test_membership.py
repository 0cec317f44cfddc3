"""Membership checking: fidelity cases, witness validation, and the
differential against the brute-force oracle."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linview.gen import (append_pending, linearizable_history,
                         random_history, similar_variant)
from linview.history import History, Op, inv, is_similar, res
from linview.membership import (Linearization, TooLarge, _index_ops,
                                brute_force_linearizable,
                                check_linearization, is_linearizable,
                                lin_object)
from linview.seqspec import EMPTY, SeqSpec, accepts, get_spec

from _util import exhaustive_histories, op, random_bounded_history, relabel

QUEUE = get_spec("queue")
STACK = get_spec("stack")


def stack_pair():
    pu1, pu2 = op(1, 0, "Push", 1), op(2, 0, "Push", 2)
    po3, po2 = op(3, 0, "Pop"), op(2, 1, "Pop")
    top = History((inv(pu2), inv(pu1), res(pu2, True), res(pu1, True),
                   inv(po3), res(po3, 1), inv(po2), res(po2, 2)))
    pu = op(1, 0, "Push", 1)
    poe, po1 = op(2, 0, "Pop"), op(3, 0, "Pop")
    bottom = History((inv(pu), res(pu, True), inv(poe), res(poe, EMPTY),
                      inv(po1), res(po1, 1)))
    return top, bottom


# -- pinned cases --------------------------------------------------------

def test_overlapping_pushes_then_pops_member():
    top, _ = stack_pair()
    lin = is_linearizable(top, STACK)
    assert lin is not None
    assert check_linearization(top, STACK, lin)


def test_push_push_pop_pop_order_is_a_valid_witness():
    top, _ = stack_pair()
    ops = top.ops
    claimed = Linearization(((ops["2.0"], True), (ops["1.0"], True),
                             (ops["3.0"], 1), (ops["2.1"], 2)),
                            {}, frozenset())
    assert check_linearization(top, STACK, claimed)


def test_pop_empty_after_unremoved_push_non_member():
    _, bottom = stack_pair()
    assert is_linearizable(bottom, STACK) is None
    assert not brute_force_linearizable(bottom, STACK)


def test_empty_history_has_empty_linearization():
    lin = is_linearizable(History(()), QUEUE)
    assert lin is not None
    assert lin.order == ()
    assert not lin.appended and not lin.dropped
    assert brute_force_linearizable(History(()), QUEUE)


def test_single_complete_operation_with_legal_response():
    h = History((inv(op(1, 0, "Deq")), res(op(1, 0, "Deq"), EMPTY)))
    assert is_linearizable(h, QUEUE) is not None
    assert brute_force_linearizable(h, QUEUE)


def test_single_complete_operation_with_illegal_response():
    h = History((inv(op(1, 0, "Deq")), res(op(1, 0, "Deq"), 3)))
    assert is_linearizable(h, QUEUE) is None
    assert not brute_force_linearizable(h, QUEUE)


def test_pending_enqueue_must_be_completed_to_explain_dequeue():
    e, d = op(1, 0, "Enq", 1), op(2, 0, "Deq")
    h = History((inv(e), inv(d), res(d, 1)))
    lin = is_linearizable(h, QUEUE)
    assert lin is not None
    assert lin.appended == {"1.0": True}
    assert lin.dropped == frozenset()
    assert check_linearization(h, QUEUE, lin)


def test_pending_operations_may_be_dropped():
    e, d = op(1, 0, "Enq", 1), op(2, 0, "Deq")
    h = History((inv(d), res(d, EMPTY), inv(e)))
    lin = is_linearizable(h, QUEUE)
    assert lin is not None
    assert lin.dropped | set(lin.appended) == {"1.0"}
    assert check_linearization(h, QUEUE, lin)


def test_real_time_order_is_enforced():
    e1, e2, d = op(1, 0, "Enq", 1), op(1, 1, "Enq", 2), op(2, 0, "Deq")
    h = History((inv(e1), res(e1, True), inv(e2), res(e2, True),
                 inv(d), res(d, 2)))
    assert is_linearizable(h, QUEUE) is None  # Enq(1) finished first
    assert not brute_force_linearizable(h, QUEUE)


def test_brute_force_refuses_large_histories():
    events = []
    for k in range(9):
        o = op(1, k, "Enq", 1)
        events += [inv(o), res(o, True)]
    with pytest.raises(TooLarge):
        brute_force_linearizable(History(tuple(events)), QUEUE)


# -- witness validation --------------------------------------------------

def test_check_linearization_rejects_tampered_witnesses():
    top, _ = stack_pair()
    lin = is_linearizable(top, STACK)
    bad_order = Linearization(tuple(reversed(lin.order)), lin.appended,
                              lin.dropped)
    assert not check_linearization(top, STACK, bad_order)
    o, r = lin.order[0]
    missing = Linearization(lin.order[1:], lin.appended, lin.dropped)
    assert not check_linearization(top, STACK, missing)


def test_returned_witnesses_revalidate_on_random_members():
    rng = random.Random(21)
    for _ in range(80):
        name = rng.choice(["queue", "stack", "set", "counter", "register",
                           "pqueue", "consensus"])
        h = linearizable_history(rng, name, procs=3, max_ops=6)
        spec = get_spec(name)
        lin = is_linearizable(h, spec)
        assert lin is not None
        assert check_linearization(h, spec, lin)


# -- the abstract-object interface ------------------------------------------------

def test_lin_object_wraps_membership():
    obj = lin_object(STACK)
    top, bottom = stack_pair()
    assert obj.name == "lin(stack)"
    assert obj.member(top)
    assert not obj.member(bottom)


def test_prefix_closure_sampling():
    rng = random.Random(22)
    obj = lin_object(QUEUE)
    for _ in range(40):
        f = linearizable_history(rng, "queue", procs=3, max_ops=5)
        assert obj.member(f)
        for p in f.prefixes():
            assert obj.member(p)


def test_similarity_closure_sampling():
    rng = random.Random(23)
    obj = lin_object(STACK)
    for _ in range(40):
        f = linearizable_history(rng, "stack", procs=3, max_ops=5)
        e = similar_variant(rng, f, "stack")
        assert is_similar(e, f) is not None
        assert obj.member(f)
        assert obj.member(e)


# -- differential against the oracle -------------------------------------

def test_exhaustive_differential_small():
    # full-size sweep lives in the acceptance suite; this is the smoke
    for name, spec in (("queue", QUEUE), ("stack", STACK)):
        count = 0
        for h in exhaustive_histories(name, procs=2, max_ops=3):
            assert (is_linearizable(h, spec) is not None) \
                == brute_force_linearizable(h, spec), h.events
            count += 1
        assert count == 1803


def test_random_differential_across_catalog():
    rng = random.Random(24)
    for _ in range(300):
        name = rng.choice(["queue", "stack", "set", "counter", "register",
                           "pqueue", "consensus"])
        h = random_history(rng, name, procs=3, max_ops=rng.randint(1, 8))
        spec = get_spec(name)
        assert (is_linearizable(h, spec) is not None) \
            == brute_force_linearizable(h, spec), (name, h.events)


# -- the indexed search against pairwise and recursive references ---------

def pairwise_index(h):
    """Slots by invocation; predecessors by comparing every pair."""
    uids = sorted(h.ops, key=h.inv_index)
    slot = {u: i for i, u in enumerate(uids)}
    complete = [h.is_complete(u) for u in uids]
    preds = [0] * len(uids)
    for u in uids:
        for v in uids:
            if v != u and h.is_complete(v) \
                    and h.res_index(v) < h.inv_index(u):
                preds[slot[u]] |= 1 << slot[v]
    return uids, complete, preds


def recursive_search(h, spec):
    """Memoized depth-first search over every slot at every node."""
    uids, complete, preds = pairwise_index(h)
    n = len(uids)
    ops = [h.op(u) for u in uids]
    results = [h.result_of(u) if c else None for u, c in zip(uids, complete)]
    complete_mask = sum(1 << i for i in range(n) if complete[i])
    failed = set()
    order = []

    def search(done, state):
        if done & complete_mask == complete_mask:
            return True
        if (done, state) in failed:
            return False
        for i in range(n):
            bit = 1 << i
            if done & bit or preds[i] & ~done:
                continue
            for s2, r in spec.delta(state, ops[i]):
                if (not complete[i] or r == results[i]) \
                        and search(done | bit, s2):
                    order.append((ops[i], r))
                    return True
        failed.add((done, state))
        return False

    return list(reversed(order)) if search(0, spec.initial) else None


def counting(spec):
    calls = [0]

    def delta(state, o):
        calls[0] += 1
        return spec.delta(state, o)

    return SeqSpec(spec.name, spec.initial, delta), calls


def mixed_histories(seed, count, max_ops):
    """Random and linearizable histories, many with pending operations."""
    rng = random.Random(seed)
    for _ in range(count):
        name = rng.choice(["queue", "stack", "set", "counter", "register",
                           "pqueue", "consensus"])
        procs, size = rng.randint(1, 5), rng.randint(0, max_ops)
        if rng.random() < 0.5:
            h = random_history(rng, name, procs, size)
        else:
            h = append_pending(rng, linearizable_history(rng, name, procs,
                                                         size), name)
        yield name, h


def test_one_sweep_index_matches_pairwise_reference():
    with_pending = 0
    for _, h in mixed_histories(71, 400, 24):
        with_pending += bool(h.pending_uids())
        assert _index_ops(h) == pairwise_index(h), h.events
    assert with_pending > 200


def test_bounded_search_visits_what_the_full_scan_visits():
    answers = set()
    for name, h in mixed_histories(72, 400, 16):
        spec_a, calls_a = counting(get_spec(name))
        spec_b, calls_b = counting(get_spec(name))
        lin = is_linearizable(h, spec_a)
        want = recursive_search(h, spec_b)
        assert calls_a == calls_b, h.events
        assert (lin is None) == (want is None), h.events
        if lin is not None:
            assert list(lin.order) == want
        answers.add(lin is None)
    assert answers == {True, False}


@pytest.mark.parametrize("n", [1_200, 10_000])
@pytest.mark.parametrize("name", ["set", "register", "counter"])
def test_long_histories_check_without_deep_recursion(name, n):
    # far deeper than the default recursion limit allows a recursive
    # search to go: one search level per scheduled operation
    h = linearizable_history(random.Random(n), name, 4, n)
    assert len(h.ops) == n
    spec = get_spec(name)
    lin = is_linearizable(h, spec)
    assert lin is not None
    assert accepts(spec, lin.order)
    assert len(lin.order) + len(lin.dropped) == n
    if n <= 1_200:
        assert check_linearization(h, spec, lin)


# -- relabeling invariance (justifies the canonical quotient) ------------
#
# Invariance is claimed only over the restricted result domain the
# exhaustive enumerator uses.  With free results it genuinely fails:
# True == 1 in Python, so a Deq answering True matches an enqueued 1 but
# not an enqueued 2, and swapping values flips the answer.

@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       perm=st.permutations([1, 2, 3]),
       swap=st.booleans(),
       name=st.sampled_from(["queue", "stack"]))
def test_membership_is_invariant_under_relabeling(seed, perm, swap, name):
    rng = random.Random(seed)
    h = random_bounded_history(rng, name, procs=3, max_ops=5)
    proc_map = {p: q for p, q in zip([1, 2, 3], perm)}
    val_map = {1: 2, 2: 1} if swap else {}
    g = relabel(h, proc_map, val_map)
    spec = get_spec(name)
    assert (is_linearizable(h, spec) is None) \
        == (is_linearizable(g, spec) is None)


def test_free_results_break_value_relabeling():
    # the counterexample that forces the restricted domain above
    e, d = op(1, 0, "Enq", 1), op(2, 0, "Deq")
    h = History((inv(e), res(e, True), inv(d), res(d, True)))
    assert is_linearizable(h, QUEUE) is not None      # True == 1
    g = relabel(h, val_map={1: 2, 2: 1})
    assert is_linearizable(g, QUEUE) is None          # True != 2
