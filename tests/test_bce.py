"""Blocked clause elimination: blockedness, fixpoint, reconstruction."""

import random
from collections import defaultdict

from hypothesis import given, settings, strategies as st

from labelmax import lcnf_prep
from labelmax.lcnf_prep import (_blocked_on, _ClauseStore, bce_fixpoint,
                                is_blocked)
from labelmax.model import (LCNF, WCNF, StackEntry, clause, clause_satisfied,
                            is_tautology, lcnf_from_wcnf, reconstruct)
from labelmax.oracle import brute_force_maxsat, random_wcnf
from support import (brute_force_lcnf_maxsat, enumerate_mus, lclause,
                     truth_table_sat, tseitin_wcnf)


def wcnf_of(soft_clauses, hard_clauses=(), weights=None):
    f = WCNF()
    for c in hard_clauses:
        f.add_hard(c)
    for i, c in enumerate(soft_clauses):
        f.add_soft(c, weights[i] if weights else 1)
    return f


def entry(lits, blocking_lit, labels=()):
    """The stack entry of a clause BCE removed as blocked on a literal."""
    return StackEntry(abs(blocking_lit), frozenset([lclause(lits, labels)]))


def survivors(phi):
    """The literal tuples of a labelled formula, one per clause, sorted."""
    return sorted(c.lits for c in phi.clauses)


def test_is_blocked_pure_literal():
    f = [clause([1, 2]), clause([-2, 3])]
    assert is_blocked(f, clause([1, 2]), 1)  # no clause contains -1


def test_is_blocked_non_tautological_resolvent():
    f = [clause([1, 2]), clause([-1, 2])]
    assert not is_blocked(f, clause([1, 2]), 1)  # resolvent (2) not a tautology


def test_is_blocked_tautological_resolvent():
    f = [clause([1, 2]), clause([-1, -2, 3])]
    assert is_blocked(f, clause([1, 2]), 1)  # resolvent has 2 and -2


def test_fixpoint_leaves_core_example_unchanged():
    # no literal of any clause is blocked here
    phi = lcnf_from_wcnf(wcnf_of([(1,), (-1,), (1, 2), (1, -2), (3,), (-3,)]))
    out, record = bce_fixpoint(phi)
    assert out == phi
    assert record == []


def test_fixpoint_removes_pure_literal_clause_and_cascades():
    # (1 2) is blocked on pure 1; once it is gone, (-2) is pure too,
    # so the fixpoint eliminates everything
    out, record = bce_fixpoint(lcnf_from_wcnf(wcnf_of([(1, 2), (-2,)])))
    assert survivors(out) == []
    # each entry keeps its clause's labels: soft clause i carries {i}
    assert record == [entry((1, 2), 1, {1}), entry((-2,), -2, {2})]


def test_fixpoint_empty_formula():
    out, record = bce_fixpoint(LCNF())
    assert out == LCNF()
    assert record == []


def test_fixpoint_cascades():
    # removing (1 2) on pure 1 makes 2 pure in (-2 3)... 2 occurs only
    # negatively from the start; whole formula melts away
    f = wcnf_of([(1, 2), (-2, 3), (-3,)])
    out, record = bce_fixpoint(lcnf_from_wcnf(f))
    assert survivors(out) == []
    assert len(record) == 3


def test_fixpoint_removes_tautologies_first():
    # dropped on entry with no stack entry: no lift needs a tautology
    f = wcnf_of([(1, -1, 2), (2,), (-2,)], hard_clauses=[(3, -3)])
    out, record = bce_fixpoint(lcnf_from_wcnf(f))
    assert record == []
    assert out.clauses == {lclause((2,), {2}), lclause((-2,), {3})}
    # the dropped tautology's label keeps its weight entry
    assert out.label_weights == {1: 1, 2: 1, 3: 1}


def test_fixpoint_hard_clauses_eligible_by_default():
    f = wcnf_of([], hard_clauses=[(1, 2)])
    out, record = bce_fixpoint(lcnf_from_wcnf(f))
    assert survivors(out) == []
    assert record == [entry((1, 2), 1)]


def test_duplicate_soft_occurrences_removed_together():
    f = WCNF()
    f.add_soft([1, 2], 3)
    f.add_soft([1, 2], 5)
    out, record = bce_fixpoint(lcnf_from_wcnf(f))
    assert survivors(out) == []
    # one entry per labelled clause, in ``sort_key`` order
    assert record == [entry((1, 2), 1, {1}), entry((1, 2), 1, {2})]


def test_copies_under_labels_and_hard_are_removed_together():
    # (1 2) as a hard clause and under labels 1 and 2: (-1 -2) makes
    # every resolvent on 1 a tautology, so all three copies are blocked
    f = wcnf_of([(1, 2), (1, 2)], hard_clauses=[(1, 2), (-1, -2)])
    out, record = bce_fixpoint(lcnf_from_wcnf(f))
    assert survivors(out) == []
    assert record == [entry((-1, -2), -1), entry((1, 2), 1),
                      entry((1, 2), 1, {1}), entry((1, 2), 1, {2})]
    # with units -1 and -2 no copy is blocked, so all three stay
    f = wcnf_of([(1, 2), (1, 2), (-1,), (-2,)], hard_clauses=[(1, 2)])
    phi = lcnf_from_wcnf(f)
    out, record = bce_fixpoint(phi)
    assert out == phi
    assert record == []


class _ShuffledSet(set):
    """A set that iterates in a fresh random order each time."""

    rng = random.Random(0)

    def __iter__(self):
        items = list(set.__iter__(self))
        self.rng.shuffle(items)
        return iter(items)


class _ShuffledStore(_ClauseStore):
    def __init__(self, clauses):
        super().__init__(())
        self.clauses = _ShuffledSet()
        self.occ = defaultdict(_ShuffledSet)
        clauses = list(clauses)
        _ShuffledSet.rng.shuffle(clauses)
        for c in clauses:
            self.add(c)


def test_record_depends_on_the_clause_set_alone(monkeypatch):
    # the order sets iterate in may differ between Python versions; the
    # record must not
    phis = [lcnf_from_wcnf(tseitin_wcnf(seed)) for seed in range(6)]
    want = [bce_fixpoint(phi) for phi in phis]
    assert sum(len(rec) for _, rec in want) >= 20
    monkeypatch.setattr(lcnf_prep, "_ClauseStore", _ShuffledStore)
    for phi, expect in zip(phis, want):
        for _ in range(3):
            assert bce_fixpoint(phi) == expect


def test_reconstruct_flips_blocking_literal():
    rec = [entry((1, 2), 1)]
    assert reconstruct(rec, {1: 0, 2: 0}) == {1: 1, 2: 0}
    assert reconstruct(rec, {1: 0, 2: 1}) == {1: 0, 2: 1}  # already satisfied


def test_reconstruct_reverse_order_semantics():
    # synthetic two-entry stack: last-eliminated is processed first
    rec = [entry((1, 2), 1), entry((-1, 3), 3)]
    out = reconstruct(rec, {1: 0, 2: 0, 3: 0})
    assert out == {1: 1, 2: 0, 3: 0}


def test_reconstruct_defaults_absent_vars_to_zero():
    rec = [entry((4, 5), 4)]
    out = reconstruct(rec, {})
    # 4 starts at 0 and flips; 5 stays absent, which reads 0
    assert out == {4: 1}


def reference_bce(f, order_seed):
    """The clauses left by dropping tautologies, then any blocked clause,
    scanning the clause set in a seeded random order until a scan
    removes nothing."""
    rng = random.Random(order_seed)
    left = {c for c in f.hard + [c for c, _ in f.soft]
            if not is_tautology(c)}
    removed = True
    while removed:
        removed = False
        order = sorted(left)
        rng.shuffle(order)
        for c in order:
            if any(is_blocked(left, c, l) for l in c):
                left.discard(c)
                removed = True
    return left


def test_confluence_on_random_instances():
    for seed in range(40):
        f = random_wcnf(seed, nvars=8, nclauses=14, hard_fraction=0.25)
        phi = lcnf_from_wcnf(f)
        base, _ = bce_fixpoint(phi)
        for order_seed in (1, 2, 3):
            left = reference_bce(f, order_seed)
            # every labelled copy of a surviving clause survives
            assert base.clauses == {c for c in phi.clauses if c.lits in left}


def test_monotonicity_on_random_instances():
    for seed in range(40):
        f = random_wcnf(seed, nvars=8, nclauses=14)
        rng = random.Random(seed)
        keep = [i for i in range(len(f.soft)) if rng.random() < 0.6]
        sub = WCNF(num_vars=f.num_vars)
        sub.hard = list(f.hard)
        sub.soft = [f.soft[i] for i in keep]
        # survivors of the sub-formula must survive in the super-formula
        out_sub, _ = bce_fixpoint(lcnf_from_wcnf(sub))
        out_full, _ = bce_fixpoint(lcnf_from_wcnf(f))
        assert set(survivors(out_sub)) <= set(survivors(out_full))


def test_mus_preservation_on_random_unsat_instances():
    checked = 0
    for seed in range(200):
        f = random_wcnf(seed, nvars=5, nclauses=9, hard_fraction=0.0)
        clauses = [c for c, _ in f.soft]
        if truth_table_sat(clauses, f.num_vars) is not None:
            continue
        reduced, _ = bce_fixpoint(lcnf_from_wcnf(f))
        kept = survivors(reduced)
        before = {frozenset(clauses[i - 1] for i in m)
                  for m in enumerate_mus(clauses, f.num_vars)}
        after = {frozenset(kept[i - 1] for i in m)
                 for m in enumerate_mus(kept, f.num_vars)}
        assert before == after, seed
        checked += 1
    assert checked >= 20


def test_cost_preservation_and_lift():
    for seed in range(120):
        f = random_wcnf(seed, nvars=7, nclauses=12, hard_fraction=0.3)
        base = brute_force_maxsat(f)
        reduced, record = bce_fixpoint(lcnf_from_wcnf(f))
        after = brute_force_lcnf_maxsat(reduced)
        if base is None:
            assert after is None
            continue
        assert after is not None
        assert after.cost == base.cost, seed
        lifted = reconstruct(record, after.model, removed=after.falsified)
        # the lift keeps all hard clauses and the exact optimal cost
        for c in f.hard:
            assert clause_satisfied(c, lifted)
        assert f.cost_of(lifted) == base.cost, seed


CLAUSES = st.lists(st.sets(st.integers(-5, 5).filter(bool), max_size=4),
                   max_size=12)


@settings(max_examples=200, deadline=None)
@given(CLAUSES, CLAUSES)
def test_fast_blocked_test_matches_is_blocked(hard, soft):
    # blockedness is asked after the tautology sweep
    phi = lcnf_from_wcnf(wcnf_of([sorted(c) for c in soft],
                                 [sorted(c) for c in hard]))
    live = [c for c in phi.clauses if not is_tautology(c.lits)]
    store = _ClauseStore(live)
    formula = {c.lits for c in live}
    for c in live:
        for l in c.lits:
            assert (_blocked_on(store, c, l)
                    == is_blocked(formula, c.lits, l)), (c, l)
