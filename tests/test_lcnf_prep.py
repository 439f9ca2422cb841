import hashlib
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from labelmax.bce import bce_fixpoint
from labelmax.lcnf_prep import (MAX_LABELSET, MAX_ROUNDS, BveEntry, BveRecord,
                                _bve_sweep, _ClauseStore, _new_resolvents,
                                _ssr_fixpoint, _ssr_partner, _ssr_pivot,
                                _sub_fixpoint, bve_reconstruct, dump_lcnf,
                                l_bve, l_resolve, l_ssr, l_sub, l_ve,
                                preprocess_lcnf)
from labelmax.model import (LCNF, WCNF, LabelledClause, clause_vars,
                            induced_subformula, is_tautology, lclause,
                            lcnf_from_wcnf, lcnf_satisfied)
from labelmax.oracle import (brute_force_lcnf_maxsat, enumerate_mcs_labels,
                             random_lcnf, random_wcnf)


def example_two():
    return LCNF(frozenset([
        lclause([-1]), lclause([3]),
        lclause([1, 2], [1]), lclause([1, -2], [1, 2]),
        lclause([1], [2]), lclause([-3], [3]),
    ]), {1: 1, 2: 1, 3: 1})


# ---------------------------------------------------------------------------
# resolution


def test_resolve_merges_lits_and_unions_labels():
    r = l_resolve(lclause([1, 2], [1]), lclause([-1, 3], [2]), 1)
    assert r == lclause([2, 3], [1, 2])


def test_resolve_hard_parents_stay_hard():
    r = l_resolve(lclause([1, 2]), lclause([-1, 2]), 1)
    assert r == lclause([2])
    assert r.hard


def test_resolve_can_return_tautology():
    r = l_resolve(lclause([1, 2], [1]), lclause([-1, -2], [2]), 1)
    assert is_tautology(r.lits)
    assert r.labels == frozenset([1, 2])


def test_resolve_rejects_wrong_polarity():
    with pytest.raises(ValueError):
        l_resolve(lclause([2]), lclause([-1]), 1)
    with pytest.raises(ValueError):
        l_resolve(lclause([1]), lclause([1]), 1)


@given(st.sets(st.integers(1, 4), min_size=0, max_size=3),
       st.sets(st.integers(1, 4), min_size=0, max_size=3),
       st.sets(st.integers(1, 3), max_size=2),
       st.sets(st.integers(1, 3), max_size=2))
def test_resolve_algebra(a_vars, b_vars, la, lb):
    c1 = lclause(sorted(a_vars) + [5], la)
    c2 = lclause([-v for v in sorted(b_vars)] + [-5], lb)
    r = l_resolve(c1, c2, 5)
    assert set(r.lits) == (set(c1.lits) - {5}) | (set(c2.lits) - {-5})
    assert r.labels == la | lb


# ---------------------------------------------------------------------------
# variable elimination


def test_ve_single_resolvent():
    phi = LCNF([lclause([1, 2], [1]), lclause([-1, 3], [2])], {1: 1, 2: 1})
    out = l_ve(phi, 1)
    assert out.clauses == frozenset([lclause([2, 3], [1, 2])])


def test_ve_produces_empty_labelled_clause():
    phi = LCNF([lclause([1]), lclause([-1], [1]), lclause([4], [2])],
               {1: 1, 2: 1})
    out = l_ve(phi, 1)
    assert out.clauses == frozenset([lclause([], [1]), lclause([4], [2])])


def test_ve_drops_tautological_resolvents():
    phi = LCNF([lclause([1, 2], [1]), lclause([-1, -2], [2])], {1: 1, 2: 1})
    out = l_ve(phi, 1)
    assert out.clauses == frozenset()
    # weight entries survive even though both labels lost their clauses
    assert out.label_weights == {1: 1, 2: 1}


def test_ve_commutes_with_induced_subformula_pinned():
    phi = example_two()
    lhs = l_ve(induced_subformula(phi, {1}), 1)
    rhs = induced_subformula(l_ve(phi, 1), {1})
    expected = frozenset([lclause([3]), lclause([2], [1])])
    assert lhs.clauses == expected
    assert rhs.clauses == expected


def test_ve_commutes_with_induced_subformula_random():
    for seed in range(25):
        phi = random_lcnf(seed)
        rng = random.Random(seed)
        labels = sorted(phi.labels())
        m = frozenset(l for l in labels if rng.random() < 0.5)
        for x in sorted(phi.vars()):
            assert l_ve(induced_subformula(phi, m), x).clauses == \
                induced_subformula(l_ve(phi, x), m).clauses


def test_bve_applies_only_when_formula_shrinks():
    small = LCNF([lclause([1, 2], [1]), lclause([-1, 3], [2])], {1: 1, 2: 1})
    assert l_bve(small, 1).clauses == frozenset([lclause([2, 3], [1, 2])])

    dense = LCNF([lclause([1, 2], [1]), lclause([1, 3], [2]),
                  lclause([-1, 4], [3]), lclause([-1, 5], [4])],
                 {1: 1, 2: 1, 3: 1, 4: 1})
    assert l_bve(dense, 1) is dense  # 4 resolvents, no gain

    assert l_bve(small, 9) is small  # variable absent


# ---------------------------------------------------------------------------
# subsumption and self-subsumption


def test_sub_removes_weaker_clause():
    phi = example_two()
    out = l_sub(phi, lclause([1], [2]), lclause([1, -2], [1, 2]))
    assert out.clauses == phi.clauses - {lclause([1, -2], [1, 2])}
    assert out.label_weights == phi.label_weights


def test_sub_requires_clause_inclusion():
    phi = example_two()
    out = l_sub(phi, lclause([1, 2], [1]), lclause([1, -2], [1, 2]))
    assert out.clauses == phi.clauses


def test_sub_requires_label_inclusion():
    phi = example_two()
    out = l_sub(phi, lclause([1], [2]), lclause([1, 2], [1]))
    assert out.clauses == phi.clauses


def test_ssr_strengthens_matching_clause():
    phi = LCNF([lclause([1, 2], [1]), lclause([-1, 2, 3], [1, 2])],
               {1: 1, 2: 1})
    out = l_ssr(phi, lclause([1, 2], [1]), lclause([-1, 2, 3], [1, 2]))
    assert out.clauses == frozenset([lclause([1, 2], [1]),
                                     lclause([2, 3], [1, 2])])


def test_ssr_label_guard():
    phi = LCNF([lclause([1, 2], [2]), lclause([-1, 2, 3], [1])],
               {1: 1, 2: 1})
    out = l_ssr(phi, lclause([1, 2], [2]), lclause([-1, 2, 3], [1]))
    assert out.clauses == phi.clauses


def test_ssr_requires_strict_rest_inclusion():
    phi = LCNF([lclause([1, 2, 4], [1]), lclause([-1, 2, 3], [1])],
               {1: 1})
    out = l_ssr(phi, lclause([1, 2, 4], [1]), lclause([-1, 2, 3], [1]))
    assert out.clauses == phi.clauses


# ---------------------------------------------------------------------------
# MCS preservation — the contract all three rules must honor


def test_rules_preserve_label_mcses_on_random_instances():
    fired = {"bve": 0, "sub": 0, "ssr": 0}
    for seed in range(40):
        phi = random_lcnf(seed, nvars=8, nclauses=12, nlabels=6)
        before = enumerate_mcs_labels(phi)
        for x in sorted(phi.vars()):
            out = l_bve(phi, x)
            if out.clauses != phi.clauses:
                fired["bve"] += 1
                assert enumerate_mcs_labels(out) == before, (seed, x)
        cs = phi.sorted_clauses()
        for c1 in cs:
            for c2 in cs:
                out = l_sub(phi, c1, c2)
                if out.clauses != phi.clauses:
                    fired["sub"] += 1
                    assert enumerate_mcs_labels(out) == before, (seed, c1, c2)
                out = l_ssr(phi, c1, c2)
                if out.clauses != phi.clauses:
                    fired["ssr"] += 1
                    assert enumerate_mcs_labels(out) == before, (seed, c1, c2)
    assert all(n >= 3 for n in fired.values()), fired


def test_rules_never_mint_labels_and_keep_weight_entries():
    for seed in range(25):
        phi = random_lcnf(seed)
        for x in sorted(phi.vars()):
            out = l_bve(phi, x)
            assert out.labels() <= phi.labels()
            assert out.label_weights == phi.label_weights
        cs = phi.sorted_clauses()
        for c1 in cs:
            for c2 in cs:
                out = l_ssr(phi, c1, c2)
                assert out.labels() == phi.labels()  # only a literal is dropped
                out = l_sub(phi, c1, c2)
                assert out.labels() <= phi.labels()
                assert out.label_weights == phi.label_weights


def test_sub_is_inert_on_plain_maxsat_encodings():
    # distinct singleton labels block the label-inclusion guard everywhere
    for seed in range(20):
        phi = lcnf_from_wcnf(random_wcnf(seed, hard_fraction=0.0))
        store = _ClauseStore(phi.clauses)
        _sub_fixpoint(store)
        assert store.clauses == phi.clauses


# ---------------------------------------------------------------------------
# full pass schedule


def test_preprocess_example_subsumption_pass():
    phi = example_two()
    store = _ClauseStore(phi.clauses)
    _sub_fixpoint(store)
    out = phi.replace(store.clauses)
    assert out.clauses == phi.clauses - {lclause([1, -2], [1, 2])}
    assert brute_force_lcnf_maxsat(phi).cost == 2
    assert brute_force_lcnf_maxsat(out).cost == 2
    assert brute_force_lcnf_maxsat(out).falsified == frozenset([2, 3])


def test_preprocess_can_dissolve_satisfiable_hard_formula():
    phi = LCNF([lclause([1, 2]), lclause([3])], {})
    out, rec = preprocess_lcnf(phi)
    assert out.clauses == frozenset()
    tau = bve_reconstruct(rec, {})
    assert lcnf_satisfied(phi, tau)


def test_preprocess_preserves_optimum_and_reconstructs():
    solved = 0
    for seed in range(60):
        phi = random_lcnf(seed, nvars=8, nclauses=12, nlabels=6)
        out, rec = preprocess_lcnf(phi)
        sol_before = brute_force_lcnf_maxsat(phi)
        sol_after = brute_force_lcnf_maxsat(out)
        assert sol_before is not None and sol_after is not None  # planted hard part
        assert sol_after.cost == sol_before.cost, seed
        retained = phi.labels() - sol_after.falsified
        tau = bve_reconstruct(rec, sol_after.model,
                              removed=sol_after.falsified)
        assert lcnf_satisfied(induced_subformula(phi, retained), tau), seed
        solved += 1
    assert solved == 60


# ---------------------------------------------------------------------------
# reconstruction details


def test_reconstruct_forced_value():
    rec = [BveEntry(1, frozenset([lclause([1, 2]), lclause([-1, 3])]))]
    assert bve_reconstruct(rec, {2: 1, 3: 0}) == {2: 1, 3: 0, 1: 0}


def test_reconstruct_tie_breaks_to_false():
    rec = [BveEntry(1, frozenset([lclause([1, 2]), lclause([-1, 3])]))]
    assert bve_reconstruct(rec, {2: 1, 3: 1})[1] == 0


def test_reconstruct_ignores_clauses_outside_retained_context():
    rec = [BveEntry(1, frozenset([lclause([1], [1]), lclause([-1, 4])]))]
    out = bve_reconstruct(rec, {4: 0}, removed=frozenset([1]))
    assert out[1] == 0
    with pytest.raises(RuntimeError):
        bve_reconstruct(rec, {4: 0})  # both clauses constrain; x has no value


def test_record_labels_occur_in_the_input():
    """Every label a BVE record carries is a label of the input, so a
    recorded clause lies inside ``labels() - removed`` exactly when it
    carries no removed label: ``removed`` is the retained context."""
    phis = ([random_lcnf(seed) for seed in range(100)] +
            [lcnf_from_wcnf(tseitin_wcnf(seed)) for seed in range(6)])
    labelled = 0
    for phi in phis:
        _, rec = preprocess_lcnf(phi)
        for entry in rec:
            for c in entry.group:
                assert c.labels <= phi.labels(), (phi, c)
                labelled += bool(c.labels)
    assert labelled >= 100


def test_dump_format():
    phi = LCNF([lclause([1, -2]), lclause([2], [1, 3])], {1: 1, 3: 2})
    assert dump_lcnf(phi) == "1 -2 |\n2 | 1 3"


# ---------------------------------------------------------------------------
# the occurrence-list passes against the rule-by-rule schedule


def _reference_sub(phi):
    # sweep all pairs in sort order until a sweep removes nothing
    while True:
        out = phi
        cs = phi.sorted_clauses()
        for c1 in cs:
            for c2 in cs:
                out = l_sub(out, c1, c2)
        if out.clauses == phi.clauses:
            return phi
        phi = out


def _reference_ssr(phi):
    # apply the first applicable pair in sort order, then rescan
    while True:
        cs = phi.sorted_clauses()
        out = next((o for c1 in cs for c2 in cs
                    for o in [l_ssr(phi, c1, c2)] if o is not phi), None)
        if out is None:
            return phi
        phi = out


def resolvent_pairs(phi, x):
    """One resolvent per non-tautological pair of non-tautological
    clauses with x and with -x."""
    live = [c for c in phi.clauses if not is_tautology(c.lits)]
    return [r for a in live if x in a.lits for b in live if -x in b.lits
            for r in [l_resolve(a, b, x)] if not is_tautology(r.lits)]


def _reference_bve(phi, record, max_labelset):
    occ = Counter(v for c in phi.clauses for v in clause_vars(c.lits))
    for x in sorted(phi.vars(), key=lambda v: (occ[v], v)):
        group = frozenset(c for c in phi.clauses
                          if x in c.lits or -x in c.lits)
        if not group:
            continue
        cand = l_bve(phi, x)
        if cand is phi:
            continue
        if any(len(c.labels) > max_labelset
               for c in resolvent_pairs(phi, x)):
            continue
        record.append(BveEntry(x, group))
        phi = cand
    return phi


# A schedule: the passes each round runs, the most rounds and BVE's
# label-set cap.  The first is preprocess_lcnf's own.
ALL_PASSES = ("sub", "ssr", "bve")
FULL = (ALL_PASSES, MAX_ROUNDS, MAX_LABELSET)
CONFIGS = [
    FULL,
    (("sub",), MAX_ROUNDS, MAX_LABELSET),
    (("ssr",), MAX_ROUNDS, MAX_LABELSET),
    (("bve",), MAX_ROUNDS, MAX_LABELSET),
    (ALL_PASSES, 1, MAX_LABELSET),
    (ALL_PASSES, MAX_ROUNDS, 1),
]


def reference_preprocess(phi, config=FULL):
    """The pass schedule built from the single-step rules alone: what
    ``preprocess_lcnf`` must return, clause set and record alike."""
    passes, rounds, cap = config
    record: BveRecord = []
    for _ in range(rounds):
        before = phi.clauses
        if "sub" in passes:
            phi = _reference_sub(phi)
        if "ssr" in passes:
            phi = _reference_ssr(phi)
        if "bve" in passes:
            phi = _reference_bve(phi, record, cap)
        if phi.clauses == before:
            break
    return phi, record


def run_passes(phi, config):
    """The schedule run by the store passes, as preprocess_lcnf runs
    its own."""
    passes, rounds, cap = config
    store = _ClauseStore(phi.clauses)
    record: BveRecord = []
    for _ in range(rounds):
        edits = store.edits
        if "sub" in passes:
            _sub_fixpoint(store)
        if "ssr" in passes:
            _ssr_fixpoint(store)
        if "bve" in passes:
            _bve_sweep(store, record, cap)
        if store.edits == edits:
            break
    return LCNF(frozenset(store.clauses), dict(phi.label_weights)), record


def assert_matches_reference(phi, config=FULL):
    out, rec = run_passes(phi, config)
    if config == FULL:
        assert (out, rec) == preprocess_lcnf(phi)
    want, want_rec = reference_preprocess(phi, config)
    assert out.clauses == want.clauses
    assert out.label_weights == want.label_weights
    assert rec == want_rec


def tseitin_wcnf(seed, n_inputs=5, n_gates=12):
    """Random and/or/xor circuit with hard gate definitions and soft
    units on every input and every unread gate output."""
    rng = random.Random(seed)
    f = WCNF(num_vars=n_inputs + n_gates)
    unread = list(range(1, n_inputs + 1))
    for k in range(n_gates):
        y = n_inputs + 1 + k
        a = unread.pop(rng.randrange(len(unread))) if unread else \
            rng.randrange(1, y)
        b = rng.choice([v for v in range(1, y) if v != a])
        if b in unread:
            unread.remove(b)
        unread.append(y)
        a *= rng.choice((1, -1))
        b *= rng.choice((1, -1))
        kind = rng.choice(("and", "or", "xor"))
        if kind == "and":
            gate = [(-y, a), (-y, b), (y, -a, -b)]
        elif kind == "or":
            gate = [(y, -a), (y, -b), (-y, a, b)]
        else:
            gate = [(-y, a, b), (-y, -a, -b), (y, -a, b), (y, a, -b)]
        for c in gate:
            f.add_hard(c)
    for v in list(range(1, n_inputs + 1)) + sorted(unread):
        f.add_soft((rng.choice((v, -v)),), rng.randint(1, 5))
    return f


def pigeon_wcnf(seed, holes=3, surplus=1):
    """Soft "pigeon i sits somewhere" clauses, hard at-most-one per hole."""
    rng = random.Random(seed)
    pigeons = holes + surplus
    f = WCNF(num_vars=pigeons * holes)
    for j in range(holes):
        for i in range(pigeons):
            for k in range(i + 1, pigeons):
                f.add_hard((-(i * holes + j + 1), -(k * holes + j + 1)))
    for i in range(pigeons):
        f.add_soft([i * holes + j + 1 for j in range(holes)],
                   rng.randint(1, 9))
    return f


@pytest.mark.parametrize("config", CONFIGS)
def test_passes_match_reference_on_random_lcnf(config):
    for seed in range(200):
        assert_matches_reference(random_lcnf(seed), config)


@pytest.mark.parametrize("config", CONFIGS)
def test_passes_match_reference_on_random_wcnf(config):
    for seed in range(100):
        assert_matches_reference(lcnf_from_wcnf(random_wcnf(seed)), config)


@pytest.mark.parametrize("config", CONFIGS)
def test_passes_match_reference_on_circuits_and_pigeonholes(config):
    # SSR order decides the result only on the circuits, where a
    # strengthened clause can strengthen another in turn
    for seed in range(6):
        f = tseitin_wcnf(seed)
        assert_matches_reference(lcnf_from_wcnf(f), config)
        assert_matches_reference(lcnf_from_wcnf(bce_fixpoint(f)[0]), config)
    for seed, (holes, surplus) in enumerate([(3, 1), (3, 2), (4, 1)]):
        assert_matches_reference(lcnf_from_wcnf(pigeon_wcnf(seed, holes,
                                                            surplus)),
                                 config)


# Each formula tells the SSR pass apart from a variant that is wrong in one
# way: picking c1's last pivot literal rather than its first (only a
# tautological c2 offers two), not queueing the strengthened clause, and
# not queueing c1 again after it strengthened a clause.
SSR_ORDER_CASES = [
    [([], []), ([-2, 2, -3, 3], []), ([-1, 2, -3, 3], []),
     ([1, -2, -3, 3], []), ([1, 2, -3, 3], []), ([2, 3], []), ([], [1]),
     ([-1, 3], [2])],
    [([-1, -3], []), ([2, 3, -4], []), ([3], []), ([], [2]), ([1, -3], [2])],
    [([-1, -2, 2], []), ([-1, 1, 3, -4], []), ([1], []), ([1, -3, -4], []),
     ([-2], [1]), ([], [2])],
]


@pytest.mark.parametrize("rows", SSR_ORDER_CASES)
@pytest.mark.parametrize("config", CONFIGS)
def test_passes_match_reference_on_ssr_order_cases(rows, config):
    phi = LCNF(frozenset(lclause(lits, labels) for lits, labels in rows),
               {1: 1, 2: 1})
    assert_matches_reference(phi, config)


# In each formula a later SUB round must find an older clause that
# subsumes a clause added since the last one.  In the first, that clause
# is []^{2,3}, which is in no occurrence list.  In the second, the added
# clauses first remove more older clauses than there are added clauses
# left, and some older clause still remains.
SUB_FORWARD_CASES = [
    [([-1], [3]), ([-3, -1, 2], [1]), ([1], [1, 2]), ([], [2, 3]),
     ([1, 2], [2]), ([-2], [3]), ([2, 3], [2])],
    [([1, 3], [1]), ([], [2, 3]), ([1], [3]), ([3], [1, 4]), ([-1, 2], [1]),
     ([-1, 3, 4], []), ([-4], [3]), ([-3], [2, 4]), ([-4, -2], [])],
]


@pytest.mark.parametrize("rows", SUB_FORWARD_CASES)
def test_passes_match_reference_on_sub_forward_cases(rows):
    phi = LCNF(frozenset(lclause(lits, labels) for lits, labels in rows),
               {1: 1, 2: 1, 3: 1, 4: 1})
    assert_matches_reference(phi)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.sets(st.integers(-5, 5).filter(bool),
                                  max_size=4),
                          st.sets(st.integers(1, 4), max_size=3)),
                max_size=14),
       st.sampled_from(CONFIGS))
def test_passes_match_reference_property(rows, config):
    # tautologies, empty clauses and repeated literal sets under
    # different labels all included
    phi = LCNF(frozenset(lclause(lits, labels) for lits, labels in rows),
               {l: l for l in range(1, 5)})
    assert_matches_reference(phi, config)


# ---------------------------------------------------------------------------
# the fast paths of the passes against the single-step rules

ROWS = st.lists(st.tuples(st.sets(st.integers(-5, 5).filter(bool),
                                  max_size=4),
                          st.sets(st.integers(1, 4), max_size=3)),
                max_size=14)


def lcnf_of(rows):
    return LCNF(frozenset(lclause(lits, labels) for lits, labels in rows),
                {l: l for l in range(1, 5)})


@settings(max_examples=150, deadline=None)
@given(ROWS)
def test_ssr_partner_decides_each_pair_as_the_pivot_rule(rows):
    # tautologies, empty clauses and repeated literal sets under
    # different labels all included
    clauses = lcnf_of(rows).sorted_clauses()
    key = LabelledClause.sort_key
    for c1 in clauses:
        for c in clauses:
            if c != c1:
                l = _ssr_pivot(c1, c)
                want = None if l is None else (c, l)
                assert _ssr_partner(_ClauseStore([c1, c]), c1, key) == want
        c2 = min((c for c in clauses if _ssr_pivot(c1, c) is not None),
                 key=key, default=None)
        want = None if c2 is None else (c2, _ssr_pivot(c1, c2))
        assert _ssr_partner(_ClauseStore(clauses), c1, key) == want


@settings(max_examples=150, deadline=None)
@given(ROWS, st.sampled_from([1, 2, 32]))
def test_new_resolvents_are_the_new_clauses_of_ve(rows, max_labelset):
    phi = lcnf_of(rows)
    store = _ClauseStore(phi.clauses)
    for x in range(1, 6):
        limit = len(store.mentioning(x))
        if not limit:
            continue  # the sweep skips a variable without clauses
        pairs = resolvent_pairs(phi, x)
        got = _new_resolvents(store, x, len(pairs) + 1, 32)
        assert set(got) == set(pairs)
        refuse = (len(pairs) >= limit
                  or any(len(r.labels) > max_labelset for r in pairs))
        assert (l_bve(phi, x) is phi) == (len(pairs) >= limit)
        got = _new_resolvents(store, x, limit, max_labelset)
        if refuse:
            assert got is None
        else:
            # accepting adds exactly the new clauses of VE to the store
            assert set(got) - phi.clauses == \
                l_ve(phi, x).clauses - phi.clauses


# four pairs against four clauses, refused though with one resolvent
# present only three would be new; and one pair over the cap, whose
# resolvent counts even when present
@example([({1, 2}, {1}), ({1, 3}, {2}), ({-1, 4}, {3}), ({-1, 5}, {4})], 32)
@example([({1, 2}, {1}), ({-1, 3}, {2})], 1)
@settings(max_examples=150, deadline=None)
@given(ROWS, st.sampled_from([1, 2, 32]))
def test_bve_decision_ignores_clauses_outside_the_group(rows, max_labelset):
    # a clause equal to one of x's resolvents does not mention x, so it
    # must not flip the answer
    phi = lcnf_of(rows)
    store = _ClauseStore(phi.clauses)
    for x in range(1, 6):
        limit = len(store.mentioning(x))
        if not limit:
            continue
        refused = _new_resolvents(store, x, limit, max_labelset) is None
        for r in resolvent_pairs(phi, x):
            more = LCNF(phi.clauses | {r}, phi.label_weights)
            assert (l_bve(more, x) is more) == (l_bve(phi, x) is phi)
            got = _new_resolvents(_ClauseStore(more.clauses), x, limit,
                                  max_labelset)
            assert (got is None) == refused, (x, r)


def prep_digest(f):
    """SHA-256 over the BCE record, and the sorted clauses and BVE record
    of preprocess_lcnf before and after BCE."""
    h = hashlib.sha256()
    h.update(repr(bce_fixpoint(f)[1]).encode())
    for phi in (lcnf_from_wcnf(f), lcnf_from_wcnf(bce_fixpoint(f)[0])):
        out, rec = preprocess_lcnf(phi)
        h.update(repr(out.sorted_clauses()).encode())
        h.update(repr([(e.var, sorted(e.group, key=LabelledClause.sort_key))
                       for e in rec]).encode())
    return h.hexdigest()[:16]


# recorded with the passes before their fast paths, again when the BCE
# record of a since removed hard-clause-keeping mode left the digest, and
# the first two again when BVE came to count resolvent pairs in place of
# new clauses; each case keeps the id it was first pinned under: (id
# digest, instance, digest)
PINNED_DIGESTS = [
    ("130c6d4ee70a6748", lambda: tseitin_wcnf(0), "eb3c138175066370"),
    ("704a4e1e3772c08c", lambda: tseitin_wcnf(1), "9e9d93485cfd6586"),
    ("2c49643ad6a56b00", lambda: tseitin_wcnf(2), "68452feb1b387e9d"),
    ("fc245bb8794472ea", lambda: tseitin_wcnf(3), "671296aafcd09ea3"),
    ("a3bd3f57de0f4c3d", lambda: tseitin_wcnf(4), "e00691d27da0aa1e"),
    ("ebc84a2ba21771a4", lambda: tseitin_wcnf(5), "92c53a88950533ab"),
    ("fc0d2dd8bea70953", lambda: tseitin_wcnf(0, 8, 30),
     "9738baaaf10761e2"),
    ("554dbafc69b7d0ed", lambda: tseitin_wcnf(1, 8, 30),
     "3778b2d2438844e7"),
    ("f8d02515c60729dd", lambda: tseitin_wcnf(2, 8, 30),
     "7c6e223b00a90f53"),
    ("6ef2b1bbaf4f7348", lambda: pigeon_wcnf(0, 3, 1),
     "b7ff723ce24e2371"),
    ("1955a28c9dce8e83", lambda: pigeon_wcnf(1, 3, 2),
     "f425b89757ab00da"),
    ("4b5461269148c2e3", lambda: pigeon_wcnf(2, 4, 1),
     "523468d83c6f49de"),
]


@pytest.mark.parametrize("make,digest", [
    pytest.param(make, digest, id=f"<lambda>-{first}")
    for first, make, digest in PINNED_DIGESTS])
def test_preprocessing_output_is_pinned(make, digest):
    # the BCE record order matters to reconstruction, so it is pinned too
    assert prep_digest(make()) == digest
