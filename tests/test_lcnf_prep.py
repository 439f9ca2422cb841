import hashlib
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from labelmax.lcnf_prep import (MAX_LABELSET, MAX_ROUNDS, _bve_sweep,
                                _ClauseStore, _new_resolvents, _ssr_fixpoint,
                                _ssr_partner, _sub_fixpoint, bce_fixpoint,
                                dump_lcnf, l_bve, l_resolve, l_ssr, l_sub,
                                l_ve, preprocess_lcnf)
from labelmax.model import (LCNF, LabelledClause, StackEntry,
                            clause_satisfied, is_tautology, lcnf_from_wcnf,
                            reconstruct)
from labelmax.oracle import random_wcnf
from support import (brute_force_lcnf_maxsat, enumerate_mcs_labels,
                     induced_subformula, labelled_example, lclause,
                     lcnf_satisfied, pigeon_wcnf, random_lcnf, tseitin_wcnf)


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
    phi = labelled_example()
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
        for x in sorted({abs(l) for c in phi.clauses for l in c.lits}):
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
    phi = labelled_example()
    out = l_sub(phi, lclause([1], [2]), lclause([1, -2], [1, 2]))
    assert out.clauses == phi.clauses - {lclause([1, -2], [1, 2])}
    assert out.label_weights == phi.label_weights


def test_sub_requires_clause_inclusion():
    phi = labelled_example()
    out = l_sub(phi, lclause([1, 2], [1]), lclause([1, -2], [1, 2]))
    assert out.clauses == phi.clauses


def test_sub_requires_label_inclusion():
    phi = labelled_example()
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
        for x in sorted({abs(l) for c in phi.clauses for l in c.lits}):
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
        for x in sorted({abs(l) for c in phi.clauses for l in c.lits}):
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
    phi = labelled_example()
    store = _ClauseStore(phi.clauses)
    _sub_fixpoint(store)
    out = LCNF(store.clauses, phi.label_weights)
    assert out.clauses == phi.clauses - {lclause([1, -2], [1, 2])}
    assert brute_force_lcnf_maxsat(phi).cost == 2
    assert brute_force_lcnf_maxsat(out).cost == 2
    assert brute_force_lcnf_maxsat(out).falsified == frozenset([2, 3])


def test_preprocess_can_dissolve_satisfiable_hard_formula():
    phi = LCNF([lclause([1, 2]), lclause([3])], {})
    out, rec = preprocess_lcnf(phi)
    assert out.clauses == frozenset()
    tau = reconstruct(rec, {})
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
        tau = reconstruct(rec, sol_after.model, removed=sol_after.falsified)
        assert lcnf_satisfied(induced_subformula(phi, retained), tau), seed
        solved += 1
    assert solved == 60


# ---------------------------------------------------------------------------
# reconstruction details


def test_reconstruct_forced_value():
    rec = [StackEntry(1, frozenset([lclause([1, 2]), lclause([-1, 3])]))]
    assert reconstruct(rec, {2: 1, 3: 0}) == {2: 1, 3: 0, 1: 0}


def test_reconstruct_tie_breaks_to_false():
    rec = [StackEntry(1, frozenset([lclause([1, 2]), lclause([-1, 3])]))]
    assert reconstruct(rec, {2: 1, 3: 1})[1] == 0


def test_reconstruct_ignores_clauses_outside_retained_context():
    rec = [StackEntry(1, frozenset([lclause([1], [1]), lclause([-1, 4])]))]
    out = reconstruct(rec, {4: 0}, removed=frozenset([1]))
    assert out[1] == 0
    with pytest.raises(RuntimeError):
        reconstruct(rec, {4: 0})  # both clauses constrain; x has no value


def reference_lift(rec, tau, removed=frozenset()):
    """The rule BVE's lift had before it shared one with BCE: last entry
    first, the variable takes the first of 0 and 1 that satisfies its
    clauses carrying no removed label, and neither is an error."""
    out = dict(tau)
    for entry in reversed(rec):
        group = [c for c in entry.group if not c.labels & removed]
        for v in (0, 1):
            out[entry.var] = v
            if all(clause_satisfied(c.lits, out) for c in group):
                break
        else:
            raise RuntimeError(entry.var)
    return out


# an entry's clauses: sign of its variable, other literals, labels
GROUPS = st.lists(st.lists(
    st.tuples(st.booleans(), st.sets(st.integers(-6, 6).filter(bool),
                                     max_size=3),
              st.sets(st.integers(1, 3), max_size=2)),
    min_size=1, max_size=4), max_size=5)


@settings(max_examples=300, deadline=None)
@given(st.permutations(range(1, 7)), GROUPS,
       st.dictionaries(st.integers(1, 6), st.integers(0, 1)),
       st.sets(st.integers(1, 3)))
def test_lift_matches_the_reference_rule(order, groups, tau, removed):
    # one variable per entry, as BVE records them, absent from tau or 0
    rec = [StackEntry(x, frozenset(
        lclause(rest | {x if pos else -x}, labels)
        for pos, rest, labels in group)) for x, group in zip(order, groups)]
    tau = {v: b for v, b in tau.items()
           if b == 0 or all(v != e.var for e in rec)}
    removed = frozenset(removed)
    try:
        want = reference_lift(rec, tau, removed)
    except RuntimeError:
        with pytest.raises(RuntimeError):
            reconstruct(rec, tau, removed)
    else:
        assert reconstruct(rec, tau, removed) == want


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
    occ = Counter(v for c in phi.clauses for v in {abs(l) for l in c.lits})
    for x in sorted(occ, key=lambda v: (occ[v], v)):
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
        record.append(StackEntry(x, group))
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


def without_tautologies(phi):
    return LCNF(frozenset(c for c in phi.clauses if not is_tautology(c.lits)),
                dict(phi.label_weights))


def reference_preprocess(phi, config=FULL):
    """The pass schedule built from the single-step rules alone: what
    ``preprocess_lcnf`` must return, clause set and record alike.  Like
    it, drops the tautologies first."""
    passes, rounds, cap = config
    phi = without_tautologies(phi)
    record = []
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
    store = _ClauseStore(without_tautologies(phi).clauses)
    record = []
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
        assert_matches_reference(bce_fixpoint(lcnf_from_wcnf(f))[0], config)
    for seed, (holes, surplus) in enumerate([(3, 1), (3, 2), (4, 1)]):
        assert_matches_reference(lcnf_from_wcnf(pigeon_wcnf(seed, holes,
                                                            surplus)),
                                 config)


# Each formula tells the SSR pass apart from a variant that is wrong in one
# way: not queueing the strengthened clause, not queueing c1 again after
# it strengthened a clause, and keeping the input's tautologies.  In the
# second, [-3] strengthens both longer clauses, one per step.  In the
# third, _ssr_partner would take [-1, 1] to strengthen [-1, 2, 3] on 1,
# which l_ssr never does.
SSR_ORDER_CASES = [
    [([-1, -3], []), ([2, 3, -4], []), ([3], []), ([], [2]), ([1, -3], [2])],
    [([-2, 3, 4, -5], [1, 2]), ([-1, 2, 3, -5], [1]), ([-3], [])],
    [([-1, 1], []), ([-1, 2, 3], [])],
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

# the passes see no tautologies, so one sign per variable
ROWS = st.lists(st.tuples(st.dictionaries(st.integers(1, 5), st.booleans(),
                                          max_size=4).map(
                              lambda signs: {v if pos else -v
                                             for v, pos in signs.items()}),
                          st.sets(st.integers(1, 4), max_size=3)),
                max_size=14)


def lcnf_of(rows):
    return LCNF(frozenset(lclause(lits, labels) for lits, labels in rows),
                {l: l for l in range(1, 5)})


def ssr_step(c1, c2):
    """``(c2, l)`` if ``l_ssr`` strengthens c2 by c1 on the literal l,
    read off the literal it drops from c2; else None."""
    phi = LCNF(frozenset([c1, c2]), dict.fromkeys(c1.labels | c2.labels, 1))
    out = l_ssr(phi, c1, c2)
    if out is phi:
        return None
    (repl,) = out.clauses - {c1}
    (dropped,) = set(c2.lits) - set(repl.lits)
    return c2, -dropped


@settings(max_examples=150, deadline=None)
@given(ROWS)
def test_ssr_partner_decides_each_pair_as_the_pivot_rule(rows):
    # empty clauses and repeated literal sets under different labels
    # included
    clauses = lcnf_of(rows).sorted_clauses()
    key = LabelledClause.sort_key
    for c1 in clauses:
        for c in clauses:
            if c != c1:
                assert (_ssr_partner(_ClauseStore([c1, c]), c1, key)
                        == ssr_step(c1, c))
        c2 = min((c for c in clauses if ssr_step(c1, c) is not None),
                 key=key, default=None)
        want = None if c2 is None else ssr_step(c1, c2)
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


def record_repr(rec):
    """A stack's entries with their clauses in ``sort_key`` order."""
    return repr([(e.var, sorted(e.group, key=LabelledClause.sort_key))
                 for e in rec])


def prep_digest(f):
    """SHA-256 over the BCE record, and the sorted clauses and BVE record
    of preprocess_lcnf before and after BCE."""
    h = hashlib.sha256()
    lifted = lcnf_from_wcnf(f)
    reduced, record = bce_fixpoint(lifted)
    h.update(record_repr(record).encode())
    for phi in (lifted, reduced):
        out, rec = preprocess_lcnf(phi)
        h.update(repr(out.sorted_clauses()).encode())
        h.update(record_repr(rec).encode())
    return h.hexdigest()[:16]


# recorded with the passes before their fast paths, again when the BCE
# record of a since removed hard-clause-keeping mode left the digest, the
# first two again when BVE came to count resolvent pairs in place of new
# clauses, the tseitin ones again when the BCE record became stack
# entries, one per distinct clause (its BVE half unchanged), and five of
# them again when BCE moved onto the labelled formula: its record took
# the new pass's order, and the labels after BCE became the input's
# soft-clause numbers (the clauses and BVE's choices unchanged, up to
# that renumbering), and tseitin_wcnf(2)'s again when BCE came to test a
# clause of a touched literal on that literal alone: four of its record's
# entries moved (same clauses, same literals, same clauses after BCE);
# each case keeps the id it was first pinned under:
# (id digest, instance, digest)
PINNED_DIGESTS = [
    ("130c6d4ee70a6748", lambda: tseitin_wcnf(0), "7706229b245d2dac"),
    ("704a4e1e3772c08c", lambda: tseitin_wcnf(1), "4abe184b7dfa4534"),
    ("2c49643ad6a56b00", lambda: tseitin_wcnf(2), "7abf53c8b7a290f2"),
    ("fc245bb8794472ea", lambda: tseitin_wcnf(3), "423cbc62012fd843"),
    ("a3bd3f57de0f4c3d", lambda: tseitin_wcnf(4), "44c47c37181c9cf1"),
    ("ebc84a2ba21771a4", lambda: tseitin_wcnf(5), "2dfc3890cc323726"),
    ("fc0d2dd8bea70953", lambda: tseitin_wcnf(0, 8, 30),
     "a248afbe992c8feb"),
    ("554dbafc69b7d0ed", lambda: tseitin_wcnf(1, 8, 30),
     "4f04beab19d836d6"),
    ("f8d02515c60729dd", lambda: tseitin_wcnf(2, 8, 30),
     "451d4739acfe28c2"),
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
