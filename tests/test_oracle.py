"""Brute-force oracle: truth tables, MUS/MCS enumeration, duality, generators."""

import os
import subprocess
import sys
from itertools import combinations

import pytest

import labelmax
from labelmax.model import (LCNF, MAX_WEIGHT_SUM, WCNF, MaxSatSolution,
                            clause_satisfied)
from labelmax.oracle import brute_force_maxsat, random_wcnf
from support import (brute_force_lcnf_maxsat, check_hitting_duality,
                     enumerate_mcs, enumerate_mcs_labels, enumerate_mus,
                     enumerate_mus_labels, induced_subformula,
                     labelled_example, lclause, minimal_hitting_sets,
                     random_cnf, random_lcnf, truth_table_sat,
                     unit_soft_formula)


def test_truth_table_sat_finds_lex_least_model():
    model = truth_table_sat([(1, 2), (-1, 2)], 2)
    assert model == {1: 0, 2: 1}
    assert truth_table_sat([(1,), (-1,)], 1) is None
    assert truth_table_sat([], 2) == {1: 0, 2: 0}
    assert truth_table_sat([()], 2) is None  # empty clause


def test_brute_force_maxsat_on_unit_soft_formula():
    sol = brute_force_maxsat(unit_soft_formula())
    assert sol.cost == 2
    # lex-least optimum: p true, q and r false; falsifies (-p) and (r)
    assert sol.model == {1: 1, 2: 0, 3: 0}
    assert sol.falsified == frozenset([2, 5])


def test_brute_force_maxsat_weighted_tie_break():
    f = WCNF()
    f.add_soft([1], 3)
    f.add_soft([-1], 2)
    sol = brute_force_maxsat(f)
    assert sol.cost == 2
    assert sol.model == {1: 1}
    assert sol.falsified == frozenset([2])


def test_brute_force_maxsat_hard_unsat_returns_none():
    f = WCNF()
    f.add_hard([1])
    f.add_hard([-1])
    f.add_soft([2], 1)
    assert brute_force_maxsat(f) is None


def test_brute_force_maxsat_respects_hard_clauses():
    f = WCNF()
    f.add_hard([-1])
    f.add_soft([1], 7)
    sol = brute_force_maxsat(f)
    assert sol.cost == 7
    assert sol.model[1] == 0


def test_brute_force_maxsat_cost_exact_beyond_int64():
    f = WCNF()
    for lits in [(1,), (-1,), (2,), (-2,)]:
        f.add_soft(lits, 2**62)
    sol = brute_force_maxsat(f)
    assert sol.cost == 2**63
    assert sol.model == {1: 0, 2: 0}
    assert sol.falsified == frozenset([1, 3])


def test_brute_force_maxsat_var_cap():
    f = WCNF(num_vars=21)
    f.add_soft([21], 1)
    with pytest.raises(ValueError):
        brute_force_maxsat(f)


def scan_maxsat(f):
    """Per-assignment reference: every assignment in index order (variable
    1 most significant), first minimum wins.  Costs are exact sums, as
    ``WCNF.cost_of`` raises past the 2^64 - 1 cap that 2^62 weights pass."""
    n = f.num_vars
    best = None
    for a in range(1 << n):
        tau = {v: (a >> (n - v)) & 1 for v in range(1, n + 1)}
        if not all(clause_satisfied(c, tau) for c in f.hard):
            continue
        cost = sum(w for c, w in f.soft if not clause_satisfied(c, tau))
        if best is None or cost < best[1]:
            best = (tau, cost)
    if best is None:
        return None
    tau, cost = best
    falsified = frozenset(i for i, (c, _) in enumerate(f.soft, start=1)
                          if not clause_satisfied(c, tau))
    return tau, cost, falsified


def differential_instances():
    """Random formulas with weights 1-5 or up to 2^62; every other pair of
    seeds adds unpatched random hard clauses, so many hard parts have no
    model.  Plus the variable-free corner cases."""
    for seed in range(320):
        nvars = 1 + seed % 9
        f = random_wcnf(seed, nvars=nvars, nclauses=seed % 20,
                        max_weight=2**62 if seed % 2 else 5)
        if seed % 4 >= 2:
            for c in random_cnf(seed, nvars, 2 * nvars)[0]:
                f.add_hard(c)
        yield f
    yield WCNF()
    empty_soft = WCNF()
    empty_soft.add_soft([], 3)
    yield empty_soft


def test_brute_force_maxsat_matches_the_per_assignment_scan():
    found = unsat = big = 0
    for i, f in enumerate(differential_instances()):
        sol = brute_force_maxsat(f)
        expect = scan_maxsat(f)
        if expect is None:
            assert sol is None, i
            unsat += 1
            continue
        assert (sol.model, sol.cost, sol.falsified) == expect, i
        if sol.cost <= MAX_WEIGHT_SUM:  # within the cap cost_of agrees
            assert f.cost_of(sol.model) == sol.cost, i
        found += 1
        big += sol.cost >= 2**62
    assert found >= 200 and unsat >= 80 and big >= 20, (found, unsat, big)


def test_brute_force_maxsat_needs_no_numpy():
    code = ("import sys; sys.modules['numpy'] = None\n"
            "from labelmax.oracle import brute_force_maxsat, random_wcnf\n"
            "print(brute_force_maxsat(random_wcnf(3, max_weight=2**62)).cost)")
    src = os.path.dirname(os.path.dirname(labelmax.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == \
        str(brute_force_maxsat(random_wcnf(3, max_weight=2**62)).cost)


def test_enumerate_mus_basic():
    assert enumerate_mus([(1,), (-1,)], 1) == {frozenset([1, 2])}
    assert enumerate_mus([(1, 2), (-1,)], 2) == set()  # satisfiable


def test_enumerate_mus_unit_soft_formula():
    f = unit_soft_formula()
    muses = enumerate_mus([c for c, _ in f.soft], 3)
    assert muses == {frozenset([1, 2]), frozenset([2, 3, 4]), frozenset([5, 6])}


def test_enumerate_mcs_basic():
    assert enumerate_mcs([(1,), (-1,)], 1) == {frozenset([1]), frozenset([2])}
    assert enumerate_mcs([(1, 2)], 2) == {frozenset()}  # satisfiable


def test_enumerate_mcs_unit_soft_formula():
    f = unit_soft_formula()
    mcses = enumerate_mcs([c for c, _ in f.soft], 3)
    assert mcses == {
        frozenset([2, 5]), frozenset([2, 6]),
        frozenset([1, 3, 5]), frozenset([1, 3, 6]),
        frozenset([1, 4, 5]), frozenset([1, 4, 6]),
    }


def test_label_level_enumeration_on_example():
    phi = labelled_example()
    assert enumerate_mus_labels(phi) == {frozenset([2]), frozenset([3])}
    assert enumerate_mcs_labels(phi) == {frozenset([2, 3])}


def test_label_mcs_of_hard_unsat_is_empty_family():
    phi = LCNF(frozenset([lclause([1]), lclause([-1]), lclause([2], [1])]), {1: 1})
    assert enumerate_mcs_labels(phi) == set()
    assert enumerate_mus_labels(phi) == {frozenset()}


def test_clause_and_label_level_enumerations_agree():
    # clause i labelled {i} turns a clause subset into the same label set
    unsat = 0
    for seed in range(40):
        clauses, nv = random_cnf(seed, nvars=4, nclauses=9 + seed % 4)
        phi = LCNF(frozenset(lclause(c, [i]) for i, c in
                             enumerate(clauses, start=1)),
                   {i: 1 for i in range(1, len(clauses) + 1)})
        muses = enumerate_mus(clauses, nv)
        assert muses == enumerate_mus_labels(phi), seed
        assert enumerate_mcs(clauses, nv) == enumerate_mcs_labels(phi), seed
        unsat += bool(muses)
    assert 5 <= unsat <= 35  # both satisfiable and unsatisfiable inputs


def test_brute_force_lcnf_on_example():
    sol = brute_force_lcnf_maxsat(labelled_example())
    assert sol.cost == 2
    assert sol.falsified == frozenset([2, 3])
    assert sol.model[1] == 0 and sol.model[3] == 1


def test_brute_force_lcnf_weighted_prefers_cheap_removal():
    phi = LCNF(frozenset([
        lclause([1], [1]), lclause([-1], [2]),
    ]), {1: 5, 2: 3})
    sol = brute_force_lcnf_maxsat(phi)
    assert sol.cost == 3
    assert sol.falsified == frozenset([2])


def eager_lcnf_maxsat(phi):
    """Every removal set, sorted by (cost, sorted labels), then the first
    whose induced subformula has a model: the lazy scan's spec."""
    labels = sorted(phi.labels())
    nv = max(phi.max_var(), 1)
    if truth_table_sat([c.lits for c in phi.clauses if c.hard], nv) is None:
        return None
    candidates = sorted(
        (sum(phi.label_weights[l] for l in rem), rem)
        for size in range(len(labels) + 1)
        for rem in combinations(labels, size))
    for cost, rem in candidates:
        sub = induced_subformula(phi, set(labels) - set(rem))
        tau = truth_table_sat([c.lits for c in sub.clauses], nv)
        if tau is not None:
            return MaxSatSolution(tau, cost, frozenset(rem))
    return None


@pytest.mark.parametrize("nlabels,count", [(3, 40), (6, 40), (10, 15),
                                           (16, 3)])
def test_lazy_lcnf_scan_matches_eager_scan(nlabels, count):
    # weights 1-2 tie many removal sets on cost, so the label order
    # decides which one is reported
    for seed in range(count):
        phi = random_lcnf(seed, nvars=8, nclauses=3 * nlabels,
                          nlabels=nlabels, max_weight=2,
                          hard_fraction=0.2)
        assert brute_force_lcnf_maxsat(phi) == eager_lcnf_maxsat(phi), seed
    unsat = LCNF(frozenset([lclause([1]), lclause([-1]),
                            lclause([2], [1])]), {1: 1})
    assert brute_force_lcnf_maxsat(unsat) is None


def test_minimal_hitting_sets():
    assert minimal_hitting_sets({frozenset([1]), frozenset([2])}) == {frozenset([1, 2])}
    assert minimal_hitting_sets({frozenset([1, 2])}) == {frozenset([1]), frozenset([2])}
    assert minimal_hitting_sets(set()) == {frozenset()}
    assert minimal_hitting_sets({frozenset()}) == set()


def test_hitting_duality_examples():
    assert check_hitting_duality(
        {frozenset([1, 2])}, {frozenset([1]), frozenset([2])})
    assert not check_hitting_duality({frozenset([1])}, {frozenset([2])})
    f = unit_soft_formula()
    clauses = [c for c, _ in f.soft]
    assert check_hitting_duality(enumerate_mus(clauses, 3), enumerate_mcs(clauses, 3))


def test_generators_are_reproducible():
    assert random_wcnf(42).soft == random_wcnf(42).soft
    assert random_wcnf(42).hard == random_wcnf(42).hard
    assert random_cnf(7) == random_cnf(7)
    assert random_lcnf(9).clauses == random_lcnf(9).clauses
    assert random_wcnf(1).soft != random_wcnf(2).soft


def test_random_wcnf_hard_part_satisfiable():
    for seed in range(50):
        f = random_wcnf(seed, nvars=8, nclauses=15, hard_fraction=0.5)
        assert truth_table_sat(f.hard, f.num_vars) is not None
        for _, w in f.soft:
            assert 1 <= w <= 5
        for c in f.hard + [c for c, _ in f.soft]:
            assert 1 <= len(c) <= 4


def test_random_lcnf_empty_labelled_part_satisfiable():
    for seed in range(50):
        phi = random_lcnf(seed, hard_fraction=0.5)
        hard = [c.lits for c in phi.clauses if c.hard]
        assert truth_table_sat(hard, 8) is not None
        assert all(len(c.labels) <= 3 for c in phi.clauses)
