"""Brute-force oracle: truth tables, MUS/MCS enumeration, duality, generators."""

import pytest

from labelmax.model import LCNF, WCNF, lclause
from labelmax.oracle import (
    brute_force_lcnf_maxsat,
    brute_force_maxsat,
    check_hitting_duality,
    enumerate_mcs,
    enumerate_mcs_labels,
    enumerate_mus,
    enumerate_mus_labels,
    minimal_hitting_sets,
    random_cnf,
    random_lcnf,
    random_wcnf,
    truth_table_sat,
)


def unit_soft_formula():
    """Six unit-weight soft clauses; optimum falsifies exactly two."""
    f = WCNF()
    for lits in [(1,), (-1,), (1, 2), (1, -2), (3,), (-3,)]:
        f.add_soft(lits, 1)
    return f


def labelled_example():
    return LCNF(frozenset([
        lclause([-1]), lclause([3]),
        lclause([1, 2], [1]), lclause([1, -2], [1, 2]),
        lclause([1], [2]), lclause([-3], [3]),
    ]), {1: 1, 2: 1, 3: 1})


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
        for c in f.all_clauses():
            assert 1 <= len(c) <= 4


def test_random_lcnf_empty_labelled_part_satisfiable():
    for seed in range(50):
        phi = random_lcnf(seed, hard_fraction=0.5)
        hard = [c.lits for c in phi.clauses if c.hard]
        assert truth_table_sat(hard, 8) is not None
        assert all(len(c.labels) <= 3 for c in phi.clauses)
