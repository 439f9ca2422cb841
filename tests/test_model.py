"""Core value types: clauses, weights, WCNF/LCNF, induced subformulas."""

import pytest
from hypothesis import given, strategies as st

from labelmax.model import (
    LCNF,
    MAX_WEIGHT_SUM,
    LabelledClause,
    WCNF,
    WeightOverflowError,
    add_weights,
    clause,
    clause_satisfied,
    cost_of_labels,
    is_tautology,
    lcnf_from_wcnf,
)
from support import induced_subformula, labelled_example, lclause


def test_clause_canonical_form():
    assert clause([2, -1, 2]) == (-1, 2)
    assert clause([3, -3]) == (-3, 3)
    assert clause([]) == ()
    with pytest.raises(ValueError):
        clause([1, 0])


def test_tautology_detection():
    assert is_tautology(clause([1, -1, 2]))
    assert not is_tautology(clause([1, 2]))
    assert not is_tautology(())


@given(st.lists(st.integers(min_value=-9, max_value=9).filter(lambda x: x != 0)))
def test_tautology_test_matches_complement_scan(lits):
    # any sequence of literals, duplicates and unsorted orders included
    s = set(lits)
    assert is_tautology(lits) == any(-l in s for l in s)
    assert is_tautology(tuple(lits)) == is_tautology(lits)


@given(st.lists(st.integers(min_value=-9, max_value=9).filter(lambda x: x != 0)))
def test_clause_order_is_variable_then_sign(lits):
    assert clause(lits) == tuple(sorted(set(lits), key=lambda l: (abs(l), l)))


@given(st.lists(st.integers(min_value=-9, max_value=9).filter(lambda x: x != 0)))
def test_clause_canonicalization_idempotent(lits):
    c = clause(lits)
    assert clause(c) == c
    assert set(c) == set(lits)
    assert list(c) == sorted(c, key=lambda l: (abs(l), l))


def test_clause_satisfaction():
    tau = {1: 1, 2: 0}
    assert clause_satisfied((1, 2), tau)
    assert not clause_satisfied((-1, 2), tau)
    assert not clause_satisfied((), tau)  # empty clause never satisfied
    assert not clause_satisfied((3,), tau)  # unassigned vars read as 0
    assert clause_satisfied((-3,), tau)


def test_weight_addition_is_checked():
    assert add_weights(1, 2, 3) == 6
    assert add_weights() == 0
    with pytest.raises(WeightOverflowError):
        add_weights(MAX_WEIGHT_SUM, 1)


def test_weights_must_be_positive_integers():
    f = WCNF()
    with pytest.raises(ValueError):
        f.add_soft([1], 0)
    with pytest.raises(ValueError):
        f.add_soft([1], -3)


def test_wcnf_duplicate_soft_entries_counted_twice():
    f = WCNF()
    f.add_soft([1], 2)
    f.add_soft([1], 2)
    f.add_hard([-1])
    f.add_hard([-1])  # hard clauses form a set
    assert len(f.soft) == 2
    assert len(f.hard) == 1
    assert f.cost_of({1: 0}) == 4
    assert f.soft_weight_sum() == 4
    assert f.top() == 5


def test_wcnf_cost_of_assignment():
    f = WCNF()
    f.add_soft([1, 2], 3)
    f.add_soft([-1], 5)
    assert f.cost_of({1: 1, 2: 0}) == 5
    assert f.cost_of({1: 0, 2: 1}) == 0


def test_lcnf_requires_weight_entries():
    with pytest.raises(ValueError):
        LCNF(frozenset([lclause([1], [7])]), {})


def test_formulas_share_no_mutable_defaults():
    a, b = WCNF(), WCNF()
    assert a.hard is not b.hard and a.soft is not b.soft
    a.add_hard([1])
    a.add_soft([2], 3)
    assert b.hard == [] and b.soft == []
    p, q = LCNF(), LCNF()
    assert p.label_weights is not q.label_weights


def test_lcnf_set_semantics_on_clause_and_labels():
    # same literals under different label sets are distinct clauses;
    # identical (clause, labels) pairs collapse
    cs = [lclause([1, 2], [1]), lclause([1, 2], [2]), lclause([1, 2], [1])]
    phi = LCNF(frozenset(cs), {1: 1, 2: 1})
    assert phi.size() == 2


def test_labelled_clause_hashes_as_its_fields():
    # set iteration orders, and so every output, rest on this hash
    for lits, labels in [((), frozenset()), ((-2, 1), frozenset([3, 1]))]:
        assert hash(LabelledClause(lits, labels)) == hash((lits, labels))


def test_induced_subformula_keeps_contained_label_sets():
    phi = labelled_example()
    sub = induced_subformula(phi, {1})
    assert sub.clauses == frozenset([
        lclause([-1]), lclause([3]), lclause([1, 2], [1]),
    ])
    # {1,2} not contained in {1}: the two-label clause must drop out
    assert lclause([1, -2], [1, 2]) not in sub.clauses


def test_induced_subformula_full_and_empty():
    phi = labelled_example()
    assert induced_subformula(phi, phi.labels()).clauses == phi.clauses
    assert induced_subformula(phi, set()).clauses == frozenset(
        [lclause([-1]), lclause([3])])


@given(st.data())
def test_induced_subformula_monotone(data):
    """m1 <= m2 implies induced(m1) is a subset of induced(m2)."""
    phi = labelled_example()
    labels = sorted(phi.labels())
    m2 = data.draw(st.sets(st.sampled_from(labels)))
    m1 = data.draw(st.sets(st.sampled_from(sorted(m2)))) if m2 else set()
    s1 = induced_subformula(phi, m1)
    s2 = induced_subformula(phi, m2)
    assert s1.clauses <= s2.clauses


def test_lcnf_from_wcnf_labels_soft_by_position():
    f = WCNF()
    f.add_hard([-1])
    f.add_soft([1], 4)
    f.add_soft([1], 4)  # duplicate soft clause keeps its own label
    phi = lcnf_from_wcnf(f)
    assert phi.clauses == frozenset([
        lclause([-1]), lclause([1], [1]), lclause([1], [2]),
    ])
    assert phi.label_weights == {1: 4, 2: 4}


def test_cost_of_labels_checked():
    phi = labelled_example()
    assert cost_of_labels(phi, [2, 3]) == 2
    assert cost_of_labels(phi, []) == 0
    with pytest.raises(KeyError):
        cost_of_labels(phi, [99])


def test_model_tuple_reads_missing_vars_as_false():
    from labelmax.model import MaxSatSolution
    sol = MaxSatSolution(model={1: 1, 3: 1}, cost=0)
    assert sol.model_tuple(3) == (1, -2, 3)
