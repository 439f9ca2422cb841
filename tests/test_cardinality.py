from itertools import product

import pytest

from labelmax.model import clause_satisfied
from labelmax.solver import encode_equals1


def test_single_variable():
    enc = encode_equals1([7])
    assert enc.clauses == frozenset([(7,)])


def test_two_variables():
    enc = encode_equals1([1, 2])
    assert enc.clauses == frozenset([(1, 2), (-1, -2)])


def test_three_variables():
    enc = encode_equals1([1, 2, 3])
    assert enc.clauses == frozenset([(1, 2, 3), (-1, -2), (-1, -3), (-2, -3)])
    sat = sum(1 for bits in product([0, 1], repeat=3)
              if all(clause_satisfied(c, dict(zip([1, 2, 3], bits)))
                     for c in enc.clauses))
    assert sat == 3


def test_empty_is_an_error():
    with pytest.raises(ValueError):
        encode_equals1([])


def test_repeated_variable_is_an_error():
    with pytest.raises(ValueError):
        encode_equals1([3, 3])


@pytest.mark.parametrize("n", range(1, 7))
def test_models_are_exactly_the_one_hot_vectors(n):
    variables = list(range(1, n + 1))
    enc = encode_equals1(variables)
    models = {bits for bits in product([0, 1], repeat=n)
              if all(clause_satisfied(c, dict(zip(variables, bits)))
                     for c in enc.clauses)}
    assert models == {tuple(1 if i == k else 0 for i in range(n))
                      for k in range(n)}
