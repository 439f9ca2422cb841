"""Exactly-one constraints over relaxation variables.

The core-guided loop adds one of these per relaxed core.  The pairwise
scheme is quadratic but core sizes here are small.
"""

from __future__ import annotations

from typing import FrozenSet, List, NamedTuple, Sequence

from .model import ClauseT, clause

__all__ = ["Equals1Encoding", "encode_equals1"]


class Equals1Encoding(NamedTuple):
    clauses: FrozenSet[ClauseT]


def encode_equals1(variables: Sequence[int]) -> Equals1Encoding:
    """Pairwise encoding: one at-least-one clause, all at-most-one pairs."""
    if not variables:
        raise ValueError("equals1 over no variables is unsatisfiable")
    if len(set(variables)) != len(variables):
        raise ValueError("equals1 variables must be distinct")
    out: List[ClauseT] = [clause(variables)]
    for i, a in enumerate(variables):
        for b in variables[i + 1:]:
            out.append(clause([-a, -b]))
    return Equals1Encoding(frozenset(out))
