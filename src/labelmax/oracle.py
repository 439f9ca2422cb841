"""Brute-force reference implementations and random instance generators.

Everything here is deliberately independent of the CDCL engine and the
core-guided solvers: satisfiability is decided by truth tables only, so
these functions can act as ground truth in tests.  A truth table is a
Python int with one bit per assignment (``_TruthTables``); the weighted
oracle keeps each assignment's falsified weight as bit planes over the
same tables, so its costs are exact for any weight.  Truth tables are
capped at ``MAX_ORACLE_VARS`` variables and subset enumeration at
``MAX_ENUM_SETS`` elements; both raise ValueError past the cap.

Subset enumeration convention: a family of minimal sets is returned as a
``set`` of ``frozenset``s.  Clause-level functions index clauses 1-based
by position in the given list; label-level functions work on label ids.
"""

from __future__ import annotations

import heapq
import random
from itertools import combinations
from typing import (Callable, Dict, FrozenSet, Iterable, List, Optional,
                    Sequence, Set, Tuple)

from .model import (
    LCNF,
    Assignment,
    ClauseT,
    LabelledClause,
    MaxSatSolution,
    WCNF,
    clause,
    induced_subformula,
)

MAX_ORACLE_VARS = 20
MAX_ENUM_SETS = 16

# Assignment index convention: index a in [0, 2^n) encodes the assignment
# with variable v = (a >> (n - v)) & 1, i.e. variable 1 is the most
# significant bit.  Scanning a upwards is lexicographic order over
# (tau(1), ..., tau(n)), so the first hit is the lexicographically least.


def _index_assignment(a: int, num_vars: int) -> Assignment:
    return {v: (a >> (num_vars - v)) & 1 for v in range(1, num_vars + 1)}


# ---------------------------------------------------------------------------
# bit-mask truth tables (python ints, one bit per assignment)


def _var_mask(num_vars: int, v: int) -> int:
    # bits a with (a >> (num_vars - v)) & 1 == 1: one period of the
    # alternating block pattern, doubled until it covers 2^num_vars bits
    width = 1 << (num_vars - v)
    m = ((1 << width) - 1) << width
    period = 2 * width
    while period < 1 << num_vars:
        m |= m << period
        period *= 2
    return m


class _TruthTables:
    """Per-formula cache of clause satisfaction masks."""

    def __init__(self, num_vars: int):
        if num_vars > MAX_ORACLE_VARS:
            raise ValueError(f"instance has {num_vars} variables, truth "
                             f"tables are capped at {MAX_ORACLE_VARS}")
        self.n = num_vars
        self.full = (1 << (1 << num_vars)) - 1
        self._vars: Dict[int, int] = {}
        self._clauses: Dict[ClauseT, int] = {}

    def var(self, v: int) -> int:
        if v not in self._vars:
            self._vars[v] = _var_mask(self.n, v)
        return self._vars[v]

    def clause(self, c: ClauseT) -> int:
        if c not in self._clauses:
            m = 0
            for lit in c:
                p = self.var(abs(lit))
                m |= p if lit > 0 else self.full & ~p
            self._clauses[c] = m
        return self._clauses[c]

    def sat_mask(self, clauses: Iterable[ClauseT]) -> int:
        m = self.full
        for c in clauses:
            m &= self.clause(c)
            if not m:
                return 0
        return m


def truth_table_sat(clauses: Sequence[ClauseT], num_vars: int) -> Optional[Assignment]:
    """Lexicographically least model, or None if unsatisfiable."""
    tt = _TruthTables(num_vars)
    m = tt.sat_mask(clauses)
    if not m:
        return None
    # lowest set bit = least assignment index
    a = (m & -m).bit_length() - 1
    return _index_assignment(a, num_vars)


# ---------------------------------------------------------------------------
# brute-force MaxSAT


def brute_force_maxsat(f: WCNF) -> Optional[MaxSatSolution]:
    """Bit-parallel scan of all assignments; None when the hard part is
    unsatisfiable.

    Ties on cost go to the lexicographically least assignment over
    (tau(1), ..., tau(num_vars)).
    """
    n = f.num_vars
    tt = _TruthTables(n)
    best = tt.sat_mask(f.hard)
    if not best:
        return None
    # planes[k] holds bit k of every assignment's falsified weight; each
    # soft clause adds its falsified mask once per set bit of its weight
    # (no cost exceeds the weight sum, so no carry leaves the planes)
    planes = [0] * sum(w for _, w in f.soft).bit_length()
    for c, w in f.soft:
        unsat = tt.full & ~tt.clause(c)
        for k in range(w.bit_length()):
            if not w >> k & 1:
                continue
            carry, j = unsat, k
            while carry:  # ripple carry
                planes[j], carry = planes[j] ^ carry, planes[j] & carry
                j += 1
    # from the top plane down, keep the assignments with a zero bit there
    # whenever some remain: what is left has the least cost
    for p in reversed(planes):
        if best & ~p:
            best &= ~p
    a = (best & -best).bit_length() - 1  # least index = lex-least
    cost = sum(1 << k for k, p in enumerate(planes) if p >> a & 1)
    falsified = frozenset(i for i, (c, _) in enumerate(f.soft, start=1)
                          if not tt.clause(c) >> a & 1)
    return MaxSatSolution(model=_index_assignment(a, n), cost=cost,
                          falsified=falsified)


def brute_force_lcnf_maxsat(phi: LCNF) -> Optional[MaxSatSolution]:
    """Cheapest label removal whose induced subformula is satisfiable.

    Removal sets are scanned in (cost, sorted labels) order, so the
    reported removed set is deterministic.  None when even removing all
    labels leaves the empty-labelled part unsatisfiable.

    The scan is lazy: removal sets form a tree in which a set's parent
    is the set minus its largest label.  Every label weighs at least 1,
    so a child's (cost, labels) key is above its parent's, and pushing a
    set's children when it pops yields every set in key order.
    """
    labels = sorted(phi.labels())
    _check_enum_cap(len(labels))
    nv = max(phi.max_var(), 1)
    tt = _TruthTables(nv)
    if not tt.sat_mask([c.lits for c in phi.clauses if c.hard]):
        return None
    weights = [phi.label_weights[l] for l in labels]
    # (cost, removed labels, position after the largest removed label);
    # the removed tuples are distinct, so positions are never compared
    heap: List[Tuple[int, Tuple[int, ...], int]] = [(0, (), 0)]
    while heap:
        cost, rem, nxt = heapq.heappop(heap)
        removed = set(rem)
        m = tt.sat_mask([c.lits for c in phi.clauses
                         if removed.isdisjoint(c.labels)])
        if m:
            a = (m & -m).bit_length() - 1
            return MaxSatSolution(model=_index_assignment(a, nv), cost=cost,
                                  falsified=frozenset(rem))
        for i in range(nxt, len(labels)):
            heapq.heappush(heap, (cost + weights[i], rem + (labels[i],),
                                  i + 1))
    return None


# ---------------------------------------------------------------------------
# minimal-set enumeration: MUS / MCS (clause and label level), hitting sets


def _check_enum_cap(n: int) -> None:
    if n > MAX_ENUM_SETS:
        raise ValueError(f"subset enumeration capped at {MAX_ENUM_SETS} elements")


def _minimal_sets(universe: Sequence[int],
                  holds: Callable[[FrozenSet[int]], bool]
                  ) -> Set[FrozenSet[int]]:
    """All minimal subsets of ``universe`` on which ``holds`` is true.

    Size-ascending scan with superset pruning.  ``holds`` must be closed
    under supersets: then every set that holds contains a minimal one,
    found at a smaller or equal size, so a set that holds and contains
    no set found so far is itself minimal.
    """
    _check_enum_cap(len(universe))
    found: List[FrozenSet[int]] = []
    for size in range(len(universe) + 1):
        for combo in combinations(universe, size):
            s = frozenset(combo)
            if not any(m <= s for m in found) and holds(s):
                found.append(s)
    return set(found)


def enumerate_mus(clauses: Sequence[ClauseT], num_vars: int) -> Set[FrozenSet[int]]:
    """All minimal unsatisfiable subsets, as sets of 1-based clause indices."""
    tt = _TruthTables(num_vars)
    return _minimal_sets(range(1, len(clauses) + 1), lambda s: not tt.sat_mask(
        [clauses[i - 1] for i in s]))


def enumerate_mcs(clauses: Sequence[ClauseT], num_vars: int) -> Set[FrozenSet[int]]:
    """All minimal correction subsets (1-based indices).

    Satisfiable input yields {frozenset()}: nothing needs removing.
    """
    tt = _TruthTables(num_vars)
    return _minimal_sets(range(1, len(clauses) + 1), lambda r: bool(tt.sat_mask(
        [c for i, c in enumerate(clauses, start=1) if i not in r])))


def _induced_sat(phi: LCNF) -> Callable[[FrozenSet[int]], int]:
    """Truth-table satisfiability of ``induced_subformula(phi, m)``."""
    tt = _TruthTables(max(phi.max_var(), 1))
    return lambda m: tt.sat_mask(
        [c.lits for c in induced_subformula(phi, m).clauses])


def enumerate_mus_labels(phi: LCNF) -> Set[FrozenSet[int]]:
    """Minimal label sets M with the induced subformula unsatisfiable."""
    sat = _induced_sat(phi)
    return _minimal_sets(sorted(phi.labels()), lambda m: not sat(m))


def enumerate_mcs_labels(phi: LCNF) -> Set[FrozenSet[int]]:
    """Minimal label removals making the induced subformula satisfiable.

    Hard-unsatisfiable input (empty-labelled part has no model) yields
    the empty family; satisfiable input yields {frozenset()}.
    """
    labels = phi.labels()
    sat = _induced_sat(phi)
    return _minimal_sets(sorted(labels), lambda r: bool(sat(labels - r)))


def minimal_hitting_sets(family: Iterable[FrozenSet[int]]) -> Set[FrozenSet[int]]:
    """All irreducible hitting sets of a set family.

    The empty family is hit by the empty set; a family containing the
    empty set has no hitting set at all.
    """
    fam = [frozenset(s) for s in family]
    if any(len(s) == 0 for s in fam):
        return set()
    universe = sorted(set().union(*fam))
    return _minimal_sets(universe, lambda h: all(h & s for s in fam))


def check_hitting_duality(muses: Set[FrozenSet[int]], mcses: Set[FrozenSet[int]]) -> bool:
    """Each family must equal the irreducible hitting sets of the other."""
    return minimal_hitting_sets(mcses) == set(muses) and \
        minimal_hitting_sets(muses) == set(mcses)


# ---------------------------------------------------------------------------
# random instance generators (reproducible: same seed, same instance)


def _random_clause(rng: random.Random, nvars: int, max_len: int = 4) -> ClauseT:
    k = rng.randint(1, min(max_len, nvars))
    vs = rng.sample(range(1, nvars + 1), k)
    return clause(v if rng.random() < 0.5 else -v for v in vs)


def _force_satisfied(c: ClauseT, planted: Assignment, rng: random.Random) -> ClauseT:
    if any((l > 0) == bool(planted[abs(l)]) for l in c):
        return c
    lits = list(c)
    j = rng.randrange(len(lits))
    v = abs(lits[j])
    lits[j] = v if planted[v] else -v
    return clause(lits)


def random_cnf(seed: int, nvars: int = 8, nclauses: int = 12) -> Tuple[List[ClauseT], int]:
    """Plain clause list plus its declared variable count."""
    rng = random.Random(seed)
    return [_random_clause(rng, nvars) for _ in range(nclauses)], nvars


def random_wcnf(seed: int, nvars: int = 10, nclauses: int = 18, max_weight: int = 5,
                hard_fraction: float = 0.3) -> WCNF:
    """Random weighted partial instance with a satisfiable hard part.

    A hidden planted assignment is drawn first and every hard clause is
    patched to satisfy it, so the hard part always has a model.  Clause
    lengths are 1..4 over distinct variables.
    """
    rng = random.Random(seed)
    planted = {v: rng.randint(0, 1) for v in range(1, nvars + 1)}
    f = WCNF(num_vars=nvars)
    for _ in range(nclauses):
        c = _random_clause(rng, nvars)
        if rng.random() < hard_fraction:
            f.add_hard(_force_satisfied(c, planted, rng))
        else:
            f.add_soft(c, rng.randint(1, max_weight))
    f.num_vars = max(f.num_vars, nvars)
    return f


def random_lcnf(seed: int, nvars: int = 8, nclauses: int = 12, nlabels: int = 6,
                max_weight: int = 4, max_labelset: int = 3,
                hard_fraction: float = 0.3) -> LCNF:
    """Random labelled formula with a satisfiable empty-labelled part.

    Label sets have 1..max_labelset labels; a hard_fraction of clauses
    get the empty label set and are patched to satisfy a hidden planted
    assignment.
    """
    rng = random.Random(seed)
    planted = {v: rng.randint(0, 1) for v in range(1, nvars + 1)}
    weights = {l: rng.randint(1, max_weight) for l in range(1, nlabels + 1)}
    out = []
    for _ in range(nclauses):
        c = _random_clause(rng, nvars)
        if rng.random() < hard_fraction:
            out.append(LabelledClause(_force_satisfied(c, planted, rng), frozenset()))
        else:
            k = rng.randint(1, max_labelset)
            ls = frozenset(rng.sample(range(1, nlabels + 1), min(k, nlabels)))
            out.append(LabelledClause(c, ls))
    used = set().union(*(c.labels for c in out)) if out else set()
    return LCNF(frozenset(out), {l: w for l, w in weights.items() if l in used})
