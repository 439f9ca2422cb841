"""Test-only references, generators and example formulas.

The brute-force references here decide satisfiability by truth tables
alone, through ``labelmax.oracle._TruthTables`` (the one truth-table
implementation; the CLI's ``oracle`` and ``fuzz`` use it too), so they
act as ground truth independent of the CDCL engine and the core-guided
loop.  Truth tables are capped at ``MAX_ORACLE_VARS`` variables and
subset enumeration at ``MAX_ENUM_SETS`` elements; both raise ValueError
past the cap.

Subset enumeration convention: a family of minimal sets is returned as
a ``set`` of ``frozenset``s.  Clause-level functions index clauses
1-based by position in the given list; label-level functions work on
label ids.
"""

from __future__ import annotations

import heapq
import random
from itertools import combinations
from typing import (Callable, FrozenSet, Iterable, List, Optional, Sequence,
                    Set, Tuple)

from labelmax.engine import CdclSolver
from labelmax.model import (LCNF, Assignment, ClauseT, LabelledClause,
                            MaxSatSolution, WCNF, clause_satisfied)
from labelmax.oracle import (_TruthTables, _force_satisfied,
                             _index_assignment, _random_clause, random_wcnf)

MAX_ENUM_SETS = 16

lclause = LabelledClause.make


# ---------------------------------------------------------------------------
# labelled formulas: induced subformulas and satisfaction


def induced_subformula(phi: LCNF, m: Iterable[int]) -> LCNF:
    """Clauses of ``phi`` whose label set is contained in ``m``.

    Empty-labelled clauses are always retained.  Weight entries are
    restricted to the labels still in use.
    """
    ms = frozenset(m)
    kept = frozenset(c for c in phi.clauses if c.labels <= ms)
    used = set().union(*(c.labels for c in kept))
    return LCNF(kept, {l: w for l, w in phi.label_weights.items()
                       if l in used})


def lcnf_satisfied(phi: LCNF, tau: Assignment) -> bool:
    return all(clause_satisfied(c.lits, tau) for c in phi.clauses)


# ---------------------------------------------------------------------------
# relaxation by copies


def relax_by_copies(phi: LCNF, core: Iterable[int],
                    rs: Sequence[int]) -> LCNF:
    """WMSU1's relaxation of ``core`` by clause copies, the i-th label in
    ascending order with the fresh relaxation variable ``rs[i]``.  A
    label worth more than the core's least weight keeps its clauses at
    the weight reduced by it, and a twin label worth that least weight,
    numbered above every label in ``phi``'s weight map, carries a copy
    of each with r added; any other label's clauses are replaced by such
    copies under the label itself.  Then the hard exactly-one clauses
    over ``rs``.  The core loop's relaxation must agree with this."""
    weights = dict(phi.label_weights)
    labels = sorted(core)
    w_min = min(weights[l] for l in labels)
    clauses = set(phi.clauses)
    for l, r in zip(labels, rs):
        carried = {c for c in clauses if l in c.labels}
        if weights[l] > w_min:
            twin = max(weights) + 1
            weights[l] -= w_min
            weights[twin] = w_min
        else:
            twin = l
            clauses -= carried
        clauses |= {LabelledClause.make(c.lits + (r,),
                                        c.labels - {l} | {twin})
                    for c in carried}
    clauses.add(LabelledClause.make(rs))
    clauses |= {LabelledClause.make((-a, -b))
                for a, b in combinations(rs, 2)}
    return LCNF(clauses, weights)


# ---------------------------------------------------------------------------
# brute force


def truth_table_sat(clauses: Sequence[ClauseT], num_vars: int) -> Optional[Assignment]:
    """Lexicographically least model, or None if unsatisfiable."""
    tt = _TruthTables(num_vars)
    m = tt.sat_mask(clauses)
    if not m:
        return None
    # lowest set bit = least assignment index
    a = (m & -m).bit_length() - 1
    return _index_assignment(a, num_vars)


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


def random_cnf(seed: int, nvars: int = 8, nclauses: int = 12) -> Tuple[List[ClauseT], int]:
    """Plain clause list plus its declared variable count."""
    rng = random.Random(seed)
    return [_random_clause(rng, nvars) for _ in range(nclauses)], nvars


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


def unit_pairs_wcnf(seed: int, pairs: int) -> WCNF:
    """Soft units x and -x on each of ``pairs`` variables, weights 1-5.
    BVE merges each pair into one clause without literals, so the core
    loop finds every core among them up front."""
    rng = random.Random(seed)
    f = WCNF(num_vars=pairs)
    for v in range(1, pairs + 1):
        f.add_soft([v], rng.randint(1, 5))
        f.add_soft([-v], rng.randint(1, 5))
    return f


def with_unit_pairs(seed: int) -> WCNF:
    """``random_wcnf(seed)`` plus one to three pairs of complementary soft
    units, weights 1-5, on its own variables or on fresh ones; BVE makes
    a clause without literals of each pair whose variable occurs nowhere
    else."""
    f = random_wcnf(seed)
    rng = random.Random(seed)
    for _ in range(rng.randint(1, 3)):
        v = rng.randint(1, f.num_vars + 2)
        f.add_soft([v], rng.randint(1, 5))
        f.add_soft([-v], rng.randint(1, 5))
    return f


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


# ---------------------------------------------------------------------------
# the examples and the engine helper shared by several test files


def unit_soft_formula() -> WCNF:
    """Six unit-weight soft clauses; optimum falsifies exactly two."""
    f = WCNF()
    for lits in [(1,), (-1,), (1, 2), (1, -2), (3,), (-3,)]:
        f.add_soft(lits, 1)
    return f


def labelled_example() -> LCNF:
    """The labelled example: MUSes {2} and {3}; optimum removes {2, 3}."""
    return LCNF(frozenset([
        lclause([-1]), lclause([3]),
        lclause([1, 2], [1]), lclause([1, -2], [1, 2]),
        lclause([1], [2]), lclause([-3], [3]),
    ]), {1: 1, 2: 1, 3: 1})


def solve_clauses(clauses, assumptions=(), solver=None, num_vars=0):
    """Add ``clauses`` to ``solver`` (a fresh one by default), after
    declaring variables 1..num_vars, then solve under ``assumptions``."""
    s = solver or CdclSolver()
    s.ensure_var(num_vars)
    for c in clauses:
        s.add_clause(c)
    return s.solve(assumptions), s
