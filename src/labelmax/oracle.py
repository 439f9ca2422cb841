"""Brute-force MaxSAT and the random weighted instances of ``fuzz``.

``brute_force_maxsat`` is what ``labelmax oracle`` prints and what
``labelmax fuzz`` checks every prep x mode configuration against, on
instances from ``random_wcnf``.  It is deliberately independent of the
CDCL engine and the core-guided loop: satisfiability is decided by truth
tables only.  A truth table is a Python int with one bit per assignment
(``_TruthTables``); the oracle keeps each assignment's falsified weight
as bit planes over the same tables, so its costs are exact for any
weight.  Truth tables are capped at ``MAX_ORACLE_VARS`` variables and
raise ValueError past the cap.  The test suite's label-level references
and MUS/MCS enumerations build on the same truth tables.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, Optional

from .model import Assignment, ClauseT, MaxSatSolution, WCNF, clause

MAX_ORACLE_VARS = 20

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
