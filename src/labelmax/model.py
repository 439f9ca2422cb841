"""Core value types for weighted partial MaxSAT and labelled CNF formulas.

Literals are non-zero ints in the usual DIMACS convention: ``v`` for the
positive literal of variable ``v >= 1`` and ``-v`` for its negation.
Clauses are stored canonically as sorted, duplicate-free tuples so that
clause identity is plain tuple equality.

Two formula representations live here:

* ``WCNF`` -- hard clauses plus an ordered list of (clause, weight) soft
  entries.  Soft entries form a multiset: the same clause may occur
  several times and each occurrence is charged separately.  Soft indices
  are 1-based throughout.

* ``LCNF`` -- a set of clauses tagged with finite label sets.  Clauses
  tagged with the empty label set are irremovable (hard); every other
  clause can be dropped by removing any one of its labels.  Labels carry
  the weights.  Clause identity includes the label set, so the same
  literal tuple may appear under different label sets.
"""

from __future__ import annotations

from typing import (Dict, FrozenSet, Iterable, List, NamedTuple, Optional,
                    Sequence, Set, Tuple)

ClauseT = Tuple[int, ...]
Assignment = Dict[int, int]

#: Weights are kept inside unsigned 64-bit range; sums are checked.
MAX_WEIGHT_SUM = 2**64 - 1


class WeightOverflowError(ArithmeticError):
    """A weight sum left the unsigned 64-bit range."""


def add_weights(*weights: int) -> int:
    """Sum finite weights with an explicit overflow check."""
    total = 0
    for w in weights:
        total += w
        if total > MAX_WEIGHT_SUM:
            raise WeightOverflowError("weight sum exceeds 2^64-1")
    return total


def check_weight(w: int) -> int:
    if not isinstance(w, int) or isinstance(w, bool) or w < 1:
        raise ValueError(f"soft weight must be a positive integer, got {w!r}")
    if w > MAX_WEIGHT_SUM:
        raise WeightOverflowError("weight exceeds 2^64-1")
    return w


# ---------------------------------------------------------------------------
# clauses


def clause(lits: Iterable[int]) -> ClauseT:
    """Canonicalize literals: dedup, sort by variable then sign.

    Complementary literals are both kept; tautologies stay representable
    and are detected by :func:`is_tautology`.
    """
    seen = set(lits)
    if 0 in seen:
        raise ValueError("0 is not a literal")
    # sorting is stable: -v, ahead of v in plain order, stays ahead
    return tuple(sorted(sorted(seen), key=abs))


def is_tautology(c: Sequence[int]) -> bool:
    # a complementary pair is two literals of one variable
    s = set(c)
    return len(set(map(abs, s))) < len(s)


def clause_satisfied(c: Sequence[int], tau: Assignment) -> bool:
    """Whether a literal of ``c`` is true under ``tau``: ``v`` if v is 1,
    ``-v`` if v is 0.  Variables missing from ``tau`` are 0."""
    get = tau.get
    for l in c:
        if l > 0:
            if get(l, 0) == 1:
                return True
        elif get(-l, 0) == 0:
            return True
    return False


# ---------------------------------------------------------------------------
# WCNF


class WCNF:
    """Weighted partial CNF.  ``soft[i-1]`` is soft clause *i* (1-based)."""

    def __init__(self, hard: Optional[List[ClauseT]] = None,
                 soft: Optional[List[Tuple[ClauseT, int]]] = None,
                 num_vars: int = 0) -> None:
        self.hard = [] if hard is None else hard
        self.soft = [] if soft is None else soft
        self.num_vars = num_vars
        # ``hard`` and its members as a set, for add_hard's duplicate
        # test; rebuilt when ``hard`` was replaced or changed elsewhere
        self._hard_index: Optional[Tuple[List[ClauseT], Set[ClauseT]]] = None

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.hard, self.soft, self.num_vars)
                == (other.hard, other.soft, other.num_vars))

    def __repr__(self) -> str:
        return f"WCNF({self.hard!r}, {self.soft!r}, {self.num_vars!r})"

    def add_hard(self, lits: Iterable[int]) -> None:
        c = clause(lits)
        index = self._hard_index
        if (index is None or index[0] is not self.hard
                or len(index[1]) != len(self.hard)):
            index = self._hard_index = (self.hard, set(self.hard))
        if c not in index[1]:  # hard clauses form a set
            index[1].add(c)
            self.hard.append(c)
        self._grow(c)

    def add_soft(self, lits: Iterable[int], weight: int) -> None:
        c = clause(lits)
        self.soft.append((c, check_weight(weight)))
        self._grow(c)

    def _grow(self, c: ClauseT) -> None:
        for l in c:
            if abs(l) > self.num_vars:
                self.num_vars = abs(l)

    def soft_weight_sum(self) -> int:
        return add_weights(*(w for _, w in self.soft))

    def top(self) -> int:
        """Conventional hard weight for file emission: 1 + sum of soft."""
        return add_weights(self.soft_weight_sum(), 1)

    def cost_of(self, tau: Assignment) -> int:
        """Total weight of soft clauses falsified by ``tau``."""
        return add_weights(
            *(w for c, w in self.soft if not clause_satisfied(c, tau))
        )


# ---------------------------------------------------------------------------
# LCNF


class LabelledClause(NamedTuple):
    """A clause tagged with a label set; the empty set makes it hard.
    Sort by ``sort_key``: tuple order compares label sets by inclusion."""

    lits: ClauseT
    labels: FrozenSet[int]

    @staticmethod
    def make(lits: Iterable[int], labels: Iterable[int] = ()) -> "LabelledClause":
        return LabelledClause(clause(lits), frozenset(labels))

    @property
    def hard(self) -> bool:
        return not self.labels

    def sort_key(self) -> Tuple:
        return (tuple(sorted(self.labels)), self.lits)

    def __repr__(self) -> str:
        body = " ".join(str(l) for l in self.lits) if self.lits else "[]"
        tags = ",".join(str(l) for l in sorted(self.labels))
        return f"<{body}>^{{{tags}}}"


class LCNF:
    """Set of labelled clauses plus a weight for every label in use.

    Treated as immutable: transformation functions return new instances.
    """

    def __init__(self, clauses: Iterable[LabelledClause] = frozenset(),
                 label_weights: Optional[Dict[int, int]] = None) -> None:
        self.clauses: FrozenSet[LabelledClause] = frozenset(clauses)
        self.label_weights = {} if label_weights is None else label_weights
        missing = self.labels() - set(self.label_weights)
        if missing:
            raise ValueError(f"labels without a weight entry: {sorted(missing)}")
        for l, w in self.label_weights.items():
            check_weight(w)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.clauses, self.label_weights)
                == (other.clauses, other.label_weights))

    def __repr__(self) -> str:
        return f"LCNF({self.clauses!r}, {self.label_weights!r})"

    def labels(self) -> FrozenSet[int]:
        """Union of all label sets (labels actually constraining clauses)."""
        out: set = set()
        for c in self.clauses:
            out |= c.labels
        return frozenset(out)

    def max_var(self) -> int:
        return max((max((abs(l) for l in c.lits), default=0) for c in self.clauses), default=0)

    def sorted_clauses(self) -> List[LabelledClause]:
        return sorted(self.clauses, key=LabelledClause.sort_key)

    def size(self) -> int:
        return len(self.clauses)


def lcnf_from_wcnf(f: WCNF) -> LCNF:
    """Label soft clause *i* with the singleton {i}; hard clauses get {}.

    Duplicate soft clauses stay distinct because their labels differ.
    """
    out = [LabelledClause(c, frozenset()) for c in f.hard]
    weights = {}
    for i, (c, w) in enumerate(f.soft, start=1):
        out.append(LabelledClause(c, frozenset([i])))
        weights[i] = w
    return LCNF(frozenset(out), weights)


def selector_map(labels: Iterable[int], first: int) -> Dict[int, int]:
    """Label -> selector: the labels numbered from ``first`` upwards, in
    ascending label order."""
    return {l: v for v, l in enumerate(sorted(labels), first)}


def guarded(c: LabelledClause, selectors: Dict[int, int]) -> ClauseT:
    """``c``'s literals plus one negated selector per label, so that the
    false selector of any of its labels satisfies it."""
    return c.lits + tuple(-selectors[m] for m in c.labels)


def lcnf_to_wcnf(phi: LCNF) -> Tuple[WCNF, Dict[int, int]]:
    """The selector encoding and its label -> selector map: each clause
    hard, ``guarded`` by its labels' selectors (numbered above every
    variable), and each selector a unit soft clause worth its label's
    weight.  Falsifying that unit is removing the label, so optima
    transfer in both directions."""
    nv = phi.max_var()
    selectors = selector_map(phi.labels(), nv + 1)
    out = WCNF(num_vars=nv + len(selectors))
    for c in phi.sorted_clauses():
        out.add_hard(guarded(c, selectors))
    for l, v in selectors.items():
        out.add_soft([v], phi.label_weights[l])
    return out, selectors


def lift_reduction_solution(sol: MaxSatSolution,
                            selectors: Dict[int, int]) -> MaxSatSolution:
    """An LCNF solution from one of ``lcnf_to_wcnf``'s WCNF: the labels
    whose selector is false are removed, at the same cost (the soft
    clauses are the selector units), and the model is cut below the
    selectors."""
    removed = frozenset(l for l, v in selectors.items()
                        if sol.model.get(v, 0) == 0)
    boundary = min(selectors.values(), default=None)
    model = {v: val for v, val in sol.model.items()
             if boundary is None or v < boundary}
    return MaxSatSolution(model=model, cost=sol.cost, falsified=removed)


def cost_of_labels(phi: LCNF, labels: Iterable[int]) -> int:
    """Checked weight sum of a label set; unknown labels are an error."""
    total = []
    for l in set(labels):
        if l not in phi.label_weights:
            raise KeyError(f"label {l} has no weight entry")
        total.append(phi.label_weights[l])
    return add_weights(*total)


# ---------------------------------------------------------------------------
# reconstruction


class StackEntry(NamedTuple):
    """One entry of a reconstruction stack (Järvisalo, Heule & Biere,
    "Inprocessing Rules", IJCAR 2012): a variable and the recorded
    clauses that mention it.  BCE pushes ``(|l|, {C})`` for a labelled
    clause C blocked on l; BVE pushes an eliminated variable with every
    labelled clause it occurred in."""

    var: int
    group: FrozenSet[LabelledClause]


Stack = List[StackEntry]


def reconstruct(stack: Stack, tau: Assignment,
                removed: FrozenSet[int] = frozenset()) -> Assignment:
    """Lift a model of the reduced formula over ``stack``, last entry
    first.

    An entry's variable keeps its value in ``tau``, or starts at 0 when
    absent.  Its live clauses are those carrying no label in
    ``removed``: the clauses of removed labels impose no constraint.  If
    a live clause is falsified, its literal of the variable is false,
    and so is that of every other falsified one; the variable is flipped
    to make it true.  A live clause falsified after that means the model
    does not fit the stack.
    """
    out = dict(tau)
    for x, group in reversed(stack):
        out.setdefault(x, 0)
        if all(clause_satisfied(c.lits, out) for c in group
               if removed.isdisjoint(c.labels)):
            continue
        out[x] = 1 - out[x]
        if not all(clause_satisfied(c.lits, out) for c in group
                   if removed.isdisjoint(c.labels)):
            raise RuntimeError(
                f"no value of variable {x} satisfies its recorded clause "
                f"group; model does not fit the record")
    return out


# ---------------------------------------------------------------------------
# solutions


class MaxSatSolution(NamedTuple):
    """Optimum report: a model, its cost, and what was given up.

    ``falsified`` holds 1-based soft indices when solving a WCNF and
    removed labels when solving an LCNF.  The model is total over the
    variable universe of the formula it answers for.
    """

    model: Assignment
    cost: int
    falsified: FrozenSet[int] = frozenset()

    def model_tuple(self, num_vars: int) -> Tuple[int, ...]:
        """Model as signed literals 1..num_vars (missing vars read as 0)."""
        return tuple(
            v if self.model.get(v, 0) else -v for v in range(1, num_vars + 1)
        )
