"""Core-guided MaxSAT over labelled formulas.

One loop serves both algorithms: solve, and while the answer is
unsatisfiable, map the failed selector assumptions to core labels, relax
those labels with fresh relaxation variables, constrain the fresh
variables to exactly one true, and raise the lower bound.  With unit
weights this is the classic unweighted procedure; general weights add
the minimum-weight split, where a label costing more than the core's
minimum keeps its original clauses and sprouts a cheaper twin label that
carries the relaxed copies.

The loop runs in rounds; each round yields the cores that are then
relaxed one after another, in the order found.  It owns one SAT solver
at a time, which loads every labelled clause with one negated selector
per label and assumes the selectors positively.  The hard check solves
the hard clauses alone in a fresh solver.  The modes differ in when a
solver is built and whether a round goes on after a core:

* ``noninc`` — a fresh solver per round, loaded with the whole working
  formula.  After each unsatisfiable call the core's selectors are
  dropped from the assumptions and the same solver is asked again, until
  it answers SAT or no selector is left, so the cores of one round are
  label-disjoint (Davies & Bacchus, CP 2011).  A core refutes only the
  clauses whose labels it contains, so relaxing an earlier core of the
  round leaves a later one a core: the round does what one iteration per
  core would.
* ``inc`` — the hard check's solver for the whole run and one core per
  round.  Relaxing a label in place gives it a new selector: a unit
  clause finalizes the old one (which deactivates every loaded copy
  carrying it) and fresh copies are loaded under the new one.  Nothing
  is ever reloaded.

The loop keeps each working clause with its encoding, in entry order,
and files it under its labels when it enters.  A clause keeps its
selectors while it stays, since relaxing a label in place replaces
every clause that carries it.  The new clauses of each relaxed core form
one batch, in ``sort_key`` order, which ``inc`` loads into its live
solver; ``noninc``'s next fresh solver loads the working formula whole.

Only the answer of a round's first call can be final: when it is SAT,
the accumulated lower bound is the cost.  Before reporting, the final
model is charged independently (cheapest label removal covering its
falsified clauses) and the two numbers must agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import (Callable, Dict, FrozenSet, Iterable, List, Optional, Set,
                    Tuple)

from .cardinality import encode_equals1
from .engine import (BudgetExceededError, CdclSolver, Encoded, SolveOutcome,
                     encode)
from .model import (LCNF, Assignment, LabelledClause, MaxSatSolution,
                    add_weights, clause_satisfied, cost_of_labels)

__all__ = [
    "CoreLabels", "SolveReport", "extract_core_labels", "solve_lcnf",
    "BudgetExceededError",
]

MODES = ("noninc", "inc")
ALGORITHMS = ("fumalik", "wmsu1")


@dataclass(frozen=True)
class CoreLabels:
    labels: FrozenSet[int]


# the working formula in entry order: clause -> encoding with selectors
Working = Dict[LabelledClause, Encoded]


@dataclass
class SolveReport:
    status: str  # optimum | unsat-hard | unknown
    solution: Optional[MaxSatSolution]
    stats: Dict[str, int]


def extract_core_labels(outcome: SolveOutcome,
                        selector_map: Dict[int, int]) -> CoreLabels:
    """Failed selector assumptions mapped to their labels.

    An empty failed set means the solver refuted the hard clauses alone;
    legal runs rule that out before the loop starts, so it is reported
    as an internal error here.
    """
    if outcome.status != "UNSAT":
        raise ValueError("core extraction requires an unsatisfiable outcome")
    labels = frozenset(selector_map[v] for v in outcome.failed_assumptions)
    if not labels:
        raise RuntimeError(
            "empty core although the hard part was satisfiable")
    return CoreLabels(labels)


# ---------------------------------------------------------------------------
# SAT calls


def _encode_labelled(c: LabelledClause,
                     selectors: Dict[int, int]) -> Encoded:
    """A clause with one negated selector per label, for ``load``."""
    return encode(c.lits + tuple(-selectors[m] for m in c.labels))


def _fresh_solver(nv_orig: int, stats: Dict[str, int],
                  batch: List[Encoded]) -> CdclSolver:
    eng = CdclSolver()
    eng.ensure_var(nv_orig)
    eng.load(batch)
    stats["load_events"] += 1
    return eng


def _count(stats: Dict[str, int], eng: CdclSolver) -> None:
    stats["clauses_loaded"] += eng.stats["clauses_added"]
    for k in ("conflicts", "solves", "restarts", "minimized_literals"):
        stats[k] += eng.stats[k]


def _solve_round(eng: CdclSolver, selectors: Dict[int, int],
                 budget: Optional[int], disjoint: bool
                 ) -> Tuple[List[CoreLabels], Optional[Assignment]]:
    """One round's SAT calls under the live selectors (``selectors``
    iterates in ascending label order, the assumption order).  Returns
    the round's cores in the order found, and the model when its first
    call was already satisfiable (then there are no cores).  With
    ``disjoint`` the solver is asked again without the failed selectors
    until it answers SAT or none is left; without, the round stops at
    its first core."""
    label_of = {s: l for l, s in selectors.items()}
    cores: List[CoreLabels] = []
    assumptions = list(selectors.values())
    while True:
        out = eng.solve(assumptions, budget)
        if out.sat:
            return cores, None if cores else out.model
        cores.append(extract_core_labels(out, label_of))
        failed = out.failed_assumptions
        assumptions = [a for a in assumptions if a not in failed]
        if not (disjoint and assumptions):
            return cores, None


# ---------------------------------------------------------------------------
# main loop


def _min_cost_hitting_set(families: Iterable[FrozenSet[int]],
                          weights: Dict[int, int]) -> FrozenSet[int]:
    """Cheapest label set intersecting every family.

    Families that share no label, directly or through others, are hit
    independently, so each such component gets its own branch and bound;
    a singleton family is a component of its own once supersets are
    dropped.
    """
    fams = sorted({frozenset(f) for f in families},
                  key=lambda f: (len(f), sorted(f)))
    mins: List[FrozenSet[int]] = []
    for f in fams:
        if not any(g <= f for g in mins):
            mins.append(f)
    # union-find over labels; each component keeps the order of ``mins``
    parent: Dict[int, int] = {}

    def root(l: int) -> int:
        while parent.setdefault(l, l) != l:
            parent[l] = parent[parent[l]]
            l = parent[l]
        return l

    for f in mins:
        first = root(min(f))
        for l in f:
            parent[root(l)] = first
    components: Dict[int, List[FrozenSet[int]]] = {}
    for f in mins:
        components.setdefault(root(min(f)), []).append(f)
    out: Set[int] = set()
    for comp in components.values():
        out |= _component_hitting_set(comp, weights)
    return frozenset(out)


def _component_hitting_set(mins: List[FrozenSet[int]],
                           weights: Dict[int, int]) -> FrozenSet[int]:
    """Depth-first branch and bound on an explicit stack: branch on the
    first family not yet hit, cheapest label first; the first set found
    at the optimal cost wins."""
    best: Optional[FrozenSet[int]] = None
    best_cost = 0
    stack = [(frozenset(), 0)]
    while stack:
        chosen, cost = stack.pop()
        if best is not None and cost >= best_cost:
            continue
        f = next((f for f in mins if not f & chosen), None)
        if f is None:
            best, best_cost = chosen, cost
            continue
        for l in sorted(f, key=lambda x: (weights[x], x), reverse=True):
            stack.append((chosen | {l}, cost + weights[l]))
    assert best is not None  # the union of all families always hits
    return best


def _certify(orig: LCNF, tau: Dict[int, int], lb: int) -> MaxSatSolution:
    falsified = [c for c in orig.clauses
                 if not clause_satisfied(c.lits, tau)]
    if any(c.hard for c in falsified):
        raise RuntimeError("internal error: model falsifies a hard clause")
    removed = _min_cost_hitting_set([c.labels for c in falsified],
                                    orig.label_weights)
    charged = cost_of_labels(orig, removed)
    if charged != lb:
        raise RuntimeError(
            f"internal error: accumulated bound {lb} does not match the "
            f"cheapest removal set of the final model ({charged})")
    return MaxSatSolution(model=tau, cost=lb, falsified=removed)


def _enter(working: Working, carrying: Dict[int, Set[LabelledClause]],
           clauses: Iterable[LabelledClause],
           selectors: Dict[int, int]) -> List[Encoded]:
    """Put clauses into the working formula in ``sort_key`` order, each
    encoded under the live selectors and filed in ``carrying`` under its
    labels, and return their encodings in that order."""
    batch = []
    for c in sorted(clauses, key=LabelledClause.sort_key):
        enc = working[c] = _encode_labelled(c, selectors)
        batch.append(enc)
        for m in c.labels:
            carrying.setdefault(m, set()).add(c)
    return batch


def solve_lcnf(phi: LCNF, algorithm: str = "wmsu1", mode: str = "noninc",
               conflict_budget: Optional[int] = None,
               trace: Optional[Callable[[str], None]] = None) -> SolveReport:
    """Core-guided optimum of a weighted labelled formula.

    ``algorithm="fumalik"`` insists on unit weights (it is the weighted
    loop with the split degenerate).  ``conflict_budget`` bounds each
    individual SAT call; exhaustion yields status ``unknown``.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    used = phi.labels()
    if algorithm == "fumalik" and any(phi.label_weights[l] != 1 for l in used):
        raise ValueError("fumalik requires all label weights equal to 1")

    stats = {"iterations": 0, "rounds": 0, "load_events": 0,
             "clauses_loaded": 0, "solves": 0, "conflicts": 0,
             "restarts": 0, "minimized_literals": 0}
    nv_orig = phi.max_var()
    variables = count(nv_orig + 1)
    label_ids = count(max(phi.label_weights, default=0) + 1)
    incremental = mode == "inc"

    weight = {l: phi.label_weights[l] for l in sorted(used)}
    # label -> selector; a new label is numbered above every live one, so
    # insertion order stays ascending label order
    selectors = {l: next(variables) for l in weight}
    working: Working = {}
    # label -> the working clauses that carry it
    carrying: Dict[int, Set[LabelledClause]] = {}
    eng = _fresh_solver(nv_orig, stats,
                        _enter(working, carrying,
                               [c for c in phi.clauses if c.hard], selectors))

    def finish(status: str, solution=None) -> SolveReport:
        _count(stats, eng)
        return SolveReport(status, solution, stats)

    try:
        if not eng.solve((), conflict_budget).sat:
            return finish("unsat-hard")
    except BudgetExceededError:
        return finish("unknown")
    # the soft clauses are the first batch; only ``inc`` loads batches
    batch = _enter(working, carrying,
                   [c for c in phi.clauses if not c.hard], selectors)
    if incremental:
        eng.load(batch)

    lb = 0
    total = add_weights(*(phi.label_weights[l] for l in used))

    while True:
        stats["rounds"] += 1
        if not incremental:
            # release the last solver before building the next: building
            # while the old one is still alive measurably slows the run
            _count(stats, eng)
            del eng
            eng = _fresh_solver(nv_orig, stats, list(working.values()))
        try:
            cores, model = _solve_round(eng, selectors, conflict_budget,
                                        not incremental)
        except BudgetExceededError:
            return finish("unknown")

        for core in cores:
            stats["iterations"] += 1
            w_min = min(weight[l] for l in core.labels)
            lb = add_weights(lb, w_min)
            if lb > total:
                raise RuntimeError(
                    "internal error: bound exceeded total weight")
            if trace is not None:
                trace(f"iteration {stats['iterations']}: core "
                      f"{len(core.labels)}, min weight {w_min}, "
                      f"lower bound {lb}")

            relaxation_vars: List[int] = []
            batch = []
            for l in sorted(core.labels):
                r = next(variables)
                relaxation_vars.append(r)
                carried = carrying[l]
                if weight[l] > w_min:
                    # split: the label keeps its clauses at reduced weight;
                    # a twin label worth w_min owns the relaxed copies
                    nl = next(label_ids)
                    weight[l] -= w_min
                    weight[nl] = w_min
                    selectors[nl] = next(variables)
                    relaxed = [LabelledClause.make((r,) + c.lits,
                                                   (c.labels - {l}) | {nl})
                               for c in carried]
                else:
                    relaxed = [LabelledClause.make((r,) + c.lits, c.labels)
                               for c in carried]
                    carrying[l] = set()
                    for c in carried:
                        del working[c]
                        for m in c.labels:
                            carrying[m].discard(c)
                    # the unit finalizes the old selector
                    batch.append(encode([-selectors[l]]))
                    selectors[l] = next(variables)
                batch += _enter(working, carrying, relaxed, selectors)

            enc = encode_equals1(relaxation_vars)
            batch += _enter(working, carrying,
                            [LabelledClause(c, frozenset())
                             for c in enc.clauses], selectors)
            if incremental:
                eng.load(batch)

        if trace is not None:
            trace(f"round {stats['rounds']}: {len(cores)} cores, "
                  f"lower bound {lb}")
        if model is not None:
            tau = {v: model.get(v, 0) for v in range(1, nv_orig + 1)}
            return finish("optimum", _certify(phi, tau, lb))
