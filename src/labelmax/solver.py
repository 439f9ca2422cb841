"""Core-guided MaxSAT over labelled formulas.

One loop, WMSU1 on labelled formulas: solve, and while the answer is
unsatisfiable, map the failed selector assumptions to core labels, relax
those labels with fresh relaxation variables, constrain the fresh
variables to exactly one true, and raise the lower bound.  A label
costing more than the core's minimum keeps its original clauses and
sprouts a twin label, worth that minimum, that carries the relaxed
copies.  With unit weights no label is ever split, and the loop is Fu &
Malik's algorithm (SAT 2006) as it stands.

The loop runs in rounds; each round yields the cores that are then
relaxed one after another, in the order found, unless they close the
gap to the upper bound (below).  A round takes its free cores first:
every assignment falsifies a working clause without literals, so its
labels are a core without a SAT call.  It takes them in entry order,
each one whose labels are disjoint from those already taken, then
makes its mode's SAT calls.  The loop owns one SAT solver
at a time, which loads every labelled clause with one negated selector
per label and assumes the selectors positively.  The hard check solves
the hard clauses alone in a fresh solver.  The modes differ in when a
solver is built and whether a round goes on after a core:

* ``noninc`` — a fresh solver per round that asks, loaded with the
  whole working formula, assuming the selectors of the labels the free
  cores left; no solver when they left none.  After each unsatisfiable
  call the core's selectors are dropped from the assumptions and the
  same solver is asked again, until it answers SAT or no selector is
  left, so the cores of one round are label-disjoint (Davies &
  Bacchus, CP 2011).  A core refutes only the clauses whose labels it
  contains, so relaxing an earlier core of the round leaves a later one
  a core: the round does what one iteration per core would.
* ``inc`` — the hard check's solver for the whole run, no SAT call in a
  round with free cores, and otherwise one core per round.  Relaxing a
  label in place gives it a new selector: a unit clause finalizes the
  old one (which deactivates every loaded copy carrying it) and fresh
  copies are loaded under the new one.  Nothing is ever reloaded.

The loop keeps each working clause with its encoding, in entry order,
and files it under its labels when it enters, and under ``empty`` when
it has no literals.  ``_encoded`` encodes every clause, relaxed copies
and exactly-one clauses too: ``guarded`` by its labels' selectors, which
``selector_map`` numbers as for ``lcnf_to_wcnf``.  A clause keeps its
selectors while it stays, since relaxing a label in place replaces every
clause that carries it.  The soft clauses, and then the new clauses of
each relaxed core in ``sort_key`` order, go onto one pending batch.
Right before a round's SAT calls ``inc`` loads that batch into
its live solver, and ``noninc`` builds its fresh solver from the working
formula whole; a run that ends without another call loads neither.

The run keeps the cheapest model it holds as its upper bound.  A model
is charged independently, by the cheapest label removal that covers the
clauses it falsifies; the search looks only below the upper bound.  Two
are charged: the hard check's, and that of
each round's last SAT call when it answers SAT (in ``inc`` only a round
without cores makes one).  A round adds its cores' minimum weights to
the lower bound; they are label-disjoint, so that is what relaxing them
one after another adds.  The run ends as soon as the bounds meet and
reports the cheapest model: it relaxes nothing more and builds or asks
no other solver, and ``noninc`` builds none in a round whose free cores
close the gap.  A round without cores answered SAT with every selector
assumed, so its model costs the lower bound; a model below the lower
bound, or such a round that leaves a gap, is an internal error.
"""

from __future__ import annotations

from itertools import count
from typing import (Callable, Dict, FrozenSet, Iterable, List, NamedTuple,
                    Optional, Sequence, Set, Tuple)

from .engine import BudgetExceededError, CdclSolver, Encoded, encode
from .model import (LCNF, Assignment, ClauseT, LabelledClause,
                    MaxSatSolution, add_weights, clause_satisfied,
                    cost_of_labels, guarded, selector_map)

__all__ = [
    "CoreLabels", "Equals1Encoding", "SolveReport", "encode_equals1",
    "extract_core_labels", "solve_lcnf", "BudgetExceededError",
]

MODES = ("noninc", "inc")


class CoreLabels(NamedTuple):
    labels: FrozenSet[int]


# the working formula in entry order: clause -> encoding with selectors
Working = Dict[LabelledClause, Encoded]
# its clauses without literals, in entry order (a dict as ordered set)
Empty = Dict[LabelledClause, None]


class SolveReport(NamedTuple):
    status: str  # optimum | unsat-hard | unknown
    solution: Optional[MaxSatSolution]
    stats: Dict[str, int]


def extract_core_labels(failed: Iterable[int],
                        selector_map: Dict[int, int]) -> CoreLabels:
    """Failed selector assumptions mapped to their labels.

    An empty failed set means the solver refuted the hard clauses alone;
    legal runs rule that out before the loop starts, so it is reported
    as an internal error here.
    """
    labels = frozenset(selector_map[v] for v in failed)
    if not labels:
        raise RuntimeError(
            "empty core although the hard part was satisfiable")
    return CoreLabels(labels)


class Equals1Encoding(NamedTuple):
    clauses: FrozenSet[ClauseT]


def encode_equals1(variables: Sequence[int]) -> Equals1Encoding:
    """Exactly one of ``variables`` true: the at-least-one clause, sorted,
    and each at-most-one pair ``(-a, -b)`` with ``a < b``."""
    vs = tuple(sorted(variables))
    if not vs:
        raise ValueError("equals1 over no variables is unsatisfiable")
    if len(set(vs)) != len(vs):
        raise ValueError("equals1 variables must be distinct")
    return Equals1Encoding(frozenset(
        [vs] + [(-a, -b) for i, a in enumerate(vs) for b in vs[i + 1:]]))


# ---------------------------------------------------------------------------
# SAT calls


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


def _free_cores(empty: Empty, selectors: Dict[int, int]
                ) -> List[CoreLabels]:
    """The round's free cores: the labels of each working clause without
    literals, in entry order, when disjoint from those already taken.
    Such a clause is loaded as its negated selectors alone, so its
    selectors are the failed assumptions a SAT call would report."""
    cores: List[CoreLabels] = []
    taken: Set[int] = set()
    for c in empty:
        if taken.isdisjoint(c.labels):
            taken |= c.labels
            label_of = {selectors[m]: m for m in c.labels}
            cores.append(extract_core_labels(label_of.keys(), label_of))
    return cores


def _left_to_ask(selectors: Dict[int, int], free: List[CoreLabels],
                 incremental: bool) -> Optional[Dict[int, int]]:
    """The selectors a round's SAT calls assume after its free cores, or
    None when it makes no call: ``inc`` makes none after free cores, and
    ``noninc`` asks about the labels they leave, if any."""
    if not free:
        return selectors
    if incremental:
        return None
    taken = set().union(*(k.labels for k in free))
    left = {l: s for l, s in selectors.items() if l not in taken}
    return left or None


def _solve_round(eng: CdclSolver, selectors: Dict[int, int],
                 budget: Optional[int], disjoint: bool,
                 cores: List[CoreLabels]) -> Optional[Assignment]:
    """One round's SAT calls under ``selectors`` (ascending label order,
    the assumption order), after the round's free cores in ``cores``.
    Appends the cores found, in order, and returns the model of the
    round's last call when it was satisfiable.  With ``disjoint`` the
    solver is asked again without the failed selectors until it answers
    SAT or none is left; without, the round stops at its first core."""
    label_of = {s: l for l, s in selectors.items()}
    assumptions = list(selectors.values())
    while True:
        out = eng.solve(assumptions, budget)
        if out.sat:
            return out.model
        cores.append(extract_core_labels(out.failed_assumptions, label_of))
        failed = out.failed_assumptions
        assumptions = [a for a in assumptions if a not in failed]
        if not (disjoint and assumptions):
            return None


# ---------------------------------------------------------------------------
# main loop


def _min_cost_hitting_set(families: Iterable[FrozenSet[int]],
                          weights: Dict[int, int],
                          cap: Optional[int] = None
                          ) -> Optional[FrozenSet[int]]:
    """Cheapest label set intersecting every family, or None when none
    costs less than ``cap``.

    Families that share no label, directly or through others, are hit
    independently, so each such component gets its own branch and bound;
    a singleton family is a component of its own once supersets are
    dropped.  A component's search is capped at what the others leave of
    ``cap``: the cheapest sets of those before it, and the lower bounds
    of those after.
    """
    fams = sorted({frozenset(f) for f in families},
                  key=lambda f: (len(f), sorted(f)))
    mins: List[FrozenSet[int]] = []
    # kept families filed under their least label: a kept subset of f is
    # filed under a label of f, so f meets only the kept families there
    kept: Dict[int, List[FrozenSet[int]]] = {}
    for f in fams:
        if not any(g <= f for l in f for g in kept.get(l, ())):
            mins.append(f)
            kept.setdefault(min(f), []).append(f)
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
    floors = [_hitting_bound(comp, weights) for comp in components.values()]
    rest, spent = sum(floors), 0
    out: Set[int] = set()
    for comp, floor in zip(components.values(), floors):
        rest -= floor
        hit = _component_hitting_set(
            comp, weights, floor, None if cap is None else cap - spent - rest)
        if hit is None:
            return None
        out |= hit
        spent += sum(weights[l] for l in hit)
    return frozenset(out)


def _hitting_bound(families: Iterable[FrozenSet[int]],
                   weights: Dict[int, int]) -> int:
    """A lower bound on the cost of hitting ``families``: each family in
    turn takes the least weight its labels have left, and that much is
    taken from each of them.  A hitting set pays for every family it
    hits out of its labels' weights, so it costs at least the sum."""
    left: Dict[int, int] = {}
    total = 0
    for f in families:
        d = min(left.get(l, weights[l]) for l in f)
        total += d
        for l in f:
            left[l] = left.get(l, weights[l]) - d
    return total


def _component_hitting_set(mins: List[FrozenSet[int]],
                           weights: Dict[int, int], floor: int,
                           cap: Optional[int]) -> Optional[FrozenSet[int]]:
    """Depth-first branch and bound on an explicit stack.  A node has
    labels chosen and labels ruled out; it branches on the unhit family
    with the fewest labels left, taking each in turn, cheapest first,
    with those before it ruled out, so no set is reached twice.  A node
    whose cost plus ``_hitting_bound`` of the families left reaches the
    best cost so far, or ``cap``, is pruned; the first set found at the
    optimal cost wins, and the search ends on one that costs ``floor``,
    the bound at the root.  None when no set costs less than ``cap``."""
    if len(mins) == 1:  # a lone family: its cheapest label, no search
        l = min(mins[0], key=lambda x: (weights[x], x))
        return frozenset([l]) if cap is None or weights[l] < cap else None
    best: Optional[FrozenSet[int]] = None
    best_cost = cap
    stack = [(frozenset(), frozenset(), 0)]
    while stack:
        chosen, ruled_out, cost = stack.pop()
        left = [f - ruled_out for f in mins if not f & chosen]
        if not all(left) or best_cost is not None and \
                cost + _hitting_bound(left, weights) >= best_cost:
            continue
        if not left:
            best, best_cost = chosen, cost
            if cost == floor:
                break
            continue
        f = min(left, key=len)
        labels = sorted(f, key=lambda x: (weights[x], x))
        for i in reversed(range(len(labels))):
            stack.append((chosen | {labels[i]}, ruled_out | set(labels[:i]),
                          cost + weights[labels[i]]))
    return best


def _certify(orig: LCNF, tau: Dict[int, int],
             cap: Optional[int] = None) -> Optional[MaxSatSolution]:
    """A model's charge: the cheapest label removal that leaves every
    clause it falsifies removed, or None when none costs less than
    ``cap``."""
    falsified = [c for c in orig.clauses
                 if not clause_satisfied(c.lits, tau)]
    if any(c.hard for c in falsified):
        raise RuntimeError("model falsifies a hard clause")
    removed = _min_cost_hitting_set([c.labels for c in falsified],
                                    orig.label_weights, cap)
    if removed is None:
        return None
    return MaxSatSolution(model=tau, cost=cost_of_labels(orig, removed),
                          falsified=removed)


# a clause with its encoding, as ``_enter`` takes it
Entry = Tuple[LabelledClause, Encoded]


def _encoded(clauses: Iterable[LabelledClause],
             selectors: Dict[int, int]) -> List[Entry]:
    """Clauses in ``sort_key`` order, each ``guarded`` by its labels'
    selectors and encoded for ``load``."""
    return [(c, encode(guarded(c, selectors)))
            for c in sorted(clauses, key=LabelledClause.sort_key)]


def _enter(working: Working, carrying: Dict[int, Set[LabelledClause]],
           empty: Empty, entries: List[Entry]) -> List[Encoded]:
    """Put clauses with their encodings, given in ``sort_key`` order,
    into the working formula, each filed in ``carrying`` under its
    labels and, without literals, in ``empty``; return the encodings in
    that order."""
    batch = []
    for c, enc in entries:
        working[c] = enc
        batch.append(enc)
        for m in c.labels:
            if m in carrying:
                carrying[m].add(c)
            else:
                carrying[m] = {c}
        if not c.lits:
            empty[c] = None
    return batch


def solve_lcnf(phi: LCNF, mode: str = "noninc",
               conflict_budget: Optional[int] = None,
               trace: Optional[Callable[[str], None]] = None) -> SolveReport:
    """Core-guided optimum of a weighted labelled formula.

    ``conflict_budget`` bounds each individual SAT call; exhaustion
    yields status ``unknown``.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    used = phi.labels()
    nv_orig = phi.max_var()
    # label -> selector; a new label is numbered above every live one, so
    # insertion order stays ascending label order
    selectors = selector_map(used, nv_orig + 1)

    stats = {"iterations": 0, "rounds": 0, "free_cores": 0,
             "load_events": 0, "clauses_loaded": 0, "solves": 0,
             "conflicts": 0, "restarts": 0, "minimized_literals": 0}
    variables = count(nv_orig + 1 + len(selectors))
    label_ids = count(max(phi.label_weights, default=0) + 1)
    incremental = mode == "inc"

    weight = {l: phi.label_weights[l] for l in selectors}
    working: Working = {}
    # label -> the working clauses that carry it
    carrying: Dict[int, Set[LabelledClause]] = {}
    empty: Empty = {}
    eng = _fresh_solver(nv_orig, stats, _enter(
        working, carrying, empty,
        _encoded([c for c in phi.clauses if c.hard], selectors)))

    def finish(status: str, solution=None) -> SolveReport:
        _count(stats, eng)
        return SolveReport(status, solution, stats)

    try:
        hard = eng.solve((), conflict_budget)
    except BudgetExceededError:
        return finish("unknown")
    if not hard.sat:
        return finish("unsat-hard")
    # the clauses the live solver lacks, loaded by ``inc`` right before
    # its next SAT call; the soft clauses come first
    pending = _enter(working, carrying, empty,
                     _encoded([c for c in phi.clauses if not c.hard],
                              selectors))

    # every bound is a sum of these weights, so they must sum within the cap
    add_weights(*(phi.label_weights[l] for l in used))
    lb = 0
    best: Optional[MaxSatSolution] = None

    def charge(model: Assignment) -> None:
        """Keep the model if its cheapest removal undercuts the best."""
        nonlocal best
        tau = {v: model.get(v, 0) for v in range(1, nv_orig + 1)}
        sol = _certify(phi, tau, None if best is None else best.cost)
        if sol is not None:
            best = sol
            if trace is not None:
                trace(f"upper bound {sol.cost}")

    def take(new: List[CoreLabels], kind: str) -> List[int]:
        """Raise the bound by each core's minimum weight; return those."""
        nonlocal lb
        w_mins = []
        for core in new:
            stats["iterations"] += 1
            w_min = min([weight[l] for l in core.labels])
            w_mins.append(w_min)
            lb = add_weights(lb, w_min)
            if trace is not None:
                trace(f"iteration {stats['iterations']}: {kind} "
                      f"{len(core.labels)}, min weight {w_min}, "
                      f"lower bound {lb}")
        return w_mins

    def relax(core: CoreLabels, w_min: int) -> None:
        """Relax every clause of the core's labels, splitting off a twin
        worth ``w_min`` from a heavier label, and add the exactly-one
        constraint over the relaxation variables, all onto ``pending``."""
        relaxation_vars: List[int] = []
        for l in sorted(core.labels):
            r = next(variables)
            relaxation_vars.append(r)
            carried = carrying[l]
            old = selectors[l]
            if weight[l] > w_min:
                # split: the label keeps its clauses at reduced weight;
                # a twin label worth w_min owns the relaxed copies
                nl = next(label_ids)
                weight[l] -= w_min
                weight[nl] = w_min
            else:
                nl = l
            selectors[nl] = next(variables)
            # r is fresh, so each copy's literals stay canonical
            copies = [LabelledClause(c.lits + (r,), c.labels if nl == l
                                     else c.labels - {l} | {nl})
                      for c in carried]
            if nl == l:
                carrying[l] = set()
                for c in carried:
                    del working[c]
                    for m in c.labels:
                        carrying[m].discard(c)
                    if not c.lits:
                        del empty[c]
                # the unit finalizes the old selector
                pending.append(encode((-old,)))
            pending.extend(_enter(working, carrying, empty,
                                  _encoded(copies, selectors)))

        pending.extend(_enter(working, carrying, empty, _encoded(
            [LabelledClause(c, frozenset())
             for c in encode_equals1(relaxation_vars).clauses], selectors)))

    charge(hard.model)
    cores: List[CoreLabels] = []
    w_mins: List[int] = []
    while lb < best.cost:
        # the last round's cores are label-disjoint, so relaxing one
        # leaves the weights of the others' labels, and so their
        # minimum, as taken
        for core, w_min in zip(cores, w_mins):
            relax(core, w_min)
        stats["rounds"] += 1
        cores = _free_cores(empty, selectors)
        free = len(cores)
        stats["free_cores"] += free
        w_mins = take(cores, "free core")
        asked = _left_to_ask(selectors, cores, incremental)
        if asked is not None and lb < best.cost:
            if incremental:
                eng.load(pending)
            else:
                # release the last solver before building the next:
                # building while the old one is still alive measurably
                # slows the run
                _count(stats, eng)
                del eng
                eng = _fresh_solver(nv_orig, stats, list(working.values()))
            pending = []
            try:
                model = _solve_round(eng, asked, conflict_budget,
                                     not incremental, cores)
            except BudgetExceededError:
                return finish("unknown")
            w_mins += take(cores[free:], "core")
            if model is not None:
                charge(model)
        if trace is not None:
            trace(f"round {stats['rounds']}: {len(cores)} cores, "
                  f"lower bound {lb}")
        if not cores:
            break
    # no model costs less than the bound, and a round without cores
    # answered SAT with every selector assumed, at the bound's cost
    if best.cost != lb:
        raise RuntimeError(
            f"accumulated bound {lb} does not match the cheapest "
            f"removal set of a model ({best.cost})")
    return finish("optimum", best)
