import random
import re
import zlib

import pytest

from labelmax import solver
from labelmax.engine import CdclSolver, SolveOutcome, encode
from labelmax.model import (LCNF, WCNF, LabelledClause, cost_of_labels,
                            induced_subformula, lclause, lcnf_from_wcnf,
                            lcnf_satisfied)
from labelmax.oracle import (brute_force_lcnf_maxsat, brute_force_maxsat,
                             minimal_hitting_sets, random_lcnf, random_wcnf)
from labelmax.solver import (CoreLabels, _min_cost_hitting_set,
                             extract_core_labels, solve_lcnf)


def unit_soft_formula():
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


def optimum(phi, algorithm, mode):
    report = solve_lcnf(phi, algorithm, mode)
    assert report.status == "optimum"
    return report.solution


def assert_valid(phi, sol):
    """The solution contract: model fits the retained part, cost matches."""
    keep = phi.labels() - sol.falsified
    assert lcnf_satisfied(induced_subformula(phi, keep), sol.model)
    assert cost_of_labels(phi, sol.falsified) == sol.cost


# ---------------------------------------------------------------------------
# core extraction


def test_extract_core_maps_selectors_to_labels():
    out = SolveOutcome("UNSAT", failed_assumptions=frozenset([11, 12]))
    core = extract_core_labels(out, {11: 2, 12: 3})
    assert core == CoreLabels(frozenset([2, 3]))
    single = SolveOutcome("UNSAT", failed_assumptions=frozenset([14]))
    assert extract_core_labels(single, {14: 1}).labels == frozenset([1])


def test_extract_core_rejects_sat_and_empty():
    with pytest.raises(ValueError):
        extract_core_labels(SolveOutcome("SAT", model={}), {})
    with pytest.raises(RuntimeError):
        extract_core_labels(SolveOutcome("UNSAT"), {11: 1})


# ---------------------------------------------------------------------------
# pinned end-to-end optima


@pytest.mark.parametrize("mode", ["noninc", "inc"])
def test_one_of_two_contradicting_units_falls(mode):
    f = WCNF()
    f.add_soft([1], 1)
    f.add_soft([-1], 1)
    sol = optimum(lcnf_from_wcnf(f), "fumalik", mode)
    assert sol.cost == 1


@pytest.mark.parametrize("mode", ["noninc", "inc"])
def test_unit_soft_formula_costs_two(mode):
    phi = lcnf_from_wcnf(unit_soft_formula())
    sol = optimum(phi, "fumalik", mode)
    assert sol.cost == 2
    assert_valid(phi, sol)


@pytest.mark.parametrize("mode", ["noninc", "inc"])
def test_labelled_example_costs_two(mode):
    phi = labelled_example()
    sol = optimum(phi, "fumalik", mode)
    assert sol.cost == 2
    assert sol.falsified == frozenset([2, 3])  # the unique cheapest removal
    assert_valid(phi, sol)


@pytest.mark.parametrize("mode", ["noninc", "inc"])
def test_weighted_picks_cheaper_unit(mode):
    f = WCNF()
    f.add_soft([1], 2)
    f.add_soft([-1], 3)
    sol = optimum(lcnf_from_wcnf(f), "wmsu1", mode)
    assert sol.cost == 2


@pytest.mark.parametrize("mode", ["noninc", "inc"])
def test_two_disjoint_contradictions(mode):
    f = WCNF()
    for lits in [(1,), (-1,), (3,), (-3,)]:
        f.add_soft(lits, 1)
    sol = optimum(lcnf_from_wcnf(f), "wmsu1", mode)
    assert sol.cost == 2


@pytest.mark.parametrize("mode", ["noninc", "inc"])
def test_hard_clause_forces_expensive_loss(mode):
    f = WCNF()
    f.add_hard([-1])
    f.add_soft([1], 5)
    sol = optimum(lcnf_from_wcnf(f), "wmsu1", mode)
    assert sol.cost == 5
    assert sol.model[1] == 0


@pytest.mark.parametrize("mode", ["noninc", "inc"])
def test_hard_unsat_reported_before_any_core(mode):
    f = WCNF()
    f.add_hard([1])
    f.add_hard([-1])
    f.add_soft([2], 1)
    report = solve_lcnf(lcnf_from_wcnf(f), "wmsu1", mode)
    assert report.status == "unsat-hard"
    assert report.solution is None
    assert report.stats["iterations"] == 0


def test_weighted_split_shares_clause_between_labels():
    # one clause under two labels of different weights: the split must
    # leave the expensive label constraining at reduced weight
    phi = LCNF(frozenset([
        lclause([1], [1]), lclause([-1], [2]), lclause([1, 2], [2, 3]),
        lclause([-2], [3]),
    ]), {1: 1, 2: 4, 3: 2})
    expect = brute_force_lcnf_maxsat(phi)
    assert expect.cost == 3  # removing {1, 3} beats removing {2}
    for mode in ("noninc", "inc"):
        sol = optimum(phi, "wmsu1", mode)
        assert sol.cost == 3
        assert_valid(phi, sol)


def test_fumalik_rejects_weighted_input():
    f = WCNF()
    f.add_soft([1], 2)
    with pytest.raises(ValueError):
        solve_lcnf(lcnf_from_wcnf(f), "fumalik")


def test_unknown_mode_and_algorithm_rejected():
    phi = lcnf_from_wcnf(unit_soft_formula())
    with pytest.raises(ValueError):
        solve_lcnf(phi, mode="parallel")
    with pytest.raises(ValueError):
        solve_lcnf(phi, algorithm="wmsu3")


# ---------------------------------------------------------------------------
# random agreement with the oracle


@pytest.mark.parametrize("mode", ["noninc", "inc"])
def test_random_wcnf_agreement(mode):
    for seed in range(120):
        f = random_wcnf(seed)
        phi = lcnf_from_wcnf(f)
        expect = brute_force_maxsat(f)
        assert expect is not None  # generator plants a hard-part model
        sol = optimum(phi, "wmsu1", mode)
        assert sol.cost == expect.cost, seed
        assert_valid(phi, sol)
        assert f.cost_of(sol.model) == sol.cost, seed


@pytest.mark.parametrize("mode", ["noninc", "inc"])
def test_random_lcnf_agreement(mode):
    for seed in range(80):
        phi = random_lcnf(seed)
        expect = brute_force_lcnf_maxsat(phi)
        sol = optimum(phi, "wmsu1", mode)
        assert sol.cost == expect.cost, seed
        assert_valid(phi, sol)


def test_unit_weight_instances_agree_across_algorithms():
    for seed in range(40):
        f = random_wcnf(seed, max_weight=1)
        phi = lcnf_from_wcnf(f)
        costs = {optimum(phi, "fumalik", m).cost for m in ("noninc", "inc")}
        costs |= {optimum(phi, "wmsu1", m).cost for m in ("noninc", "inc")}
        assert len(costs) == 1, seed
        assert costs.pop() == brute_force_maxsat(f).cost, seed


# ---------------------------------------------------------------------------
# driver behavior: loads, traces, budgets


def test_incremental_mode_loads_clauses_once():
    phi = labelled_example()
    noninc = solve_lcnf(phi, "wmsu1", "noninc")
    inc = solve_lcnf(phi, "wmsu1", "inc")
    assert noninc.solution.cost == inc.solution.cost
    assert inc.stats["load_events"] == 1
    # hard check, then one fresh solver per round, the final one included
    assert noninc.stats["load_events"] == 1 + noninc.stats["rounds"]
    assert noninc.stats["load_events"] > inc.stats["load_events"]


class _RelaxationCounter:
    """Counts, between the rounds of one run, the splits (labels new to
    ``selectors``) and the in-place relaxations (labels whose selector
    changed)."""

    def __init__(self):
        self.splits = self.inplace = 0
        self._live = self._seen = None

    def round(self, selectors):
        if selectors is self._live:
            self.splits += len(selectors.keys() - self._seen.keys())
            self.inplace += sum(selectors[l] != s
                                for l, s in self._seen.items())
        self._live, self._seen = selectors, dict(selectors)


class _RunSpy:
    """Captures, from ``solver._enter``, the working formula, its label
    index and the live selectors of a run: the same three dicts serve
    the whole run."""

    def __init__(self, monkeypatch):
        self.working = self.carrying = self.selectors = None
        enter = solver._enter

        def spy_enter(working, carrying, clauses, selectors):
            self.working, self.carrying = working, carrying
            self.selectors = selectors
            return enter(working, carrying, clauses, selectors)

        monkeypatch.setattr(solver, "_enter", spy_enter)


def test_noninc_loads_each_fresh_solver_with_fresh_encodings(monkeypatch):
    """Each fresh ``noninc`` solver gets one ``load`` batch: the working
    formula in entry order, each clause with one negated selector
    per label, exactly as encoding it from scratch gives, on runs that
    both split labels and relax them in place."""
    loaded = []  # (solver, batch)
    relaxations = _RelaxationCounter()
    run = _RunSpy(monkeypatch)
    solve_round = solver._solve_round
    load = CdclSolver.load

    def spy_load(eng, batch):
        loaded.append((eng, batch))
        return load(eng, batch)

    def spy_round(eng, selectors, budget, disjoint):
        assert selectors is run.selectors
        relaxations.round(selectors)
        want = [encode(list(c.lits) +
                       [-selectors[m] for m in sorted(c.labels)])
                for c in run.working]
        # a fresh solver that took this one batch
        assert eng.stats["solves"] == 0
        assert [b for e, b in loaded if e is eng] == [want]
        loaded.clear()
        return solve_round(eng, selectors, budget, disjoint)

    monkeypatch.setattr(CdclSolver, "load", spy_load)
    monkeypatch.setattr(solver, "_solve_round", spy_round)
    phis = ([lcnf_from_wcnf(random_wcnf(seed, max_weight=4))
             for seed in range(40)] +
            [random_lcnf(seed, nlabels=8) for seed in range(40)])
    for phi in phis:
        expect = brute_force_lcnf_maxsat(phi)
        report = solve_lcnf(phi, mode="noninc")
        if expect is None:
            assert report.status == "unsat-hard"
        else:
            assert report.solution.cost == expect.cost
        loaded.clear()
    assert min(relaxations.splits, relaxations.inplace) >= 20, \
        vars(relaxations)


def _label_index(working):
    index = {}
    for c in working:
        for m in c.labels:
            index.setdefault(m, set()).add(c)
    return index


def _refuted(clauses):
    eng = CdclSolver()
    eng.load([encode(c.lits) for c in clauses])
    return not eng.solve().sat


def test_noninc_round_cores_are_disjoint_and_stay_cores(monkeypatch):
    """Each ``noninc`` round yields pairwise label-disjoint cores drawn
    from the live labels, and relaxing the earlier cores of a round
    leaves each later one a core: the hard clauses plus the working
    clauses labelled within it stay unsatisfiable.  Costs equal the
    oracle's on weighted instances that split labels."""
    run = _RunSpy(monkeypatch)
    solve_round = solver._solve_round
    equals1 = solver.encode_equals1
    pending = []  # (working formula, labels) of cores not yet relaxed
    seen = {"multi": 0}
    relaxations = _RelaxationCounter()

    def spy_round(eng, selectors, budget, disjoint):
        assert selectors is run.selectors and disjoint
        relaxations.round(selectors)
        live = set(selectors)
        assert list(selectors) == sorted(selectors)
        assert run.carrying == _label_index(run.working)
        cores, model = solve_round(eng, selectors, budget, disjoint)
        assert (model is None) == bool(cores)
        for i, core in enumerate(cores):
            assert core.labels <= live
            assert all(not core.labels & c.labels for c in cores[:i])
        seen["multi"] += len(cores) > 1
        pending[:] = [(run.working, core.labels) for core in cores]
        return cores, model

    def spy_equals1(variables):
        pending.pop(0)  # the core just relaxed
        if pending:
            working, labels = pending[0]
            assert _refuted(c for c in working if c.labels <= labels)
        return equals1(variables)

    monkeypatch.setattr(solver, "_solve_round", spy_round)
    monkeypatch.setattr(solver, "encode_equals1", spy_equals1)
    for seed in range(30):
        f = random_wcnf(seed, nvars=8, nclauses=30, max_weight=4,
                        hard_fraction=0.1)
        sol = optimum(lcnf_from_wcnf(f), "wmsu1", "noninc")
        assert sol.cost == brute_force_maxsat(f).cost, seed
        phi = random_lcnf(seed, nvars=6, nclauses=30, nlabels=12,
                          hard_fraction=0.1)
        sol = optimum(phi, "wmsu1", "noninc")
        assert sol.cost == brute_force_lcnf_maxsat(phi).cost, seed
        assert not pending
    assert seen["multi"] >= 20 and relaxations.splits >= 20, \
        (seen, relaxations.splits)


def _soft_pigeons(p, h):
    """Pigeon i sits in a hole (soft, weight 1 + i % 3); no two pigeons
    share a hole (hard)."""
    f = WCNF()
    v = lambda i, j: i * h + j + 1  # noqa: E731
    for i in range(p):
        f.add_soft([v(i, j) for j in range(h)], 1 + i % 3)
    for j in range(h):
        for a in range(p):
            for b in range(a + 1, p):
                f.add_hard([-v(a, j), -v(b, j)])
    return f


# (kind, seed, cost, iterations, conflicts, solves, clauses loaded, CRC of
# the model), recorded with the engine that saves phases, minimizes
# learnt clauses and restarts on the Luby sequence; costs are the
# optima, the other fields pin the search
INC_PINS = [
    ("wcnf", 0, 9, 7, 1, 9, 109, 1796908317),
    ("wcnf", 1, 8, 5, 3, 7, 138, 2861857501),
    ("wcnf", 2, 8, 8, 1, 10, 313, 2699443385),
    ("wcnf", 3, 10, 7, 2, 9, 92, 2641720432),
    ("wcnf", 4, 1, 1, 0, 3, 58, 2428972196),
    ("wcnf", 5, 12, 4, 0, 6, 71, 2861857501),
    ("lcnf", 0, 5, 4, 2, 6, 433, 1638295203),
    ("lcnf", 1, 5, 3, 0, 5, 82, 1211730713),
    ("lcnf", 2, 5, 2, 0, 4, 55, 2254829286),
    ("lcnf", 3, 4, 3, 0, 5, 218, 3641350029),
    ("lcnf", 4, 1, 1, 0, 3, 53, 3604493746),
    ("lcnf", 5, 2, 2, 2, 4, 81, 2275908817),
    ("pigeon", 4, 2, 2, 5, 4, 38, 468213067),
    ("pigeon", 5, 2, 2, 16, 4, 73, 2073198877),
    ("pigeon", 6, 2, 2, 68, 4, 133, 3063210389),
    ("pigeon", 7, 2, 2, 481, 4, 187, 2440576270),
]


# (kind, seed, cost, iterations, rounds, conflicts, solves, clauses
# loaded, load events, CRC of the model) of the same instances in
# ``noninc``, recorded with the same engine
NONINC_PINS = [
    ("wcnf", 0, 9, 7, 4, 2, 12, 323, 5, 1796908317),
    ("wcnf", 1, 8, 5, 4, 3, 10, 300, 5, 1796908317),
    ("wcnf", 2, 8, 6, 5, 4, 12, 585, 6, 2699443385),
    ("wcnf", 3, 10, 7, 4, 2, 12, 261, 5, 2641720432),
    ("wcnf", 4, 1, 1, 2, 0, 4, 96, 3, 2428972196),
    ("wcnf", 5, 12, 4, 2, 0, 7, 103, 3, 2861857501),
    ("lcnf", 0, 5, 4, 5, 2, 10, 658, 6, 1617169556),
    ("lcnf", 1, 5, 3, 3, 0, 7, 139, 4, 1211730713),
    ("lcnf", 2, 5, 2, 2, 0, 5, 71, 3, 2254829286),
    ("lcnf", 3, 4, 3, 4, 0, 8, 371, 5, 1053362120),
    ("lcnf", 4, 1, 1, 2, 0, 4, 70, 3, 20624874),
    ("lcnf", 5, 2, 2, 2, 3, 5, 86, 3, 2275908817),
    ("pigeon", 4, 2, 2, 3, 6, 6, 79, 4, 468213067),
    ("pigeon", 5, 2, 2, 3, 23, 5, 175, 4, 3892840894),
    ("pigeon", 6, 2, 2, 3, 93, 5, 316, 4, 3229588162),
    ("pigeon", 7, 2, 2, 3, 728, 5, 524, 4, 1063979363),
]


def _pinned_run(kind, seed, mode):
    if kind == "wcnf":
        phi = lcnf_from_wcnf(random_wcnf(seed, nvars=8, nclauses=40,
                                         max_weight=4, hard_fraction=0.1))
    elif kind == "lcnf":
        phi = random_lcnf(seed, nvars=6, nclauses=30, nlabels=10,
                          hard_fraction=0.1)
    else:
        phi = lcnf_from_wcnf(_soft_pigeons(seed, seed - 2))
    report = solve_lcnf(phi, "wmsu1", mode)
    crc = zlib.crc32(repr(sorted(report.solution.model.items())).encode())
    return report.solution.cost, report.stats, crc


@pytest.mark.parametrize("pin", INC_PINS, ids=lambda p: f"{p[0]}{p[1]}")
def test_inc_search_is_pinned(pin):
    kind, seed = pin[:2]
    cost, st, crc = _pinned_run(kind, seed, "inc")
    assert (kind, seed, cost, st["iterations"], st["conflicts"],
            st["solves"], st["clauses_loaded"], crc) == pin
    assert st["load_events"] == 1
    assert st["rounds"] == st["iterations"] + 1


@pytest.mark.parametrize("pin", NONINC_PINS, ids=lambda p: f"{p[0]}{p[1]}")
def test_noninc_search_is_pinned(pin):
    kind, seed = pin[:2]
    cost, st, crc = _pinned_run(kind, seed, "noninc")
    assert (kind, seed, cost, st["iterations"], st["rounds"],
            st["conflicts"], st["solves"], st["clauses_loaded"],
            st["load_events"], crc) == pin


@pytest.mark.parametrize("mode", ["inc", "noninc"])
def test_engine_restarts_and_minimization_reach_the_run_stats(mode):
    _, st, _ = _pinned_run("pigeon", 7, mode)
    assert st["restarts"] > 0 and st["minimized_literals"] > 0


def test_budget_tripping_inside_a_round_reports_unknown():
    """Two contradicting units come first in label order, so the round's
    first call fails on them by propagation alone; the follow-up call
    must refute a soft pigeonhole, which needs conflicts."""
    f = WCNF()
    f.add_soft([7], 1)
    f.add_soft([-7], 1)
    for lits in [(1, 2), (3, 4), (5, 6),
                 (-1, -3), (-1, -5), (-3, -5),
                 (-2, -4), (-2, -6), (-4, -6)]:
        f.add_soft(lits, 1)
    phi = lcnf_from_wcnf(f)
    assert optimum(phi, "wmsu1", "noninc").cost == 2
    report = solve_lcnf(phi, "wmsu1", "noninc", conflict_budget=0)
    assert report.status == "unknown" and report.solution is None
    st = report.stats
    # the hard check and one round: both loads counted, nothing relaxed
    assert (st["rounds"], st["load_events"], st["iterations"]) == (1, 2, 0)
    assert st["solves"] == 3
    assert st["clauses_loaded"] == phi.size()


def test_trace_reports_monotone_lower_bound():
    for mode in ("noninc", "inc"):
        lines = []
        report = solve_lcnf(labelled_example(), "wmsu1", mode,
                            trace=lines.append)
        cores = [l for l in lines if l.startswith("iteration ")]
        assert len(cores) == report.stats["iterations"] >= 2
        bounds = [int(line.rsplit(" ", 1)[1]) for line in cores]
        assert bounds == sorted(bounds) and len(set(bounds)) == len(bounds)
        assert bounds[-1] == report.solution.cost
        # one line per round, right after its cores: count and bound
        rounds = [(i, *map(int, m.groups())) for i, m in enumerate(
            re.fullmatch(r"round (\d+): (\d+) cores, lower bound (\d+)", l)
            for l in lines) if m]
        assert len(rounds) == report.stats["rounds"]
        assert len(rounds) + len(cores) == len(lines)
        seen = 0
        for k, (i, number, n, b) in enumerate(rounds, start=1):
            seen += n
            assert number == k and i == seen + k - 1
            assert b == (bounds[seen - 1] if seen else 0)
        assert seen == len(cores) and rounds[-1][2] == 0


def test_budget_exhaustion_reports_unknown():
    # three pigeons, two holes, all soft: refuting the first iteration's
    # assumptions takes real conflicts, so a zero budget must trip
    f = WCNF()
    for lits in [(1, 2), (3, 4), (5, 6),
                 (-1, -3), (-1, -5), (-3, -5),
                 (-2, -4), (-2, -6), (-4, -6)]:
        f.add_soft(lits, 1)
    phi = lcnf_from_wcnf(f)
    report = solve_lcnf(phi, "wmsu1", "noninc", conflict_budget=0)
    assert report.status == "unknown"
    assert report.solution is None


@pytest.mark.parametrize("mode", ["noninc", "inc"])
@pytest.mark.parametrize("hard", [True, False], ids=["hard-check", "round"])
def test_budget_exhaustion_counts_the_live_solver(mode, hard):
    """Three pigeons in two holes need conflicts to refute, so a zero
    budget trips at the first one: hard, in the hard check; soft, in the
    first call of round 1, after a hard check without clauses.  Either
    way the run is ``unknown`` and its stats count the solver that was
    live when the budget ran out."""
    f = WCNF()
    add = f.add_hard if hard else (lambda lits: f.add_soft(lits, 1))
    for lits in [(1, 2), (3, 4), (5, 6),
                 (-1, -3), (-1, -5), (-3, -5),
                 (-2, -4), (-2, -6), (-4, -6)]:
        add(lits)
    f.add_soft([7], 1)
    phi = lcnf_from_wcnf(f)
    report = solve_lcnf(phi, "wmsu1", mode, conflict_budget=0)
    assert report.status == "unknown" and report.solution is None
    st = report.stats
    if hard:  # nothing but the hard check's solver and its one call
        assert (st["rounds"], st["load_events"], st["solves"]) == (0, 1, 1)
        assert st["clauses_loaded"] == 9
    else:  # ``noninc`` built round 1's solver, ``inc`` kept its first
        loads = 2 if mode == "noninc" else 1
        assert (st["rounds"], st["load_events"], st["solves"]) == \
            (1, loads, 2)
        assert st["clauses_loaded"] == phi.size() == 10
    assert st["iterations"] == 0 and st["conflicts"] == 1


def test_all_hard_satisfiable_costs_zero():
    phi = LCNF(frozenset([lclause([1, 2]), lclause([-1])]), {})
    for mode in ("noninc", "inc"):
        sol = optimum(phi, "wmsu1", mode)
        assert sol.cost == 0
        assert sol.falsified == frozenset()
        assert lcnf_satisfied(phi, sol.model)


# ---------------------------------------------------------------------------
# certification's hitting-set search


def test_min_cost_hitting_set_is_cheapest_on_random_families():
    for seed in range(300):
        rng = random.Random(seed)
        labels = range(1, rng.randint(4, 10))
        weights = {l: rng.randint(1, 6) for l in labels}
        fams = [frozenset(rng.sample(labels, rng.randint(1, 3)))
                for _ in range(rng.randint(1, 8))]
        hit = _min_cost_hitting_set(fams, weights)
        assert all(f & hit for f in fams), seed
        best = min(sum(weights[l] for l in h)
                   for h in minimal_hitting_sets(fams))
        assert sum(weights[l] for l in hit) == best, seed


@pytest.mark.parametrize("fams", [
    [frozenset([2 * i + 1, 2 * i + 2]) for i in range(1500)],
    [frozenset([i]) for i in range(1, 1501)],
], ids=["disjoint-pairs", "singletons"])
def test_min_cost_hitting_set_of_many_families_needs_no_deep_recursion(fams):
    # one label chosen per family: the recursive search ran out of stack
    weights = {l: 1 + l % 3 for l in range(1, 3001)}
    hit = _min_cost_hitting_set(fams, weights)
    assert len(hit) == 1500 and all(f & hit for f in fams)
    assert sum(weights[l] for l in hit) == \
        sum(min(weights[l] for l in f) for f in fams)
