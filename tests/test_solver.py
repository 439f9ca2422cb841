import random

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
    # hard check, one rebuild per core, and the final satisfiable solve
    assert noninc.stats["load_events"] == noninc.stats["iterations"] + 2
    assert noninc.stats["load_events"] > inc.stats["load_events"]


def test_noninc_loads_each_fresh_solver_with_fresh_encodings(monkeypatch):
    """Each fresh ``noninc`` solver gets one ``load`` batch: the working
    formula in ``sort_key`` order, each clause with one negated selector
    per label, exactly as encoding it from scratch gives, on runs that
    both split labels and relax them in place."""
    loaded = []
    relaxations = {"on_split": 0, "on_inplace": 0}
    iterate = solver._NonIncDriver.solve_iteration
    load = CdclSolver.load

    def spy_load(eng, batch):
        loaded.append(batch)
        return load(eng, batch)

    def spy_iteration(driver, working, states, budget):
        want = [encode(list(c.lits) +
                       [-states[m].selector for m in sorted(c.labels)])
                for c in sorted(working, key=LabelledClause.sort_key)]
        before = len(loaded)
        out = iterate(driver, working, states, budget)
        assert loaded[before:] == [want]
        return out

    def counting(hook):
        def spy(*args):
            relaxations[hook] += 1
        return spy

    monkeypatch.setattr(CdclSolver, "load", spy_load)
    monkeypatch.setattr(solver._NonIncDriver, "solve_iteration",
                        spy_iteration)
    for hook in relaxations:
        monkeypatch.setattr(solver._NonIncDriver, hook, counting(hook))
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
    assert min(relaxations.values()) >= 20, relaxations


def test_trace_reports_monotone_lower_bound():
    lines = []
    report = solve_lcnf(labelled_example(), "wmsu1", "noninc",
                        trace=lines.append)
    assert len(lines) == report.stats["iterations"] >= 2
    bounds = [int(line.rsplit(" ", 1)[1]) for line in lines]
    assert bounds == sorted(bounds) and len(set(bounds)) == len(bounds)
    assert bounds[-1] == report.solution.cost


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
