import random
import re
import time
import zlib

import pytest

from labelmax import solver
from labelmax.cli import run_pipeline
from labelmax.engine import CdclSolver, encode
from labelmax.lcnf_prep import preprocess_lcnf
from labelmax.model import (LCNF, WCNF, MaxSatSolution, cost_of_labels,
                            guarded, lcnf_from_wcnf, reconstruct)
from labelmax.oracle import brute_force_maxsat, random_wcnf
from labelmax.solver import (CoreLabels, _min_cost_hitting_set,
                             extract_core_labels, solve_lcnf)
from support import (brute_force_lcnf_maxsat, induced_subformula,
                     labelled_example, lclause, lcnf_satisfied,
                     minimal_hitting_sets, random_lcnf, relax_by_copies,
                     unit_pairs_wcnf, unit_soft_formula, with_unit_pairs)


def optimum(phi, mode):
    report = solve_lcnf(phi, mode)
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
    core = extract_core_labels(frozenset([11, 12]), {11: 2, 12: 3})
    assert core == CoreLabels(frozenset([2, 3]))
    assert extract_core_labels([14], {14: 1}).labels == frozenset([1])


def test_extract_core_rejects_an_empty_core():
    with pytest.raises(RuntimeError):
        extract_core_labels(frozenset(), {11: 1})


# ---------------------------------------------------------------------------
# pinned end-to-end optima


@pytest.mark.parametrize("mode", ["noninc", "inc"])
def test_one_of_two_contradicting_units_falls(mode):
    f = WCNF()
    f.add_soft([1], 1)
    f.add_soft([-1], 1)
    sol = optimum(lcnf_from_wcnf(f), mode)
    assert sol.cost == 1


@pytest.mark.parametrize("mode", ["noninc", "inc"])
def test_unit_soft_formula_costs_two(mode):
    phi = lcnf_from_wcnf(unit_soft_formula())
    sol = optimum(phi, mode)
    assert sol.cost == 2
    assert_valid(phi, sol)


@pytest.mark.parametrize("mode", ["noninc", "inc"])
def test_labelled_example_costs_two(mode):
    phi = labelled_example()
    sol = optimum(phi, mode)
    assert sol.cost == 2
    assert sol.falsified == frozenset([2, 3])  # the unique cheapest removal
    assert_valid(phi, sol)


@pytest.mark.parametrize("mode", ["noninc", "inc"])
def test_weighted_picks_cheaper_unit(mode):
    f = WCNF()
    f.add_soft([1], 2)
    f.add_soft([-1], 3)
    sol = optimum(lcnf_from_wcnf(f), mode)
    assert sol.cost == 2


@pytest.mark.parametrize("mode", ["noninc", "inc"])
def test_two_disjoint_contradictions(mode):
    f = WCNF()
    for lits in [(1,), (-1,), (3,), (-3,)]:
        f.add_soft(lits, 1)
    sol = optimum(lcnf_from_wcnf(f), mode)
    assert sol.cost == 2


@pytest.mark.parametrize("mode", ["noninc", "inc"])
def test_hard_clause_forces_expensive_loss(mode):
    f = WCNF()
    f.add_hard([-1])
    f.add_soft([1], 5)
    sol = optimum(lcnf_from_wcnf(f), mode)
    assert sol.cost == 5
    assert sol.model[1] == 0


@pytest.mark.parametrize("mode", ["noninc", "inc"])
def test_hard_unsat_reported_before_any_core(mode):
    f = WCNF()
    f.add_hard([1])
    f.add_hard([-1])
    f.add_soft([2], 1)
    report = solve_lcnf(lcnf_from_wcnf(f), mode)
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
        sol = optimum(phi, mode)
        assert sol.cost == 3
        assert_valid(phi, sol)


def test_unknown_mode_and_algorithm_rejected():
    phi = lcnf_from_wcnf(unit_soft_formula())
    with pytest.raises(ValueError):
        solve_lcnf(phi, mode="parallel")
    # one algorithm: the loop takes no choice of one
    with pytest.raises(TypeError):
        solve_lcnf(phi, algorithm="wmsu1")


# ---------------------------------------------------------------------------
# random agreement with the oracle


@pytest.mark.parametrize("mode", ["noninc", "inc"])
def test_random_wcnf_agreement(mode):
    for seed in range(120):
        f = random_wcnf(seed)
        phi = lcnf_from_wcnf(f)
        expect = brute_force_maxsat(f)
        assert expect is not None  # generator plants a hard-part model
        sol = optimum(phi, mode)
        assert sol.cost == expect.cost, seed
        assert_valid(phi, sol)
        assert f.cost_of(sol.model) == sol.cost, seed


@pytest.mark.parametrize("mode", ["noninc", "inc"])
def test_random_lcnf_agreement(mode):
    for seed in range(80):
        phi = random_lcnf(seed)
        expect = brute_force_lcnf_maxsat(phi)
        sol = optimum(phi, mode)
        assert sol.cost == expect.cost, seed
        assert_valid(phi, sol)


@pytest.mark.parametrize("mode", ["noninc", "inc"])
def test_many_labels_agree_with_and_without_preprocessing(mode):
    # 12-16 labels in use and label sets of up to 5: the oracle's scan
    # stays within its 16-label cap
    for seed in range(60):
        phi = random_lcnf(seed, nvars=8, nclauses=36, nlabels=12 + seed % 5,
                          max_labelset=5)
        assert 12 <= len(phi.labels()) <= 16, seed
        expect = brute_force_lcnf_maxsat(phi)
        sol = optimum(phi, mode)
        assert sol.cost == expect.cost, seed
        assert_valid(phi, sol)
        reduced, stack = preprocess_lcnf(phi)
        red = optimum(reduced, mode)
        assert red.cost == expect.cost, seed
        # the lifted model fits the input's hard and retained clauses
        tau = reconstruct(stack, red.model, removed=red.falsified)
        assert_valid(phi, MaxSatSolution(tau, red.cost, red.falsified))


def test_unit_weight_instances_agree_across_modes():
    for seed in range(40):
        f = random_wcnf(seed, max_weight=1)
        phi = lcnf_from_wcnf(f)
        costs = {optimum(phi, m).cost for m in ("noninc", "inc")}
        assert len(costs) == 1, seed
        assert costs.pop() == brute_force_maxsat(f).cost, seed


# ---------------------------------------------------------------------------
# driver behavior: loads, traces, budgets


def test_incremental_mode_loads_clauses_once():
    phi = labelled_example()
    noninc = solve_lcnf(phi, "noninc")
    inc = solve_lcnf(phi, "inc")
    assert noninc.solution.cost == inc.solution.cost
    assert inc.stats["load_events"] == 1
    # the hard check, then one fresh solver per round: no round has free
    # cores, and the hard check's model costs more than the optimum
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
    """Captures, from ``solver._free_cores``, the live selectors and each
    round's cores: the list ``_free_cores`` returns, which
    ``_solve_round`` extends.  The same dict serves the whole run.  Each
    round's free cores must be the labels of the input's clauses without
    literals whose labels keep the selectors of round 1, taken in
    ``sort_key`` order while disjoint from those already taken.  Call
    ``start`` with each run's formula."""

    def __init__(self, monkeypatch):
        self.phi = self.first = self.selectors = None
        self.rounds = []  # (live labels, number of free cores, cores)
        free_cores = solver._free_cores

        def spy_free_cores(empty, selectors):
            self.selectors = selectors
            if not self.rounds:
                self.first = dict(selectors)
            assert empty == [c for c in self.phi.sorted_clauses()
                             if not c.lits and all(
                                 selectors[m] == self.first[m]
                                 for m in c.labels)]
            cores = free_cores(empty, selectors)
            taken, want = set(), []
            for c in empty:
                if not taken & c.labels:
                    taken |= c.labels
                    want.append(c.labels)
            assert [k.labels for k in cores] == want
            self.rounds.append((set(selectors), len(cores), cores))
            return cores

        monkeypatch.setattr(solver, "_free_cores", spy_free_cores)

    def start(self, phi):
        self.phi = phi
        self.rounds.clear()


def _with_empty_clauses(phi, seed):
    """``phi`` plus one to three clauses without literals, each labelled
    with one to three of its labels, or of label 1 when it uses none."""
    rng = random.Random(seed)
    labels = sorted(phi.labels()) or [1]
    weights = dict(phi.label_weights) or {1: rng.randint(1, 4)}
    empties = {lclause([], rng.sample(labels, min(len(labels),
                                                  rng.randint(1, 3))))
               for _ in range(rng.randint(1, 3))}
    return LCNF(phi.clauses | empties, weights)


def _free_core_instances(n):
    """Labelled formulas whose runs take free cores: preprocessed
    ``with_unit_pairs`` and ``unit_pairs_wcnf`` inputs, and random
    labelled formulas with clauses without literals added, each with
    its optimum from the oracle."""
    out = []
    for seed in range(n):
        for f in (with_unit_pairs(seed), unit_pairs_wcnf(seed, 3)):
            reduced, _ = preprocess_lcnf(lcnf_from_wcnf(f))
            out.append((reduced, brute_force_maxsat(f)))
        phi = _with_empty_clauses(
            random_lcnf(seed, nvars=6, nclauses=24, nlabels=10,
                        hard_fraction=0.1), seed)
        out.append((phi, brute_force_lcnf_maxsat(phi)))
    return out


def test_noninc_loads_each_fresh_solver_with_fresh_encodings(monkeypatch):
    """Each fresh ``noninc`` solver gets one ``load`` batch: the input's
    clauses in ``sort_key`` order, each with one negated selector of
    round 1 per label, exactly as encoding them from scratch gives,
    followed by every relaxation so far in order, on runs that both
    split labels and relax them in place.  A relaxation is one link per
    label, holding its relaxation variable, then the exactly-one clauses
    over those variables.  A round that begins with free cores asks
    under the selectors of the labels they leave, and builds no solver
    when they leave none."""
    loaded = []  # (solver, batch)
    asked = []  # the rounds of the current run that built a solver
    equals1 = []  # (variables, encoding) of each relaxation of the run
    relaxations = _RelaxationCounter()
    run = _RunSpy(monkeypatch)
    solve_round = solver._solve_round
    encode_equals1 = solver.encode_equals1
    load = CdclSolver.load
    seen = {"free, then asked": 0, "no solver": 0}

    def spy_load(eng, batch):
        loaded.append((eng, list(batch)))
        return load(eng, batch)

    def spy_equals1(variables):
        out = encode_equals1(variables)
        equals1.append((list(variables), out))
        return out

    def spy_round(eng, selectors, budget, disjoint, cores):
        live, free, round_cores = run.rounds[-1]
        assert cores is round_cores and len(cores) == free
        taken = set().union(*(k.labels for k in cores))
        assert selectors == {l: s for l, s in run.selectors.items()
                             if l not in taken}
        assert selectors or not cores
        seen["free, then asked"] += bool(cores)
        relaxations.round(run.selectors)
        want = [encode(list(c.lits) +
                       [-run.first[m] for m in sorted(c.labels)])
                for c in run.phi.sorted_clauses()]
        # a fresh solver that took this one batch
        assert eng.stats["solves"] == 0
        batches = [b for e, b in loaded if e is eng]
        assert len(batches) == 1
        batch = batches[0]
        for rs, out in equals1:
            links = batch[len(want):len(want) + len(rs)]
            assert len(links) == len(rs)
            for r, link in zip(rs, links):
                assert len(link) == 3 and r << 1 in link
            want += links + [encode(c) for c in sorted(out.clauses)]
        assert batch == want
        loaded.clear()
        asked.append(len(run.rounds))
        return solve_round(eng, selectors, budget, disjoint, cores)

    monkeypatch.setattr(CdclSolver, "load", spy_load)
    monkeypatch.setattr(solver, "_solve_round", spy_round)
    monkeypatch.setattr(solver, "encode_equals1", spy_equals1)
    phis = ([lcnf_from_wcnf(random_wcnf(seed, max_weight=4))
             for seed in range(40)] +
            [random_lcnf(seed, nlabels=8) for seed in range(40)])
    cases = ([(phi, brute_force_lcnf_maxsat(phi)) for phi in phis] +
             _free_core_instances(20))
    for phi, expect in cases:
        run.start(phi)
        asked.clear()
        equals1.clear()
        report = solve_lcnf(phi, mode="noninc")
        if expect is None:
            assert report.status == "unsat-hard"
        else:
            assert report.solution.cost == expect.cost
            st = report.stats
            # the hard check, then one solver per round that asked
            assert st["load_events"] == 1 + len(asked)
            assert st["rounds"] == len(run.rounds)
            assert st["free_cores"] == sum(r[1] for r in run.rounds)
            seen["no solver"] += st["rounds"] - len(asked)
        loaded.clear()
    assert min(relaxations.splits, relaxations.inplace) >= 20, \
        vars(relaxations)
    assert min(seen.values()) >= 10, seen


def _sat(batch, assumptions, load=CdclSolver.load):
    """Whether ``batch`` is satisfiable under ``assumptions`` in a fresh
    solver, loaded by the unpatched ``load`` whatever a spy replaces."""
    eng = CdclSolver()
    load(eng, batch)
    return eng.solve(assumptions).sat


def test_noninc_round_cores_are_disjoint_and_stay_cores(monkeypatch):
    """Each ``noninc`` round yields pairwise label-disjoint cores drawn
    from the live labels, its free cores first, and relaxing the earlier
    cores of a round leaves each later one a core: a fresh solver loaded
    with everything the loop has loaded, plus what it made since, stays
    unsatisfiable under that core's selectors.  Costs equal the oracle's
    on weighted instances that split labels, with and without clauses
    that have no literals."""
    run = _RunSpy(monkeypatch)
    solve_round = solver._solve_round
    equals1 = solver.encode_equals1
    encode_ = solver.encode
    load = CdclSolver.load
    relaxed = {}  # round index -> cores of it relaxed so far
    # the last solver's batch, the encodings the loop made since it was
    # loaded, and (length of those, core's selectors) to check there
    last, made, checks = [], [], []
    seen = {"multi": 0, "free": 0, "free and found": 0}
    relaxations = _RelaxationCounter()

    def spy_load(eng, batch):
        last[:] = batch
        del made[:]
        return load(eng, batch)

    def spy_encode(lits):
        made.append(encode_(lits))
        while checks and checks[0][0] == len(made):
            _, assumptions = checks.pop(0)
            assert not _sat(last + made, assumptions)
        return made[-1]

    def spy_round(eng, selectors, budget, disjoint, cores):
        assert disjoint
        relaxations.round(run.selectors)
        assert list(selectors) == sorted(selectors)
        model = solve_round(eng, selectors, budget, disjoint, cores)
        # the round ends on SAT, or when its cores leave no selector
        left = selectors.keys() - set().union(*(k.labels for k in cores))
        assert (model is None) == (not left)
        return model

    def spy_equals1(variables):
        k = len(run.rounds) - 1
        live, free, cores = run.rounds[k]
        i = relaxed[k] = relaxed.get(k, 0) + 1  # cores[i - 1] relaxed
        out = equals1(variables)
        if i < len(cores):
            # once cores[i - 1]'s exactly-one clauses are made
            checks.append((len(made) + len(out.clauses),
                           [run.selectors[l] for l in cores[i].labels]))
        return out

    def check(phi, expect):
        run.start(phi)
        relaxed.clear()
        del last[:], made[:]
        sol = optimum(phi, "noninc")
        assert sol.cost == expect.cost and not checks
        for live, free, cores in run.rounds:
            for j, core in enumerate(cores):
                assert core.labels <= live
                assert all(not core.labels & c.labels for c in cores[:j])
            seen["multi"] += len(cores) > 1
            seen["free"] += free > 0
            seen["free and found"] += 0 < free < len(cores)
        # every core of every round was relaxed but the last round's,
        # whose cores close the gap to the cheapest model
        assert [relaxed.get(k, 0) for k in range(len(run.rounds))] == \
            [len(cores) for _, _, cores in run.rounds[:-1]] + [0] * bool(
                run.rounds)

    monkeypatch.setattr(CdclSolver, "load", spy_load)
    monkeypatch.setattr(solver, "encode", spy_encode)
    monkeypatch.setattr(solver, "_solve_round", spy_round)
    monkeypatch.setattr(solver, "encode_equals1", spy_equals1)
    for seed in range(30):
        f = random_wcnf(seed, nvars=8, nclauses=30, max_weight=4,
                        hard_fraction=0.1)
        check(lcnf_from_wcnf(f), brute_force_maxsat(f))
        phi = random_lcnf(seed, nvars=6, nclauses=30, nlabels=12,
                          hard_fraction=0.1)
        check(phi, brute_force_lcnf_maxsat(phi))
    for phi, expect in _free_core_instances(30):
        check(phi, expect)
    assert seen["multi"] >= 20 and relaxations.splits >= 20, \
        (seen, relaxations.splits)
    assert min(seen.values()) >= 20, seen


def _relaxation_cases(n):
    """Labelled formulas whose runs relax labels, with their optima:
    random labelled ones, with and without clauses that have no
    literals, and random weighted ones; their weights split labels and
    relax some more than once."""
    for seed in range(n):
        phi = random_lcnf(seed, nvars=6, nclauses=24, nlabels=8,
                          hard_fraction=0.1)
        empties = _with_empty_clauses(phi, seed)
        f = random_wcnf(seed, nvars=6, nclauses=24, max_weight=4,
                        hard_fraction=0.1)
        yield phi, brute_force_lcnf_maxsat(phi).cost
        yield empties, brute_force_lcnf_maxsat(empties).cost
        yield lcnf_from_wcnf(f), brute_force_maxsat(f).cost


@pytest.mark.parametrize("mode", ["noninc", "inc"])
def test_relaxation_agrees_with_the_copy_rule(monkeypatch, mode):
    """Before each round's SAT calls, the clauses the loop has loaded
    into its solver and the copy rule of ``relax_by_copies``, driven
    with the same cores and guarded by the loop's selectors, are
    equisatisfiable under random subsets of the live selectors, each
    checked in a fresh solver.  The cores and the selectors come from
    spies on ``_free_cores`` and ``_solve_round``, what the loop loaded
    from a spy on ``CdclSolver.load``, and each core's relaxation
    variables from ``encode_equals1``, which the loop calls once per
    relaxed core."""
    rng = random.Random(1)
    loads = []  # (solver, batch) of the run
    rounds = []  # (number of free cores, cores) per round
    rs = []  # the relaxation variables of each relaxed core, in order
    run = {}  # "phi": the copy rule's formula, "done": cores it relaxed
    seen = {"split": 0, "relaxed again": 0, "free core relaxed": 0,
            "sat": 0, "unsat": 0}
    free_cores, solve_round = solver._free_cores, solver._solve_round
    equals1, load = solver.encode_equals1, CdclSolver.load

    def spy_free_cores(empty, selectors):
        run["live"] = selectors
        cores = free_cores(empty, selectors)
        rounds.append((len(cores), cores))
        return cores

    def spy_load(eng, batch):
        loads.append((eng, list(batch)))
        return load(eng, batch)

    def spy_equals1(variables):
        rs.append(list(variables))
        return equals1(variables)

    def spy_round(eng, selectors, budget, disjoint, cores):
        # every core of the earlier rounds is relaxed, in order
        relaxed = [(i < free, k) for free, ks in rounds[:-1]
                   for i, k in enumerate(ks)]
        assert len(relaxed) == len(rs)
        for (free, core), r in list(zip(relaxed, rs))[run["done"]:]:
            before = run["phi"].label_weights
            run["phi"] = relax_by_copies(run["phi"], core.labels, r)
            twins = run["phi"].label_weights.keys() - before.keys()
            seen["split"] += bool(twins)
            # a label relaxed before, or the twin of one
            seen["relaxed again"] += bool(core.labels & run["relaxed"])
            seen["free core relaxed"] += free
            run["relaxed"] |= core.labels | twins
        run["done"] = len(rs)
        live = run["live"]
        assert run["phi"].labels() == set(live)
        ours = [enc for e, b in loads if e is eng for enc in b]
        copies = [encode(guarded(c, live)) for c in run["phi"].clauses]
        every = list(live.values())
        subsets = [rng.sample(every, rng.randint(1, len(every)))
                   for _ in range(6)]
        for assumed in [every] + subsets:
            sat = _sat(ours, assumed)
            assert sat == _sat(copies, assumed), assumed
            seen["sat" if sat else "unsat"] += 1
        return solve_round(eng, selectors, budget, disjoint, cores)

    monkeypatch.setattr(solver, "_free_cores", spy_free_cores)
    monkeypatch.setattr(solver, "_solve_round", spy_round)
    monkeypatch.setattr(solver, "encode_equals1", spy_equals1)
    monkeypatch.setattr(CdclSolver, "load", spy_load)
    for phi, cost in _relaxation_cases(40):
        del loads[:], rounds[:], rs[:]
        run.update(phi=phi, done=0, relaxed=set())
        assert optimum(phi, mode).cost == cost
    assert min(seen.values()) >= 20, seen


# ---------------------------------------------------------------------------
# free cores: clauses without literals


def _free_per_round(lines):
    """Free cores per round, from a run's trace lines."""
    out, free = [], 0
    for line in lines:
        if line.startswith("iteration "):
            free += ": free core " in line
        elif line.startswith("round "):
            out.append(free)
            free = 0
    return out


@pytest.mark.parametrize("mode", ["noninc", "inc"])
@pytest.mark.parametrize("clauses, weights, cost, free", [
    # one label, the only one of its clause: a core of its own
    ([([], [1]), ([1], [2]), ([-1], [3])], {1: 4, 2: 1, 3: 2}, 5, 1),
    # two share label 2: the first in entry order is taken, and relaxing
    # label 2 in place replaces the second
    ([([], [1, 2]), ([], [2, 3])], {1: 1, 2: 1, 3: 1}, 1, 1),
    # label 2 splits in round 1, so the second survives as it was and
    # is taken in round 2
    ([([], [1, 2]), ([], [2, 3])], {1: 1, 2: 3, 3: 2}, 3, 2),
], ids=["single-label", "shared-label", "survives-split"])
def test_free_cores_agree_with_the_oracle(mode, clauses, weights, cost,
                                          free):
    phi = LCNF(frozenset(lclause(lits, labels) for lits, labels in clauses),
               weights)
    assert brute_force_lcnf_maxsat(phi).cost == cost
    lines = []
    report = solve_lcnf(phi, mode, trace=lines.append)
    assert report.solution.cost == cost
    assert_valid(phi, report.solution)
    assert report.stats["free_cores"] == free
    per_round = _free_per_round(lines)
    assert len(per_round) == report.stats["rounds"]
    # one free core per round until they are gone
    assert per_round == [1] * free + [0] * (len(per_round) - free)
    if mode == "inc":  # no SAT call in a round with free cores
        assert report.stats["solves"] == 1 + len(per_round) - free


def test_inc_takes_every_unit_pair_core_in_one_round():
    """Once BVE has merged each soft pair, ``inc`` takes every core in
    round 1 without a SAT call, as ``noninc`` does; one core per round
    made this 1,501 rounds.  The hard check's model then costs the
    bound, so the run ends in round 1, relaxing nothing."""
    f = unit_pairs_wcnf(0, 1500)
    inc = run_pipeline(f, mode="inc")
    noninc = run_pipeline(f, mode="noninc")
    cost = sum(min(f.soft[i][1], f.soft[i + 1][1])
               for i in range(0, len(f.soft), 2))
    assert inc.solution.cost == noninc.solution.cost == cost
    for res in (inc, noninc):
        st = res.stats
        assert st["rounds"] == 1
        assert st["free_cores"] == st["iterations"] == 1500
        # the hard check's call, in its one solver
        assert st["solves"] == st["load_events"] == 1
    # no hard clause, and no solver after the hard check
    assert noninc.stats["clauses_loaded"] == 0


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
# learnt clauses and restarts on the Luby sequence, and with each relaxed
# label linked to its old selector by one clause; costs are the optima,
# the other fields pin the search
INC_PINS = [
    ("wcnf", 0, 9, 7, 1, 9, 97, 1796908317),
    ("wcnf", 1, 8, 5, 3, 7, 128, 2861857501),
    ("wcnf", 2, 8, 8, 1, 10, 289, 2699443385),
    ("wcnf", 3, 10, 7, 2, 9, 84, 2641720432),
    ("wcnf", 4, 1, 1, 0, 3, 56, 2428972196),
    ("wcnf", 5, 12, 4, 0, 6, 66, 2861857501),
    ("lcnf", 0, 5, 4, 2, 6, 107, 1638295203),
    ("lcnf", 1, 5, 3, 0, 5, 45, 1211730713),
    ("lcnf", 2, 5, 2, 0, 4, 36, 2254829286),
    ("lcnf", 3, 4, 3, 0, 5, 68, 3641350029),
    ("lcnf", 4, 1, 1, 0, 3, 37, 3604493746),
    ("lcnf", 5, 2, 2, 2, 4, 43, 2275908817),
    ("pigeon", 4, 2, 2, 5, 4, 34, 468213067),
    ("pigeon", 5, 2, 2, 17, 4, 67, 2073198877),
    ("pigeon", 6, 2, 2, 68, 4, 110, 2745015070),
    ("pigeon", 7, 2, 2, 492, 4, 170, 435145533),
]


# (kind, seed, cost, iterations, rounds, conflicts, solves, clauses
# loaded, load events, CRC of the model) of the same instances in
# ``noninc``, recorded with the same engine and with each run ending as
# soon as a model it holds costs the lower bound
NONINC_PINS = [
    ("wcnf", 0, 9, 7, 3, 3, 11, 233, 4, 1796908317),
    ("wcnf", 1, 8, 5, 4, 4, 10, 323, 5, 1796908317),
    ("wcnf", 2, 8, 6, 4, 4, 11, 395, 5, 2699443385),
    ("wcnf", 3, 10, 7, 3, 2, 11, 195, 4, 2641720432),
    ("wcnf", 4, 1, 1, 1, 0, 3, 42, 2, 2428972196),
    ("wcnf", 5, 12, 4, 2, 0, 7, 108, 3, 2861857501),
    ("lcnf", 0, 5, 4, 4, 4, 9, 188, 5, 1638295203),
    ("lcnf", 1, 5, 3, 2, 0, 6, 72, 3, 1211730713),
    ("lcnf", 2, 5, 2, 2, 0, 5, 68, 3, 2254829286),
    ("lcnf", 3, 4, 3, 3, 0, 7, 128, 4, 3641350029),
    ("lcnf", 4, 1, 1, 2, 0, 4, 67, 3, 20624874),
    ("lcnf", 5, 2, 2, 2, 3, 5, 73, 3, 2275908817),
    ("pigeon", 4, 2, 2, 2, 6, 5, 51, 3, 705374049),
    ("pigeon", 5, 2, 2, 2, 20, 4, 116, 3, 2605828263),
    ("pigeon", 6, 2, 2, 3, 114, 5, 324, 4, 901565875),
    ("pigeon", 7, 2, 2, 2, 561, 4, 358, 3, 208813656),
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
    report = solve_lcnf(phi, mode)
    crc = zlib.crc32(repr(sorted(report.solution.model.items())).encode())
    return report.solution.cost, report.stats, crc


@pytest.mark.parametrize("pin", INC_PINS, ids=lambda p: f"{p[0]}{p[1]}")
def test_inc_search_is_pinned(pin):
    kind, seed = pin[:2]
    cost, st, crc = _pinned_run(kind, seed, "inc")
    assert (kind, seed, cost, st["iterations"], st["conflicts"],
            st["solves"], st["clauses_loaded"], crc) == pin
    assert st["load_events"] == 1
    # one core per round, and a last round without one unless a model
    # met the bound first
    assert st["rounds"] - st["iterations"] in (0, 1)


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
    assert optimum(phi, "noninc").cost == 2
    report = solve_lcnf(phi, "noninc", conflict_budget=0)
    assert report.status == "unknown" and report.solution is None
    st = report.stats
    # the hard check and one round: both loads counted, nothing relaxed
    assert (st["rounds"], st["load_events"], st["iterations"]) == (1, 2, 0)
    assert st["solves"] == 3
    assert st["clauses_loaded"] == phi.size()


def test_trace_reports_monotone_lower_bound():
    for mode in ("noninc", "inc"):
        lines = []
        report = solve_lcnf(labelled_example(), mode,
                            trace=lines.append)
        cores = [l for l in lines if l.startswith("iteration ")]
        assert len(cores) == report.stats["iterations"] >= 2
        bounds = [int(line.rsplit(" ", 1)[1]) for line in cores]
        assert bounds == sorted(bounds) and len(set(bounds)) == len(bounds)
        assert bounds[-1] == report.solution.cost
        # the hard check's model first, then each cheaper one
        uppers = [int(l.split()[-1]) for l in lines
                  if l.startswith("upper bound ")]
        assert lines[0].startswith("upper bound ")
        assert uppers == sorted(uppers, reverse=True)
        assert len(set(uppers)) == len(uppers)
        assert uppers[-1] == report.solution.cost
        # one line per round, right after its cores: count and bound
        rounds = [(i, *map(int, m.groups())) for i, m in enumerate(
            re.fullmatch(r"round (\d+): (\d+) cores, lower bound (\d+)", l)
            for l in lines) if m]
        assert len(rounds) == report.stats["rounds"]
        assert len(rounds) + len(cores) + len(uppers) == len(lines)
        seen = 0
        for k, (i, number, n, b) in enumerate(rounds, start=1):
            seen += n
            assert number == k
            # after the cores and upper bounds so far
            assert i == seen + k - 1 + sum(
                l.startswith("upper bound ") for l in lines[:i])
            assert b == (bounds[seen - 1] if seen else 0)
        # the last round's bound meets the last upper bound
        assert seen == len(cores) and rounds[-1][3] == uppers[-1]


def _stop_cases():
    """Random weighted and labelled formulas, seeds 0-99, unit weights
    at odd seeds, each with its optimum from the oracle."""
    for seed in range(100):
        w = 1 if seed % 2 else 4
        f = random_wcnf(seed, max_weight=w)
        phi = random_lcnf(seed, max_weight=w)
        yield lcnf_from_wcnf(f), brute_force_maxsat(f).cost
        yield phi, brute_force_lcnf_maxsat(phi).cost


def test_run_ends_in_the_first_round_whose_bound_meets_a_charge(
        monkeypatch):
    """Every model ``_certify`` charges costs at least the optimum, the
    cheapest is reported, and the run ends right after the hard check
    or in the first round whose lower bound meets the cheapest charge so
    far, never later."""
    events = []  # ("charge", cost) from the spy, ("line", text) traced
    certify = solver._certify

    def spy_certify(orig, tau, cap=None):
        # the charge in full, and what the capped search makes of it
        full = certify(orig, tau).cost
        sol = certify(orig, tau, cap)
        assert (sol is None) == (cap is not None and full >= cap)
        assert sol is None or sol.cost == full
        events.append(("charge", full))
        return sol

    monkeypatch.setattr(solver, "_certify", spy_certify)
    seen = {"hard check": 0, "closing model": 0, "round with cores": 0}
    for phi, cost in _stop_cases():
        for mode in ("noninc", "inc"):
            events.clear()
            report = solve_lcnf(
                phi, mode,
                trace=lambda line: events.append(("line", line)))
            assert report.solution.cost == cost
            assert_valid(phi, report.solution)
            charges = [x for kind, x in events if kind == "charge"]
            assert events[0][0] == "charge"  # the hard check's model
            assert min(charges) == cost
            assert len(charges) <= 1 + report.stats["rounds"]
            # the hard check at bound 0, then each round's bound,
            # against the cheapest charge so far
            meets, ub, last = [], None, None
            for kind, x in events:
                if kind == "charge":
                    ub = x if ub is None else min(ub, x)
                    if not meets:
                        meets.append(ub == 0)
                    continue
                m = re.fullmatch(
                    r"round \d+: (\d+) cores, lower bound (\d+)", x)
                if m:
                    last, lb = map(int, m.groups())
                    assert lb <= ub
                    meets.append(lb == ub)
            assert meets.index(True) == len(meets) - 1
            assert len(meets) == 1 + report.stats["rounds"]
            seen["hard check"] += charges[0] == cost
            # a later model closed the gap in a round with cores
            seen["closing model"] += charges[0] > cost and bool(last)
            seen["round with cores"] += bool(last)
    assert min(seen.values()) >= 50, seen


def test_budget_exhaustion_reports_unknown():
    # three pigeons, two holes, all soft: refuting the first iteration's
    # assumptions takes real conflicts, so a zero budget must trip
    f = WCNF()
    for lits in [(1, 2), (3, 4), (5, 6),
                 (-1, -3), (-1, -5), (-3, -5),
                 (-2, -4), (-2, -6), (-4, -6)]:
        f.add_soft(lits, 1)
    phi = lcnf_from_wcnf(f)
    report = solve_lcnf(phi, "noninc", conflict_budget=0)
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
    report = solve_lcnf(phi, mode, conflict_budget=0)
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
        sol = optimum(phi, mode)
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
        # capped: nothing at the optimum, the optimum just above it
        assert _min_cost_hitting_set(fams, weights, best) is None, seed
        hit = _min_cost_hitting_set(fams, weights, best + 1)
        assert sum(weights[l] for l in hit) == best, seed


def test_min_cost_hitting_set_of_disjoint_families_takes_linear_time():
    # a family is compared only with kept families that share a label
    # with it, so disjoint ones take linear time
    fams = [frozenset([2 * i + 1, 2 * i + 2]) for i in range(10_000)]
    weights = {l: 1 for l in range(1, 20_001)}
    start = time.process_time()
    hit = _min_cost_hitting_set(fams, weights)
    elapsed = time.process_time() - start
    assert hit == frozenset(range(1, 20_001, 2))
    assert elapsed < 0.5, f"{elapsed:.2f} s of CPU time"


def _chain(n):
    """``(x_i)`` carries labels i and i + 1, as BVE's resolvents carry
    both parents' labels, and ``(-x_i)`` a label of its own worth more
    than covering the chain; with the cost of the cheapest cover of the
    path 1 - 2 - ... - n + 1, which is the optimum."""
    weights = {l: 1 + l % 3 for l in range(1, n + 2)}
    weights.update({n + 1 + i: 10 for i in range(1, n + 1)})
    phi = LCNF(frozenset([lclause([i], [i, i + 1]) for i in range(1, n + 1)]
                         + [lclause([-i], [n + 1 + i])
                            for i in range(1, n + 1)]), weights)
    take, skip = weights[1], 0  # cheapest cover with and without v
    for v in range(2, n + 2):
        take, skip = weights[v] + min(take, skip), take
    return phi, min(take, skip)


def test_charge_of_a_model_falsifying_a_long_chain_of_overlapping_clauses():
    """The all-false model falsifies every ``(x_i)`` of the chain, so its
    charge hits n families that overlap pairwise.  Pruning on the cost
    so far alone made that search exponential in n; the bound on the
    families left keeps it small at n = 200.  The capped search gives
    nothing at the cheapest cost, and both modes solve the formula."""
    phi, cover = _chain(200)
    tau = {v: 0 for v in range(1, 201)}
    assert solver._certify(phi, tau).cost == cover
    assert solver._certify(phi, tau, cover) is None
    assert solver._certify(phi, tau, cover + 1).cost == cover
    phi, cover = _chain(60)
    for mode in ("noninc", "inc"):
        sol = optimum(phi, mode)
        assert sol.cost == cover
        assert_valid(phi, sol)


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
