"""Acceptance gate: one test per shipped guarantee, criteria 1-9.

Each criterion gets exactly one test function, so a ``pytest -v`` run
shows one pass/fail line per criterion.  The random corpora that
several criteria share (the WCNF sweep, the labelled-formula suite,
the clause-elimination suite) are module-scoped fixtures, generated
once and reused.

Criteria, in test order:
  1. six-unit-clause example: cost 2 everywhere; naive clause-level
     variable elimination / subsumption are demonstrably unsound
  2. labelled example: MUSes {{2},{3}}, MCS {2,3}, cost 2, and the
     selector encoding agrees
  3. >= 1000 random weighted formulas match the brute-force oracle
     under every prep x mode combination
  4. label-level preprocessing rules preserve the MCS collection
  5. blocked-clause elimination: monotone, MUS-preserving, and its
     reconstruction lifts every optimal model at unchanged cost
  6. MUS/MCS hitting-set duality on every in-cap unsat instance the
     other suites produced
  7. incremental and non-incremental modes agree on cost; the
     incremental mode does strictly fewer clause-database loads
  8. SAT engine agrees with truth tables; failed assumptions re-solve
     to unsat
  9. golden parser corpus: byte-exact emission, errors rejected
"""

import itertools
import math
import pathlib
import random
import time

import pytest

from labelmax.cli import PREPS, run_pipeline
from labelmax.dimacs import ParseError, parse_cnf, parse_wcnf, write_wcnf
from labelmax.lcnf_prep import bce_fixpoint, l_bve, l_ssr, l_sub
from labelmax.model import (WCNF, clause, clause_satisfied, is_tautology,
                            lcnf_from_wcnf, lcnf_to_wcnf, reconstruct)
from labelmax.oracle import brute_force_maxsat, random_wcnf
from labelmax.solver import solve_lcnf
from support import (check_hitting_duality, enumerate_mcs,
                     enumerate_mcs_labels, enumerate_mus,
                     enumerate_mus_labels, labelled_example, random_cnf,
                     random_lcnf, solve_clauses, truth_table_sat,
                     unit_soft_formula)

MODES = ("noninc", "inc")

N_WCNF = 1000   # criterion 3 sweep size
N_LCNF = 300    # criterion 4 suite size
N_CNF = 300     # criterion 5 suite size


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")


# ---------------------------------------------------------------------------
# shared corpora


@pytest.fixture(scope="module")
def wcnf_sweep():
    """Criterion-3 instances with every configuration already solved."""
    t0 = time.perf_counter()
    records = []
    for i in range(N_WCNF):
        f = random_wcnf(seed=i, nvars=6 + i % 7, nclauses=8 + i % 18,
                        max_weight=1 if i % 5 == 0 else 5,
                        hard_fraction=(0.0, 0.3, 0.6)[i % 3])
        expect = brute_force_maxsat(f)
        runs = {(prep, mode): run_pipeline(f, prep=prep, mode=mode)
                for prep in PREPS for mode in MODES}
        records.append({"seed": i, "f": f, "expect": expect, "runs": runs})
    return {"records": records, "elapsed": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def lcnf_suite():
    """Criterion-4 rule applications, with MCS collections compared."""
    t0 = time.perf_counter()
    fired = {"bve": 0, "sub": 0, "ssr": 0}
    failures = []
    duality_phis = []
    for i in range(N_LCNF):
        phi = random_lcnf(i, nvars=7 + i % 4, nclauses=10 + i % 5,
                          nlabels=5 + i % 4)
        nv = max(phi.max_var(), 1)
        hard = [c.lits for c in phi.clauses if not c.labels]
        full = [c.lits for c in phi.clauses]
        if truth_table_sat(hard, nv) is not None and \
                truth_table_sat(full, nv) is None:
            duality_phis.append(phi)
        before = enumerate_mcs_labels(phi)
        for x in sorted({abs(l) for c in phi.clauses for l in c.lits}):
            out = l_bve(phi, x)
            if out.clauses != phi.clauses:
                fired["bve"] += 1
                if enumerate_mcs_labels(out) != before:
                    failures.append(("bve", i, x))
        cs = phi.sorted_clauses()
        for c1 in cs:
            for c2 in cs:
                out = l_sub(phi, c1, c2)
                if out.clauses != phi.clauses:
                    fired["sub"] += 1
                    if enumerate_mcs_labels(out) != before:
                        failures.append(("sub", i, c1, c2))
                out = l_ssr(phi, c1, c2)
                if out.clauses != phi.clauses:
                    fired["ssr"] += 1
                    if enumerate_mcs_labels(out) != before:
                        failures.append(("ssr", i, c1, c2))
    return {"fired": fired, "failures": failures,
            "duality_phis": duality_phis,
            "elapsed": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def bce_suite():
    """Criterion-5 elimination runs: monotonicity, MUSes, reconstruction."""
    t0 = time.perf_counter()
    failures = []
    unsat_cnfs = []
    n_mus_checked = 0
    n_models_lifted = 0
    for i in range(N_CNF):
        if i % 3 == 2:
            # short dense clauses over few variables: often unsatisfiable
            clauses, nv = random_cnf(i, nvars=4, nclauses=10 + i % 3)
        else:
            clauses, nv = random_cnf(i, nvars=5 + i % 6, nclauses=8 + i % 10)
        clauses = list(dict.fromkeys(clauses))
        f = WCNF(num_vars=nv)
        for c in clauses:
            f.add_soft(c, 1)
        out_full, rec = bce_fixpoint(lcnf_from_wcnf(f))
        # the clauses are distinct, so each survives under one label
        reduced = sorted(c.lits for c in out_full.clauses)
        survivors = set(reduced)

        # monotonicity on five random sub-formulas
        rng = random.Random(i)
        for _ in range(5):
            sub = WCNF(num_vars=nv)
            for c in clauses:
                if rng.random() < 0.7:
                    sub.add_soft(c, 1)
            out_sub, _ = bce_fixpoint(lcnf_from_wcnf(sub))
            kept = {c.lits for c in out_sub.clauses}
            if not kept <= survivors:
                failures.append(("monotonicity", i))

        # MUS preservation on the in-cap unsatisfiable inputs
        if len(clauses) <= 12 and truth_table_sat(clauses, nv) is None:
            unsat_cnfs.append((clauses, nv))
            mus_f = {frozenset(clauses[j - 1] for j in m)
                     for m in enumerate_mus(clauses, nv)}
            mus_r = {frozenset(reduced[j - 1] for j in m)
                     for m in enumerate_mus(reduced, nv)}
            if mus_f != mus_r:
                failures.append(("mus", i))
            n_mus_checked += 1

        # reconstruction lifts every optimal model of the reduced
        # formula to one of the input at the same falsified weight
        best_r = best_o = None
        optimal = []
        for bits in itertools.product((0, 1), repeat=nv):
            tau = dict(zip(range(1, nv + 1), bits))
            cr = sum(1 for c in reduced if not clause_satisfied(c, tau))
            co = sum(1 for c in clauses if not clause_satisfied(c, tau))
            best_o = co if best_o is None else min(best_o, co)
            if best_r is None or cr < best_r:
                best_r, optimal = cr, [tau]
            elif cr == best_r:
                optimal.append(tau)
        for tau in optimal:
            lifted = reconstruct(rec, dict(tau))
            cost = sum(1 for c in clauses if not clause_satisfied(c, lifted))
            if cost != best_o or best_r != best_o:
                failures.append(("reconstruction", i, tau))
            n_models_lifted += 1
    return {"failures": failures, "unsat_cnfs": unsat_cnfs,
            "n_mus_checked": n_mus_checked,
            "n_models_lifted": n_models_lifted,
            "elapsed": time.perf_counter() - t0}


# ---------------------------------------------------------------------------
# criterion 1: the six-unit-clause example


def cnf_resolve(a, b, x):
    return clause(tuple(l for l in a if l != x) +
                  tuple(l for l in b if l != -x))


def cnf_ve(clauses, x):
    """Clause-level variable elimination, no labels: unsound for MaxSAT."""
    keep = {c for c in clauses if x not in c and -x not in c}
    for a in (c for c in clauses if x in c):
        for b in (c for c in clauses if -x in c):
            r = cnf_resolve(a, b, x)
            if not is_tautology(r):
                keep.add(r)
    return keep


def cnf_bve(clauses, num_vars):
    out = set(clauses)
    for x in range(1, num_vars + 1):
        out = cnf_ve(out, x)
    return out


def cnf_sub(clauses):
    """Clause-level subsumption, no labels: unsound for MaxSAT."""
    cs = set(clauses)
    return {c for c in cs if not any(set(d) < set(c) for d in cs)}


def _unit_costs(clauses, num_vars):
    """cost (falsified clause count) for every assignment over 1..num_vars."""
    out = {}
    for bits in itertools.product((0, 1), repeat=num_vars):
        tau = dict(zip(range(1, num_vars + 1), bits))
        out[bits] = sum(1 for c in clauses if not clause_satisfied(c, tau))
    return out


def test_criterion_1_example_fidelity_and_unsound_cnf_prep():
    t0 = time.perf_counter()
    f = unit_soft_formula()
    n_runs = 0
    for prep in PREPS:
        for mode in MODES:
            res = run_pipeline(f, prep=prep, mode=mode)
            assert res.status == "optimum" and res.solution.cost == 2, \
                (prep, mode)
            n_runs += 1

    clauses = [c for c, _ in f.soft]
    costs = _unit_costs(clauses, 3)
    optima = [bits for bits, c in costs.items() if c == 2]
    assert min(costs.values()) == 2
    assert len(optima) == 4 and all(bits[0] == 1 for bits in optima)

    # naive variable elimination collapses the formula to the empty
    # clause: 8 "optimal" assignments, all at the wrong cost 1
    ve_out = cnf_bve(clauses, 3)
    assert ve_out == {()}
    assert set(_unit_costs(ve_out, 3).values()) == {1}

    # naive subsumption drops the clauses forcing variable 1; the
    # all-zeros assignment becomes optimal even though the input formula
    # has no optimum with variable 1 at 0
    sub_out = cnf_sub(clauses)
    assert sub_out == {(1,), (-1,), (3,), (-3,)}
    sub_costs = _unit_costs(sub_out, 3)
    assert min(sub_costs.values()) == 2 and sub_costs[(0, 0, 0)] == 2

    elapsed = time.perf_counter() - t0
    ok = elapsed < 1.0
    _report(1, ok, f"{n_runs} flag combinations at cost 2, naive ve cost 1, "
                   f"naive sub optimum with var 1 at 0 [{elapsed:.2f}s]")
    assert ok, f"runtime {elapsed:.2f}s exceeds 1s"


# ---------------------------------------------------------------------------
# criterion 2: the labelled example


def test_criterion_2_labelled_example_fidelity():
    t0 = time.perf_counter()
    phi = labelled_example()
    assert enumerate_mus_labels(phi) == {frozenset({2}), frozenset({3})}
    assert enumerate_mcs_labels(phi) == {frozenset({2, 3})}
    for mode in MODES:
        rep = solve_lcnf(phi, mode=mode)
        assert rep.status == "optimum"
        assert rep.solution.cost == 2
        assert rep.solution.falsified == {2, 3}
    enc, _ = lcnf_to_wcnf(phi)
    res = run_pipeline(enc, prep="none")
    assert res.status == "optimum" and res.solution.cost == 2
    elapsed = time.perf_counter() - t0
    ok = elapsed < 1.0
    _report(2, ok, "MUSes {{2},{3}}, MCS {2,3}, cost 2 in both modes and "
                   f"under the selector encoding [{elapsed:.2f}s]")
    assert ok, f"runtime {elapsed:.2f}s exceeds 1s"


# ---------------------------------------------------------------------------
# criteria 3 and 7: the weighted sweep


def test_criterion_3_oracle_equivalence(wcnf_sweep):
    records = wcnf_sweep["records"]
    assert len(records) >= 1000
    bad = []
    n_runs = 0
    for rec in records:
        expect = rec["expect"]
        assert expect is not None  # hard parts are planted-satisfiable
        for cfg, res in rec["runs"].items():
            n_runs += 1
            if res.status != "optimum" or res.solution.cost != expect.cost:
                bad.append((rec["seed"], cfg))
    elapsed = wcnf_sweep["elapsed"]
    ok = not bad and elapsed <= 600
    _report(3, ok, f"{len(records)} instances, {n_runs} solver runs, "
                   f"{len(bad)} oracle mismatches [{elapsed:.1f}s]")
    assert not bad, bad[:10]
    assert elapsed <= 600, f"sweep took {elapsed:.1f}s, budget 600s"


def test_criterion_7_mode_equivalence_and_load_counts(wcnf_sweep):
    """Costs agree on every mode pair.  ``inc`` never makes more load
    events than ``noninc``, and strictly fewer wherever ``noninc`` built
    a solver after its hard check.  A ``noninc`` run builds none when
    its hard check's model costs 0 (1,675 of the 4,000 pairs), or when
    free cores alone raise the bound to that model's cost or leave no
    label to ask about (657); the other 1,668 must be strictly fewer,
    and at least 1,556 of them, about 7% below, so that the comparison
    cannot go vacuous."""
    records = wcnf_sweep["records"]
    cost_diffs = []
    load_violations = []
    n_pairs = n_rebuilt = 0
    for rec in records:
        for prep in PREPS:
            non = rec["runs"][(prep, "noninc")]
            inc = rec["runs"][(prep, "inc")]
            n_pairs += 1
            if non.solution.cost != inc.solution.cost:
                cost_diffs.append((rec["seed"], prep))
            loads = (inc.stats["load_events"], non.stats["load_events"])
            rebuilt = loads[1] > 1
            n_rebuilt += rebuilt
            if not (loads[0] < loads[1] if rebuilt else loads[0] <= loads[1]):
                load_violations.append((rec["seed"], prep))
    ok = not cost_diffs and not load_violations and n_rebuilt >= 1556
    _report(7, ok, f"{n_pairs} mode pairs: costs identical, incremental "
                   "load events never more, and strictly fewer in the "
                   f"{n_rebuilt} where noninc built a solver after its "
                   "hard check")
    assert not cost_diffs, cost_diffs[:10]
    assert not load_violations, load_violations[:10]
    assert n_rebuilt >= 1556, n_rebuilt


# ---------------------------------------------------------------------------
# criterion 4: labelled preprocessing preserves the MCS collection


def test_criterion_4_mcs_preservation(lcnf_suite):
    fired = lcnf_suite["fired"]
    failures = lcnf_suite["failures"]
    elapsed = lcnf_suite["elapsed"]
    n_checks = sum(fired.values())
    ok = not failures and elapsed <= 300 and \
        all(fired[k] >= 10 for k in ("bve", "sub", "ssr"))
    _report(4, ok, f"{N_LCNF} formulas, {n_checks} rule applications "
                   f"({fired['bve']} bve, {fired['sub']} sub, "
                   f"{fired['ssr']} ssr), {len(failures)} MCS changes "
                   f"[{elapsed:.1f}s]")
    assert not failures, failures[:10]
    assert all(n >= 10 for n in fired.values()), fired
    assert elapsed <= 300, f"suite took {elapsed:.1f}s, budget 300s"


# ---------------------------------------------------------------------------
# criterion 5: blocked-clause elimination end to end


def test_criterion_5_bce_suite(bce_suite):
    failures = bce_suite["failures"]
    elapsed = bce_suite["elapsed"]
    ok = not failures and elapsed <= 300 and \
        bce_suite["n_mus_checked"] >= 30
    _report(5, ok, f"{N_CNF} formulas x 5 subsets monotone, "
                   f"{bce_suite['n_mus_checked']} MUS-set comparisons, "
                   f"{bce_suite['n_models_lifted']} optimal models lifted, "
                   f"{len(failures)} failures [{elapsed:.1f}s]")
    assert not failures, failures[:10]
    assert bce_suite["n_mus_checked"] >= 30
    assert elapsed <= 300, f"suite took {elapsed:.1f}s, budget 300s"


# ---------------------------------------------------------------------------
# criterion 6: hitting-set duality on everything unsatisfiable


def test_criterion_6_hitting_set_duality(wcnf_sweep, lcnf_suite, bce_suite):
    n_clause_level = 0
    failures = []

    seen = set()
    pool = [(tuple(dict.fromkeys(list(r["f"].hard) +
                                 [c for c, _ in r["f"].soft])),
             r["f"].num_vars)
            for r in wcnf_sweep["records"]]
    pool += [(tuple(cs), nv) for cs, nv in bce_suite["unsat_cnfs"]]
    for union, nv in pool:
        if len(union) > 16 or union in seen:
            continue
        seen.add(union)
        if truth_table_sat(list(union), nv) is not None:
            continue
        muses = enumerate_mus(union, nv)
        mcses = enumerate_mcs(union, nv)
        if not check_hitting_duality(muses, mcses):
            failures.append(("clauses", union))
        n_clause_level += 1

    n_label_level = 0
    for phi in lcnf_suite["duality_phis"]:
        muses = enumerate_mus_labels(phi)
        mcses = enumerate_mcs_labels(phi)
        if not check_hitting_duality(muses, mcses):
            failures.append(("labels", phi))
        n_label_level += 1

    ok = not failures and n_clause_level >= 50 and n_label_level >= 5
    _report(6, ok, f"duality on {n_clause_level} clause-level and "
                   f"{n_label_level} label-level unsat instances, "
                   f"{len(failures)} violations")
    assert not failures, failures[:5]
    assert n_clause_level >= 50 and n_label_level >= 5, \
        (n_clause_level, n_label_level)


# ---------------------------------------------------------------------------
# criterion 8: SAT-engine conformance


def _three_var_pool():
    out = []
    for signs in itertools.product((-1, 0, 1), repeat=3):
        c = tuple(s * v for v, s in zip((1, 2, 3), signs) if s)
        if c:
            out.append(c)
    return out


def _fixed_enumeration(pool, per_size=125, max_size=8):
    """Deterministic slice of the k-clause subsets, lex order, even stride.

    Sizes 1 and 2 are exhaustive; larger sizes are strided down to
    roughly ``per_size`` formulas each.
    """
    for k in range(1, max_size + 1):
        total = math.comb(len(pool), k)
        stride = 1 if total <= 400 else total // per_size
        for j, combo in enumerate(itertools.combinations(pool, k)):
            if j % stride == 0:
                yield list(combo)


def test_criterion_8_sat_engine_conformance():
    pool = _three_var_pool()
    assert len(pool) == 26
    n_small = 0
    for clauses in _fixed_enumeration(pool):
        expect = truth_table_sat(clauses, 3)
        out, _ = solve_clauses(clauses, num_vars=3)
        assert out.sat == (expect is not None), clauses
        if out.sat:
            assert all(
                any((l > 0) == bool(out.model[abs(l)]) for l in c)
                for c in clauses), clauses
        n_small += 1

    n_random = 1000
    n_unsat_rechecks = 0
    for seed in range(n_random):
        clauses, nv = random_cnf(seed, nvars=6 + seed % 7,
                                 nclauses=8 + seed % 23)
        rng = random.Random(seed)
        assumptions = []
        if seed % 2:
            assumptions = [rng.choice((v, -v))
                           for v in rng.sample(range(1, nv + 1), 3)]
        expect = truth_table_sat(
            list(clauses) + [(a,) for a in assumptions], nv)
        out, s = solve_clauses(clauses, assumptions, num_vars=nv)
        assert out.sat == (expect is not None), (seed, assumptions)
        if out.sat:
            for c in clauses:
                assert any((l > 0) == bool(out.model[abs(l)]) for l in c)
        else:
            # failed-assumption soundness: the reported subset suffices
            assert out.failed_assumptions <= set(assumptions)
            again = s.solve(sorted(out.failed_assumptions))
            assert again.status == "UNSAT", (seed, assumptions)
            n_unsat_rechecks += 1
    ok = n_small >= 1000 and n_unsat_rechecks >= 50
    _report(8, ok, f"{n_small} enumerated 3-var formulas and {n_random} "
                   f"random formulas agree with truth tables; "
                   f"{n_unsat_rechecks} failed-assumption re-solves")
    assert ok, (n_small, n_unsat_rechecks)


# ---------------------------------------------------------------------------
# criterion 9: golden parser corpus


GOLDEN = pathlib.Path(__file__).parent / "golden"


def test_criterion_9_golden_corpus():
    names = sorted(p.name for p in GOLDEN.iterdir())
    assert len(names) >= 20
    n_valid = n_error = 0
    for name in names:
        text = (GOLDEN / name).read_text()
        parse = parse_cnf if name.endswith(".cnf") else parse_wcnf
        if name.startswith("err-"):
            with pytest.raises(ParseError):
                parse(text)
            n_error += 1
            continue
        inst = parse(text)
        emitted = write_wcnf(inst.wcnf)
        reparsed = parse_wcnf(emitted)
        assert reparsed.wcnf.hard == inst.wcnf.hard, name
        assert reparsed.wcnf.soft == inst.wcnf.soft, name
        assert write_wcnf(reparsed.wcnf) == emitted, name  # byte-exact
        n_valid += 1
    assert "legacy-notop.wcnf" in names  # legacy header coverage
    ok = n_valid >= 8 and n_error >= 8
    _report(9, ok, f"{n_valid} valid files round-trip byte-exact, "
                   f"{n_error} malformed files rejected")
    assert ok, (n_valid, n_error)
