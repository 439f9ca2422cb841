"""CDCL engine: truth-table agreement, assumption cores, reuse, budget."""

import itertools
import random
import zlib

import pytest

from labelmax.engine import (BudgetExceededError, CdclSolver, _idx_lit,
                             _luby, encode)
from support import random_cnf, solve_clauses, truth_table_sat


def fresh_var(s):
    s.ensure_var(s.num_vars + 1)
    return s.num_vars


def test_single_clause_sat():
    out, _ = solve_clauses([(1, 2)])
    assert out.sat
    assert any(out.model[v] for v in (1, 2))


def test_contradictory_units_unsat_with_empty_failed_set():
    out, _ = solve_clauses([(1,), (-1,)])
    assert out.status == "UNSAT"
    assert out.failed_assumptions == frozenset()


def test_empty_clause_poisons_solver():
    out, s = solve_clauses([(), (1,)])
    assert out.status == "UNSAT"
    assert s.solve().status == "UNSAT"  # permanent
    assert s.solve([1]).status == "UNSAT"


def test_model_satisfies_all_clauses_and_assumptions():
    clauses = [(1, 2, 3), (-1, -2), (-2, -3), (2, 3)]
    out, _ = solve_clauses(clauses, assumptions=[3])
    assert out.sat
    assert out.model[3] == 1
    for c in clauses:
        assert any((l > 0) == bool(out.model[abs(l)]) for l in c)


def test_failed_assumptions_both_needed():
    out, _ = solve_clauses([(-10, 1), (-11, -1)], assumptions=[10, 11])
    assert out.status == "UNSAT"
    assert out.failed_assumptions == frozenset([10, 11])


def test_selector_satisfiable_under_assumption():
    out, _ = solve_clauses([(-5, 1)], assumptions=[5])
    assert out.sat
    assert out.model[5] == 1 and out.model[1] == 1


def test_two_var_full_square_unsat_without_assumptions():
    out, _ = solve_clauses([(1, 2), (-1, 2), (1, -2), (-1, -2)])
    assert out.status == "UNSAT"
    assert out.failed_assumptions == frozenset()


def test_contradictory_assumptions():
    out, _ = solve_clauses([(1, 2)], assumptions=[3, -3])
    assert out.status == "UNSAT"
    assert out.failed_assumptions <= {3, -3}
    assert out.failed_assumptions  # non-empty


def test_handle_reusable_across_solves_and_adds():
    s = CdclSolver()
    s.add_clause((1, 2))
    assert s.solve().sat
    s.add_clause((-1,))
    out = s.solve()
    assert out.sat and out.model[2] == 1
    s.add_clause((-2,))
    assert s.solve().status == "UNSAT"


def test_assumption_core_after_incremental_adds():
    s = CdclSolver()
    s.add_clause((-10, 1))
    assert s.solve([10]).sat
    s.add_clause((-11, -1))
    out = s.solve([10, 11])
    assert out.status == "UNSAT"
    # re-solving under just the failed subset must stay UNSAT
    again = s.solve(sorted(out.failed_assumptions))
    assert again.status == "UNSAT"


def test_budget_exhaustion_raises_and_handle_survives():
    s = CdclSolver()
    for c in [(1, 2), (-1, 2), (1, -2), (-1, -2)]:
        s.add_clause(c)
    with pytest.raises(BudgetExceededError):
        s.solve(conflict_budget=0)
    assert s.solve().status == "UNSAT"  # usable afterwards, same answer


def all_three_var_clauses():
    """The 26 non-tautological, non-empty clauses over vars 1..3."""
    out = []
    for signs in itertools.product((-1, 0, 1), repeat=3):
        c = tuple(s * v for v, s in zip((1, 2, 3), signs) if s)
        if c:
            out.append(c)
    return out


def test_exhaustive_three_var_agreement_small():
    """Every 1- and 2-clause CNF over three variables, vs truth tables."""
    pool = all_three_var_clauses()
    assert len(pool) == 26
    singles = [[c] for c in pool]
    pairs = [[a, b] for a, b in itertools.combinations(pool, 2)]
    for clauses in singles + pairs:
        expect = truth_table_sat(clauses, 3) is not None
        out, _ = solve_clauses(clauses)
        assert out.sat == expect, clauses


def test_random_instances_agree_with_truth_tables():
    for seed in range(300):
        clauses, nv = random_cnf(seed, nvars=6 + seed % 7, nclauses=8 + seed % 18)
        expect = truth_table_sat(clauses, nv) is not None
        out, s = solve_clauses(clauses)
        assert out.sat == expect, (seed, clauses)
        _assert_watches_consistent(s)
        if out.sat:
            for c in clauses:
                assert any((l > 0) == bool(out.model[abs(l)]) for l in c)
        # learned-clause soundness: same answer on an immediate re-solve
        assert s.solve().sat == expect


def test_random_assumption_cores_are_sound():
    import random
    for seed in range(200):
        clauses, nv = random_cnf(seed, nvars=8, nclauses=20)
        rng = random.Random(seed)
        assumptions = [rng.choice((v, -v))
                       for v in rng.sample(range(1, nv + 1), 4)]
        s = CdclSolver()
        for c in clauses:
            s.add_clause(c)
        out = s.solve(assumptions)
        _assert_watches_consistent(s)
        expect = truth_table_sat(
            list(clauses) + [(a,) for a in assumptions], nv) is not None
        assert out.sat == expect, (seed, assumptions)
        if not out.sat:
            assert out.failed_assumptions <= set(assumptions)
            again = s.solve(sorted(out.failed_assumptions))
            assert again.status == "UNSAT"


def test_deterministic_for_fixed_history():
    def run():
        clauses, _ = random_cnf(123, nvars=10, nclauses=30)
        out, s = solve_clauses(clauses)
        return out.status, out.model, s.stats["conflicts"]

    assert run() == run()


def _engine_state(s):
    return (s.num_vars, s._val, s._clauses, s._watches, s._trail, s._order,
            s._unsat0, s.stats)


def test_load_matches_add_clause_one_by_one():
    """A batch through ``load`` leaves the handle exactly as ``add_clause``
    on each of its clauses in turn does, solve after solve."""
    seen = dict.fromkeys(("tautology", "repeated", "unit", "empty",
                          "root-assigned"), 0)
    for seed in range(300):
        rng = random.Random(seed)
        nv = 3 + seed % 8
        one, batched = CdclSolver(), CdclSolver()
        fed = []
        for _ in range(rng.randint(1, 4)):
            batch = []
            for _ in range(rng.randint(0, 14)):
                k = 0 if rng.random() < 0.03 else rng.randint(1, 5)
                c = [rng.choice((v, -v))
                     for v in (rng.randint(1, nv) for _ in range(k))]
                batch.append(c)
                seen["empty"] += not c
                seen["unit"] += len(set(c)) == 1
                seen["repeated"] += len(set(c)) < len(c)
                seen["tautology"] += any(-l in c for l in c)
            fixed = {p >> 1 for p in one._trail}
            seen["root-assigned"] += any(abs(l) in fixed
                                         for c in batch for l in c)
            for c in batch:
                one.add_clause(c)
            batched.load([encode(c) for c in batch])
            fed += batch
            assert _engine_state(one) == _engine_state(batched), seed
            # tautologies count as added; an empty clause is final
            assert batched.stats["clauses_added"] == len(fed)
            if [] in fed:
                assert batched._unsat0
            a = _random_assumptions(rng, nv, rng.randint(0, nv))
            assert _row(one.solve(a), one) == _row(batched.solve(a), batched)
            assert _engine_state(one) == _engine_state(batched), seed
    assert min(seen.values()) >= 20, seen


def test_encode_dedups_sorts_and_drops_tautologies():
    assert encode([3, -1, 3]) == [3, 6]  # -1 is index 3, 3 is index 6
    assert encode([2, -2, 1]) is None
    assert encode([]) == []


# ---------------------------------------------------------------------------
# Search pinning: the engine's search is deterministic, and these tables
# fix it.  Each row is one solve call: status, sorted failed assumptions,
# the handle's cumulative conflicts/decisions/propagations, and a CRC of
# the model (0 when UNSAT).  Any change to propagation order, clause
# literal order, learning or branching shows up here.


def _k_sat(seed, nvars, nclauses, k=3):
    rng = random.Random(seed)
    return [tuple(v if rng.random() < 0.5 else -v
                  for v in rng.sample(range(1, nvars + 1), k))
            for _ in range(nclauses)]


def _assert_watches_consistent(s):
    """Every stored clause is watched by exactly ``c[0]`` and ``c[1]``,
    once each, and every watcher's blocker is a literal of its clause."""
    watched = []
    for lit, ws in enumerate(s._watches):
        assert len(ws) % 2 == 0
        for cid, blk in zip(ws[::2], ws[1::2]):
            assert blk in s._clauses[cid], (cid, blk)
            watched.append((cid, lit))
    expect = [(cid, l) for cid, c in enumerate(s._clauses) for l in c[:2]]
    assert all(len(c) >= 2 for c in s._clauses)
    assert sorted(watched) == sorted(expect)


def _row(out, s):
    _assert_watches_consistent(s)
    model = 0
    if out.sat:
        model = zlib.crc32(bytes(out.model[v] for v in sorted(out.model)))
    return (out.status, tuple(sorted(out.failed_assumptions)),
            s.stats["conflicts"], s.stats["decisions"],
            s.stats["propagations"], model)


def _random_assumptions(rng, nvars, k):
    return [rng.choice((v, -v)) for v in rng.sample(range(1, nvars + 1), k)]


def pinned_random_cnf_rows(seed):
    """Three solves on one handle: none, four and six assumptions."""
    clauses, nv = random_cnf(seed, nvars=10 + seed % 7,
                             nclauses=12 + seed % 19)
    rng = random.Random(seed)
    s = CdclSolver()
    for c in clauses:
        s.add_clause(c)
    rows = []
    for a in ([], _random_assumptions(rng, nv, 4),
              _random_assumptions(rng, nv, 6)):
        rows.append(_row(s.solve(a), s))
    return rows


def pinned_k_sat_rows(seed):
    """Random 3-SAT near the threshold: hundreds of conflicts, restarts."""
    nv = 40 + 10 * seed
    rng = random.Random(seed)
    s = CdclSolver()
    for c in _k_sat(seed, nv, int(nv * (4.26 if seed % 2 else 3.9))):
        s.add_clause(c)
    rows = []
    for a in ([], _random_assumptions(rng, nv, 5),
              _random_assumptions(rng, nv, 8)):
        rows.append(_row(s.solve(a), s))
    return rows


def pinned_incremental_rows():
    """Fu-Malik-style loop on one handle, as the ``inc`` driver runs it:
    hard 3-SAT clauses plus soft clauses guarded by selector assumptions.
    Each core retires its selectors with unit clauses and reloads its
    clauses with a fresh relaxation variable and a new selector, plus an
    exactly-one over the new relaxation variables."""
    nv = 30
    rng = random.Random(11)
    s = CdclSolver()
    for c in _k_sat(11, nv, 105):
        s.add_clause(c)
    soft = [[rng.choice((v, -v)) for v in rng.sample(range(1, nv + 1), 2)]
            for _ in range(60)]
    sel = {}
    for i, c in enumerate(soft):
        sel[i] = fresh_var(s)
        s.add_clause(c + [-sel[i]])
    rows = []
    for _ in range(25):
        out = s.solve([sel[i] for i in sorted(sel)])
        rows.append(_row(out, s))
        if out.sat or not out.failed_assumptions:
            break
        core = sorted(i for i in sel if sel[i] in out.failed_assumptions)
        relax = []
        for i in core:
            s.add_clause([-sel[i]])
            r = fresh_var(s)
            relax.append(r)
            soft[i] = soft[i] + [r]
            sel[i] = fresh_var(s)
            s.add_clause(soft[i] + [-sel[i]])
        s.add_clause(relax)
        for a, b in itertools.combinations(relax, 2):
            s.add_clause([-a, -b])
    return rows


def test_activity_rescale_keeps_answers_and_cores():
    """Start with the activity increment just under the rescale limit, so
    conflict analysis rescales every activity and rebuilds the branching
    heap mid-search.  Rescaling multiplies all activities by one factor,
    so the search must match the unscaled run exactly."""
    rescaled = 0
    for seed in range(80):
        rng = random.Random(seed)
        nv = 8 + seed % 5
        clauses = _k_sat(seed, nv, int(nv * (5.5 if seed % 2 else 3.5)))
        histories = ([], _random_assumptions(rng, nv, 4))
        runs = []
        for var_inc in (1.0, 0.99e100):
            s = CdclSolver()
            s._var_inc = var_inc
            for c in clauses:
                s.add_clause(c)
            outs = []
            for a in histories:
                out = s.solve(a)
                outs.append((a, out, _row(out, s)))
            runs.append(outs)
        rescaled += s._var_inc < 1e90
        assert [r[2] for r in runs[0]] == [r[2] for r in runs[1]], seed
        for a, out, _ in runs[1]:
            expect = truth_table_sat(clauses + [(l,) for l in a], nv)
            assert out.sat == (expect is not None), (seed, a)
            if out.sat:
                assert all(any((l > 0) == bool(out.model[abs(l)]) for l in c)
                           for c in clauses + [(l,) for l in a])
            else:
                assert out.failed_assumptions <= set(a)
                core = sorted(out.failed_assumptions)
                assert truth_table_sat(clauses + [(l,) for l in core],
                                       nv) is None
                assert s.solve(core).status == "UNSAT"
    assert rescaled >= 40


def test_branching_heap_stays_bounded():
    """Backtracking pushes every unassigned variable onto the lazy heap;
    it is rebuilt from its live entries before it outgrows the
    variables."""
    nv = 30
    rng = random.Random(5)
    s = CdclSolver()
    for c in _k_sat(5, nv, 90):
        s.add_clause(c)
    sels = []
    for _ in range(40):
        sels.append(fresh_var(s))
        s.add_clause([rng.choice((v, -v))
                      for v in rng.sample(range(1, nv + 1), 2)] + [-sels[-1]])
    for k in range(200):
        s.solve(sels[k % 40:] + sels[:k % 7])
        assert len(s._order) <= 4 * s.num_vars


def test_luby_sequence():
    assert [_luby(i) for i in range(15)] == [1, 1, 2, 1, 1, 2, 4, 1, 1, 2,
                                             1, 1, 2, 4, 8]


def _dpll(clauses, assign):
    """Plain DPLL without learning: is there a model of ``clauses`` that
    extends ``assign`` (variable -> bool)?"""
    assign = dict(assign)
    changed = True
    while changed:  # unit propagation, then the shortest open clause
        changed = False
        shortest = None
        for c in clauses:
            free = []
            for l in c:
                v = assign.get(abs(l))
                if v is None:
                    free.append(l)
                elif v == (l > 0):
                    break
            else:
                if not free:
                    return False
                if len(free) == 1:
                    assign[abs(free[0])] = free[0] > 0
                    changed = True
                elif shortest is None or len(free) < len(shortest):
                    shortest = free
    if shortest is None:
        return True
    l = shortest[0]
    return (_dpll(clauses, {**assign, abs(l): l > 0})
            or _dpll(clauses, {**assign, abs(l): l < 0}))


def _learnt_during(clauses, histories):
    """Every clause learnt while solving under each assumption list in
    turn on one handle, as DIMACS literals."""
    s = CdclSolver()
    learnt = []
    analyze = s._analyze

    def spy(confl):
        out = analyze(confl)
        learnt.append([_idx_lit(i) for i in out[0]])
        return out

    s._analyze = spy
    for c in clauses:
        s.add_clause(c)
    for a in histories:
        s.solve(a)
        _assert_watches_consistent(s)
    return learnt


def _selector_pigeons(p):
    """PHP(p, p - 1) with each pigeon's clause guarded by a selector: the
    clauses alone are satisfiable, all selectors together are not."""
    h = p - 1
    x = lambda i, j: i * h + j + 1  # noqa: E731
    sel = [p * h + i + 1 for i in range(p)]
    clauses = [[x(i, j) for j in range(h)] + [-sel[i]] for i in range(p)]
    for j in range(h):
        for a, b in itertools.combinations(range(p), 2):
            clauses.append([-x(a, j), -x(b, j)])
    return clauses, sel


def test_every_learnt_clause_follows_from_the_input():
    """Each learnt clause, minimized, is implied by the clauses loaded:
    with its literals all false they are unsatisfiable, checked by a
    DPLL that learns nothing.  Answers and cores alone miss an unsound
    minimization that drops a literal now and then."""
    cases = []
    for p in (5, 6, 7):
        clauses, sel = _selector_pigeons(p)
        cases.append((clauses, [sel]))
    for seed in range(20):
        nv = 20 + 5 * (seed % 3)
        rng = random.Random(seed)
        cases.append((list(_k_sat(seed, nv, int(nv * 4.26))),
                      [[], _random_assumptions(rng, nv, 5)]))
    total = 0
    for clauses, histories in cases:
        learnt = _learnt_during(clauses, histories)
        for c in learnt:
            assert not _dpll(clauses, {abs(l): l < 0 for l in c}), c
        total += len(learnt)
    assert total >= 1000, total


def test_search_pinned_on_random_cnf_with_assumptions():
    for seed, rows in RANDOM_CNF_ROWS.items():
        assert pinned_random_cnf_rows(seed) == rows, seed


def test_search_pinned_on_random_3sat():
    for seed, rows in K_SAT_ROWS.items():
        assert pinned_k_sat_rows(seed) == rows, seed


def test_search_pinned_on_incremental_selector_loop():
    assert pinned_incremental_rows() == INCREMENTAL_ROWS


# Recorded with blocker literals, local learnt-clause minimization, phase
# saving and Luby restarts; a change to any of them moves these rows.
RANDOM_CNF_ROWS = {
    0: [
        ('UNSAT', (), 0, 0, 4, 0),
        ('UNSAT', (), 0, 0, 4, 0),
        ('UNSAT', (), 0, 0, 4, 0),
    ],
    1: [
        ('SAT', (), 1, 7, 13, 3913845864),
        ('UNSAT', (3,), 1, 7, 13, 0),
        ('UNSAT', (-2,), 1, 7, 15, 0),
    ],
    2: [
        ('SAT', (), 0, 6, 12, 1915753420),
        ('UNSAT', (-2,), 0, 6, 13, 0),
        ('SAT', (), 0, 9, 23, 3463180543),
    ],
    3: [
        ('SAT', (), 0, 10, 13, 259278466),
        ('UNSAT', (-10, 9), 0, 10, 16, 0),
        ('UNSAT', (4,), 0, 10, 22, 0),
    ],
    4: [
        ('UNSAT', (), 0, 0, 0, 0),
        ('UNSAT', (), 0, 0, 0, 0),
        ('UNSAT', (), 0, 0, 0, 0),
    ],
    5: [
        ('SAT', (), 0, 7, 15, 2245996508),
        ('UNSAT', (10,), 0, 7, 15, 0),
        ('UNSAT', (-15,), 0, 7, 15, 0),
    ],
    6: [
        ('SAT', (), 0, 8, 16, 3191680180),
        ('UNSAT', (8,), 0, 8, 17, 0),
        ('UNSAT', (-6,), 0, 8, 17, 0),
    ],
    7: [
        ('UNSAT', (), 0, 0, 0, 0),
        ('UNSAT', (), 0, 0, 0, 0),
        ('UNSAT', (), 0, 0, 0, 0),
    ],
    8: [
        ('SAT', (), 0, 2, 11, 3516647497),
        ('UNSAT', (4,), 0, 2, 11, 0),
        ('UNSAT', (-9,), 0, 2, 11, 0),
    ],
    9: [
        ('UNSAT', (), 0, 0, 0, 0),
        ('UNSAT', (), 0, 0, 0, 0),
        ('UNSAT', (), 0, 0, 0, 0),
    ],
    10: [
        ('SAT', (), 0, 6, 13, 891392712),
        ('UNSAT', (-7,), 0, 6, 15, 0),
        ('UNSAT', (-8,), 0, 6, 21, 0),
    ],
    11: [
        ('UNSAT', (), 0, 0, 0, 0),
        ('UNSAT', (), 0, 0, 0, 0),
        ('UNSAT', (), 0, 0, 0, 0),
    ],
    12: [
        ('UNSAT', (), 0, 0, 4, 0),
        ('UNSAT', (), 0, 0, 4, 0),
        ('UNSAT', (), 0, 0, 4, 0),
    ],
    13: [
        ('SAT', (), 0, 8, 16, 2712796392),
        ('UNSAT', (9,), 0, 8, 16, 0),
        ('UNSAT', (9,), 0, 8, 17, 0),
    ],
    14: [
        ('SAT', (), 0, 2, 10, 3466897535),
        ('UNSAT', (-2,), 0, 2, 10, 0),
        ('UNSAT', (-8, -7), 0, 2, 12, 0),
    ],
    15: [
        ('UNSAT', (), 0, 0, 0, 0),
        ('UNSAT', (), 0, 0, 0, 0),
        ('UNSAT', (), 0, 0, 0, 0),
    ],
    16: [
        ('UNSAT', (), 0, 0, 0, 0),
        ('UNSAT', (), 0, 0, 0, 0),
        ('UNSAT', (), 0, 0, 0, 0),
    ],
    17: [
        ('UNSAT', (), 0, 0, 0, 0),
        ('UNSAT', (), 0, 0, 0, 0),
        ('UNSAT', (), 0, 0, 0, 0),
    ],
    18: [
        ('SAT', (), 0, 1, 14, 268425710),
        ('UNSAT', (11,), 0, 1, 14, 0),
        ('UNSAT', (13,), 0, 1, 14, 0),
    ],
    19: [
        ('UNSAT', (), 0, 0, 0, 0),
        ('UNSAT', (), 0, 0, 0, 0),
        ('UNSAT', (), 0, 0, 0, 0),
    ],
    20: [
        ('SAT', (), 0, 13, 16, 3155499678),
        ('SAT', (), 0, 21, 31, 3979276131),
        ('SAT', (), 0, 29, 46, 1196338715),
    ],
    21: [
        ('SAT', (), 0, 4, 10, 820658383),
        ('SAT', (), 0, 4, 15, 2831858445),
        ('UNSAT', (4,), 0, 4, 16, 0),
    ],
    22: [
        ('UNSAT', (), 0, 0, 0, 0),
        ('UNSAT', (), 0, 0, 0, 0),
        ('UNSAT', (), 0, 0, 0, 0),
    ],
    23: [
        ('SAT', (), 0, 5, 12, 1740551294),
        ('UNSAT', (-2,), 0, 5, 14, 0),
        ('UNSAT', (-2,), 0, 5, 18, 0),
    ],
    24: [
        ('SAT', (), 0, 6, 13, 2371804012),
        ('SAT', (), 0, 9, 21, 2226851535),
        ('SAT', (), 0, 11, 29, 1719228212),
    ],
    25: [
        ('UNSAT', (), 0, 0, 0, 0),
        ('UNSAT', (), 0, 0, 0, 0),
        ('UNSAT', (), 0, 0, 0, 0),
    ],
    26: [
        ('SAT', (), 0, 8, 15, 3460763849),
        ('SAT', (), 0, 13, 23, 1440898214),
        ('UNSAT', (-1,), 0, 13, 23, 0),
    ],
    27: [
        ('SAT', (), 1, 8, 20, 2040127842),
        ('SAT', (), 1, 13, 30, 1539798757),
        ('UNSAT', (-5, 7), 1, 13, 34, 0),
    ],
    28: [
        ('UNSAT', (), 0, 0, 0, 0),
        ('UNSAT', (), 0, 0, 0, 0),
        ('UNSAT', (), 0, 0, 0, 0),
    ],
    29: [
        ('SAT', (), 0, 3, 11, 3701053884),
        ('SAT', (), 0, 4, 15, 3701053884),
        ('UNSAT', (11,), 0, 4, 15, 0),
    ],
    30: [
        ('SAT', (), 0, 2, 12, 1919270653),
        ('UNSAT', (-1, 10), 0, 2, 14, 0),
        ('UNSAT', (7,), 0, 2, 14, 0),
    ],
    31: [
        ('SAT', (), 0, 6, 13, 1345295997),
        ('SAT', (), 0, 10, 19, 734938188),
        ('UNSAT', (9,), 0, 10, 19, 0),
    ],
    32: [
        ('UNSAT', (), 0, 0, 0, 0),
        ('UNSAT', (), 0, 0, 0, 0),
        ('UNSAT', (), 0, 0, 0, 0),
    ],
    33: [
        ('UNSAT', (), 0, 0, 0, 0),
        ('UNSAT', (), 0, 0, 0, 0),
        ('UNSAT', (), 0, 0, 0, 0),
    ],
    34: [
        ('UNSAT', (), 0, 0, 0, 0),
        ('UNSAT', (), 0, 0, 0, 0),
        ('UNSAT', (), 0, 0, 0, 0),
    ],
    35: [
        ('UNSAT', (), 0, 0, 0, 0),
        ('UNSAT', (), 0, 0, 0, 0),
        ('UNSAT', (), 0, 0, 0, 0),
    ],
    36: [
        ('UNSAT', (), 0, 0, 8, 0),
        ('UNSAT', (), 0, 0, 8, 0),
        ('UNSAT', (), 0, 0, 8, 0),
    ],
    37: [
        ('UNSAT', (), 0, 0, 0, 0),
        ('UNSAT', (), 0, 0, 0, 0),
        ('UNSAT', (), 0, 0, 0, 0),
    ],
    38: [
        ('UNSAT', (), 0, 0, 0, 0),
        ('UNSAT', (), 0, 0, 0, 0),
        ('UNSAT', (), 0, 0, 0, 0),
    ],
    39: [
        ('SAT', (), 0, 7, 14, 3824143228),
        ('SAT', (), 0, 11, 23, 1949443695),
        ('UNSAT', (11,), 0, 11, 23, 0),
    ],
}

K_SAT_ROWS = {
    0: [
        ('UNSAT', (), 40, 43, 501, 0),
        ('UNSAT', (), 40, 43, 501, 0),
        ('UNSAT', (), 40, 43, 501, 0),
    ],
    1: [
        ('UNSAT', (), 56, 62, 772, 0),
        ('UNSAT', (), 56, 62, 772, 0),
        ('UNSAT', (), 56, 62, 772, 0),
    ],
    2: [
        ('SAT', (), 33, 56, 600, 2176092416),
        ('UNSAT', (-4, 6, 24, 56), 45, 68, 731, 0),
        ('UNSAT', (-44, -38, -26, -11, 28, 41), 50, 70, 813, 0),
    ],
    3: [
        ('SAT', (), 117, 146, 2146, 1667021783),
        ('UNSAT', (-48, -17, 31, 61, 70), 146, 179, 2694, 0),
        ('UNSAT', (-56, -30, -25, 51, 61), 149, 182, 2768, 0),
    ],
    4: [
        ('SAT', (), 39, 63, 726, 501249533),
        ('UNSAT', (-62, 14, 31, 39, 51), 52, 75, 1110, 0),
        ('UNSAT', (-69, 36, 67), 52, 75, 1121, 0),
    ],
    5: [
        ('UNSAT', (), 443, 561, 9475, 0),
        ('UNSAT', (), 443, 561, 9475, 0),
        ('UNSAT', (), 443, 561, 9475, 0),
    ],
}

INCREMENTAL_ROWS = [
    ('UNSAT', (31, 32, 35, 38, 39, 40, 42, 45, 46, 47, 48, 49, 54), 9, 1, 212,
     0),
    ('UNSAT', (56, 58, 64, 69, 74, 85), 11, 2, 316, 0),
    ('UNSAT', (44, 50, 51, 53, 60, 61, 63, 67, 68, 70, 77, 92, 100, 104, 106,
     110, 112, 114, 116), 17, 5, 500, 0),
    ('UNSAT', (43, 52, 59, 62, 66, 71, 72, 78, 79, 83, 87, 89, 96, 102, 140,
     154), 24, 11, 687, 0),
    ('UNSAT', (34, 37, 57, 65, 82, 86, 90, 118, 120, 122, 126, 128, 146, 158,
     166, 172, 182, 190, 192, 194, 196, 198), 36, 23, 981, 0),
    ('UNSAT', (33, 41, 55, 75, 81, 136, 148, 150, 164, 168, 174, 176, 178, 180,
     188), 51, 36, 1392, 0),
    ('SAT', (), 65, 74, 2052, 1569472237),
]
