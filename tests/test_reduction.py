from labelmax import solver
from labelmax.lcnf_prep import preprocess_lcnf
from labelmax.model import (LCNF, clause, cost_of_labels, is_tautology,
                            lcnf_from_wcnf, lcnf_to_wcnf,
                            lift_reduction_solution)
from labelmax.oracle import brute_force_maxsat
from support import (brute_force_lcnf_maxsat, induced_subformula,
                     labelled_example, lclause, lcnf_satisfied, random_lcnf,
                     truth_table_sat, tseitin_wcnf)


def test_encoding_of_labelled_example():
    f, sel = lcnf_to_wcnf(labelled_example())
    assert sel == {1: 4, 2: 5, 3: 6}
    assert set(f.hard) == {
        (-1,), (3,), (1, 2, -4), (1, -2, -4, -5), (1, -5), (-3, -6),
    }
    assert sorted(f.soft) == [((4,), 1), ((5,), 1), ((6,), 1)]
    assert f.num_vars == 6


def test_all_hard_input_yields_all_hard_output():
    f, sel = lcnf_to_wcnf(LCNF([lclause([1, 2]), lclause([-2])], {}))
    assert sel == {}
    assert f.soft == []
    assert set(f.hard) == {(1, 2), (-2,)}


def test_single_weighted_label():
    f, sel = lcnf_to_wcnf(LCNF([lclause([1], [1])], {1: 4}))
    assert f.hard == [(1, -2)]
    assert f.soft == [((2,), 4)]


def test_lift_reads_removed_labels_off_the_selectors():
    phi = labelled_example()
    f, sel = lcnf_to_wcnf(phi)
    wsol = brute_force_maxsat(f)
    assert wsol.cost == 2
    lifted = lift_reduction_solution(wsol, sel)
    assert lifted.cost == 2
    assert lifted.falsified == frozenset([2, 3])
    assert set(lifted.model) == {1, 2, 3}
    keep = phi.labels() - lifted.falsified
    assert lcnf_satisfied(induced_subformula(phi, keep), lifted.model)


def test_lift_trivial_cases():
    phi = LCNF([lclause([1], [1])], {1: 4})
    f, sel = lcnf_to_wcnf(phi)
    happy = brute_force_maxsat(f)
    assert lift_reduction_solution(happy, sel).falsified == frozenset()
    assert lift_reduction_solution(happy, sel).cost == 0
    forced, _ = lcnf_to_wcnf(LCNF([lclause([1], [1]), lclause([-1])], {1: 4}))
    sol = lift_reduction_solution(brute_force_maxsat(forced), sel)
    assert sol.cost == 4
    assert sol.falsified == frozenset([1])


def test_reduction_matches_lcnf_optimum_on_random_instances():
    for seed in range(60):
        phi = random_lcnf(seed)
        f, sel = lcnf_to_wcnf(phi)
        wsol = brute_force_maxsat(f)
        expect = brute_force_lcnf_maxsat(phi)
        assert wsol.cost == expect.cost, seed
        lifted = lift_reduction_solution(wsol, sel)
        keep = phi.labels() - lifted.falsified
        assert lcnf_satisfied(induced_subformula(phi, keep), lifted.model)
        assert cost_of_labels(phi, lifted.falsified) == lifted.cost


def test_falsified_selector_acts_as_label_removal():
    # forcing one selector false (others true) must leave a hard part
    # equisatisfiable with the label's removal from the original formula
    for seed in range(8):
        phi = random_lcnf(seed, nvars=6, nclauses=10, nlabels=5)
        f, sel = lcnf_to_wcnf(phi)
        nv = max(sel.values(), default=phi.max_var())
        for i in sorted(phi.labels()):
            forced = list(f.hard) + [(-sel[i],)] + \
                [(sel[j],) for j in sel if j != i]
            direct = induced_subformula(phi, phi.labels() - {i})
            a = truth_table_sat(forced, nv) is not None
            b = truth_table_sat([c.lits for c in direct.clauses],
                                max(phi.max_var(), 1)) is not None
            assert a == b, (seed, i)


def test_core_loop_loads_the_hard_clauses_of_the_reduction(monkeypatch):
    """``preprocess --emit-wcnf`` writes ``lcnf_to_wcnf``'s encoding and
    ``solve`` runs the core loop on the labelled formula; both must
    encode it alike.  Before its first round the loop has loaded exactly
    the reduction's hard clauses, decoded from literal indices, under
    the reduction's selector map."""
    loaded, maps, rounds = [], [], []  # rounds: one entry per round
    enter, encoded, free_cores = \
        solver._enter, solver._encoded, solver._free_cores

    def spy_enter(working, carrying, empty, entries):
        if not rounds:
            loaded.extend(enc for _, enc in entries)
        return enter(working, carrying, empty, entries)

    def spy_encoded(clauses, selectors):
        maps.append(dict(selectors))
        return encoded(clauses, selectors)

    def spy_free_cores(empty, selectors):
        rounds.append(None)
        return free_cores(empty, selectors)

    monkeypatch.setattr(solver, "_enter", spy_enter)
    monkeypatch.setattr(solver, "_encoded", spy_encoded)
    monkeypatch.setattr(solver, "_free_cores", spy_free_cores)
    instances = [random_lcnf(seed) for seed in range(40)]
    # tautologies, which the loop encodes as None, labelled and hard
    instances += [LCNF(phi.clauses | {lclause([1, -1], [min(phi.labels())]),
                                      lclause([-2, 2, 3])},
                       phi.label_weights) for phi in instances[:10]]
    # label sets of up to three labels from label-aware preprocessing
    instances += [preprocess_lcnf(lcnf_from_wcnf(tseitin_wcnf(seed, *size)))[0]
                  for seed in range(6) for size in ((5, 12), (8, 30))]
    for phi in instances:
        del loaded[:], maps[:], rounds[:]
        assert solver.solve_lcnf(phi).status == "optimum"
        f, sel = lcnf_to_wcnf(phi)
        assert maps[0] == sel
        hard = [c for c in f.hard if not is_tautology(c)]
        decoded = [clause(i >> 1 if i & 1 == 0 else -(i >> 1) for i in enc)
                   for enc in loaded if enc is not None]
        assert sorted(decoded) == sorted(hard)
        assert loaded.count(None) == len(f.hard) - len(hard)
