from labelmax.model import LCNF, cost_of_labels
from labelmax.oracle import brute_force_maxsat
from labelmax.reduction import lcnf_to_wcnf, lift_reduction_solution
from support import (brute_force_lcnf_maxsat, induced_subformula,
                     labelled_example, lclause, lcnf_satisfied, random_lcnf,
                     truth_table_sat)


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
