import json
import os
import random
import subprocess
import sys

import pytest

import labelmax
from labelmax import cli, solver
from labelmax.cli import PREPS, PipelineError, main, run_pipeline
from labelmax.dimacs import parse_wcnf, write_wcnf
from labelmax.lcnf_prep import bce_fixpoint, preprocess_lcnf
from labelmax.model import (WCNF, MaxSatSolution, StackEntry,
                            clause_satisfied, is_tautology, lcnf_from_wcnf,
                            lift_reduction_solution, reconstruct)
from labelmax.oracle import brute_force_maxsat, random_wcnf
from labelmax.solver import MODES
from support import (lclause, pigeon_wcnf, tseitin_wcnf, unit_soft_formula,
                     with_unit_pairs)

EXAMPLE1 = """\
p wcnf 3 6 7
1 1 0
1 -1 0
1 1 2 0
1 1 -2 0
1 3 0
1 -3 0
"""

HARD_UNSAT = """\
p wcnf 1 3 4
4 1 0
4 -1 0
1 1 0
"""

# soft pigeonhole: refuting it needs real search conflicts, so a zero
# conflict budget is guaranteed to trip
PIGEON = """\
p wcnf 6 9 10
1 1 2 0
1 3 4 0
1 5 6 0
1 -1 -3 0
1 -1 -5 0
1 -3 -5 0
1 -2 -4 0
1 -2 -6 0
1 -4 -6 0
"""


# ---------------------------------------------------------------------------
# run_pipeline


@pytest.mark.parametrize("prep", PREPS)
@pytest.mark.parametrize("mode", ["noninc", "inc"])
def test_pipeline_example1_all_flag_combinations(prep, mode):
    f = unit_soft_formula()
    res = run_pipeline(f, prep=prep, mode=mode)
    assert res.status == "optimum"
    assert res.solution.cost == 2
    assert set(res.solution.model) == {1, 2, 3}
    assert f.cost_of(res.solution.model) == 2


def test_pipeline_model_answers_for_the_original_formula():
    f = WCNF()
    f.add_hard((1, 2))
    f.add_soft((-1,), 3)
    f.add_soft((-2,), 2)
    f.add_soft((1, -3), 1)
    res = run_pipeline(f)
    assert res.status == "optimum"
    assert all(clause_satisfied(c, res.solution.model) for c in f.hard)
    assert f.cost_of(res.solution.model) == res.solution.cost == 2
    assert res.solution.falsified == {2}


def test_pipeline_unsat_hard():
    res = run_pipeline(parse_wcnf(HARD_UNSAT).wcnf)
    assert res.status == "unsat-hard"
    assert res.solution is None


def test_pipeline_budget_exhaustion_is_unknown():
    res = run_pipeline(parse_wcnf(PIGEON).wcnf, prep="none",
                       conflict_budget=0)
    assert res.status == "unknown"


def test_pipeline_rejects_unknown_prep():
    with pytest.raises(ValueError):
        run_pipeline(unit_soft_formula(), prep="rs,bce")


def test_pipeline_stats_carry_prep_counts():
    res = run_pipeline(unit_soft_formula(), prep="bce,rs")
    assert {"iterations", "rounds", "load_events", "bce_removed",
            "bve_eliminated"} <= set(res.stats)


def tautology_wcnf(seed):
    """``random_wcnf(seed)`` plus one to three tautologies, hard or soft
    with weights 1-5, some with a third literal."""
    f = random_wcnf(seed)
    rng = random.Random(seed)
    for _ in range(rng.randint(1, 3)):
        v, w = rng.sample(range(1, f.num_vars + 1), 2)
        lits = [v, -v] + [rng.choice([w, -w])] * rng.randint(0, 1)
        if rng.random() < 0.3:
            f.add_hard(lits)
        else:
            f.add_soft(lits, rng.randint(1, 5))
    return f


def test_pipeline_cost_independent_of_flags_on_random_instances():
    # the headline invariant: answers never depend on prep/mode
    tautological = [tautology_wcnf(seed) for seed in range(40)]
    # BVE turns soft x/-x pairs into clauses without literals, whose
    # labels the core loop takes as cores without a SAT call
    paired = [with_unit_pairs(seed) for seed in range(40)]
    free = 0
    for f in [random_wcnf(seed) for seed in range(40)] + tautological + \
            paired:
        expect = brute_force_maxsat(f)
        for prep in PREPS:
            for mode in ("noninc", "inc"):
                res = run_pipeline(f, prep=prep, mode=mode)
                if expect is None:
                    assert res.status == "unsat-hard"
                    continue
                assert res.status == "optimum"
                assert res.solution.cost == expect.cost, (f, prep, mode)
                # run_pipeline already re-checked the model; check again here
                assert f.cost_of(res.solution.model) == expect.cost
                if "rs" not in prep:  # no input has such a clause
                    assert res.stats["free_cores"] == 0
                free += res.stats["free_cores"]
    assert free >= 100, free
    # each preprocessor drops them on entry, with no stack entry
    for f in tautological:
        out, record = bce_fixpoint(lcnf_from_wcnf(f))
        assert not any(is_tautology(c.lits) for c in out.clauses)
        assert not any(is_tautology(c.lits) for e in record for c in e.group)
        out, _ = preprocess_lcnf(lcnf_from_wcnf(f))
        assert not any(is_tautology(c.lits) for c in out.clauses)


def test_pipeline_cost_independent_of_flags_with_large_weights():
    # weights up to 2^59 keep the weight sum of 18 clauses under the
    # 2^64 - 1 cap while optima reach far past 2^32
    for seed in range(150):
        f = random_wcnf(seed, max_weight=2**59)
        expect = brute_force_maxsat(f)
        for prep in PREPS:
            for mode in ("noninc", "inc"):
                res = run_pipeline(f, prep=prep, mode=mode)
                assert res.status == "optimum"
                assert res.solution.cost == expect.cost, (seed, prep, mode)


def test_pipeline_verification_catches_a_lying_cost(monkeypatch):
    import labelmax.cli as cli_mod
    from labelmax.solver import SolveReport, solve_lcnf as real_solve

    def lying(phi, **kw):
        rep = real_solve(phi, **kw)
        if rep.status != "optimum":
            return rep
        sol = rep.solution
        bad = type(sol)(sol.model, sol.cost + 1, sol.falsified)
        return SolveReport(rep.status, bad, rep.stats)

    monkeypatch.setattr(cli_mod, "solve_lcnf", lying)
    with pytest.raises(PipelineError):
        run_pipeline(unit_soft_formula(), prep="none")


# ---------------------------------------------------------------------------
# solve subcommand


def test_solve_example1_output(tmp_path, capsys):
    path = tmp_path / "ex1.wcnf"
    path.write_text(EXAMPLE1)
    code = main(["solve", "--prep=bce,rs", "--mode=inc", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "o 2"
    assert lines[1] == "s OPTIMUM FOUND"
    assert lines[2].startswith("v ") and lines[2].endswith(" 0")
    assert len(lines[2].split()) == 5  # v, three literals, terminating 0


def test_solve_cost_identical_across_preps(tmp_path, capsys):
    path = tmp_path / "ex1.wcnf"
    path.write_text(EXAMPLE1)
    o_lines = set()
    for prep in PREPS:
        assert main(["solve", f"--prep={prep}", str(path)]) == 0
        o_lines.add(capsys.readouterr().out.splitlines()[0])
    assert o_lines == {"o 2"}


def test_solve_reads_stdin(tmp_path, capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO(EXAMPLE1))
    assert main(["solve", "-"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "o 2"


def test_solve_unsat_hard_exit_20(tmp_path, capsys):
    path = tmp_path / "bad.wcnf"
    path.write_text(HARD_UNSAT)
    assert main(["solve", str(path)]) == 20
    assert capsys.readouterr().out == "s UNSATISFIABLE\n"


def test_solve_budget_unknown_exit_1(tmp_path, capsys):
    path = tmp_path / "pigeon.wcnf"
    path.write_text(PIGEON)
    code = main(["solve", "--prep=none", "--budget=0", str(path)])
    assert code == 1
    assert capsys.readouterr().out == "s UNKNOWN\n"


def test_solve_parse_error_exit_1(tmp_path, capsys):
    path = tmp_path / "garbage.wcnf"
    path.write_text("p wcnf 2 1 5\n5 1 junk 0\n")
    assert main(["solve", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("sep", ["\t", "  "], ids=["tab", "two-spaces"])
@pytest.mark.parametrize("text,cost", [
    (EXAMPLE1.replace("p wcnf", "p{sep}wcnf"), 2),
    ("p{sep}cnf 1 2\n1 0\n-1 0\n", 1),
], ids=["wcnf", "cnf"])
def test_solve_reads_headers_with_any_whitespace(tmp_path, capsys, sep,
                                                 text, cost):
    path = tmp_path / "in.txt"
    path.write_text(text.format(sep=sep))
    assert main(["solve", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == f"o {cost}"


@pytest.mark.parametrize("argv", [
    ["solve", "--budget=-1", "{path}"],
    ["fuzz", "--n", "-3"],
])
def test_negative_counts_are_an_error(tmp_path, capsys, argv):
    path = tmp_path / "ex1.wcnf"
    path.write_text(EXAMPLE1)
    assert main([a.format(path=path) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert len(captured.err.splitlines()) == 1


def test_fuzz_with_no_instances_is_valid(capsys):
    assert main(["fuzz", "--n", "0"]) == 0
    assert "0 instances" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["solve", "--mode=foo", "x.wcnf"],
    ["solve", "--budget=x", "x.wcnf"],
    # one algorithm, so no option names one
    ["solve", "--alg=wmsu1", "x.wcnf"],
    ["fuzz", "--n", "three"],
])
def test_usage_errors_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


def test_solve_missing_file_exit_1(capsys):
    assert main(["solve", "/nonexistent/x.wcnf"]) == 1
    assert "error:" in capsys.readouterr().err


def test_solve_trace_lines_precede_solution(tmp_path, capsys):
    path = tmp_path / "ex1.wcnf"
    path.write_text(EXAMPLE1)
    assert main(["solve", "--trace", "--prep=none", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert any(l.startswith("c iteration 1:") for l in lines)
    assert any(l.startswith("c round 1: ") for l in lines)
    assert any(l.startswith("c stat load_events ") for l in lines)
    assert any(l.startswith("c stat rounds ") for l in lines)
    assert any(l.startswith("c stat restarts ") for l in lines)
    assert any(l.startswith("c stat minimized_literals ") for l in lines)
    assert lines[-3] == "o 2"


@pytest.mark.parametrize("prep, free", [("none", 0), ("rs", 1)])
def test_solve_trace_names_free_cores(prep, free, tmp_path, capsys):
    # x and -x, soft: BVE merges them into one clause without literals,
    # whose labels are a core the loop takes without a SAT call
    path = tmp_path / "units.wcnf"
    path.write_text("p wcnf 1 2 5\n1 1 0\n1 -1 0\n")
    assert main(["solve", "--trace", f"--prep={prep}", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    kind = "free core" if free else "core"
    assert f"c iteration 1: {kind} 2, min weight 1, lower bound 1" in lines
    assert f"c stat free_cores {free}" in lines
    assert "o 1" in lines


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("prep", PREPS)
def test_solve_trace_upper_bounds_close_at_the_optimum(prep, mode, capsys):
    """Each ``c upper bound`` line undercuts the one before it, and the
    last equals the printed cost, which is also the last round's lower
    bound when the run had rounds."""
    golden = os.path.join(os.path.dirname(__file__), "golden")
    for name in ("tautology.wcnf", "units.wcnf", "soft-empty-clause.wcnf",
                 "basic.wcnf", "mixed.wcnf", "all-hard.wcnf"):
        path = os.path.join(golden, name)
        assert main(["solve", "--trace", f"--prep={prep}", f"--mode={mode}",
                     path]) == 0
        lines = capsys.readouterr().out.splitlines()
        cost = int(next(l for l in lines if l.startswith("o "))[2:])
        uppers = [int(l.split()[-1]) for l in lines
                  if l.startswith("c upper bound ")]
        assert uppers and uppers[-1] == cost, name
        assert all(a > b for a, b in zip(uppers, uppers[1:])), name
        lower = [int(l.split()[-1]) for l in lines
                 if l.startswith("c round ")]
        assert lower[-1:] in ([], [cost]), name


def test_second_main_call_starts_from_the_defaults(tmp_path, capsys,
                                                   monkeypatch):
    # the argument parser is built once per process and then reused
    path = tmp_path / "ex1.wcnf"
    path.write_text(EXAMPLE1)
    modes = []

    def spy(*args, **kw):
        modes.append(kw["mode"])
        return run_pipeline(*args, **kw)

    monkeypatch.setattr(cli, "run_pipeline", spy)
    cli._build_parser.cache_clear()
    assert main(["solve", "--mode=inc", "--trace", str(path)]) == 0
    first = capsys.readouterr().out.splitlines()
    assert main(["solve", str(path)]) == 0
    second = capsys.readouterr().out.splitlines()
    assert cli._build_parser.cache_info().misses == 1
    assert modes == ["inc", "noninc"]
    assert any(l.startswith("c stat ") for l in first)
    assert not any(l.startswith("c stat ") for l in second)
    assert not any(l.startswith("c iteration ") for l in second)
    assert first[-3:] == second[-3:]


def _unfit_lift(stack, tau, removed=frozenset()):
    # no value of x1 satisfies both hard units
    return reconstruct([StackEntry(1, frozenset([lclause([1]),
                                                 lclause([-1])]))], tau)


# each breaks one internal check: (owner, name, replacement, input,
# message, or a pair of messages without BVE and with it); the answer to the first input is x2 true at cost 0, to the
# second cost 1
INTERNAL_FAULTS = {
    # the lifted model sets every variable false, which falsifies the
    # hard clause (1 2)
    "verify": (cli, "bce_reconstruct",
               lambda record, tau, removed=frozenset(): {},
               "p wcnf 2 2 5\n5 1 2 0\n1 -1 0\n",
               "falsifies hard clause (1, 2)"),
    "lift": (cli, "bve_reconstruct", _unfit_lift,
             "p wcnf 2 2 5\n5 1 2 0\n1 -1 0\n",
             "does not fit the record"),
    # certification charges nothing, so the hard check's model meets
    # the bound 0 at once and the solver reports cost 0: the final
    # check catches it, or after BVE (``rs``) the lift does, since no
    # model fits the clause without literals BVE left unless a label is
    # removed
    "certify": (solver, "_min_cost_hitting_set",
                lambda families, weights, cap=None: frozenset(),
                "p wcnf 1 2 3\n1 1 0\n1 -1 0\n",
                ("cost mismatch: solver reported 0",
                 "does not fit the record")),
    # certification charges every label for each model, so the last
    # round, which finds no core, ends on a model above the bound
    "overcharge": (solver, "_min_cost_hitting_set",
                   lambda families, weights, cap=None: frozenset(weights),
                   "p wcnf 1 2 3\n1 1 0\n1 -1 0\n",
                   "accumulated bound 1 does not match"),
    # the bound counts each core's weight twice, which passes the charge
    # of the hard check's model
    "bound": (solver, "add_weights", lambda *weights: 2 * sum(weights),
              "p wcnf 1 2 3\n1 1 0\n1 -1 0\n",
              "accumulated bound 2 does not match"),
}


# a "verify" case is named by its prep alone, the others by prep and fault
@pytest.mark.parametrize("prep,fault", [
    pytest.param(p, f, id=p if f == "verify" else f"{p}-{f}")
    for f in sorted(INTERNAL_FAULTS) for p in PREPS])
def test_solve_verification_failure_is_an_internal_error(tmp_path, capsys,
                                                         monkeypatch, prep,
                                                         fault):
    owner, name, replacement, text, message = INTERNAL_FAULTS[fault]
    path = tmp_path / "in.wcnf"
    path.write_text(text)
    monkeypatch.setattr(owner, name, replacement)
    assert main(["solve", f"--prep={prep}", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: ")
    if isinstance(message, tuple):  # (without BVE, with it)
        message = message["rs" in prep.split(",")]
    assert message in captured.err
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("header", ["p wcnf 1 2", f"p wcnf 1 2 {2**64 - 1}"])
def test_solve_weight_sum_above_cap_is_an_error(tmp_path, capsys, header):
    path = tmp_path / "huge.wcnf"
    path.write_text(f"{header}\n{2**64 - 2} 1 0\n{2**64 - 2} -1 0\n")
    assert main(["solve", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("command", [["solve"], ["preprocess"],
                                     ["preprocess", "--emit-wcnf"],
                                     ["oracle"]])
def test_parser_warnings_are_printed_as_comments(tmp_path, capsys, command):
    path = tmp_path / "miscounted.wcnf"
    path.write_text(EXAMPLE1.replace("p wcnf 3 6 7", "p wcnf 3 5 7"))
    assert main(command + [str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "c warning: header declares 5 clauses, file contains 6"
    assert not any("warning" in l for l in lines[1:])


def test_solve_vline_spans_declared_variables(tmp_path, capsys):
    # declared universe is wider than the clauses mention
    path = tmp_path / "wide.wcnf"
    path.write_text("p wcnf 4 2 5\n4 1 0\n1 2 0\n")
    assert main(["solve", str(path)]) == 0
    vline = capsys.readouterr().out.splitlines()[-1]
    assert len(vline.split()) == 6


# ---------------------------------------------------------------------------
# preprocess subcommand


def test_preprocess_debug_view(tmp_path, capsys):
    path = tmp_path / "ex1.wcnf"
    path.write_text(EXAMPLE1)
    assert main(["preprocess", "--prep=bce,rs", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("c bce removed ")
    assert "c bve eliminated " in out


def test_preprocess_emit_wcnf_roundtrips_cost(tmp_path, capsys):
    path = tmp_path / "ex1.wcnf"
    path.write_text(EXAMPLE1)
    out_path = tmp_path / "enc.wcnf"
    code = main(["preprocess", "--emit-wcnf", "--out", str(out_path),
                 str(path)])
    assert code == 0
    enc = parse_wcnf(out_path.read_text()).wcnf
    # selector encoding preserves the optimum of the original formula
    res = run_pipeline(enc, prep="none")
    assert res.status == "optimum" and res.solution.cost == 2

    sidecar = json.loads((tmp_path / "enc.wcnf.sidecar.json").read_text())
    assert set(sidecar) == {"num_vars", "selectors", "stack"}
    assert all(int(l) > 0 for l in sidecar["selectors"])


def test_preprocess_emit_wcnf_stdout(tmp_path, capsys):
    path = tmp_path / "ex1.wcnf"
    path.write_text(EXAMPLE1)
    assert main(["preprocess", "--emit-wcnf", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("p wcnf ")


def test_preprocess_labels_are_the_input_soft_clause_numbers(tmp_path,
                                                             capsys):
    # BCE removes soft clause 1, (3), on its pure literal; the others
    # keep their numbers 2 and 3, as under every other prep
    path = tmp_path / "in.wcnf"
    path.write_text("p wcnf 3 3 100\n2 3 0\n5 1 0\n7 -1 0\n")
    weights = ["c w 1 2", "c w 2 5", "c w 3 7"]
    assert main(["preprocess", "--prep=bce", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "c bce removed 1", "c bve eliminated 0", *weights,
        "1 | 2", "-1 | 3"]
    for prep in ("none", "rs", "bce,rs"):
        assert main(["preprocess", f"--prep={prep}", str(path)]) == 0
        assert capsys.readouterr().out.splitlines()[2:5] == weights
    out_path = tmp_path / "enc.wcnf"
    assert main(["preprocess", "--prep=bce", "--emit-wcnf", "--out",
                 str(out_path), str(path)]) == 0
    sidecar = json.loads((tmp_path / "enc.wcnf.sidecar.json").read_text())
    assert list(sidecar["selectors"]) == ["2", "3"]
    assert sidecar["stack"] == [
        {"var": 3, "group": [{"lits": [3], "labels": [1]}]}]


@pytest.mark.parametrize("declared,ok", [(999_998, True), (1_000_000, False)])
def test_preprocess_refuses_to_emit_a_header_above_the_cap(tmp_path, capsys,
                                                          declared, ok):
    # two selectors above the highest variable: at 1,000,000 the emitted
    # header would declare 1,000,002, which solve refuses to read
    path, out_path = tmp_path / "in.wcnf", tmp_path / "enc.wcnf"
    path.write_text(f"p wcnf {declared} 3 10\n10 {declared} 0\n"
                    f"3 -{declared} 2 0\n2 -2 0\n")
    code = main(["preprocess", "--prep=none", "--emit-wcnf", "--out",
                 str(out_path), str(path)])
    captured = capsys.readouterr()
    if ok:
        assert code == 0
        # at the cap: solve reads it
        assert parse_wcnf(out_path.read_text()).wcnf.num_vars == 1_000_000
        return
    assert code == 1
    assert captured.out == ""
    assert captured.err == ("error: the emitted WCNF would declare 1000002 "
                            "variables, more than the cap of 1000000\n")
    assert list(tmp_path.iterdir()) == [path]


def unit_pairs_wcnf(seed, pairs=12):
    """Soft units (x) and (-x) for every variable, weights 1-9."""
    rng = random.Random(seed)
    f = WCNF()
    for v in range(1, pairs + 1):
        f.add_soft([v], rng.randint(1, 9))
        f.add_soft([-v], rng.randint(1, 9))
    return f


def lift_through_sidecar(path, model, cost):
    """A model of the emitted WCNF lifted to the input's variables with
    nothing but the sidecar at ``path``."""
    side = json.loads(path.read_text())
    selectors = {int(l): v for l, v in side["selectors"].items()}
    inner = lift_reduction_solution(MaxSatSolution(model, cost), selectors)
    stack = [StackEntry(e["var"], frozenset(lclause(c["lits"], c["labels"])
                                            for c in e["group"]))
             for e in side["stack"]]
    tau = reconstruct(stack, inner.model, inner.falsified)
    return {v: tau.get(v, 0) for v in range(1, side["num_vars"] + 1)}


def test_emitted_wcnf_solution_lifts_through_the_sidecar(tmp_path, capsys):
    # the up-front route: preprocess, solve the emitted file with no
    # preprocessing of its own, then lift from the files on disk alone
    instances = ([random_wcnf(seed) for seed in range(300)] +
                 [tseitin_wcnf(seed) for seed in range(6)] +
                 [tseitin_wcnf(seed, 8, 30) for seed in range(3)] +
                 [pigeon_wcnf(0, 3, 1), pigeon_wcnf(1, 3, 2),
                  pigeon_wcnf(2, 4, 1)] +
                 [unit_pairs_wcnf(seed) for seed in range(6)] +
                 [tautology_wcnf(seed) for seed in range(20)])
    src, enc = tmp_path / "in.wcnf", tmp_path / "enc.wcnf"
    sidecar = tmp_path / "enc.wcnf.sidecar.json"
    lifted = 0
    for f in instances:
        want = run_pipeline(f)
        src.write_text(write_wcnf(f))
        assert main(["preprocess", "--emit-wcnf", "--out", str(enc),
                     str(src)]) == 0
        for mode in MODES:
            code = main(["solve", "--prep=none", f"--mode={mode}", str(enc)])
            lines = capsys.readouterr().out.splitlines()
            if want.status == "unsat-hard":
                assert code == 20
                continue
            assert code == 0
            cost = int(next(l for l in lines if l.startswith("o "))[2:])
            vline = next(l for l in lines if l.startswith("v "))
            model = {abs(l): int(l > 0) for l in map(int, vline.split()[1:-1])}
            tau = lift_through_sidecar(sidecar, model, cost)
            assert all(clause_satisfied(c, tau) for c in f.hard)
            assert f.cost_of(tau) == cost == want.solution.cost
            lifted += 1
    assert lifted >= 500


def test_preprocess_sidecar_without_emit_wcnf_is_an_error(tmp_path, capsys):
    # the sidecar records how to lift a model of the emitted wcnf, so
    # without one there is nothing it could belong to
    path = tmp_path / "ex1.wcnf"
    path.write_text(EXAMPLE1)
    sidecar = tmp_path / "rec.json"
    assert main(["preprocess", "--sidecar", str(sidecar), str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert len(captured.err.splitlines()) == 1
    assert not sidecar.exists()


# ---------------------------------------------------------------------------
# oracle and fuzz subcommands


def test_oracle_matches_solve(tmp_path, capsys):
    path = tmp_path / "ex1.wcnf"
    path.write_text(EXAMPLE1)
    assert main(["oracle", str(path)]) == 0
    oracle_out = capsys.readouterr().out
    assert main(["solve", str(path)]) == 0
    solve_out = capsys.readouterr().out
    assert oracle_out.splitlines()[0] == solve_out.splitlines()[0] == "o 2"


def test_oracle_rejects_oversized_instance(tmp_path, capsys):
    path = tmp_path / "big.wcnf"
    path.write_text("p wcnf 30 1 2\n1 30 0\n")
    assert main(["oracle", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_fuzz_smoke(capsys):
    assert main(["fuzz", "--n", "3", "--seed", "7"]) == 0
    assert "0 mismatches" in capsys.readouterr().out


def test_importing_the_cli_does_not_load_numpy():
    """labelmax has no runtime dependency; ``labelmax solve`` must not
    load numpy, which only the benchmark's references use."""
    code = "import sys, labelmax.cli; print('numpy' in sys.modules)"
    src = os.path.dirname(os.path.dirname(labelmax.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "False"


def test_importing_the_cli_loads_only_what_solve_needs():
    """``solve`` runs in a fresh interpreter per input, so its import
    should not pay for modules it never uses: ``dataclasses`` (and with
    it ``inspect``), ``json``, which only ``preprocess``'s sidecar
    needs, or the brute-force oracle of ``oracle`` and ``fuzz``."""
    code = ("import sys; before = set(sys.modules); import labelmax.cli; "
            "print(*sorted(set(sys.modules) - before))")
    src = os.path.dirname(os.path.dirname(labelmax.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    loaded = set(out.stdout.split())
    assert "labelmax.cli" in loaded
    unused = {"dataclasses", "inspect", "json", "labelmax.oracle"}
    assert not loaded & unused, sorted(loaded & unused)


def test_python_dash_m_runs_the_cli():
    src = os.path.dirname(os.path.dirname(labelmax.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-m", "labelmax", "fuzz", "--n",
                          "5"], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("c fuzz: 5 instances")
    assert "0 mismatches" in out.stdout
