"""Parsing and emission against the golden corpus in tests/golden/."""

import pathlib
import random
import time

import pytest

from labelmax.dimacs import (
    MAX_VARS,
    ParseError,
    parse_auto,
    parse_cnf,
    parse_wcnf,
    write_solution,
    write_wcnf,
)
from labelmax.model import MaxSatSolution, WCNF

GOLDEN = pathlib.Path(__file__).parent / "golden"

#: golden file -> (hard count, soft count, declared vars) for valid inputs
VALID = {
    "basic.wcnf": (1, 2, 2),
    "units.wcnf": (0, 2, 1),
    "legacy-notop.wcnf": (0, 2, 2),
    "comments.wcnf": (0, 2, 2),
    "hard-empty-clause.wcnf": (1, 1, 1),
    "soft-empty-clause.wcnf": (0, 2, 1),
    "dup-lits.wcnf": (0, 1, 2),
    "tautology.wcnf": (0, 2, 2),
    "big-weights.wcnf": (0, 2, 2),
    "all-hard.wcnf": (2, 0, 2),
    "mixed.wcnf": (2, 5, 4),
    "unused-vars.wcnf": (0, 2, 9),
    "dup-hard.wcnf": (1, 1, 1),
    "dup-soft.wcnf": (1, 2, 1),  # duplicate soft entries both kept
    "basic.cnf": (0, 2, 1),
    "wide.cnf": (0, 1, 3),
    "comments.cnf": (0, 2, 2),
    "trailing-blank.cnf": (0, 1, 2),
}

#: golden file -> (error substring, line number)
ERRORS = {
    "err-weight0.wcnf": ("weight 0", 2),
    "err-weight-above-top.wcnf": ("exceeds top", 2),
    "err-negative-weight.wcnf": ("negative clause weight", 2),
    "err-missing-zero.wcnf": ("terminating 0", 2),
    "err-dup-token.cnf": ("repeated literal token", 2),
    "err-h-format.wcnf": ("2022+", 1),
    "err-nonint.wcnf": ("non-integer", 2),
    "err-var-range.wcnf": ("beyond declared", 2),
    "err-bad-header.wcnf": ("malformed header", 1),
    "err-zero-inside.wcnf": ("0 inside clause", 2),
    "err-no-header.wcnf": ("header", 1),
    "err-missing-zero.cnf": ("terminating 0", 2),
}


def _parse(name, text):
    return parse_cnf(text) if name.endswith(".cnf") else parse_wcnf(text)


def test_corpus_is_large_enough():
    assert len(VALID) + len(ERRORS) >= 20
    listed = set(VALID) | set(ERRORS)
    on_disk = {p.name for p in GOLDEN.iterdir()}
    assert listed == on_disk


@pytest.mark.parametrize("name", sorted(VALID))
def test_golden_valid_round_trip(name):
    """parse -> write -> parse is structurally stable and byte-exact."""
    text = (GOLDEN / name).read_text()
    inst = _parse(name, text)
    nh, ns, nv = VALID[name]
    assert len(inst.wcnf.hard) == nh
    assert len(inst.wcnf.soft) == ns
    assert inst.wcnf.num_vars == nv
    emitted = write_wcnf(inst.wcnf)
    reparsed = parse_wcnf(emitted)
    assert reparsed.wcnf.hard == inst.wcnf.hard
    assert reparsed.wcnf.soft == inst.wcnf.soft
    assert reparsed.wcnf.num_vars == inst.wcnf.num_vars
    assert write_wcnf(reparsed.wcnf) == emitted  # byte-exact second pass


@pytest.mark.parametrize("name", sorted(ERRORS))
def test_golden_errors(name):
    text = (GOLDEN / name).read_text()
    substring, line_no = ERRORS[name]
    with pytest.raises(ParseError) as exc:
        _parse(name, text)
    assert substring in str(exc.value)
    assert exc.value.line_no == line_no


@pytest.mark.parametrize("name", sorted(VALID) + sorted(ERRORS))
def test_golden_parse_auto_matches_the_extension_parser(name):
    """The command line reads every file with ``parse_auto``."""
    text = (GOLDEN / name).read_text()
    if name in ERRORS:
        substring, line_no = ERRORS[name]
        with pytest.raises(ParseError) as exc:
            parse_auto(text)
        assert substring in str(exc.value)
        assert exc.value.line_no == line_no
        return
    want, got = _parse(name, text), parse_auto(text)
    assert got.wcnf.hard == want.wcnf.hard
    assert got.wcnf.soft == want.wcnf.soft
    assert got.wcnf.num_vars == want.wcnf.num_vars
    assert got.warnings == want.warnings


def test_basic_wcnf_values():
    inst = parse_wcnf((GOLDEN / "basic.wcnf").read_text())
    assert inst.wcnf.hard == [(1,)]
    assert inst.wcnf.soft == [((-1, 2), 3), ((-2,), 2)]


def test_units_wcnf_values():
    inst = parse_wcnf((GOLDEN / "units.wcnf").read_text())
    assert inst.wcnf.soft == [((1,), 1), ((-1,), 1)]


def test_cnf_reads_as_unit_weight_soft():
    inst = parse_cnf((GOLDEN / "basic.cnf").read_text())
    assert inst.wcnf.hard == []
    assert inst.wcnf.soft == [((1,), 1), ((-1,), 1)]
    inst = parse_cnf((GOLDEN / "wide.cnf").read_text())
    assert inst.wcnf.soft == [((1, -2, 3), 1)]


def test_legacy_header_all_soft():
    inst = parse_wcnf((GOLDEN / "legacy-notop.wcnf").read_text())
    assert inst.wcnf.hard == []
    assert [w for _, w in inst.wcnf.soft] == [3, 1]


def test_duplicate_literals_dedup_in_wcnf():
    inst = parse_wcnf((GOLDEN / "dup-lits.wcnf").read_text())
    assert inst.wcnf.soft == [((1, 2), 5)]


def test_clause_count_mismatch_is_a_warning():
    inst = parse_wcnf("p wcnf 1 5 9\n1 1 0\n")
    assert any("declares 5 clauses" in w for w in inst.warnings)


def test_top_not_above_soft_sum_is_a_warning():
    inst = parse_wcnf("p wcnf 1 2 3\n2 1 0\n2 -1 0\n")
    assert any("top 3" in w for w in inst.warnings)


def test_parses_share_no_warnings_list():
    first, second = (parse_wcnf("p wcnf 1 1 9\n1 1 0\n") for _ in range(2))
    assert first.warnings == [] and first.warnings is not second.warnings


def test_declared_variable_count_is_capped():
    # the v line lists every declared variable, so the header sets its size
    assert parse_cnf(f"p cnf {MAX_VARS} 1\n1 0\n").wcnf.num_vars == MAX_VARS
    for header in (f"p cnf {MAX_VARS + 1} 1", f"p wcnf {10 ** 23} 1 5"):
        with pytest.raises(ParseError, match="line 1: .* cap of"):
            parse_auto(header + "\n1 0\n")


def test_parse_auto_dispatches_on_header():
    # each parser rejects the other's header
    assert parse_auto("p cnf 1 1\n1 0\n").wcnf.soft == [((1,), 1)]
    assert parse_auto("p wcnf 1 1 5\n5 1 0\n").wcnf.hard == [(1,)]


@pytest.mark.parametrize("sep", ["\t", "  "], ids=["tab", "two-spaces"])
def test_header_is_read_by_tokens(sep):
    cnf = f"p{sep}cnf 2{sep}2\n1 2 0\n-1 0\n"
    wcnf = f"p{sep}wcnf 2 2{sep}5\n5 1 2 0\n3 -1 0\n"
    for parse, text in ((parse_auto, cnf), (parse_cnf, cnf)):
        assert parse(text).wcnf.soft == [((1, 2), 1), ((-1,), 1)]
    for parse, text in ((parse_auto, wcnf), (parse_wcnf, wcnf)):
        inst = parse(text)
        assert inst.wcnf.hard == [(1, 2)]
        assert inst.wcnf.soft == [((-1,), 3)]
        assert inst.warnings == []


def test_many_hard_clauses_parse_in_linear_time():
    # 40,000 distinct hard clauses, then 10,000 repeats of earlier ones;
    # a list scan per clause takes about 15 s here, a set lookup 0.1 s
    rng = random.Random(0)
    rows = [(i // 200 + 1, -(i % 200 + 201)) for i in range(40000)]
    rows += [rows[rng.randrange(len(rows))] for _ in range(10000)]
    text = f"p wcnf 400 {len(rows)} 9\n" + "".join(
        f"9 {a} {b} 0\n" for a, b in rows)
    start = time.perf_counter()
    inst = parse_wcnf(text)
    assert time.perf_counter() - start < 5.0
    assert inst.wcnf.hard == rows[:40000]
    assert inst.wcnf.soft == []


def test_add_hard_after_hard_was_replaced():
    f = WCNF()
    f.add_hard([1])
    f.hard = [(2,)]
    f.add_hard([1])
    f.add_hard([2])
    assert f.hard == [(2,), (1,)]
    f.hard.append((3,))
    f.add_hard([3])
    assert f.hard == [(2,), (1,), (3,)]


def test_write_solution_lines():
    sol = MaxSatSolution(model={1: 0}, cost=2)
    assert write_solution(sol, "optimum", 1) == "o 2\ns OPTIMUM FOUND\nv -1 0\n"
    sol0 = MaxSatSolution(model={1: 1}, cost=0)
    assert write_solution(sol0, "optimum", 1) == "o 0\ns OPTIMUM FOUND\nv 1 0\n"
    assert write_solution(None, "unsat-hard", 1) == "s UNSATISFIABLE\n"
    assert write_solution(None, "unknown", 1) == "s UNKNOWN\n"
    with pytest.raises(ValueError):
        write_solution(None, "optimum", 1)


def test_write_wcnf_emits_computed_top():
    f = WCNF()
    f.add_hard([1, 2])
    f.add_soft([-1], 3)
    f.add_soft([-2], 4)
    assert write_wcnf(f) == "p wcnf 2 3 8\n8 1 2 0\n3 -1 0\n4 -2 0\n"
