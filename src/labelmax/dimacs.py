"""DIMACS CNF / WCNF parsing and solution-line emission.

Accepted input formats:

* ``p cnf <nv> <nc>`` followed by clause lines ``<lits...> 0`` -- every
  clause becomes a soft clause of weight 1 (plain MaxSAT reading).
* ``p wcnf <nv> <nc> <top>`` followed by ``<w> <lits...> 0`` -- clauses
  with ``w == top`` are hard, all others soft of weight ``w``.
* ``p wcnf <nv> <nc>`` (legacy, no top) -- every clause is soft.

The 2022+ header-less format with ``h``-prefixed hard clauses is
rejected with a pointer to the classic format, and so is a header that
declares more than ``MAX_VARS`` variables: the ``v`` line lists every
declared variable, so the header, not the formula, sets the size of the
output and of the models built for it.  Parsing is line-based:
one clause per line, terminated by a single ``0``.  Lines are read as
whitespace-separated tokens, the header included; ``parse_auto`` takes
the format from the header.

Output follows the usual evaluation convention: ``o <cost>``, then an
``s`` status line, then a ``v`` model line (signed literals, trailing
0).  Emission is deterministic byte-for-byte.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple

from .model import MaxSatSolution, WCNF, clause

MAX_VARS = 1_000_000


class ParseError(ValueError):
    """Input rejected; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class ParsedInstance(NamedTuple):
    wcnf: WCNF  # num_vars is the header's variable count
    warnings: List[str]


def _int_tokens(tokens: List[str], line_no: int) -> List[int]:
    out = []
    for t in tokens:
        try:
            out.append(int(t))
        except ValueError:
            raise ParseError(line_no, f"non-integer token {t!r}")
    return out


def _split_clause_tokens(nums: List[int], line_no: int) -> Tuple[int, ...]:
    """Literals of one clause line: everything before a single final 0."""
    if not nums or nums[-1] != 0:
        raise ParseError(line_no, "clause line missing terminating 0")
    lits = nums[:-1]
    if 0 in lits:
        raise ParseError(line_no, "unexpected 0 inside clause line")
    return tuple(lits)


def _content_lines(text: str):
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        yield i, line


def _parse(text: str, fmt: Optional[str]) -> ParsedInstance:
    """Read ``fmt`` ("cnf" or "wcnf"); None takes the format from the
    header, reading anything but ``p cnf`` as wcnf."""
    lines = _content_lines(text)
    want = f"'p {fmt}'" if fmt else "'p cnf' or 'p wcnf'"
    first = next(lines, None)
    if first is None:
        raise ParseError(1, f"empty input: no {want} header found")
    line_no, line = first
    header = line.split()
    if header[0] != "p":
        if header[0] == "h":
            raise ParseError(
                line_no,
                "'h'-prefixed hard clause (2022+ format) not supported; "
                "use the classic 'p wcnf <nv> <nc> <top>' header")
        raise ParseError(line_no, f"expected {want} header before clauses")
    if fmt is None:
        fmt = "cnf" if header[1:2] == ["cnf"] else "wcnf"
    cnf = fmt == "cnf"
    if header[1:2] != [fmt] or len(header) not in ((4,) if cnf else (4, 5)):
        raise ParseError(line_no, f"malformed header {line!r}")
    nv, nc, *rest = _int_tokens(header[2:], line_no)
    if nv < 0 or nc < 0:
        raise ParseError(line_no, "negative counts in header")
    if nv > MAX_VARS:
        raise ParseError(line_no, f"header declares {nv} variables, "
                                  f"more than the cap of {MAX_VARS}")
    top: Optional[int] = rest[0] if rest else None
    if top is not None and top < 1:
        raise ParseError(line_no, f"top weight must be >= 1, got {top}")

    f = WCNF(num_vars=nv)
    warnings: List[str] = []
    clause_lines = 0
    for line_no, line in lines:
        nums = _int_tokens(line.split(), line_no)
        w = 1 if cnf else nums.pop(0)
        lits = _split_clause_tokens(nums, line_no)
        # a repeated literal token usually means a weight-prefixed wcnf
        # line was fed to the cnf reader; reject rather than guess
        if cnf and len(lits) != len(set(lits)):
            raise ParseError(line_no,
                             "repeated literal token in cnf clause line")
        if w == 0:
            raise ParseError(line_no, "clause weight 0")
        if w < 0:
            raise ParseError(line_no, f"negative clause weight {w}")
        if top is not None and w > top:
            raise ParseError(line_no, f"clause weight {w} exceeds top {top}")
        for l in lits:
            if abs(l) > nv:
                raise ParseError(
                    line_no, f"variable {abs(l)} beyond declared maximum {nv}")
        if w == top:
            f.add_hard(lits)
        else:
            f.add_soft(lits, w)
        clause_lines += 1
    if clause_lines != nc:
        warnings.append(
            f"header declares {nc} clauses, file contains {clause_lines}")
    if top is not None and f.soft and f.soft_weight_sum() >= top:
        warnings.append(
            f"top {top} does not exceed the soft weight sum "
            f"{f.soft_weight_sum()}")
    return ParsedInstance(f, warnings)


def parse_cnf(text: str) -> ParsedInstance:
    return _parse(text, "cnf")


def parse_wcnf(text: str) -> ParsedInstance:
    return _parse(text, "wcnf")


def parse_auto(text: str) -> ParsedInstance:
    """Take the format from the ``p`` header."""
    return _parse(text, None)


# ---------------------------------------------------------------------------
# emission


def write_wcnf(f: WCNF) -> str:
    """Canonical WCNF emission: hard first, then soft in stored order."""
    top = f.top()
    lines = [f"p wcnf {f.num_vars} {len(f.hard) + len(f.soft)} {top}"]
    for c in f.hard:
        lines.append(" ".join(str(x) for x in (top, *c, 0)))
    for c, w in f.soft:
        lines.append(" ".join(str(x) for x in (w, *c, 0)))
    return "\n".join(lines) + "\n"


def write_solution(sol: Optional[MaxSatSolution], status: str,
                   num_vars: int) -> str:
    """Evaluation-style output. ``status``: optimum | unsat-hard | unknown."""
    if status == "unsat-hard":
        return "s UNSATISFIABLE\n"
    if status == "unknown":
        return "s UNKNOWN\n"
    if status != "optimum" or sol is None:
        raise ValueError(f"bad status {status!r} or missing solution")
    lits = sol.model_tuple(num_vars)
    return (f"o {sol.cost}\n"
            "s OPTIMUM FOUND\n"
            "v " + " ".join(str(l) for l in lits + (0,)) + "\n")
