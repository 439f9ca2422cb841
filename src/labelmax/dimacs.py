"""DIMACS CNF / WCNF parsing and solution-line emission.

Accepted input formats:

* ``p cnf <nv> <nc>`` followed by clause lines ``<lits...> 0`` -- every
  clause becomes a soft clause of weight 1 (plain MaxSAT reading).
* ``p wcnf <nv> <nc> <top>`` followed by ``<w> <lits...> 0`` -- clauses
  with ``w == top`` are hard, all others soft of weight ``w``.
* ``p wcnf <nv> <nc>`` (legacy, no top) -- every clause is soft.

The 2022+ header-less format with ``h``-prefixed hard clauses is
rejected with a pointer to the classic format.  Parsing is line-based:
one clause per line, terminated by a single ``0``.

Output follows the usual evaluation convention: ``o <cost>``, then an
``s`` status line, then a ``v`` model line (signed literals, trailing
0).  Emission is deterministic byte-for-byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .model import MaxSatSolution, WCNF, clause


class ParseError(ValueError):
    """Input rejected; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass
class ParsedInstance:
    wcnf: WCNF  # num_vars is the header's variable count
    warnings: List[str] = field(default_factory=list)


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


def _check_vars(lits: Tuple[int, ...], nv: int, line_no: int) -> None:
    for l in lits:
        if abs(l) > nv:
            raise ParseError(
                line_no, f"variable {abs(l)} beyond declared maximum {nv}")


def _content_lines(text: str):
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        yield i, line


def parse_wcnf(text: str) -> ParsedInstance:
    header = None
    nv = nc = 0
    top: Optional[int] = None
    inst = None
    clause_lines = 0
    for line_no, line in _content_lines(text):
        if header is None:
            if not line.startswith("p "):
                if line.startswith("h "):
                    raise ParseError(
                        line_no,
                        "'h'-prefixed hard clause (2022+ format) not supported; "
                        "use the classic 'p wcnf <nv> <nc> <top>' header")
                raise ParseError(line_no, "expected 'p wcnf' header before clauses")
            parts = line.split()
            if len(parts) not in (4, 5) or parts[0] != "p" or parts[1] != "wcnf":
                raise ParseError(line_no, f"malformed header {line!r}")
            nums = _int_tokens(parts[2:], line_no)
            nv, nc = nums[0], nums[1]
            if nv < 0 or nc < 0:
                raise ParseError(line_no, "negative counts in header")
            top = nums[2] if len(nums) == 3 else None
            if top is not None and top < 1:
                raise ParseError(line_no, f"top weight must be >= 1, got {top}")
            header = line
            inst = ParsedInstance(WCNF(num_vars=nv))
            continue
        nums = _int_tokens(line.split(), line_no)
        w, lits = nums[0], _split_clause_tokens(nums[1:], line_no)
        if w == 0:
            raise ParseError(line_no, "clause weight 0")
        if w < 0:
            raise ParseError(line_no, f"negative clause weight {w}")
        if top is not None and w > top:
            raise ParseError(line_no, f"clause weight {w} exceeds top {top}")
        _check_vars(lits, nv, line_no)
        if top is not None and w == top:
            inst.wcnf.add_hard(lits)
        else:
            inst.wcnf.add_soft(lits, w)
        clause_lines += 1
    if header is None:
        raise ParseError(1, "empty input: no 'p wcnf' header found")
    if clause_lines != nc:
        inst.warnings.append(
            f"header declares {nc} clauses, file contains {clause_lines}")
    if top is not None and inst.wcnf.soft and inst.wcnf.soft_weight_sum() >= top:
        inst.warnings.append(
            f"top {top} does not exceed the soft weight sum "
            f"{inst.wcnf.soft_weight_sum()}")
    return inst


def parse_cnf(text: str) -> ParsedInstance:
    header = None
    nv = nc = 0
    inst = None
    clause_lines = 0
    for line_no, line in _content_lines(text):
        if header is None:
            if not line.startswith("p "):
                raise ParseError(line_no, "expected 'p cnf' header before clauses")
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ParseError(line_no, f"malformed header {line!r}")
            nv, nc = _int_tokens(parts[2:], line_no)
            if nv < 0 or nc < 0:
                raise ParseError(line_no, "negative counts in header")
            header = line
            inst = ParsedInstance(WCNF(num_vars=nv))
            continue
        nums = _int_tokens(line.split(), line_no)
        lits = _split_clause_tokens(nums, line_no)
        # a repeated literal token usually means a weight-prefixed wcnf
        # line was fed to the cnf parser; reject rather than guess
        if len(lits) != len(set(lits)):
            raise ParseError(line_no, "repeated literal token in cnf clause line")
        _check_vars(lits, nv, line_no)
        inst.wcnf.add_soft(lits, 1)
        clause_lines += 1
    if header is None:
        raise ParseError(1, "empty input: no 'p cnf' header found")
    if clause_lines != nc:
        inst.warnings.append(
            f"header declares {nc} clauses, file contains {clause_lines}")
    return inst


def parse_auto(text: str) -> ParsedInstance:
    """Dispatch on the first 'p' header found."""
    for _, line in _content_lines(text):
        if line.startswith("p cnf"):
            return parse_cnf(text)
        break
    return parse_wcnf(text)


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
                   num_vars: Optional[int] = None) -> str:
    """Evaluation-style output. ``status``: optimum | unsat-hard | unknown."""
    if status == "unsat-hard":
        return "s UNSATISFIABLE\n"
    if status == "unknown":
        return "s UNKNOWN\n"
    if status != "optimum" or sol is None:
        raise ValueError(f"bad status {status!r} or missing solution")
    if num_vars is None:
        num_vars = max(sol.model, default=0)
    lits = sol.model_tuple(num_vars)
    return (f"o {sol.cost}\n"
            "s OPTIMUM FOUND\n"
            "v " + " ".join(str(l) for l in lits + (0,)) + "\n")
