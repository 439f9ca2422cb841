"""Untimed checks of the benchmark's references and answer checker.

    PYTHONPATH=src python3 -m pytest benchmarks/test_references.py -q

Every family's reference optimum must match labelmax under all four
``--prep`` values and both ``--mode`` values, and the brute-force oracle
wherever an instance has at most 20 variables.  Unit-pair samples stay at
20 pairs or fewer, because certification after BVE is exponential there.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from families import (WORKLOADS, Instance, evaluate, pigeon,  # noqa: E402
                      tseitin, unit_pairs)
from labelmax import cli  # noqa: E402
from labelmax.model import WCNF  # noqa: E402
from labelmax.oracle import MAX_ORACLE_VARS, brute_force_maxsat  # noqa: E402

SAMPLES = [
    tseitin(1, 0, n_inputs=5, n_gates=12),
    tseitin(2, 1, n_inputs=6, n_gates=14),
    tseitin(3, 2, n_inputs=10, n_gates=40),
    pigeon(1, 0, holes=3, surplus=1),
    pigeon(2, 1, holes=4, surplus=1),
    pigeon(3, 2, holes=3, surplus=2),
    pigeon(4, 3, holes=4, surplus=2),
    unit_pairs(1, 0, pairs=8),
    unit_pairs(2, 1, pairs=14),
    unit_pairs(3, 2, pairs=20),
]


def _ids(inst: Instance) -> str:
    return inst.name


def _solve(inst: Instance, prep: str, mode: str, tmp_path: Path) -> str:
    path = tmp_path / f"{inst.name}.wcnf"
    path.write_text(inst.to_wcnf())
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(["solve", f"--prep={prep}", f"--mode={mode}",
                       str(path)])
    assert rc == 0
    return out.getvalue()


@pytest.mark.parametrize("mode", ["noninc", "inc"])
@pytest.mark.parametrize("prep", cli.PREPS)
@pytest.mark.parametrize("inst", SAMPLES, ids=_ids)
def test_every_configuration_returns_the_reference(inst, prep, mode,
                                                    tmp_path):
    assert evaluate(inst, _solve(inst, prep, mode, tmp_path)) is None


@pytest.mark.parametrize(
    "inst", [i for i in SAMPLES if i.num_vars <= MAX_ORACLE_VARS], ids=_ids)
def test_oracle_agrees_with_the_reference(inst):
    f = WCNF(num_vars=inst.num_vars)
    for c in inst.hard:
        f.add_hard(c)
    for c, w in inst.soft:
        f.add_soft(c, w)
    sol = brute_force_maxsat(f)
    assert sol is not None and sol.cost == inst.reference


def test_every_family_has_an_oracle_sized_sample():
    small = {i.name.rsplit("-", 2)[0] for i in SAMPLES
             if i.num_vars <= MAX_ORACLE_VARS}
    assert small == set(WORKLOADS)


def test_evaluate_rejects_wrong_answers(tmp_path):
    inst = pigeon(1, 0, holes=3, surplus=1)
    good = _solve(inst, "none", "noninc", tmp_path)
    assert evaluate(inst, good) is None
    lines = good.splitlines()
    cost = int(lines[0].split()[1])
    wrong_cost = "\n".join([f"o {cost + 1}"] + lines[1:])
    assert "falsifies weight" in evaluate(inst, wrong_cost)
    # every pigeon in hole 1 breaks the hard at-most-one clauses
    crowded = " ".join(str(v if (v - 1) % 3 == 0 else -v)
                       for v in range(1, inst.num_vars + 1))
    assert "hard clause" in evaluate(
        inst, "\n".join(lines[:2] + [f"v {crowded} 0"]))
    v = lines[2].split()
    short = " ".join(v[:-2] + ["0"])
    assert "misses variable" in evaluate(inst, "\n".join(lines[:2] + [short]))
    first = int(v[1])
    for extra, why in ((first, "twice"), (-first, "both true and false"),
                       (inst.num_vars + 1, "out of range"),
                       (-(inst.num_vars + 1), "out of range")):
        padded = " ".join(v[:-1] + [str(extra), "0"])
        assert why in evaluate(inst, "\n".join(lines[:2] + [padded]))
    assert "more than one v line" in evaluate(inst, good + lines[2] + "\n")
    assert "status" in evaluate(inst, "s UNKNOWN\n")
    assert evaluate(inst, "o x\ns OPTIMUM FOUND\n").startswith("malformed")


def test_reference_mismatch_is_reported(tmp_path):
    inst = unit_pairs(1, 0, pairs=4)
    out = _solve(inst, "none", "noninc", tmp_path)
    inst.reference += 1
    assert "reference optimum" in evaluate(inst, out)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_corpus_depends_only_on_the_seed(name):
    wl = WORKLOADS[name]
    first = [i.to_wcnf() for i in wl.corpus(7, 1)[:3]]
    again = [i.to_wcnf() for i in wl.corpus(7, 1)[:3]]
    other = [i.to_wcnf() for i in wl.corpus(8, 1)[:3]]
    assert first == again
    assert first != other
