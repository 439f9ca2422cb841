"""Seeded instance families for the benchmark, with independent references.

Every generator takes the workload seed and an instance index and returns
an ``Instance``: hard clauses, weighted soft clauses and the optimum
computed without labelmax.  ``evaluate`` re-checks an answer against the
generated clauses, again without labelmax.

Families:

* ``tseitin`` -- a random circuit of 2-input AND/OR/XOR gates, defined by
  hard Tseitin clauses, with weighted soft units on every input and on
  the gate outputs that drive no other gate.  Gate values are fixed by
  the inputs, so the optimum is the minimum over all input assignments,
  found by simulating the circuit with numpy.
* ``pigeon`` -- soft pigeonhole: hard pairwise at-most-one per hole and
  one weighted soft clause "pigeon i sits somewhere" per pigeon.  At most
  ``holes`` pigeons can be placed, so the optimum is the sum of the
  ``surplus`` cheapest pigeon weights.
* ``unit-pairs`` -- soft units ``(x)`` and ``(-x)`` per variable; the
  optimum falsifies the cheaper unit of every pair.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

Clause = Tuple[int, ...]


@dataclass
class Instance:
    name: str
    num_vars: int
    hard: List[Clause]
    soft: List[Tuple[Clause, int]]
    reference: int

    def to_wcnf(self) -> str:
        top = sum(w for _, w in self.soft) + 1
        lines = [f"p wcnf {self.num_vars} "
                 f"{len(self.hard) + len(self.soft)} {top}"]
        lines += [" ".join(map(str, (top, *c, 0))) for c in self.hard]
        lines += [" ".join(map(str, (w, *c, 0))) for c, w in self.soft]
        return "\n".join(lines) + "\n"


def _rng(family: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{family}:{seed}:{index}")


# ---------------------------------------------------------------------------
# tseitin circuits

GATE_KINDS = ("and", "or", "xor")
TSEITIN_MAX_WEIGHT = 5


def tseitin_clauses(kind: str, y: int, a: int, b: int) -> List[Clause]:
    """Hard definition of y <-> (a kind b); a and b are literals."""
    if kind == "and":
        return [(-y, a), (-y, b), (y, -a, -b)]
    if kind == "or":
        return [(y, -a), (y, -b), (-y, a, b)]
    if kind == "xor":
        return [(-y, a, b), (-y, -a, -b), (y, -a, b), (y, a, -b)]
    raise ValueError(f"unknown gate kind {kind!r}")


def _circuit_optimum(n_inputs: int, gates: Sequence[Tuple[str, int, int]],
                     soft: Sequence[Tuple[Clause, int]]) -> int:
    """Minimum falsified soft weight over all input assignments.

    Soft clauses here are units, so each one's cost is a weighted
    indicator of one signal's value; every signal is simulated over all
    ``2**n_inputs`` rows at once.
    """
    import numpy as np

    rows = np.arange(2 ** n_inputs, dtype=np.int64)
    sig: Dict[int, "np.ndarray"] = {
        v: ((rows >> (v - 1)) & 1).astype(bool)
        for v in range(1, n_inputs + 1)}

    def value(lit: int) -> "np.ndarray":
        return sig[lit] if lit > 0 else ~sig[-lit]

    for k, (kind, a, b) in enumerate(gates):
        va, vb = value(a), value(b)
        out = va & vb if kind == "and" else (
            va | vb if kind == "or" else va ^ vb)
        sig[n_inputs + 1 + k] = out
    cost = np.zeros(len(rows), dtype=np.int64)
    for (lit,), w in soft:
        # the unit (lit) is falsified where lit reads false
        cost += np.where(value(lit), 0, w)
    return int(cost.min())


def tseitin(seed: int, index: int, n_inputs: int, n_gates: int) -> Instance:
    """Each gate reads one signal that nothing has read yet, while there
    is one, so every gate feeds a later gate or is a sink; the sinks are
    the circuit's outputs and carry the gate-output soft units."""
    rng = _rng("tseitin", seed, index)
    gates: List[Tuple[str, int, int]] = []
    hard: List[Clause] = []
    unread = list(range(1, n_inputs + 1))
    for k in range(n_gates):
        y = n_inputs + 1 + k
        a = unread.pop(rng.randrange(len(unread))) if unread else \
            rng.randrange(1, y)
        b = rng.choice([v for v in range(1, y) if v != a])
        if b in unread:
            unread.remove(b)
        unread.append(y)
        kind = rng.choice(GATE_KINDS)
        a *= rng.choice((1, -1))
        b *= rng.choice((1, -1))
        gates.append((kind, a, b))
        hard.extend(tseitin_clauses(kind, y, a, b))
    soft: List[Tuple[Clause, int]] = []
    for v in range(1, n_inputs + 1):
        soft.append(((rng.choice((v, -v)),),
                     rng.randint(1, TSEITIN_MAX_WEIGHT)))
    for y in sorted(unread):
        soft.append(((rng.choice((y, -y)),),
                     rng.randint(1, TSEITIN_MAX_WEIGHT)))
    ref = _circuit_optimum(n_inputs, gates, soft)
    return Instance(f"tseitin-{seed}-{index}", n_inputs + n_gates, hard,
                    soft, ref)


# ---------------------------------------------------------------------------
# soft pigeonhole


PIGEON_MAX_WEIGHT = 9


def pigeon(seed: int, index: int, holes: int, surplus: int) -> Instance:
    rng = _rng("pigeon", seed, index)
    pigeons = holes + surplus

    def x(i: int, j: int) -> int:  # pigeon i in hole j, both 0-based
        return i * holes + j + 1

    hard = [(-x(i, j), -x(k, j)) for j in range(holes)
            for i in range(pigeons) for k in range(i + 1, pigeons)]
    weights = [rng.randint(1, PIGEON_MAX_WEIGHT) for _ in range(pigeons)]
    soft = [(tuple(x(i, j) for j in range(holes)), weights[i])
            for i in range(pigeons)]
    ref = sum(sorted(weights)[:surplus])
    return Instance(f"pigeon-{seed}-{index}", pigeons * holes, hard, soft,
                    ref)


# ---------------------------------------------------------------------------
# unit pairs


UNIT_PAIRS_MAX_WEIGHT = 5


def unit_pairs(seed: int, index: int, pairs: int) -> Instance:
    rng = _rng("unit-pairs", seed, index)
    soft: List[Tuple[Clause, int]] = []
    ref = 0
    for v in range(1, pairs + 1):
        wp = rng.randint(1, UNIT_PAIRS_MAX_WEIGHT)
        wn = rng.randint(1, UNIT_PAIRS_MAX_WEIGHT)
        soft += [((v,), wp), ((-v,), wn)]
        ref += min(wp, wn)
    return Instance(f"unit-pairs-{seed}-{index}", pairs, [], soft, ref)


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str  # the --mode labelmax runs with; --prep stays the default
    per_second: float  # corpus instances per second of --seconds
    why: str

    def corpus(self, seed: int, seconds: int) -> List[Instance]:
        """The seed's corpus: sizes cycle through fixed strata so every
        seed gets the same size mix; structure and weights come from the
        seed."""
        n = max(20, round(self.per_second * seconds))
        return [_MAKERS[self.name](seed, i) for i in range(n)]


def _tseitin_instance(seed: int, i: int) -> Instance:
    gates = random.Random(f"tseitin-size:{seed}:{i}").randint(28, 34)
    return tseitin(seed, i, n_inputs=(7, 8, 9)[i % 3], n_gates=gates)


def _pigeon_instance(seed: int, i: int) -> Instance:
    holes, surplus = ((6, 1), (6, 1), (5, 2))[i % 3]
    return pigeon(seed, i, holes, surplus)


def _unit_pairs_instance(seed: int, i: int) -> Instance:
    return unit_pairs(seed, i, pairs=(15, 16, 17)[i % 3])


_MAKERS = {"tseitin": _tseitin_instance, "pigeon": _pigeon_instance,
           "unit-pairs": _unit_pairs_instance}

WORKLOADS = {w.name: w for w in (
    Workload("tseitin", "noninc", 6.5,
             "Tseitin circuits full of definitional variables: "
             "label-aware preprocessing (SUB/SSR/BVE) does most of the work"),
    Workload("pigeon", "inc", 1.8,
             "soft pigeonhole: CDCL search on the persistent inc driver "
             "does most of the work, with large symmetric cores"),
    Workload("unit-pairs", "noninc", 16.0,
             "soft x/-x pairs: BVE merges each pair, so certification's "
             "hitting-set search dominates; the engine is used via reloads"),
)}


# ---------------------------------------------------------------------------
# answer checking


def _satisfied(c: Clause, model: Dict[int, bool]) -> bool:
    return any(model.get(abs(l), False) == (l > 0) for l in c)


def evaluate(inst: Instance, output: str) -> Optional[str]:
    """None if ``output`` is a correct optimum answer for ``inst``,
    otherwise a one-line reason."""
    cost: Optional[int] = None
    status: Optional[str] = None
    model: Optional[Dict[int, bool]] = None
    for line in output.splitlines():
        parts = line.split()
        if not parts:
            continue
        try:
            if parts[0] == "o":
                cost = int(parts[1])
            elif parts[0] == "s":
                status = " ".join(parts[1:])
            elif parts[0] == "v":
                lits = [int(t) for t in parts[1:]]
                if not lits or lits[-1] != 0:
                    return "v line not terminated by 0"
                if model is not None:
                    return "more than one v line"
                model = {}
                for l in lits[:-1]:
                    if not 1 <= abs(l) <= inst.num_vars:
                        return f"v line names variable {abs(l)} out of range"
                    if abs(l) in model:
                        return (f"v line sets variable {abs(l)} "
                                + ("twice" if model[abs(l)] == (l > 0)
                                   else "both true and false"))
                    model[abs(l)] = l > 0
        except (IndexError, ValueError):
            return f"malformed line {line!r}"
    if status != "OPTIMUM FOUND":
        return f"status {status!r}"
    if cost is None or model is None:
        return "missing o or v line"
    missing = [v for v in range(1, inst.num_vars + 1) if v not in model]
    if missing:
        return f"v line misses variable {missing[0]}"
    for c in inst.hard:
        if not _satisfied(c, model):
            return f"hard clause {c} falsified"
    falsified = sum(w for c, w in inst.soft if not _satisfied(c, model))
    if falsified != cost:
        return f"o {cost} but the model falsifies weight {falsified}"
    if cost != inst.reference:
        return f"o {cost} but the reference optimum is {inst.reference}"
    return None
