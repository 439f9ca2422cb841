"""Assumption-based incremental CDCL SAT solver.

Design: two-watched-literal propagation with blocker literals, first-UIP
conflict learning with local minimization, activity-driven branching
with deterministic lowest-index tie-breaking and phase saving, Luby
restarts, no learned-clause deletion.  Assumptions are placed
as forced decisions on the first decision levels (one per level), and an
unsatisfiable answer under assumptions carries a failed-assumption
subset read off the final conflict analysis, so the engine can serve as
the core extractor for the MaxSAT loops.

Internally a literal is an index, as in MiniSat: variable ``v`` is
``2v`` when positive and ``2v + 1`` when negative, so negation is
``^ 1`` and the variable is ``>> 1``.  Clauses, watch lists, the trail
and learnt clauses hold indices; DIMACS integers appear only at the API
edge (``encode``/``add_clause``, ``solve``'s assumptions, the model and
the failed assumptions).  ``encode`` canonicalizes a clause once;
``load`` adds a batch of encoded clauses, so a caller that rebuilds
solvers from the same clauses encodes each clause only once.

Each watch list holds ``(clause id, blocker)`` pairs stored flat: a
watcher whose blocker literal is true is kept without reading its
clause.  A clause that is some variable's reason keeps that implied
literal at ``c[0]`` (conflict analysis reads the rest as its
antecedents).  Learnt-clause minimization drops a literal whose reason's
other literals are all in the learnt clause or false at the root
(Sörensson & Biere, SAT 2009); assumption decisions have no reason and
always stay.  Backtracking saves each unassigned variable's sign and a
decision reuses it (Pipatsrisawat & Darwiche, SAT 2007); a new variable
starts false.  Restarts follow the Luby sequence in units of
``_RESTART_UNIT`` conflicts, counted over the handle's whole life, since
one ``inc`` solver answers many short calls.

Clauses are permanent once added; deactivation happens outside the
engine, by selector literals that are no longer assumed.  A handle stays
usable after every solve call (it backtracks to the root level before
returning).

The behaviour is fully deterministic for a fixed add/solve history.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import (Dict, FrozenSet, Iterable, List, NamedTuple, Optional,
                    Sequence, Tuple)

from .model import Assignment

UNASSIGNED, TRUE, FALSE = 0, 1, 2

_RESCALE_LIMIT = 1e100
_ACT_DECAY = 1.0 / 0.95
_RESTART_UNIT = 64
# the lazy branching heap is rebuilt from its live entries once it holds
# this many entries per variable
_ORDER_SLACK = 4


class BudgetExceededError(RuntimeError):
    """Conflict budget exhausted before an answer was reached."""


class SolveOutcome(NamedTuple):
    status: str  # "SAT" | "UNSAT"
    model: Optional[Assignment] = None
    failed_assumptions: FrozenSet[int] = frozenset()

    @property
    def sat(self) -> bool:
        return self.status == "SAT"


def _luby(i: int) -> int:
    """Term ``i`` (from 0) of the Luby sequence 1, 1, 2, 1, 1, 2, 4, ..."""
    size, seq = 1, 0
    while size < i + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != i:
        size = (size - 1) >> 1
        seq -= 1
        i %= size
    return 1 << seq


def _lit_idx(lit: int) -> int:
    return (lit << 1) if lit > 0 else ((-lit << 1) | 1)


def _idx_lit(i: int) -> int:
    return -(i >> 1) if i & 1 else i >> 1


# a clause as ``encode`` returns it: sorted literal indices, or None
Encoded = Optional[List[int]]


def encode(lits: Iterable[int]) -> Encoded:
    """A clause as sorted literal indices without duplicates, or None for
    a tautology; the form :meth:`CdclSolver.load` takes."""
    s = set(lits)
    if not s.isdisjoint([-l for l in s]):
        return None
    # one literal per variable, so index order is variable order; the
    # indices are _lit_idx's, computed inline
    return sorted([l << 1 if l > 0 else -l << 1 | 1 for l in s])


class CdclSolver:
    """Reference engine; see module docstring for the feature set."""

    def __init__(self) -> None:
        self.num_vars = 0
        self._val: List[int] = [UNASSIGNED, UNASSIGNED]  # per literal index
        self._level: List[int] = [0]
        self._reason: List[int] = [-1]  # clause id or -1, per variable
        self._activity: List[float] = [0.0]
        self._phase = bytearray(1)  # saved sign per variable: 1 is false
        # per literal index: clause id, blocker, clause id, blocker, ...
        self._watches: List[List[int]] = [[], []]
        self._clauses: List[List[int]] = []
        self._trail: List[int] = []
        self._trail_lim: List[int] = []
        self._qhead = 0
        self._order: List[Tuple[float, int]] = []
        self._var_inc = 1.0
        self._unsat0 = False
        self._seen = bytearray(1)
        self._next_restart = _RESTART_UNIT * _luby(0)
        self.stats: Dict[str, int] = {
            "conflicts": 0, "decisions": 0, "propagations": 0,
            "clauses_added": 0, "solves": 0, "restarts": 0,
            "minimized_literals": 0,
        }

    # -- variables ---------------------------------------------------------

    def ensure_var(self, v: int) -> None:
        n = v - self.num_vars
        if n <= 0:
            return
        first = self.num_vars + 1
        self.num_vars = v
        self._val.extend([UNASSIGNED] * (2 * n))
        self._level.extend([0] * n)
        self._reason.extend([-1] * n)
        self._activity.extend([0.0] * n)
        self._watches.extend([[] for _ in range(2 * n)])
        self._phase.extend(b"\x01" * n)
        self._seen.extend(bytes(n))
        # no heap entry is smaller than (0.0, u) for a new, highest u, so
        # appending these is what pushing them one by one would do
        self._order.extend([(0.0, u) for u in range(first, v + 1)])

    # -- clause database ---------------------------------------------------

    def add_clause(self, lits: Iterable[int]) -> None:
        """Root-level add; may only be called between solve calls."""
        self.load([encode(lits)])

    def load(self, encoded: Sequence[Encoded]) -> None:
        """Root-level add of clauses made by :func:`encode`, in order;
        the same as ``add_clause`` on each one.  The encodings are not
        kept, so one batch can be loaded into many solvers."""
        assert not self._trail_lim, "load only at the root level"
        self.stats["clauses_added"] += len(encoded)
        top = max([c[-1] for c in encoded if c], default=0) >> 1
        if top > self.num_vars:
            self.ensure_var(top)
        val = self._val
        store = self._clauses.append
        watches = self._watches
        cid = len(self._clauses)
        for c in encoded:
            if c is None:
                continue  # tautology: permanently satisfied
            # drop literals already false at the root, skip if satisfied
            out = [i for i in c if not val[i]]  # UNASSIGNED is 0
            n = len(out)
            if n < len(c) and TRUE in [val[i] for i in c]:
                continue
            if n > 1:
                store(out)
                a, b = out[0], out[1]
                wl = watches[a]
                wl.append(cid)
                wl.append(b)
                wl = watches[b]
                wl.append(cid)
                wl.append(a)
                cid += 1
            elif not out or not self._enqueue(out[0], -1):
                self._unsat0 = True

    # -- trail -------------------------------------------------------------

    def _enqueue(self, p: int, reason: int) -> bool:
        val = self._val
        if val[p] != UNASSIGNED:
            return val[p] == TRUE
        val[p] = TRUE
        val[p ^ 1] = FALSE
        v = p >> 1
        self._level[v] = len(self._trail_lim)
        self._reason[v] = reason
        self._trail.append(p)
        return True

    def _cancel_until(self, level: int) -> None:
        trail_lim = self._trail_lim
        if len(trail_lim) <= level:
            return
        trail = self._trail
        val = self._val
        reason = self._reason
        phase = self._phase
        act = self._activity
        order = self._order
        bound = trail_lim[level]
        for k in range(len(trail) - 1, bound - 1, -1):
            p = trail[k]
            val[p] = UNASSIGNED
            val[p ^ 1] = UNASSIGNED
            v = p >> 1
            reason[v] = -1
            phase[v] = p & 1
            heappush(order, (-act[v], v))
        del trail[bound:]
        del trail_lim[level:]
        self._qhead = len(trail)
        if len(order) > _ORDER_SLACK * self.num_vars:
            self._rebuild_order()

    def _rebuild_order(self) -> None:
        """One entry per unassigned variable at its current activity.
        The lazy heap always holds such an entry for each unassigned
        variable; the entries dropped here are stale or assigned, so the
        variables are picked in the same order."""
        val = self._val
        act = self._activity
        self._order = [(-act[u], u) for u in range(1, self.num_vars + 1)
                       if val[u << 1] == UNASSIGNED]
        self._order.sort()

    # -- propagation -------------------------------------------------------

    def _propagate(self) -> int:
        """Exhaust the queue; return a conflicting clause id or -1."""
        val = self._val
        clauses = self._clauses
        watches = self._watches
        trail = self._trail
        level = self._level
        reason = self._reason
        dl = len(self._trail_lim)
        qhead = start = self._qhead
        confl = -1
        while qhead < len(trail):
            fl = trail[qhead] ^ 1  # clauses watching the false literal
            qhead += 1
            ws = watches[fl]
            n = len(ws)
            i = j = 0
            while i < n:
                cid = ws[i]
                blk = ws[i + 1]
                i += 2
                if val[blk] == TRUE:
                    ws[j] = cid
                    ws[j + 1] = blk
                    j += 2
                    continue
                c = clauses[cid]
                first = c[0]
                if first == fl:
                    first = c[0] = c[1]
                    c[1] = fl
                if val[first] == TRUE:
                    ws[j] = cid
                    ws[j + 1] = first
                    j += 2
                    continue
                for k in range(2, len(c)):
                    lk = c[k]
                    if val[lk] != FALSE:
                        c[1] = lk
                        c[k] = fl
                        wl = watches[lk]
                        wl.append(cid)
                        wl.append(first)
                        break
                else:
                    ws[j] = cid
                    ws[j + 1] = first
                    j += 2
                    if val[first] == FALSE:
                        confl = cid
                        break
                    val[first] = TRUE
                    val[first ^ 1] = FALSE
                    v = first >> 1
                    level[v] = dl
                    reason[v] = cid
                    trail.append(first)
            del ws[j:i]  # after a conflict the unvisited watchers stay
            if confl >= 0:
                break
        self.stats["propagations"] += qhead - start
        self._qhead = len(trail)
        return confl

    # -- conflict analysis -------------------------------------------------

    def _rescale_activity(self) -> None:
        act = self._activity
        for u in range(1, self.num_vars + 1):
            act[u] *= 1e-100
        self._var_inc *= 1e-100
        self._rebuild_order()

    def _analyze(self, confl: int) -> Tuple[List[int], int]:
        """First-UIP learned clause, locally minimized, and its backjump
        level."""
        seen = self._seen
        level = self._level
        trail = self._trail
        clauses = self._clauses
        reason = self._reason
        act = self._activity
        learnt: List[int] = [0]
        path = 0
        p = -1
        idx = len(trail) - 1
        cur = len(self._trail_lim)
        cleanup: List[int] = []
        while True:
            c = clauses[confl]
            for q in (c if p < 0 else c[1:]):
                v = q >> 1
                if not seen[v] and level[v] > 0:
                    seen[v] = 1
                    cleanup.append(v)
                    act[v] += self._var_inc
                    if act[v] > _RESCALE_LIMIT:
                        self._rescale_activity()
                    if level[v] >= cur:
                        path += 1
                    else:
                        learnt.append(q)
            while not seen[trail[idx] >> 1]:
                idx -= 1
            p = trail[idx]
            idx -= 1
            seen[p >> 1] = 0
            path -= 1
            if path == 0:
                break
            confl = reason[p >> 1]
        learnt[0] = p ^ 1
        # seen now marks exactly the variables of learnt[1:]; a literal
        # implied by other marked or root-false literals is redundant
        # (marks of dropped literals stay: each is implied by earlier ones)
        n = len(learnt)
        j = 1
        for k in range(1, n):
            q = learnt[k]
            r = reason[q >> 1]
            if r >= 0:
                for x in clauses[r][1:]:
                    if not seen[x >> 1] and level[x >> 1] > 0:
                        break
                else:
                    continue
            learnt[j] = q
            j += 1
        del learnt[j:]
        self.stats["minimized_literals"] += n - j
        for v in cleanup:
            seen[v] = 0
        if len(learnt) == 1:
            return learnt, 0
        # watch the literal from the highest remaining level
        mi = max(range(1, len(learnt)), key=lambda k: level[learnt[k] >> 1])
        learnt[1], learnt[mi] = learnt[mi], learnt[1]
        return learnt, level[learnt[1] >> 1]

    def _analyze_final(self, a: int) -> FrozenSet[int]:
        """Assumptions responsible for the falsified assumption ``a``,
        as DIMACS literals."""
        failed = {_idx_lit(a)}
        if not self._trail_lim:
            return frozenset(failed)
        seen = self._seen
        level = self._level
        seen[a >> 1] = 1
        for k in range(len(self._trail) - 1, self._trail_lim[0] - 1, -1):
            p = self._trail[k]
            v = p >> 1
            if not seen[v]:
                continue
            if self._reason[v] == -1:
                failed.add(_idx_lit(p))  # an assumption decision
            else:
                for q in self._clauses[self._reason[v]][1:]:
                    if level[q >> 1] > 0:
                        seen[q >> 1] = 1
            seen[v] = 0
        seen[a >> 1] = 0
        return frozenset(failed)

    # -- branching ---------------------------------------------------------

    def _pick_branch_var(self) -> int:
        order = self._order
        act = self._activity
        val = self._val
        while order:
            na, v = heappop(order)
            if val[v << 1] == UNASSIGNED and -na == act[v]:
                return v
        return 0

    # -- main loop ---------------------------------------------------------

    def solve(self, assumptions: Sequence[int] = (),
              conflict_budget: Optional[int] = None) -> SolveOutcome:
        """Search; returns SAT with a total model or UNSAT with a failed
        subset of ``assumptions``.  Raises BudgetExceededError when the
        conflict budget runs out (the handle stays reusable)."""
        self.stats["solves"] += 1
        if assumptions:
            self.ensure_var(max(map(abs, assumptions)))
        if self._unsat0:
            return SolveOutcome("UNSAT", failed_assumptions=frozenset())
        assumed = [_lit_idx(a) for a in assumptions]
        val = self._val
        trail = self._trail
        trail_lim = self._trail_lim
        phase = self._phase
        stats = self.stats
        conflicts = 0
        while True:
            confl = self._propagate()
            if confl >= 0:
                if not trail_lim:
                    self._unsat0 = True
                    return SolveOutcome("UNSAT", failed_assumptions=frozenset())
                conflicts += 1
                stats["conflicts"] += 1
                if conflict_budget is not None and conflicts > conflict_budget:
                    self._cancel_until(0)
                    raise BudgetExceededError(
                        f"conflict budget {conflict_budget} exhausted")
                learnt, bt = self._analyze(confl)
                self._cancel_until(bt)
                if len(learnt) == 1:
                    if not self._enqueue(learnt[0], -1):
                        self._unsat0 = True
                        return SolveOutcome("UNSAT",
                                            failed_assumptions=frozenset())
                else:
                    cid = len(self._clauses)
                    self._clauses.append(learnt)
                    self._watches[learnt[0]] += (cid, learnt[1])
                    self._watches[learnt[1]] += (cid, learnt[0])
                    self._enqueue(learnt[0], cid)
                self._var_inc *= _ACT_DECAY
                if stats["conflicts"] >= self._next_restart:
                    stats["restarts"] += 1
                    self._next_restart = stats["conflicts"] + (
                        _RESTART_UNIT * _luby(stats["restarts"]))
                    self._cancel_until(0)
                continue
            dl = len(trail_lim)
            if dl < len(assumed):
                a = assumed[dl]
                v = val[a]
                if v == TRUE:
                    trail_lim.append(len(trail))
                elif v == FALSE:
                    failed = self._analyze_final(a)
                    self._cancel_until(0)
                    return SolveOutcome("UNSAT", failed_assumptions=failed)
                else:
                    trail_lim.append(len(trail))
                    self._enqueue(a, -1)
            else:
                v = self._pick_branch_var()
                if v == 0:
                    model = {u: 1 if val[u << 1] == TRUE else 0
                             for u in range(1, self.num_vars + 1)}
                    self._cancel_until(0)
                    return SolveOutcome("SAT", model=model)
                stats["decisions"] += 1
                trail_lim.append(len(trail))
                self._enqueue((v << 1) | phase[v], -1)
