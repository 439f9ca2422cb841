"""Resolution-based preprocessing on labelled formulas.

Labelled variable elimination, subsumption and self-subsuming resolution,
all of which preserve the label-level MCSes of the input — and therefore
the optimum of the weighted problem.  Variable elimination is undone per
solution by `bve_reconstruct`.  ``preprocess_lcnf`` runs at most
``MAX_ROUNDS`` rounds, and BVE never creates a clause with more than
``MAX_LABELSET`` labels.

Weight entries of labels whose clauses disappear are deliberately kept in
the weight map: downstream cost accounting may still mention them, and a
label without clauses can never be charged.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from dataclasses import dataclass
from typing import (Callable, Dict, FrozenSet, Iterable, List, Optional,
                    Set, Tuple)

from .model import (Assignment, LCNF, LabelledClause, clause_satisfied,
                    is_tautology)

__all__ = [
    "BveEntry", "BveRecord", "l_resolve", "l_ve", "l_bve",
    "l_sub", "l_ssr", "preprocess_lcnf", "bve_reconstruct", "dump_lcnf",
]


@dataclass(frozen=True)
class BveEntry:
    """One eliminated variable with every clause that mentioned it."""

    var: int
    group: FrozenSet[LabelledClause]


BveRecord = List[BveEntry]


MAX_ROUNDS = 10
# skip a variable whose elimination would create a clause tagged with
# more labels than this; label sets become solver assumptions later
MAX_LABELSET = 32


# ---------------------------------------------------------------------------
# atomic rules


def l_resolve(c1: LabelledClause, c2: LabelledClause, x: int) -> LabelledClause:
    """Resolvent on ``x``: clause parts merged minus x/-x, label sets united.

    The result may be tautological; callers filter.
    """
    if x not in c1.lits:
        raise ValueError(f"variable {x} does not occur positively in {c1!r}")
    if -x not in c2.lits:
        raise ValueError(f"variable {x} does not occur negatively in {c2!r}")
    lits = [l for l in c1.lits if l != x] + [l for l in c2.lits if l != -x]
    return LabelledClause.make(lits, c1.labels | c2.labels)


def l_ve(phi: LCNF, x: int) -> LCNF:
    """Eliminate ``x``: drop every clause mentioning it, add all
    non-tautological resolvents of its positive/negative occurrences.

    Clauses that are themselves tautological contribute no resolvents
    (they are vacuous, and resolving through them would re-introduce x).
    """
    pos: List[LabelledClause] = []
    neg: List[LabelledClause] = []
    rest: List[LabelledClause] = []
    for c in phi.clauses:
        mentions = x in c.lits or -x in c.lits
        if is_tautology(c.lits):
            if not mentions:
                rest.append(c)
            continue
        if x in c.lits:
            pos.append(c)
        elif -x in c.lits:
            neg.append(c)
        else:
            rest.append(c)
    out = set(rest)
    for a in pos:
        for b in neg:
            r = l_resolve(a, b, x)
            if not is_tautology(r.lits):
                out.add(r)
    return LCNF(frozenset(out), dict(phi.label_weights))


def l_bve(phi: LCNF, x: int) -> LCNF:
    """l_ve guarded by x's own clauses (Een & Biere, SAT 2005): apply only
    if the non-tautological clauses with x and with -x make fewer
    non-tautological resolvent pairs than there are clauses mentioning x.

    Each pair gives at most one new clause, so the formula shrinks.
    """
    group = [c for c in phi.clauses if x in c.lits or -x in c.lits]
    live = [c for c in group if not is_tautology(c.lits)]
    pairs = sum(1 for a in live if x in a.lits
                for b in live if -x in b.lits
                if not is_tautology(l_resolve(a, b, x).lits))
    return l_ve(phi, x) if pairs < len(group) else phi


def l_sub(phi: LCNF, c1: LabelledClause, c2: LabelledClause) -> LCNF:
    """Remove c2 if c1 strictly clause-subsumes it and its labels allow.

    Condition: lits(c1) a *strict* subset of lits(c2) and labels(c1) a
    subset of labels(c2).  Equal clause parts are never touched here (set
    semantics already collapsed identical pairs).  No-op unless both
    clauses are present and distinct.
    """
    if c1 == c2 or c1 not in phi.clauses or c2 not in phi.clauses:
        return phi
    if set(c1.lits) < set(c2.lits) and c1.labels <= c2.labels:
        return LCNF(phi.clauses - {c2}, dict(phi.label_weights))
    return phi


def l_ssr(phi: LCNF, c1: LabelledClause, c2: LabelledClause) -> LCNF:
    """Self-subsuming resolution: strengthen c2 by one literal.

    If c1 = (l | A), c2 = (-l | B) with A a strict subset of B and
    labels(c1) a subset of labels(c2), replace c2 by B keeping c2's
    labels.  First matching literal of c1 (canonical order) applies.
    """
    if c1 == c2 or c1 not in phi.clauses or c2 not in phi.clauses:
        return phi
    if not c1.labels <= c2.labels:
        return phi
    s2 = set(c2.lits)
    for l in c1.lits:
        if -l not in s2:
            continue
        a = set(c1.lits) - {l}
        b = s2 - {-l}
        if a < b:
            repl = LabelledClause.make(b, c2.labels)
            return LCNF((phi.clauses - {c2}) | {repl}, dict(phi.label_weights))
    return phi


# ---------------------------------------------------------------------------
# pass schedule
#
# The passes share one mutable clause store with per-literal occurrence
# lists (backward subsumption and strengthening as in Een & Biere, SAT
# 2005).  Each pass gives exactly the clause set, and BVE exactly the
# record, of applying the rules above one at a time in the order given in
# its docstring; the tests check this against such a rule-by-rule
# schedule built from l_sub, l_ssr and l_bve.
#
# The per-pair tests use built-in set operations instead of building
# clauses or sets per pair, and each is tested against its spec:
# ``_ssr_partner`` decides a pair as ``_ssr_pivot`` does, and
# ``_new_resolvents`` decides an elimination as ``l_bve`` does and
# returns what ``l_ve`` puts in place of x's clauses.  The store tracks
# its tautologies, which resolve to nothing in BVE.
#
# After its first run each pass re-examines only what changed since its
# last one (touched sets, as in SatELite): SUB and SSR start from the
# clauses the store logged as added since their last fixpoint, and BVE
# skips a variable whose clauses are still those it last refused.  What
# they leave out can change nothing, so the output stays the same.


class _ClauseStore:
    """A set of labelled clauses plus literal -> clauses occurrence lists.

    ``log`` lists every clause in the order it was added, a clause
    removed and added again once per addition.  A pass that stores the
    log's length when it reaches its fixpoint can find, next time, the
    clauses added since: ``added_since(mark)``.
    """

    def __init__(self, clauses: Iterable[LabelledClause]) -> None:
        self.clauses: Set[LabelledClause] = set()
        self.occ: Dict[int, Set[LabelledClause]] = defaultdict(set)
        # the tautological members, so the passes test membership
        # instead of scanning a clause's literals again
        self.tautologies: Set[LabelledClause] = set()
        self.edits = 0
        self.log: List[LabelledClause] = []
        # where in the log SUB and SSR last reached their fixpoints
        self.sub_mark = 0
        self.ssr_mark = 0
        # variable -> the clauses mentioning it when BVE last refused it
        self.bve_refused: Dict[int, Set[LabelledClause]] = {}
        for c in clauses:
            self.add(c)

    def add(self, c: LabelledClause, tautology: Optional[bool] = None
            ) -> bool:
        """Insert ``c``; False if it was already present.  ``tautology``
        spares the test when the caller knows the answer."""
        if c in self.clauses:
            return False
        self.clauses.add(c)
        for l in c.lits:
            self.occ[l].add(c)
        if tautology is None:
            tautology = is_tautology(c.lits)
        if tautology:
            self.tautologies.add(c)
        self.log.append(c)
        self.edits += 1
        return True

    def remove(self, c: LabelledClause) -> None:
        self.clauses.remove(c)
        for l in c.lits:
            self.occ[l].discard(c)
        self.tautologies.discard(c)
        self.edits += 1

    def mentioning(self, x: int) -> Set[LabelledClause]:
        return self.occ.get(x, set()) | self.occ.get(-x, set())

    def added_since(self, mark: int) -> Set[LabelledClause]:
        """The members added at log position ``mark`` or later."""
        clauses = self.clauses
        return {c for c in self.log[mark:] if c in clauses}


def _sub_fixpoint(store: _ClauseStore) -> None:
    """Drop every clause that another clause strictly subsumes.

    Strict clause inclusion with label inclusion is a strict partial
    order, so the fixpoint is unique: the clauses no other clause
    subsumes.  A clause removed early cannot be missed as a subsumer,
    since whatever it subsumes its own subsumer subsumes too.

    The clauses left by the last fixpoint subsume none of each other,
    and removals keep it so.  So only the clauses added since can
    subsume or be subsumed: each of them removes what it subsumes
    (backward), then is checked against the older clauses (forward).
    """
    new = store.added_since(store.sub_mark)
    # counted before the backward removals, which can leave fewer
    # clauses than there are new ones while older ones remain
    older = len(store.clauses) > len(new)
    occ = store.occ
    for c1 in new:
        if c1 not in store.clauses:
            continue
        if c1.lits:
            rare = None
            for l in c1.lits:
                o = occ[l]
                if rare is None or len(o) < len(rare):
                    rare = o
            candidates = list(rare)
        else:
            candidates = list(store.clauses)
        n1 = len(c1.lits)
        s1 = None
        for c2 in candidates:
            if len(c2.lits) > n1 and c1.labels <= c2.labels:
                if s1 is None:
                    s1 = set(c1.lits)
                if s1.issubset(c2.lits):
                    store.remove(c2)
    if older:
        # a clause without literals is in no occurrence list
        empty = [c for c in store.clauses if not c.lits and c not in new]
        for c2 in new:
            if c2 in store.clauses and _subsumed_by_older(store, c2, new,
                                                          empty):
                store.remove(c2)
    store.sub_mark = len(store.log)


def _subsumed_by_older(store: _ClauseStore, c2: LabelledClause,
                       new: Set[LabelledClause],
                       empty: List[LabelledClause]) -> bool:
    """Whether a clause outside ``new`` strictly subsumes c2.

    Each candidate is tested once: on the scan of its first literal.
    """
    lits2 = c2.lits
    if not lits2:
        return False
    labels2 = c2.labels
    n2 = len(lits2)
    for c1 in empty:
        if c1.labels <= labels2:
            return True
    for l in lits2:
        for c1 in store.occ[l]:
            lits1 = c1.lits
            if (lits1[0] == l and len(lits1) < n2 and c1.labels <= labels2
                    and c1 not in new and set(lits1).issubset(lits2)):
                return True
    return False


def _ssr_pivot(c1: LabelledClause, c2: LabelledClause) -> Optional[int]:
    """The literal on which ``l_ssr(phi, c1, c2)`` strengthens c2, or None."""
    if len(c2.lits) <= len(c1.lits) or not c1.labels <= c2.labels:
        return None
    s1, s2 = set(c1.lits), set(c2.lits)
    for l in c1.lits:
        if -l in s2 and s1 - {l} < s2 - {-l}:
            return l
    return None


def _ssr_partner(store: _ClauseStore, c1: LabelledClause,
                 key: Callable[[LabelledClause], Tuple]
                 ) -> Optional[Tuple[LabelledClause, int]]:
    """The first clause in ``key`` order that c1 strengthens, and the
    pivot ``_ssr_pivot`` gives for it; None if there is no such clause.

    Decides each candidate c2 as ``_ssr_pivot(c1, c2) is not None``
    does.  c2 came up on the scan of l because it holds -l; then c1
    minus l lies in c2 minus -l iff -l is not in c1 and c1 minus l lies
    in c2.  c2 is longer than c1, so the inclusion is strict.  The
    literals of c1 are scanned in order, so the first l that accepts
    c2 is its pivot.
    """
    lits1 = c1.lits
    n1 = len(lits1)
    labels1 = c1.labels
    best = None
    k2: Optional[Tuple] = None
    for l in lits1:
        if -l in lits1:
            continue
        rest = None
        for c in store.occ.get(-l, ()):
            if len(c.lits) <= n1 or not labels1 <= c.labels:
                continue
            if rest is None:
                rest = set(lits1)
                rest.discard(l)
            if not rest.issubset(c.lits):
                continue
            k = key(c)
            if k2 is None or k < k2:
                best, k2 = (c, l), k
    return best


def _ssr_fixpoint(store: _ClauseStore) -> None:
    """Self-subsuming resolution to fixpoint, one strengthening at a time.

    Each step applies the pair a full scan would find first: the first
    c1 in ``sort_key`` order that strengthens any clause, and the first
    such c2 in the same order.  A clause outside the heap strengthens
    nothing.  A step keeps it that way for every clause but the new one:
    whatever strengthens the new clause also strengthened the longer
    clause it replaces.  So only the new clause, and c1, which may
    strengthen more, are queued again.

    The last fixpoint left no clause that strengthens another, and
    removals keep it so.  So the heap starts with the clauses added
    since, and every older clause that strengthens one of them.
    """
    keys: Dict[LabelledClause, Tuple] = {}

    def key(c: LabelledClause) -> Tuple:
        k = keys.get(c)
        if k is None:
            k = keys[c] = c.sort_key()
        return k

    queued = store.added_since(store.ssr_mark)
    if len(queued) < len(store.clauses):
        queued |= _strengtheners(store, queued)
    # keys are distinct per clause, so the heap never compares clauses
    heap = [(key(c), c) for c in queued]
    heapq.heapify(heap)

    def push(c: LabelledClause) -> None:
        if c not in queued:
            queued.add(c)
            heapq.heappush(heap, (key(c), c))

    while heap:
        _, c1 = heapq.heappop(heap)
        queued.discard(c1)
        if c1 not in store.clauses:
            continue
        found = _ssr_partner(store, c1, key)
        if found is None:
            continue
        c2, l = found
        # dropping one literal keeps the canonical order
        repl = LabelledClause(tuple(q for q in c2.lits if q != -l),
                              c2.labels)
        store.remove(c2)
        push(c1)
        if store.add(repl):
            push(repl)
    store.ssr_mark = len(store.log)


def _strengtheners(store: _ClauseStore, new: Set[LabelledClause]
                   ) -> Set[LabelledClause]:
    """The clauses outside ``new`` that strengthen one of its clauses.

    c1 strengthens c2 on l iff c2 holds -l, is longer, carries c1's
    labels, and c1 lies in c2 with -l swapped for l; -l itself then
    cannot be in c1.  So the c1 for pivot l lie in the occurrence list
    of l, the complement of one of c2's literals.
    """
    out: Set[LabelledClause] = set()
    occ = store.occ
    for c2 in new:
        lits2, labels2 = c2.lits, c2.labels
        n2 = len(lits2)
        for m in lits2:
            swapped = None
            for c1 in occ.get(-m, ()):
                if (len(c1.lits) >= n2 or c1 in new or c1 in out
                        or not c1.labels <= labels2):
                    continue
                if swapped is None:
                    swapped = set(lits2)
                    swapped.discard(m)
                    swapped.add(-m)
                if swapped.issuperset(c1.lits):
                    out.add(c1)
    return out


def _new_resolvents(store: _ClauseStore, x: int, limit: int,
                    max_labelset: int) -> Optional[List[LabelledClause]]:
    """The resolvents that eliminating ``x`` puts in place of its
    clauses, one per non-tautological pair of non-tautological clauses;
    None once ``limit`` pairs give a resolvent, or one resolvent carries
    more than ``max_labelset`` labels.

    Reads only the clauses mentioning x.  Resolvents repeated, or
    already in the store, are left for ``store.add`` to collapse.
    """
    # each negative clause's complements without x: a pair resolves to a
    # tautology iff the positive clause meets them
    tautologies = store.tautologies
    neg = []
    for b in store.occ[-x]:
        if b not in tautologies:
            comp = {-m for m in b.lits}
            comp.discard(x)
            neg.append((comp, b, b.labels))
    pairs = []
    for a in store.occ[x]:
        if a in tautologies:
            continue
        a_lits, a_labels = a.lits, a.labels
        for comp, b, b_labels in neg:
            if not comp.isdisjoint(a_lits):
                continue
            if len(pairs) + 1 >= limit:
                return None
            if (len(a_labels) + len(b_labels) > max_labelset
                    and len(a_labels | b_labels) > max_labelset):
                return None
            pairs.append((a, b))
    out = []
    for a, b in pairs:
        lits = set(a.lits)
        lits.update(b.lits)
        lits.discard(x)
        lits.discard(-x)
        # no complementary pair: one literal per variable, so the order
        # by variable alone is the canonical one
        out.append(LabelledClause(tuple(sorted(lits, key=abs)),
                                  a.labels | b.labels))
    return out


def _bve_sweep(store: _ClauseStore, record: BveRecord,
               max_labelset: int) -> None:
    """One pass of bounded variable elimination.

    Variables are tried in (occurrences, variable) order, fixed at the
    start of the sweep.  Eliminating x is ``l_ve``: the clauses
    mentioning x give way to their non-tautological resolvents.  It is
    accepted as ``l_bve`` accepts it, and only if no resolvent carries
    more than ``max_labelset`` labels; both are decided from x's clauses
    alone.  So a variable whose clauses are still those of its last
    refusal is refused again without a look.
    """
    counts: Dict[int, int] = {}
    for l, cs in store.occ.items():
        if cs:
            v = abs(l)
            counts[v] = counts.get(v, 0) + len(cs)
    # a tautology on v is in both of v's lists but mentions v once
    for t in store.tautologies:
        for l in t.lits:
            if l > 0 and -l in t.lits:
                counts[l] -= 1
    refused = store.bve_refused
    for x in sorted(counts, key=lambda v: (counts[v], v)):
        group = store.mentioning(x)
        if not group or refused.get(x) == group:
            continue
        new = _new_resolvents(store, x, len(group), max_labelset)
        if new is None:
            refused[x] = group
            continue
        record.append(BveEntry(x, frozenset(group)))
        for c in group:
            store.remove(c)
        for r in new:
            store.add(r, tautology=False)


def preprocess_lcnf(phi: LCNF) -> Tuple[LCNF, BveRecord]:
    """Rounds of (subsumption fixpoint, SSR fixpoint, one BVE sweep
    capped at ``MAX_LABELSET`` labels).

    Stops when a full round leaves the clause set unchanged or after
    ``MAX_ROUNDS``.  Returns the reduced formula and the elimination
    record needed to rebuild assignments over the original variables.
    """
    store = _ClauseStore(phi.clauses)
    record: BveRecord = []
    for _ in range(MAX_ROUNDS):
        # no round can undo its own edits: SUB and SSR only lower the
        # literal count, and an eliminated variable never comes back
        edits = store.edits
        _sub_fixpoint(store)
        _ssr_fixpoint(store)
        _bve_sweep(store, record, MAX_LABELSET)
        if store.edits == edits:
            break
    return LCNF(frozenset(store.clauses), dict(phi.label_weights)), record


# ---------------------------------------------------------------------------
# reconstruction


def bve_reconstruct(rec: BveRecord, tau: Assignment,
                    removed: FrozenSet[int] = frozenset()) -> Assignment:
    """Extend a model of the reduced formula over eliminated variables.

    Works backwards through the record, picking for each variable a value
    (0 preferred) satisfying every recorded clause that carries no label
    in ``removed`` — clauses of removed labels impose no constraint.
    """
    out = dict(tau)
    for entry in reversed(rec):
        group = [c for c in entry.group if not c.labels & removed]
        for v in (0, 1):
            out[entry.var] = v
            if all(clause_satisfied(c.lits, out) for c in group):
                break
        else:
            raise RuntimeError(
                f"no value of variable {entry.var} satisfies its "
                f"recorded clause group; model does not fit the record")
    return out


def dump_lcnf(phi: LCNF) -> str:
    """One line per clause: literals, a '|' separator, then labels."""
    lines = []
    for c in phi.sorted_clauses():
        lits = " ".join(str(l) for l in c.lits)
        tags = " ".join(str(l) for l in sorted(c.labels))
        lines.append(f"{lits} | {tags}".strip())
    return "\n".join(lines)
