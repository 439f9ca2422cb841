"""Blocked clause elimination on weighted formulas.

A clause C is blocked on one of its literals l when every resolvent of C
on l with a clause of the current formula is tautological; clauses with
a pure literal are blocked vacuously.  Eliminating blocked clauses is
monotone (shrinking the formula only unblocks nothing), preserves every
minimal unsatisfiable subset, and therefore preserves MaxSAT optima --
which is why it may run on the weighted formula before any translation,
on hard and soft clauses alike.

Each eliminated clause C, blocked on l, goes onto the reconstruction
stack as ``StackEntry(|l|, {C})`` with no labels.  ``model.reconstruct``
lifts a model of the reduced formula back by walking the stack in
reverse and flipping the blocking literal of any clause the assignment
falsifies.  The flip cannot break clauses handled earlier, so the lift
is linear time.

Blockedness is decided over the clause *set* (hard and soft together,
weights ignored, duplicates collapsed); removing a clause removes every
weighted occurrence at once, and pushes one entry.  Tautologies are
dropped on entry and push no entry: they hold under every assignment,
so dropping them keeps every MUS and no lift needs them.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, Set, Tuple

from .model import (ClauseT, LabelledClause, Stack, StackEntry, WCNF,
                    is_tautology)


def is_blocked(f: Iterable[ClauseT], c: ClauseT, l: int) -> bool:
    """True iff every resolvent of c on l with a clause of f is a
    tautology; vacuously true when no clause of f contains -l."""
    if l not in c:
        raise ValueError(f"literal {l} not in clause {c}")
    for other in f:
        if -l in other and not is_tautology(
                [q for q in c if q != l] + [q for q in other if q != -l]):
            return False
    return True


def _blocked_in(c: ClauseT, l: int, others: Iterable[ClauseT]) -> bool:
    """``is_blocked(others, c, l)`` for non-tautological clauses ``c``
    and ``others``, where every one of ``others`` contains -l.

    A resolvent with a non-tautological clause can only pair a literal
    of c other than l with its complement, so it is tautological iff
    that clause meets the complements of c minus l.
    """
    neg = None
    for other in others:
        if neg is None:
            neg = {-q for q in c if q != l}
        if neg.isdisjoint(other):
            return False
    return True


def bce_fixpoint(f: WCNF) -> Tuple[WCNF, Stack]:
    """Drop tautologies, then remove blocked clauses to fixpoint.

    Returns the reduced formula and the elimination record, one stack
    entry per distinct blocked clause removed.  Clauses are tried in
    sorted order, and a removal queues the clauses sharing a variable
    with the removed one.  The surviving clauses do not depend on that
    order (confluence); the record does.
    """
    present = {c for c in f.hard if not is_tautology(c)}
    present.update(c for c, _ in f.soft if not is_tautology(c))
    by_lit: Dict[int, Set[ClauseT]] = {}
    for c in present:
        for l in c:
            by_lit.setdefault(l, set()).add(c)

    record: Stack = []

    def remove(c: ClauseT, lit: int) -> None:
        present.discard(c)
        for l in c:
            by_lit[l].discard(c)
        record.append(StackEntry(
            abs(lit), frozenset([LabelledClause(c, frozenset())])))

    queue = deque(sorted(present))
    queued: Set[ClauseT] = set(queue)
    while queue:
        c = queue.popleft()
        queued.discard(c)
        if c not in present:
            continue
        for l in c:
            if _blocked_in(c, l, by_lit.get(-l, ())):
                remove(c, l)
                # only clauses sharing a variable can become blocked now
                neighbours = set()
                for q in c:
                    neighbours |= by_lit.get(q, set())
                    neighbours |= by_lit.get(-q, set())
                for n in sorted(neighbours):
                    if n not in queued:
                        queue.append(n)
                        queued.add(n)
                break

    out = WCNF(num_vars=f.num_vars)
    out.hard = [c for c in f.hard if c in present]
    out.soft = [(c, w) for c, w in f.soft if c in present]
    return out, record
