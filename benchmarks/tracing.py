"""Outside-in tracing of labelmax, installed from the benchmark's files.

``Tracer.install`` replaces the entry points of each labelmax module by
timing wrappers (attribute substitution on the module or class that the
caller looks the name up in); ``Tracer.uninstall`` puts the originals
back.  Each wrapped call becomes one span: name, start, end, parent span
and instance id, kept in memory until ``write_spans``.
``CdclSolver.add_clause`` runs tens of thousands of times per instance,
so its calls are summed per (solver, parent span) into one aggregate
span instead.

Span names are ``<module>.<entry point>``; a layer is the module part.
Self time of a span is its duration minus the durations of its direct
children (calls nest and never overlap on one thread).
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

LAYERS = ("cli", "dimacs", "bce", "model", "lcnf_prep", "solver",
          "cardinality", "engine")

ENGINE_COUNTS = ("conflicts", "decisions", "propagations")


class Tracer:
    def __init__(self) -> None:
        # span: [id, name, parent, instance, start, end, calls]
        self.spans: List[List[Any]] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.core_sizes: List[int] = []
        self.max_labelset_out = 0
        self.instance = ""
        self._stack: List[int] = [-1]
        self._adds: Dict[Tuple[int, int], List[float]] = {}
        self._solvers = 0
        self._restore: List[Tuple[Any, str, Any]] = []

    # -- spans -------------------------------------------------------------

    def call(self, name: str, fn: Callable, *args: Any, **kw: Any) -> Any:
        sid = len(self.spans)
        span = [sid, name, self._stack[-1], self.instance, 0.0, 0.0, 1]
        self.spans.append(span)
        self._stack.append(sid)
        span[4] = perf_counter()
        try:
            return fn(*args, **kw)
        finally:
            span[5] = perf_counter()
            self._stack.pop()

    def flush_adds(self) -> None:
        """Turn the summed add_clause calls into aggregate spans."""
        for (_, parent), (calls, secs) in sorted(self._adds.items()):
            self.spans.append([len(self.spans), "engine.add_clause", parent,
                               self.spans[parent][3], 0.0, secs, int(calls)])
        self._adds.clear()

    # -- installation ------------------------------------------------------

    def _patch(self, owner: Any, attr: str, wrapper_of: Callable) -> None:
        orig = getattr(owner, attr)
        self._restore.append((owner, attr, orig))
        setattr(owner, attr, wrapper_of(orig))

    def _timed(self, owner: Any, attr: str, name: str,
               after: Optional[Callable[..., None]] = None) -> None:
        tracer = self

        def wrapper_of(orig: Callable) -> Callable:
            def wrapper(*args: Any, **kw: Any) -> Any:
                out = tracer.call(name, orig, *args, **kw)
                if after is not None:
                    after(out, *args)
                return out
            return wrapper

        self._patch(owner, attr, wrapper_of)

    def install(self) -> None:
        from labelmax import cli, engine, lcnf_prep, model, solver

        c = self.counts

        def bce_done(out: Any, *_: Any) -> None:
            c["bce.removed"] += len(out[1])

        def prep_done(out: Any, phi: Any, *_: Any) -> None:
            c["lcnf_prep.clauses_in"] += phi.size()
            c["lcnf_prep.clauses_out"] += out[0].size()
            c["lcnf_prep.vars_eliminated"] += len(out[1])
            self.max_labelset_out = max(
                [self.max_labelset_out] +
                [len(cl.labels) for cl in out[0].clauses])

        def solve_done(out: Any, *_: Any) -> None:
            for k in ("iterations", "load_events", "clauses_loaded"):
                c["solver." + k] += out.stats[k]

        def core_done(out: Any, *_: Any) -> None:
            self.core_sizes.append(len(out.labels))

        def enc_done(out: Any, *_: Any) -> None:
            c["cardinality.clauses"] += len(out.clauses)

        def round_done(*_: Any) -> None:
            c["lcnf_prep.rounds"] += 1

        self._timed(cli, "run_pipeline", "cli.run_pipeline")
        self._timed(cli, "parse_auto", "dimacs.parse_auto")
        self._timed(cli, "write_solution", "dimacs.write_solution")
        self._timed(cli, "bce_fixpoint", "bce.bce_fixpoint", bce_done)
        self._timed(cli, "bce_reconstruct", "bce.bce_reconstruct")
        self._timed(cli, "lcnf_from_wcnf", "model.lcnf_from_wcnf")
        self._timed(model.WCNF, "cost_of", "model.cost_of")
        self._timed(cli, "preprocess_lcnf", "lcnf_prep.preprocess_lcnf",
                    prep_done)
        self._timed(lcnf_prep, "_sub_fixpoint", "lcnf_prep.sub", round_done)
        self._timed(lcnf_prep, "_ssr_fixpoint", "lcnf_prep.ssr")
        self._timed(lcnf_prep, "_bve_sweep", "lcnf_prep.bve")
        self._timed(lcnf_prep, "l_ve", "lcnf_prep.l_ve")
        self._timed(cli, "bve_reconstruct", "lcnf_prep.bve_reconstruct")
        self._timed(cli, "solve_lcnf", "solver.solve_lcnf", solve_done)
        self._timed(solver, "extract_core_labels",
                    "solver.extract_core_labels", core_done)
        self._timed(solver, "_certify", "solver.certify")
        self._timed(solver, "encode_equals1", "cardinality.encode_equals1",
                    enc_done)
        self._install_engine(engine.CdclSolver)

    def _install_engine(self, cls: Any) -> None:
        tracer = self
        c = self.counts

        def solve_of(orig: Callable) -> Callable:
            def solve(eng: Any, *args: Any, **kw: Any) -> Any:
                before = [eng.stats[k] for k in ENGINE_COUNTS]
                try:
                    return tracer.call("engine.solve", orig, eng, *args, **kw)
                finally:
                    for k, b in zip(ENGINE_COUNTS, before):
                        c["engine." + k] += eng.stats[k] - b
            return solve

        def add_clause_of(orig: Callable) -> Callable:
            def add_clause(eng: Any, lits: Any) -> Any:
                serial = eng.__dict__.get("_bench_serial")
                if serial is None:
                    tracer._solvers += 1
                    serial = eng.__dict__["_bench_serial"] = tracer._solvers
                t0 = perf_counter()
                try:
                    return orig(eng, lits)
                finally:
                    dt = perf_counter() - t0
                    agg = tracer._adds.setdefault(
                        (serial, tracer._stack[-1]), [0, 0.0])
                    agg[0] += 1
                    agg[1] += dt
            return add_clause

        self._patch(cls, "solve", solve_of)
        self._patch(cls, "add_clause", add_clause_of)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    # -- results -----------------------------------------------------------

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, name, parent, inst, start, end, calls in self.spans:
                rec = {"id": sid, "name": name, "parent": parent,
                       "instance": inst}
                if calls == 1:
                    rec.update(start=start, end=end)
                else:  # aggregate: summed duration of ``calls`` calls
                    rec.update(calls=calls, total_s=end - start)
                fh.write(json.dumps(rec) + "\n")

    def summary(self) -> Dict[str, float]:
        """Per-span-name totals, self times and the counters."""
        dur = [s[5] - s[4] for s in self.spans]
        child = [0.0] * len(self.spans)
        for s, d in zip(self.spans, dur):
            if s[2] >= 0:
                child[s[2]] += d
        total: Dict[str, float] = defaultdict(float)
        selft: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        for s, d, ch in zip(self.spans, dur, child):
            total[s[1]] += d
            selft[s[1]] += d - ch
            calls[s[1]] += s[6]
        out: Dict[str, float] = dict(self.counts)
        for name in total:
            out["span_s:" + name] = total[name]
            out["span_self_s:" + name] = selft[name]
            out["span_calls:" + name] = calls[name]
        out["core_sizes_sum"] = sum(self.core_sizes)
        out["core_sizes_n"] = len(self.core_sizes)
        out["core_size_max"] = max(self.core_sizes, default=0)
        out["max_labelset_out"] = self.max_labelset_out
        return out
