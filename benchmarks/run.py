"""labelmax benchmark: seeded corpora, checked answers, end-to-end and
per-layer metrics.

    python3 benchmarks/run.py --workload tseitin --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The corpus comes from ``--seed`` and is
sized by ``--seconds`` (families.py); its DIMACS files and independent
references are made before any timing.  A fresh interpreter then solves
every instance through ``labelmax.cli.main`` in-process, closed loop on
one thread, with verification on and labelmax's own tracing off
(runner.py).  Every answer is checked here against the generated clauses
and the reference optimum.  ``--trace 1`` solves every instance untraced
and traced, interleaved, and prints the per-layer metrics instead of the
end-to-end ones.  ``--workload all`` runs every workload in turn.

The solves of one workload get ``BUDGET_PER_SECOND`` times the corpus's
nominal solving time (its size over the workload's instances per second,
twice that with ``--trace 1``); a solve that runs past its limit or is
not started within the budget counts as a failure, and the result is
still printed.

The last stdout line is one JSON object: correct, attempted, failed and
metrics.  Without the checkout's ``src/labelmax`` the run fails with exit
code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(HERE))

from families import WORKLOADS, Instance, evaluate  # noqa: E402
from tracing import LAYERS  # noqa: E402

PREP = "bce,rs"
SETUP_SPAWNS = 7
BUDGET_PER_SECOND = 2.5
# the runner stops itself at its budget; this margin only guards against
# a runner that ignores its own alarms
BACKSTOP_S = 30.0

END_TO_END_UNITS = {"corpus_s": "s", "instance_p50_ms": "ms",
                    "instance_tail_ms": "ms", "setup_s": "s",
                    "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The run cannot produce a trustworthy result."""


def _env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _check_import_path(path: str) -> None:
    if not Path(path).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"labelmax was imported from {path}, "
                         f"not from this checkout's {SRC}")


def setup_seconds() -> float:
    """Median wall time from spawning a fresh interpreter until
    ``labelmax.cli`` is imported, after one untimed spawn that fills the
    bytecode cache."""
    code = ("import sys, labelmax.cli\n"
            "sys.stdout.write(labelmax.cli.__file__ + '\\n')\n"
            "sys.stdout.flush()\n")
    times = []
    for i in range(SETUP_SPAWNS + 1):
        t0 = perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code], cwd=ROOT,
                                env=_env(), stdout=subprocess.PIPE)
        line = proc.stdout.readline()
        dt = perf_counter() - t0
        proc.stdout.close()
        try:
            rc = proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError("a fresh interpreter did not exit after import")
        if rc != 0 or not line.strip():
            raise BenchError("a fresh interpreter could not import labelmax")
        _check_import_path(line.decode().strip())
        if i:
            times.append(dt)
    return statistics.median(times)


def write_corpus(corpus: List[Instance], mode: str, work: Path) -> Path:
    jobs = []
    for inst in corpus:
        path = work / f"{inst.name}.wcnf"
        path.write_text(inst.to_wcnf())
        jobs.append({"name": inst.name,
                     "argv": ["solve", f"--prep={PREP}", f"--mode={mode}",
                              str(path)]})
    manifest = work / "manifest.json"
    manifest.write_text(json.dumps({"jobs": jobs}))
    return manifest


def run_corpus(manifest: Path, results: Path, trace: int, spans: Path,
               budget: float) -> Dict[str, Any]:
    cmd = [sys.executable, str(HERE / "runner.py"), str(manifest),
           str(results), "--trace", str(trace), "--spans", str(spans),
           "--budget", str(budget)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env())
    try:
        rc = proc.wait(timeout=budget + BACKSTOP_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("the runner overran its time budget")
    if rc != 0:
        raise BenchError(f"runner exited with code {rc}")
    report = json.loads(results.read_text())
    _check_import_path(report["labelmax"])
    return report


def check_answers(corpus: List[Instance],
                  passes: List[Dict[str, Any]]) -> Tuple[int, int, List[str]]:
    attempted = failed = 0
    reasons: List[str] = []
    for p in passes:
        for inst, res in zip(corpus, p["instances"]):
            attempted += 1
            if res["error"] is not None:
                why = res["error"]
            elif res["rc"] != 0:
                why = f"exit code {res['rc']}: {res['stderr'].strip()[:200]}"
            else:
                why = evaluate(inst, res["stdout"])
            if why is not None:
                failed += 1
                reasons.append(f"{inst.name}: {why}")
    return attempted, failed, reasons


def end_to_end(corpus_pass: Dict[str, Any], setup: float,
               rss_mb: float) -> Tuple[Dict[str, float], str]:
    times = sorted(r["seconds"] for r in corpus_pass["instances"])
    # the highest percentile that still has ten instances beyond it;
    # corpora hold at least 20 instances
    k = len(times) - 11
    pct = math.floor(100 * (len(times) - 10) / len(times))
    values = {
        "corpus_s": corpus_pass["seconds"],
        "instance_p50_ms": 1000 * statistics.median(times),
        "instance_tail_ms": 1000 * times[k],
        "setup_s": setup,
        "peak_rss_mb": rss_mb,
    }
    note = f"p{pct} of {len(times)} instances, 10 beyond it"
    return values, note


def per_layer(summary: Dict[str, float], traced_s: float,
              untraced_s: float) -> Dict[str, Tuple[float, str]]:
    def t(name: str) -> float:
        return summary.get("span_s:" + name, 0.0)

    def calls(name: str) -> float:
        return summary.get("span_calls:" + name, 0)

    def count(name: str) -> float:
        return summary.get(name, 0)

    layer_self = {layer: 0.0 for layer in LAYERS}
    for key, v in summary.items():
        if key.startswith("span_self_s:"):
            layer_self[key.split(":", 1)[1].split(".", 1)[0]] += v
    solve_s = t("engine.solve")
    n_cores = summary["core_sizes_n"]
    m: Dict[str, Tuple[float, str]] = {
        "dimacs.parse_s": (t("dimacs.parse_auto"), "s"),
        "dimacs.write_s": (t("dimacs.write_solution"), "s"),
        "bce.s": (t("bce.bce_fixpoint"), "s"),
        "bce.removed": (count("bce.removed"), "count"),
        "bce.reconstruct_s": (t("bce.bce_reconstruct"), "s"),
        "model.lift_s": (t("model.lcnf_from_wcnf"), "s"),
        "model.verify_s": (t("model.cost_of"), "s"),
        "lcnf_prep.s": (t("lcnf_prep.preprocess_lcnf"), "s"),
        "lcnf_prep.sub_s": (t("lcnf_prep.sub"), "s"),
        "lcnf_prep.ssr_s": (t("lcnf_prep.ssr"), "s"),
        "lcnf_prep.bve_s": (t("lcnf_prep.bve"), "s"),
        "lcnf_prep.rounds": (count("lcnf_prep.rounds"), "count"),
        "lcnf_prep.bve_attempts": (calls("lcnf_prep.l_ve"), "count"),
        "lcnf_prep.vars_eliminated": (count("lcnf_prep.vars_eliminated"),
                                      "count"),
        "lcnf_prep.clauses_in": (count("lcnf_prep.clauses_in"), "count"),
        "lcnf_prep.clauses_out": (count("lcnf_prep.clauses_out"), "count"),
        "lcnf_prep.max_labelset_out": (summary["max_labelset_out"], "count"),
        "lcnf_prep.reconstruct_s": (t("lcnf_prep.bve_reconstruct"), "s"),
        "solver.s": (t("solver.solve_lcnf"), "s"),
        "solver.iterations": (count("solver.iterations"), "count"),
        "solver.core_size_mean": (
            summary["core_sizes_sum"] / n_cores if n_cores else 0.0, "count"),
        "solver.core_size_max": (summary["core_size_max"], "count"),
        "solver.load_events": (count("solver.load_events"), "count"),
        "solver.clauses_loaded": (count("solver.clauses_loaded"), "count"),
        "solver.certify_s": (t("solver.certify"), "s"),
        "cardinality.s": (t("cardinality.encode_equals1"), "s"),
        "cardinality.clauses": (count("cardinality.clauses"), "count"),
        "engine.solve_calls": (calls("engine.solve"), "count"),
        "engine.solve_s": (solve_s, "s"),
        "engine.add_clause_calls": (calls("engine.add_clause"), "count"),
        "engine.add_clause_s": (t("engine.add_clause"), "s"),
        "engine.conflicts": (count("engine.conflicts"), "count"),
        "engine.decisions": (count("engine.decisions"), "count"),
        "engine.propagations": (count("engine.propagations"), "count"),
        "engine.props_per_s": (
            count("engine.propagations") / solve_s if solve_s else 0.0, "1/s"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layer_self[layer], "s")
    m["trace.corpus_s"] = (traced_s, "s")
    m["trace.residual_s"] = (traced_s - sum(layer_self.values()), "s")
    m["trace_overhead_pct"] = (100.0 * (traced_s / untraced_s - 1.0), "%")
    return m


def _ranking(summary: Dict[str, float], traced_s: float,
             m: Dict[str, Tuple[float, str]]) -> List[str]:
    layers = sorted(LAYERS, key=lambda l: -m[f"{l}.self_s"][0])
    spans = sorted(((v, k.split(":", 1)[1]) for k, v in summary.items()
                    if k.startswith("span_self_s:")), reverse=True)
    return [
        "self time by layer: " + ", ".join(
            f"{l} {100 * m[f'{l}.self_s'][0] / traced_s:.1f}%"
            for l in layers),
        "self time by span (top 5): " + ", ".join(
            f"{name} {100 * v / traced_s:.1f}%" for v, name in spans[:5]),
        f"residual (traced corpus_s minus layer self times): "
        f"{m['trace.residual_s'][0]:.4f} s",
    ]


def run_workload(name: str, seed: int, seconds: int,
                 trace: int) -> Dict[str, Any]:
    wl = WORKLOADS[name]
    work = WORK / f"{name}-seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    corpus = wl.corpus(seed, seconds)
    manifest = write_corpus(corpus, wl.mode, work)
    setup = setup_seconds()
    spans = WORK / f"spans-{name}-seed{seed}.jsonl"
    report = run_corpus(manifest, work / "results.json", trace, spans,
                        BUDGET_PER_SECOND * len(corpus) / wl.per_second
                        * (1 + trace))
    shutil.rmtree(work, ignore_errors=True)

    passes = report["passes"]
    attempted, failed, reasons = check_answers(corpus, passes)
    e2e, tail_note = end_to_end(passes[0], setup, report["peak_rss_mb"])
    print(f"== {name}: seed {seed}, {len(corpus)} instances, "
          f"--prep={PREP} --mode={wl.mode}, closed loop, 1 thread")
    print(f"   why: {wl.why}")
    for why in reasons[:10]:
        print(f"   FAILED {why}")
    print(f"   fail_rate {failed / attempted:.4f} ratio "
          f"({failed} of {attempted} solves)")
    if trace:
        summary = passes[1]["trace"]
        metrics = per_layer(summary, passes[1]["seconds"],
                            passes[0]["seconds"])
        print(f"   spans written to {spans.relative_to(ROOT)}")
        for line in _ranking(summary, passes[1]["seconds"], metrics):
            print("   " + line)
    else:
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in e2e.items()}
    for k, (v, unit) in metrics.items():
        extra = f"  ({tail_note})" if k == "instance_tail_ms" else ""
        print(f"   {k} {v:.6g} {unit}{extra}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def main(argv: List[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (SRC / "labelmax" / "cli.py").is_file():
        print(f"error: no labelmax sources under {SRC}; run from the root "
              f"of a labelmax checkout", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {n: run_workload(n, args.seed, args.seconds, args.trace)
                   for n in names}
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}.{k}": v for n, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
