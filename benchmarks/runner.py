"""Run one workload's corpus through ``labelmax.cli.main`` in this process.

Started by run.py in a fresh interpreter whose import path holds the
checkout's ``src``.  Each instance is solved exactly as ``labelmax
solve`` would, one after another on one thread, with stdout and stderr
captured.

With ``--trace 0`` the corpus is solved once, untraced.  With ``--trace
1`` one untimed solve warms the process up; then every instance is
solved twice back to back, once untraced and once with the wrappers of
tracing.py installed, in alternating order, so that neither host drift
nor pass order biases the traced-over-untraced ratio.

Every solve runs under a SIGALRM limit of ``INSTANCE_LIMIT_S`` or what is
left of ``--budget`` (seconds for all solves of this process), whichever
is shorter; once the budget is spent the remaining solves are not
started.  Either way the solve is recorded with an error, which run.py
counts as a failure, and the run goes on.  Results (captured output,
exit code and time per solve, pass times, peak RSS, trace summary) go to
a JSON file for run.py to check.

    python3 runner.py MANIFEST RESULTS --trace 0|1 --spans FILE --budget S
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import signal
import sys
import traceback
from time import perf_counter
from typing import Any, Callable, Dict, List

INSTANCE_LIMIT_S = 20.0

Main = Callable[[List[str]], int]


class InstanceTimeout(BaseException):
    """Raised by SIGALRM in a solve that ran past its limit.  Not an
    ``Exception``, so no handler inside labelmax swallows it."""


def _alarm(signum: int, frame: Any) -> None:
    raise InstanceTimeout


def solve(main: Main, argv: List[str], deadline: float) -> Dict[str, Any]:
    limit = min(INSTANCE_LIMIT_S, deadline - perf_counter())
    if limit <= 0:
        return {"seconds": 0.0, "rc": None, "stdout": "", "stderr": "",
                "error": "not started: the run's time budget is spent"}
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    t0 = perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, limit)
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                rc = main(argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except InstanceTimeout:
        error = f"did not finish within {limit:.1f} s"
    except SystemExit as e:  # argparse rejects bad arguments this way
        rc = e.code if isinstance(e.code, int) else 1
    except Exception:  # one bad instance must not end the run
        error = traceback.format_exc().strip().splitlines()[-1]
    dt = perf_counter() - t0
    return {"seconds": dt, "rc": rc, "stdout": out.getvalue(),
            "stderr": err.getvalue()[-500:], "error": error}


def run_untraced(main: Main, jobs: List[List[str]],
                 deadline: float) -> List[Dict[str, Any]]:
    t_pass = perf_counter()
    results = [solve(main, argv, deadline) for argv in jobs]
    return [{"seconds": perf_counter() - t_pass, "instances": results}]


def run_paired(main: Main, jobs: List[List[str]], names: List[str],
               spans: str, deadline: float) -> List[Dict[str, Any]]:
    """An untraced and a traced pass, interleaved per instance; each pass
    time is the sum of its solve times."""
    from tracing import Tracer
    tracer = Tracer()

    def traced_main(argv: List[str]) -> int:
        return tracer.call("cli.main", main, argv)

    solve(main, jobs[0], deadline)  # warm-up, not recorded
    plain: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    for i, argv in enumerate(jobs):
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if not with_trace:
                plain.append(solve(main, argv, deadline))
                continue
            tracer.instance = names[i]
            tracer.install()
            try:
                traced.append(solve(traced_main, argv, deadline))
            finally:
                tracer.uninstall()
            tracer.flush_adds()
    tracer.write_spans(spans)
    passes = [{"seconds": sum(x["seconds"] for x in r), "instances": r}
              for r in (plain, traced)]
    passes[1]["trace"] = tracer.summary()
    return passes


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("manifest")
    ap.add_argument("results")
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spans", required=True)
    ap.add_argument("--budget", type=float, required=True)
    args = ap.parse_args()
    with open(args.manifest) as fh:
        manifest = json.load(fh)
    jobs = [job["argv"] for job in manifest["jobs"]]

    from labelmax import cli
    signal.signal(signal.SIGALRM, _alarm)
    deadline = perf_counter() + args.budget
    if args.trace:
        passes = run_paired(cli.main, jobs,
                            [job["name"] for job in manifest["jobs"]],
                            args.spans, deadline)
    else:
        passes = run_untraced(cli.main, jobs, deadline)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report = {"labelmax": cli.__file__, "passes": passes,
              "peak_rss_mb": rss_kb / 1024.0}
    with open(args.results, "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
