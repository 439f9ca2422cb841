"""Command-line front end.

Wires the full pipeline: lift to labelled form, blocked-clause
elimination, resolution/subsumption preprocessing, core-guided
optimisation, then model reconstruction back to the input formula.
The printed cost is always checked against the input before anything
reaches stdout.

Exit codes: 0 optimum found, 20 hard part unsatisfiable, 1 anything
else (parse or I/O error, a negative count, budget exhaustion, a weight
sum above 2^64-1), with a one-line ``error:`` message on stderr, or a
failed internal check, with a one-line ``internal error:`` message; 2 a
command-line usage error, with argparse's usage block.
"""

import argparse
import functools
import sys
from typing import Callable, Dict, List, NamedTuple, Optional

from .dimacs import (MAX_VARS, ParseError, parse_auto, write_solution,
                     write_wcnf)
from .lcnf_prep import bce_fixpoint, dump_lcnf, preprocess_lcnf
from .model import (LCNF, LabelledClause, MaxSatSolution, Stack, WCNF,
                    clause_satisfied, lcnf_from_wcnf, lcnf_to_wcnf,
                    reconstruct)
from .solver import MODES, SolveReport, solve_lcnf

PREPS = ("none", "bce", "rs", "bce,rs")

# run_pipeline lifts the BVE record, then the BCE record, one call each;
# benchmarks/tracing.py times the two calls by these names
bce_reconstruct = bve_reconstruct = reconstruct


class PipelineError(RuntimeError):
    """The reconstructed model failed verification against the input."""


class Preprocessed(NamedTuple):
    bce_rec: Stack
    lcnf: LCNF  # labelled form after BCE and SUB/SSR/BVE
    bve_rec: Stack


def _preprocess(f: WCNF, prep: str,
                trace: Optional[Callable[[str], None]] = None
                ) -> Preprocessed:
    """The preprocessing sequence of ``solve`` and ``preprocess``: the
    lift to labelled form, which labels soft clause i with i, then BCE
    and SUB/SSR/BVE; ``prep`` names the steps that run."""
    if prep not in PREPS:
        raise ValueError(f"unknown prep {prep!r}")
    steps = prep.split(",")
    phi = lcnf_from_wcnf(f)
    bce_rec: Stack = []
    if "bce" in steps:
        phi, bce_rec = bce_fixpoint(phi)
        if trace:
            trace(f"bce: removed {len(bce_rec)} clauses")
    bve_rec: Stack = []
    if "rs" in steps:
        size = phi.size()
        phi, bve_rec = preprocess_lcnf(phi)
        if trace:
            trace(f"rs: {size} -> {phi.size()} clauses, "
                  f"{len(bve_rec)} variables eliminated")
    return Preprocessed(bce_rec, phi, bve_rec)


def run_pipeline(f: WCNF, prep: str = "bce,rs", mode: str = "noninc",
                 conflict_budget: Optional[int] = None,
                 trace: Optional[Callable[[str], None]] = None
                 ) -> SolveReport:
    """Solve a weighted formula end to end.

    Preprocessing is sound but not free: the answer must not depend on
    ``prep`` or ``mode``, only the work done may.  The
    returned model is total over variables 1..f.num_vars and has been
    re-evaluated against ``f`` itself: hard clauses satisfied, falsified
    soft weight equal to the cost.
    """
    pre = _preprocess(f, prep, trace)
    report = solve_lcnf(pre.lcnf, mode=mode,
                        conflict_budget=conflict_budget, trace=trace)
    stats = dict(report.stats)
    stats["bce_removed"] = len(pre.bce_rec)
    stats["bve_eliminated"] = len(pre.bve_rec)
    if report.status != "optimum":
        return SolveReport(report.status, None, stats)

    inner = report.solution
    assert inner is not None
    tau = bve_reconstruct(pre.bve_rec, inner.model, removed=inner.falsified)
    tau = bce_reconstruct(pre.bce_rec, tau, removed=inner.falsified)
    model = {v: tau.get(v, 0) for v in range(1, f.num_vars + 1)}

    falsified = frozenset(
        i for i, (c, _) in enumerate(f.soft, start=1)
        if not clause_satisfied(c, model))
    for c in f.hard:
        if not clause_satisfied(c, model):
            raise PipelineError(
                f"reconstructed model falsifies hard clause {c}")
    recomputed = f.cost_of(model)
    if recomputed != inner.cost:
        raise PipelineError(
            f"cost mismatch: solver reported {inner.cost}, "
            f"model costs {recomputed}")
    return SolveReport(
        "optimum", MaxSatSolution(model, inner.cost, falsified), stats)


# ---------------------------------------------------------------------------
# subcommands

def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r") as fh:
        return fh.read()


def _parse_reporting_warnings(path: str) -> WCNF:
    parsed = parse_auto(_read_text(path))
    for w in parsed.warnings:
        print(f"c warning: {w}")
    return parsed.wcnf


def _status_code(status: str) -> int:
    if status == "optimum":
        return 0
    if status == "unsat-hard":
        return 20
    return 1


def _cmd_solve(args: argparse.Namespace) -> int:
    if args.budget is not None and args.budget < 0:
        raise ValueError(f"--budget must be >= 0, got {args.budget}")
    f = _parse_reporting_warnings(args.file)
    trace_cb = None
    if args.trace:
        def trace_cb(msg: str) -> None:
            print("c " + msg)
    res = run_pipeline(f, prep=args.prep, mode=args.mode,
                       conflict_budget=args.budget, trace=trace_cb)
    if args.trace:
        for k in sorted(res.stats):
            print(f"c stat {k} {res.stats[k]}")
    sys.stdout.write(write_solution(res.solution, res.status, f.num_vars))
    return _status_code(res.status)


def _sidecar_payload(f: WCNF, stack: Stack,
                     selectors: Dict[int, int]) -> Dict:
    """The input's variable count, the label -> selector map of the
    emitted WCNF, and the reconstruction stack, bottom entry first."""
    return {
        "num_vars": f.num_vars,
        "selectors": {str(l): v for l, v in sorted(selectors.items())},
        "stack": [{"var": e.var,
                   "group": [{"lits": list(c.lits),
                              "labels": sorted(c.labels)}
                             for c in sorted(e.group,
                                             key=LabelledClause.sort_key)]}
                  for e in stack],
    }


def _cmd_preprocess(args: argparse.Namespace) -> int:
    if args.sidecar and not args.emit_wcnf:
        raise ValueError("--sidecar requires --emit-wcnf")
    f = _parse_reporting_warnings(args.file)
    bce_rec, phi, bve_rec = _preprocess(f, args.prep)

    sidecar_path = None
    if args.emit_wcnf:
        enc, selectors = lcnf_to_wcnf(phi)
        # ``solve`` would refuse the emitted header, so nothing is written
        if enc.num_vars > MAX_VARS:
            raise ValueError(f"the emitted WCNF would declare "
                             f"{enc.num_vars} variables, more than the "
                             f"cap of {MAX_VARS}")
        text = write_wcnf(enc)
        sidecar_path = args.sidecar or (args.out and
                                        args.out + ".sidecar.json")
    else:
        # debugging view of the labelled formula
        lines = [f"c bce removed {len(bce_rec)}",
                 f"c bve eliminated {len(bve_rec)}"]
        for l in sorted(phi.label_weights):
            lines.append(f"c w {l} {phi.label_weights[l]}")
        body = dump_lcnf(phi)
        text = "\n".join(lines) + "\n" + (body + "\n" if body else "")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if sidecar_path:
        import json  # loaded only to write a sidecar
        with open(sidecar_path, "w") as fh:
            json.dump(_sidecar_payload(f, bce_rec + bve_rec, selectors),
                      fh, indent=1)
            fh.write("\n")
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    # imported by the subcommands that use it, so ``solve`` never loads it
    from .oracle import brute_force_maxsat

    f = _parse_reporting_warnings(args.file)
    sol = brute_force_maxsat(f)  # ValueError past the variable cap
    status = "unsat-hard" if sol is None else "optimum"
    sys.stdout.write(write_solution(sol, status, f.num_vars))
    return _status_code(status)


_FUZZ_CONFIGS = [(p, m) for p in PREPS for m in MODES]


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from .oracle import brute_force_maxsat, random_wcnf

    if args.n < 0:
        raise ValueError(f"--n must be >= 0, got {args.n}")
    bad = 0
    for i in range(args.n):
        seed = args.seed + i
        f = random_wcnf(seed)
        expect = brute_force_maxsat(f)
        for prep, mode in _FUZZ_CONFIGS:
            res = run_pipeline(f, prep=prep, mode=mode)
            if expect is None:
                ok = res.status == "unsat-hard"
            else:
                ok = (res.status == "optimum"
                      and res.solution.cost == expect.cost)
            if not ok:
                bad += 1
                got = (res.solution.cost if res.status == "optimum"
                       else res.status)
                want = expect.cost if expect is not None else "unsat-hard"
                print(f"c MISMATCH seed={seed} prep={prep} mode={mode} "
                      f"want={want} got={got}")
                sys.stdout.write(write_wcnf(f))
    print(f"c fuzz: {args.n} instances x {len(_FUZZ_CONFIGS)} configs, "
          f"{bad} mismatches")
    return 1 if bad else 0


@functools.cache  # built once per process, on first use
def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="labelmax",
        description="Weighted partial MaxSAT with sound preprocessing.")
    sub = p.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--prep", default="bce,rs", choices=PREPS,
                        help="preprocessing steps (default: bce,rs)")

    ps = sub.add_parser("solve", parents=[common],
                        help="solve a (w)cnf file to optimality")
    ps.add_argument("file", help="input path, or - for stdin")
    ps.add_argument("--mode", default="noninc", choices=MODES,
                    help="rebuild the SAT solver per call, or reuse it")
    ps.add_argument("--budget", type=int, default=None,
                    help="conflict budget per SAT call")
    ps.add_argument("--trace", action="store_true",
                    help="print per-iteration comment lines")
    ps.set_defaults(func=_cmd_solve)

    pp = sub.add_parser("preprocess", parents=[common],
                        help="run the preprocessors and print the result")
    pp.add_argument("file", help="input path, or - for stdin")
    pp.add_argument("--emit-wcnf", action="store_true",
                    help="encode the labelled result back to wcnf")
    pp.add_argument("--out", default=None, help="output path")
    pp.add_argument("--sidecar", default=None,
                    help="reconstruction record path (json); "
                         "needs --emit-wcnf")
    pp.set_defaults(func=_cmd_preprocess)

    po = sub.add_parser("oracle", help="brute-force reference answer")
    po.add_argument("file", help="input path, or - for stdin")
    po.set_defaults(func=_cmd_oracle)

    pf = sub.add_parser("fuzz",
                        help="random instances, all configs, vs oracle")
    pf.add_argument("--n", type=int, default=50)
    pf.add_argument("--seed", type=int, default=0)
    pf.set_defaults(func=_cmd_fuzz)
    return p


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ParseError, ValueError, ArithmeticError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except RuntimeError as e:  # a consistency check of labelmax failed
        print(f"internal error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
