"""The benchmark's tracer against the current source.

``benchmarks/tracing.py`` wraps labelmax's entry points by name, so a
refactor that renames or stops calling one of them breaks the traced
benchmark, or zeroes one of its per-layer metrics, without failing
anything else.  The tracer needs only the standard library, so this test
runs wherever the tier-1 suite does.
"""

import importlib.util
import pathlib

from labelmax import cli, engine, lcnf_prep, model, solver

TRACING = (pathlib.Path(__file__).resolve().parent.parent /
           "benchmarks" / "tracing.py")

# entry points the tracer wraps that src/ never calls (ROADMAP item 2,
# "Broken now")
NEVER_CALLED = {"lcnf_prep.l_ve", "engine.add_clause"}

# soft pigeonhole: under the default preprocessing, BVE leaves one
# clause without literals, a free core whose bound the hard check's model
# meets; without preprocessing the optimum needs SAT cores and their
# relaxation
PIGEON = """\
p wcnf 6 9 10
1 1 2 0
1 3 4 0
1 5 6 0
1 -1 -3 0
1 -1 -5 0
1 -3 -5 0
1 -2 -4 0
1 -2 -6 0
1 -4 -6 0
"""


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_patches_resolve_and_record_cores(tmp_path, capsys):
    owners = [cli, lcnf_prep, model.WCNF, solver, engine.CdclSolver]
    before = [dict(vars(o)) for o in owners]
    path = tmp_path / "pigeon.wcnf"
    path.write_text(PIGEON)
    tracer = _load_tracing().Tracer()
    # every span name the tracer installs, engine.solve by hand
    wrapped = ["engine.solve"]
    timed = tracer._timed

    def spy(owner, attr, name, after=None):
        wrapped.append(name)
        timed(owner, attr, name, after)

    tracer._timed = spy
    tracer.install()
    try:
        assert [dict(vars(o)) for o in owners] != before
        loads = {}
        for prep in ("bce,rs", "none"):
            for mode in ("noninc", "inc"):
                cores = len(tracer.core_sizes)
                seen = tracer.counts["solver.load_events"]
                assert cli.main(["solve", f"--prep={prep}", f"--mode={mode}",
                                 str(path)]) == 0
                assert capsys.readouterr().out.startswith("o 1\n")
                assert len(tracer.core_sizes) > cores
                assert all(n > 0 for n in tracer.core_sizes)
                loads[prep, mode] = \
                    tracer.counts["solver.load_events"] - seen
    finally:
        tracer.uninstall()
    # ``inc`` keeps one solver and never loads more than ``noninc``; that
    # builds one per round as well, except where the hard check's model
    # meets the bound first, as the free core's bound does here
    assert loads["bce,rs", "inc"] == loads["bce,rs", "noninc"] == 1
    assert loads["none", "inc"] == 1 < loads["none", "noninc"]
    summary = tracer.summary()
    assert len(wrapped) >= 18
    for name in wrapped:
        if name not in NEVER_CALLED:
            assert summary.get("span_calls:" + name, 0) > 0, name
    assert summary["core_sizes_n"] == len(tracer.core_sizes)
    assert [dict(vars(o)) for o in owners] == before

