"""Command-line mutation fuzzer: seeded mutants of the golden files.

Each mutant of a ``tests/golden/`` file goes through ``labelmax.cli.main``
as ``solve``, ``preprocess`` or ``oracle``, under a random ``--prep``
and ``--mode``.  Whatever the input, ``main`` must return 0, 1 or 20, or
raise ``SystemExit(2)``; a run that returns 1 must leave exactly one
``error:`` or ``internal error:`` line on stderr, and any other run
none.  A run past its time limit of a second, or any other exception,
fails.

The mutants run in a child process (this file run as a script), with
its address space capped, so that an input that asks for unbounded
memory fails as a ``MemoryError`` instead of taking the host's memory.
"""

import io
import json
import random
import resource
import signal
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout, suppress
from pathlib import Path

from labelmax.cli import PREPS, main
from labelmax.solver import MODES

GOLDEN = Path(__file__).resolve().parent / "golden"
N_MUTANTS = 500
SEED = 0
SECONDS_PER_RUN = 1.0
MEMORY_CAP = 1 << 30  # bytes of address space for the child

TOKENS = ["0", "-0", str(2 ** 64), str(-2 ** 64), str(10 ** 23), "1e3",
          "x", "\t"]


def _mutate(lines, rng):
    """One mutation: replace, insert or truncate a token, or drop or
    duplicate a line.  The header's counts take half the token
    mutations, since they size everything after them."""
    lines = list(lines)
    if not lines:
        return ["p"]
    op = rng.choice(("replace", "insert", "truncate", "drop", "duplicate"))
    i = rng.randrange(len(lines))
    if op == "drop":
        del lines[i]
        return lines
    if op == "duplicate":
        lines.insert(i, lines[i])
        return lines
    header = [k for k, l in enumerate(lines) if l.startswith("p ")]
    if header and rng.random() < 0.5:
        i = header[0]
    toks = lines[i].split(" ")
    j = rng.randrange(2 if i in header[:1] and len(toks) > 2 else 0,
                      len(toks))
    if op == "replace":
        toks[j] = rng.choice(TOKENS)
    elif op == "insert":
        toks.insert(j, rng.choice(TOKENS))
    else:
        toks[j] = toks[j][:rng.randrange(len(toks[j]) + 1)]
    lines[i] = " ".join(toks)
    return lines


def mutants(seed, n):
    """``n`` (name, text, argv) triples; argv names the input as ``-``
    and ``{out}`` for a scratch output path."""
    rng = random.Random(seed)
    files = sorted(GOLDEN.iterdir())
    for k in range(n):
        path = rng.choice(files)
        lines = path.read_text().splitlines()
        for _ in range(rng.randint(1, 3)):
            lines = _mutate(lines, rng)
        command = rng.choice(("solve", "preprocess", "oracle"))
        argv = [command]
        if command != "oracle":
            argv.append(f"--prep={rng.choice(PREPS)}")
        if command == "solve":
            argv.append(f"--mode={rng.choice(MODES)}")
        if command == "preprocess" and rng.random() < 0.5:
            argv += ["--emit-wcnf", "--out", "{out}"]
        yield f"{k}:{path.name}", "\n".join(lines) + "\n", argv + ["-"]


class _Timeout(Exception):
    pass


def _on_alarm(*_):
    raise _Timeout


def run_case(text, argv, out):
    """Run one input through ``main``: a problem as a string, or None,
    and what it printed on stdout."""
    argv = [a.replace("{out}", out) for a in argv]
    stdout, err = io.StringIO(), io.StringIO()
    sys.stdin = io.StringIO(text)
    signal.setitimer(signal.ITIMER_REAL, SECONDS_PER_RUN)
    try:
        with redirect_stdout(stdout), redirect_stderr(err):
            try:
                rc = main(argv)
            except SystemExit as e:
                rc = "usage" if e.code == 2 else e.code
    except _Timeout:
        return f"ran past {SECONDS_PER_RUN} s", stdout.getvalue()
    except Exception as e:  # anything else escaping main is a defect
        return f"{type(e).__name__} escaped main: {e!s:.200}", ""
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        sys.stdin = sys.__stdin__
    lines = err.getvalue().splitlines()
    if rc == "usage":
        ok = bool(lines) and lines[0].startswith("usage:")
    elif rc == 1:
        ok = len(lines) == 1 and \
            lines[0].startswith(("error: ", "internal error: "))
    else:
        ok = rc in (0, 20) and not lines
    return (None if ok else f"exit {rc!r} with stderr {lines[:3]}",
            stdout.getvalue())


def _worker():
    """Run the JSON list of (name, text, argv) cases on stdin; print one
    (problem, stdout) pair per case as JSON."""
    with suppress(ValueError, OSError):  # not every platform enforces it
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))
    signal.signal(signal.SIGALRM, _on_alarm)
    with tempfile.TemporaryDirectory() as tmp:
        out = str(Path(tmp) / "out.wcnf")
        results = [run_case(text, argv, out)
                   for _, text, argv in json.load(sys.stdin)]
    print(json.dumps(results))


def run_in_child(cases):
    """``run_case`` on each case, in a child process with its address
    space capped."""
    proc = subprocess.run([sys.executable, __file__],
                          input=json.dumps(cases), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    results = json.loads(proc.stdout)
    assert len(results) == len(cases)
    return results


def test_mutated_golden_files_end_in_a_documented_exit():
    cases = list(mutants(SEED, N_MUTANTS))
    failures = [{"mutant": name, "argv": argv, "input": text,
                 "problem": problem}
                for (name, text, argv), (problem, _) in
                zip(cases, run_in_child(cases)) if problem is not None]
    assert not failures, json.dumps(failures[:3], indent=1)


def test_a_billion_declared_variables_end_within_a_second():
    """The header, not the formula, sizes the ``v`` line and the
    sidecar's ``num_vars``; both routes end in time, in one ``error:``
    line or in the optimum."""
    text = "p wcnf 1000000000 3 10\n10 1 0\n3 -1 2 0\n2 -2 0\n"
    cases = [("solve", text, ["solve", "-"]),
             ("emit", text, ["preprocess", "--emit-wcnf", "--out", "{out}",
                             "-"])]
    for (name, _, _), (problem, stdout) in zip(cases, run_in_child(cases)):
        assert problem is None, (name, problem)
        assert stdout == "" or stdout.startswith("o 2\n"), name


if __name__ == "__main__":
    _worker()
