"""Time the linear solve and its callers under two source trees.

    python tests/bench_solve.py PARENT_DIR CHANGE_DIR

Each directory is the root of a checkout, the one holding ``src/ciqc``.
The cases, each timed under both trees in alternating rounds:

* ``solve_1657x132`` -- ``exact.solve_linear`` on a seeded 1657 x 132 system
  at 1.06% density, the shape of the largest reduced-WDVV slice system, in
  process (dense rows for a tree whose ``solve_linear`` takes a ``matrix``,
  column images otherwise);
* ``rank_estimates_12`` -- ``fano_lines.rank_estimates(12)`` in process;
* ``fano_lines_nN_all`` -- ``ciqc fano-lines --n N --check all`` for
  N = 30, 60 and 100, each run a child process, timed by wall clock.

``dense_solve_1657x132`` times ``tests/oracles.py``'s ``dense_solve`` (the
dense Gauss-Jordan) on the same system, under the change tree only.  The
report, with every run, is written to BENCH_29.json at the root of this
script's checkout.  The numbers are a record, not a benchmark claim.
pytest does not collect this file.
"""

from __future__ import annotations

import inspect
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ROUNDS = 3           # alternating parent/change rounds per case
IN_PROCESS_RUNS = 3  # timed calls per child process, after one untimed call
FANO_LINES_N = (30, 60, 100)
ROWS, COLS, DENSITY, SEED = 1657, 132, 0.0106, 29


def seeded_system():
    """(rows, rhs) of a seeded consistent system: each entry nonzero with
    probability DENSITY, the rhs the image of a seeded rational vector."""
    rng = random.Random(SEED)
    matrix = [[rng.choice([-9, -4, -2, -1, 1, 2, 3, 5]) if rng.random() < DENSITY else 0
               for _ in range(COLS)] for _ in range(ROWS)]
    target = [Fraction(rng.randrange(-7, 8), rng.randrange(1, 5)) for _ in range(COLS)]
    return matrix, [sum(a * x for a, x in zip(row, target)) for row in matrix]


def _call(case):
    """A no-argument callable running ``case`` on the imported package."""
    if case == "rank_estimates_12":
        from ciqc.fano_lines import rank_estimates
        return lambda: rank_estimates(12)
    matrix, rhs = seeded_system()
    if case == "dense_solve_1657x132":
        from oracles import dense_solve
        return lambda: dense_solve(matrix, rhs)
    from ciqc.exact import solve_linear
    if "matrix" in inspect.signature(solve_linear).parameters:
        return lambda: solve_linear(matrix, rhs)
    columns = [{i: row[j] for i, row in enumerate(matrix) if row[j]} for j in range(COLS)]
    return lambda: solve_linear(columns, dict(enumerate(rhs)))


def child(case) -> None:
    """Print the seconds of each timed call of ``case``, as a JSON list."""
    call = _call(case)
    call()
    times = []
    for _ in range(IN_PROCESS_RUNS):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    print(json.dumps(times))


def run(tree: Path, case: str):
    """The seconds of each run of ``case`` under ``tree``'s sources."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tree / "src"), str(ROOT / "tests")]),
               PYTHONDONTWRITEBYTECODE="1")
    if case.startswith("fano_lines_n"):
        n = case.split("_")[2][1:]
        start = time.perf_counter()
        subprocess.run([sys.executable, "-m", "ciqc.cli", "fano-lines", "--n", n,
                        "--check", "all"], cwd=tree, env=env, check=True,
                       stdout=subprocess.DEVNULL)
        return [time.perf_counter() - start]
    done = subprocess.run([sys.executable, __file__, "--child", case], cwd=tree, env=env,
                          check=True, capture_output=True, text=True)
    return json.loads(done.stdout)


def summary(times):
    return {"min_s": round(min(times), 4), "median_s": round(statistics.median(times), 4),
            "runs_s": [round(t, 4) for t in times]}


def main(argv) -> int:
    if argv[:1] == ["--child"]:
        child(argv[1])
        return 0
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    parent, change = (Path(a).resolve() for a in argv)
    for tree in (parent, change):
        if not (tree / "src" / "ciqc").is_dir():
            sys.stderr.write(f"{tree} holds no src/ciqc\n")
            return 2
    cases = ["solve_1657x132", "rank_estimates_12"] + \
        [f"fano_lines_n{n}_all" for n in FANO_LINES_N]
    report = {}
    for case in cases:
        times = {"parent": [], "change": []}
        for i in range(ROUNDS):
            order = [("parent", parent), ("change", change)]
            for side, tree in order if i % 2 == 0 else order[::-1]:
                times[side] += run(tree, case)
        report[case] = {side: summary(t) for side, t in times.items()}
        report[case]["change_over_parent_min"] = round(min(times["change"]) / min(times["parent"]), 3)
        print(case, json.dumps(report[case]), file=sys.stderr)
    report["dense_solve_1657x132"] = {"change": summary(run(change, "dense_solve_1657x132"))}
    out = {
        "what": "solve_linear and its callers, parent tree against change tree, "
                f"{ROUNDS} alternating rounds per case; in-process cases time "
                f"{IN_PROCESS_RUNS} calls per child process after one untimed call, "
                "fano_lines cases time one child process each by wall clock "
                "(interpreter start-up included). A record, not a benchmark claim.",
        "host": f"{platform.system()} {platform.machine()}, {os.cpu_count()} CPUs, "
                f"Python {platform.python_version()}",
        "claim": None,
        "system": {"rows": ROWS, "cols": COLS, "density": DENSITY, "seed": SEED},
        "cases": report,
    }
    (ROOT / "BENCH_29.json").write_text(json.dumps(out, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
