"""Compare what the ``ciqc`` commands print under two source trees.

    python tests/output_matrix.py PARENT_DIR CHANGE_DIR

Each directory is the root of a checkout, the one holding ``src/ciqc``.
The script runs one fixed list of commands against each tree as child
processes (``python -m ciqc.cli ...`` with that tree's ``src`` on
``PYTHONPATH``), prints every command whose stdout, stderr or exit code
differs, and exits 1 if any differ, 0 if none do.

The list covers every subcommand on the descriptors below (exceptional,
non-Fano and index-one ones included), ``--q 1`` wherever a command takes
it, ``fano-lines`` for n = 3..12 with every ``--check``, ``residual`` on the
stored potentials under ``tests/golden`` and ``perfbench/data`` (read, never
written) and on three seeded tampers of ``perfbench/data/cubic4_deg5.json``
made by the benchmark's own ``tamper`` (off-grading inputs that must still
load; written to a temporary directory that both trees read), ``genus1``,
``verify`` at two seeds and on eight descriptors, and a few usage errors.
pytest does not collect this file.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"
PERFBENCH_DATA = Path(__file__).resolve().parent.parent / "perfbench" / "data"
WORKERS = min(4, os.cpu_count() or 1)
TAMPER_SOURCE, TAMPER_SEEDS = "cubic4_deg5.json", (1, 2, 3)

DESCRIPTORS = [
    # cubics, the paper's running family
    (3, "3"), (4, "3"), (5, "3"), (6, "3"), (8, "3"),
    # index one
    (3, "4"), (4, "5"), (6, "7"), (8, "9"),
    # other hypersurfaces and complete intersections
    (5, "5"), (6, "4"), (3, "2,2"), (5, "2,2"), (7, "2,2"), (4, "3,3"),
    (5, "2,3"), (6, "2,3"), (3, "2,2,2"), (6, "2,2,2"),
    # exceptional
    (4, "2"), (5, "2"), (4, "2,2"), (2, "3"),
    # non-Fano, and a dimension below the theory's range
    (3, "5"), (3, "2,4"), (2, "2,2"),
]

# verify --n --d: the cubic fourfold, cubics outside RING_DESCRIPTORS (n = 6,
# 8, 12), an index-two quintic and the gcd-filtered complete intersections
VERIFY_DESCRIPTORS = [(4, "3"), (3, "3"), (6, "3"), (8, "3"), (12, "3"),
                      (5, "5"), (6, "2,3"), (4, "2,2,2")]


def _per_descriptor(n: int, d: str):
    base = ["--n", str(n), "--d", d]
    return [
        ["info", *base],
        ["smallqh", *base], ["smallqh", *base, "--q", "1"],
        ["f1", *base], ["f1", *base, "--q", "1"],
        ["f2", *base], ["f2", *base, "--q", "1"],
        ["f2", *base, "--format", "tsv"],
        ["f2", *base, "--format", "tsv", "--no-header"],
        ["higherk", *base],
    ]


def _commands():
    out = [cmd for n, d in DESCRIPTORS for cmd in _per_descriptor(n, d)]
    out += [["fano-lines", "--n", str(n), "--check", check]
            for n in range(3, 13)
            for check in ("all", "cubic7", "cubic13", "cubic16", "hilb2")]
    for n, d, name in [(3, "3", "s_t1_n3"), (4, "3", "cubic4_deg4"),
                       (4, "3", "cubic4_deg4_f0_bumped")]:
        load = ["residual", "--n", str(n), "--d", d,
                "--load", str(GOLDEN / f"{name}.potential.json")]
        out += [load, load + ["--q", "1"]]
    with open(PERFBENCH_DATA / "manifest.json") as handle:
        for entry in json.load(handle):
            load = ["residual", "--n", str(entry["n"]),
                    "--d", ",".join(map(str, entry["d"])),
                    "--load", str(PERFBENCH_DATA / entry["file"])]
            out += [load, load + ["--q", "1"]]
    out += [["genus1", "--n", str(n)] for n in range(3, 9)]
    # the odd (2,2) family the paper reconstructs, and the exceptional n = 4
    out += [["genus1", "--n", str(n), "--d", "2,2"] for n in (3, 5, 7, 4)]
    out += [["verify"], ["verify", "--seed", "7"]]
    out += [["verify", "--n", str(n), "--d", d] for n, d in VERIFY_DESCRIPTORS]
    out += [[], ["info", "--n", "x", "--d", "3"],
            ["smallqh", "--n", "4", "--d", "3", "--q", "2"]]
    return out


COMMANDS = _commands()


def _tamper_commands(workdir: Path):
    """``residual`` on each seeded tamper of TAMPER_SOURCE, written to
    ``workdir`` by ``perfbench/workloads.py``'s ``tamper``."""
    sys.path.insert(0, str(PERFBENCH_DATA.parent))
    from workloads import tamper

    with open(PERFBENCH_DATA / "manifest.json") as handle:
        entry = next(e for e in json.load(handle) if e["file"] == TAMPER_SOURCE)
    out = []
    for seed in TAMPER_SEEDS:
        potential = json.loads((PERFBENCH_DATA / TAMPER_SOURCE).read_text())
        tamper(potential, entry["n"], random.Random(seed))
        path = workdir / f"tampered{seed}_{TAMPER_SOURCE}"
        path.write_text(json.dumps(potential))
        out.append(["residual", "--n", str(entry["n"]),
                    "--d", ",".join(map(str, entry["d"])), "--load", str(path)])
    return out


def run(tree: Path, argv):
    """(exit code, stdout, stderr) of ``ciqc argv`` under the tree's sources."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    done = subprocess.run([sys.executable, "-m", "ciqc.cli", *argv], cwd=tree,
                          env=env, capture_output=True, timeout=900)
    return done.returncode, done.stdout, done.stderr


def main(argv) -> int:
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    trees = [Path(a).resolve() for a in argv]
    for tree in trees:
        if not (tree / "src" / "ciqc").is_dir():
            sys.stderr.write(f"{tree} holds no src/ciqc\n")
            return 2
    with tempfile.TemporaryDirectory() as workdir:
        commands = COMMANDS + _tamper_commands(Path(workdir))
        jobs = [(tree, cmd) for cmd in commands for tree in trees]
        with ThreadPoolExecutor(WORKERS) as pool:
            results = list(pool.map(lambda job: run(*job), jobs))
    differ = 0
    for cmd, old, new in zip(commands, results[::2], results[1::2]):
        if old != new:
            differ += 1
            what = [name for name, a, b in zip(("exit code", "stdout", "stderr"),
                                               old, new) if a != b]
            print(f"differs in {', '.join(what)}: ciqc {' '.join(cmd)}")
    print(f"{differ} of {len(commands)} commands differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
