"""The benchmark's workloads: fixed op lists over the ``ciqc`` CLI.

An op is one ``ciqc`` call with the exit code and pinned values its output
must show.  ``prepare`` does a workload's set-up (reading the fixed inputs,
writing the seeded tampered potential) and returns its ops; ``pass_order``
gives the order of one pass.  The program sees only the generated argv and
files, never the seed itself (``verify --seed`` is the CLI's own argument).
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("verify", "descriptor-sweep", "residual-check")

SWEEP_DESCRIPTORS = [(4, (3,)), (5, (5,)), (6, (7,)), (5, (2, 2)), (8, (9,)),
                     (3, (2, 2)), (6, (2, 3)), (12, (3,))]
PINNED_C = {(4, (3,)): "2/9", (12, (3,)): "2/9", (5, (5,)): "14712/390625"}
PINNED_ROOTS = {(4, (3,)): ["1", "4"], (12, (3,)): ["1", "4"],
                (3, (2, 2)): ["1"], (5, (2, 2)): ["1"], (6, (2, 3)): ["0"]}
HIGHERK_MULTIDEGREES = {(3,), (2, 2)}  # the closed recursion covers these only
PINNED_QUARTICS = {3: 80, 4: 528, 5: 1680}

DATA_DIR = os.path.join("perfbench", "data")
TAMPER_SOURCE = "cubic4_deg5.json"
# nonzero tampers of the s t^{n-1} coefficient, each checked to be detected
TAMPER_NUMERATORS = [k for k in range(-6, 7) if k]
TAMPER_DENOMINATORS = [1, 2, 3, 4, 5, 7]


@dataclass
class Op:
    label: str
    argv: list
    kind: str
    n: int = 0
    d: tuple = ()
    expect: dict = field(default_factory=lambda: {"rc": 0})


def _desc_args(n, d):
    return ["--n", str(n), "--d", ",".join(map(str, d))]


def _label(argv):
    return "ciqc " + " ".join(argv)


def verify_ops(seed):
    argv = ["verify", "--seed", str(seed)]
    return [Op(_label(argv), argv, "verify")]


def sweep_ops():
    ops = []
    for n, d in SWEEP_DESCRIPTORS:
        base = _desc_args(n, d)
        for kind, extra in (("info", []), ("smallqh", []), ("f1", []), ("f2", []),
                            ("f2-tsv", ["--format", "tsv"]), ("higherk", [])):
            argv = [kind.split("-")[0]] + base + extra
            expect = {"rc": 0}
            if kind == "smallqh" and (n, d) in PINNED_C:
                expect["c"] = PINNED_C[(n, d)]
            if kind.startswith("f2") and (n, d) in PINNED_ROOTS:
                expect["roots"] = PINNED_ROOTS[(n, d)]
            if kind == "higherk" and d not in HIGHERK_MULTIDEGREES:
                expect["rc"] = 2
            ops.append(Op(_label(argv), argv, kind, n, d, expect))
    for n in range(3, 9):
        argv = ["genus1", "--n", str(n)]
        ops.append(Op(_label(argv), argv, "genus1", n, (3,)))
    for n, check in [(3, "all"), (5, "all"), (6, "all"), (8, "all"), (10, "all"),
                     (4, "cubic13")]:
        argv = ["fano-lines", "--n", str(n), "--check", check]
        expect = {"rc": 0, "all": check == "all"}
        if n in PINNED_QUARTICS:
            expect["quartic"] = PINNED_QUARTICS[n]
        ops.append(Op(_label(argv), argv, "fano-lines", n, (3,), expect))
    return ops


def tamper(potential: dict, n: int, rng: random.Random) -> None:
    """Add a seeded nonzero c q to the s t^{n-1} coefficient, in place.
    A c that would cancel the stored q-term is drawn again, so the tampered
    file has the same terms (and the run the same counts) for every seed."""
    key = [0] * (n + 2)
    key[n - 1] = key[-1] = 1
    for term in potential["terms"]:
        if term["monomial"] == key:
            coeff = dict((k, Fraction(v)) for k, v in term["coefficient"])
            break
    else:
        coeff = {}
        term = {"monomial": key}
        potential["terms"].append(term)
    old = coeff.get(1, Fraction(0))
    while True:
        c = Fraction(rng.choice(TAMPER_NUMERATORS), rng.choice(TAMPER_DENOMINATORS))
        if old + c:
            break
    coeff[1] = old + c
    term["coefficient"] = [[k, str(v)] for k, v in sorted(coeff.items()) if v]


def residual_ops(seed, workdir):
    with open(os.path.join(DATA_DIR, "manifest.json")) as handle:
        manifest = json.load(handle)
    ops = []
    for entry in manifest:
        path = os.path.join(DATA_DIR, entry["file"])
        with open(path) as handle:
            potential = json.load(handle)
        n, d = entry["n"], tuple(entry["d"])
        argv = ["residual"] + _desc_args(n, d) + ["--load", path]
        ops.append(Op(_label(argv), argv, "residual", n, d))
        if entry["file"] == TAMPER_SOURCE:
            tamper(potential, n, random.Random(seed))
            bad = os.path.join(workdir, "tampered_" + entry["file"])
            with open(bad, "w") as handle:
                json.dump(potential, handle)
            argv = ["residual"] + _desc_args(n, d) + ["--load", bad]
            ops.append(Op(_label(argv), argv, "residual", n, d,
                          {"rc": 0, "tampered": True}))
    return ops


def prepare(workload, seed, workdir):
    if workload == "verify":
        return verify_ops(seed)
    if workload == "descriptor-sweep":
        return sweep_ops()
    return residual_ops(seed, workdir)


def pass_order(workload, ops, rng: random.Random):
    """The sweep's order is shuffled by the seed on every pass."""
    if workload != "descriptor-sweep":
        return list(ops)
    order = list(ops)
    rng.shuffle(order)
    return order
