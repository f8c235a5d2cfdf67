"""Regenerate the stored potentials of the ``residual-check`` workload.

Each file holds F = F^(0) + s F^(1) in classical coordinates, assembled by
the recipe of ``assemble_reduced_potential`` in ``tests/test_reduction.py``:
the tau-coordinate jet of F^(0) is moved to t-coordinates with the flat
change of basis, and the t-jet of F^(1) is attached at s^1.

The q-cap of every file is the smallest one, starting at the package
default, at which one more q-order changes no term of F.  At the default cap
the origin jet silently loses terms on some inputs (the cubic fourfold at
degree 6 and X_3(2,2) at degree 5); ``manifest.json`` records both term
counts so that the loss stays visible.

Run from the repository root:  python3 perfbench/gen_potentials.py
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DATA = os.path.join(ROOT, "perfbench", "data")

# (file stem, n, multidegree, jet degree of F^(0))
POTENTIALS = [
    ("cubic4_deg4", 4, (3,), 4),
    ("cubic4_deg5", 4, (3,), 5),
    ("cubic4_deg6", 4, (3,), 6),
    ("cubic5_deg4", 5, (3,), 4),
    ("cubic6_deg5", 6, (3,), 5),
    ("quadrics3_deg5", 3, (2, 2), 5),
]


def assemble(desc, degree, qmax):
    """F^(0) + s F^(1) at the given q-cap (the test suite's recipe)."""
    from ciqc.exact import TruncSeries, linear_substitute
    from ciqc.reconstruct import _tau_to_t_forms, f1_series
    from ciqc.smallqh import AmbientOrigin, build_ring

    ring = build_ring(desc, qmax)
    origin = AmbientOrigin(desc, ring)
    f0_t = linear_substitute(origin.jet_series(degree), _tau_to_t_forms(ring))
    f1 = f1_series(desc, ring)
    F = TruncSeries(desc.n + 1, max(degree, 3), ring.qmax)
    for key, c in f0_t.terms.items():
        F = F.add_term(key, c)
    for key, c in f1.t_jet.terms.items():
        F = F.add_term(key[:-1] + (1,), c)
    return F


def _coefficients(F):
    return {key: c.coeffs for key, c in F.terms.items()}


def stable_potential(desc, degree):
    """(F at the first stable q-cap, term count at the default cap)."""
    from ciqc.smallqh import default_qmax

    qmax = default_qmax(desc)
    F = assemble(desc, degree, qmax)
    default_terms = len(F.terms)
    while True:
        nxt = assemble(desc, degree, qmax + 1)
        if _coefficients(nxt) == _coefficients(F):
            return F, default_terms
        qmax, F = qmax + 1, nxt


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from ciqc.geometry import describe
    from ciqc.smallqh import default_qmax

    manifest = []
    for stem, n, d, degree in POTENTIALS:
        desc = describe(n, d)
        F, default_terms = stable_potential(desc, degree)
        with open(os.path.join(DATA, stem + ".json"), "w") as handle:
            json.dump(F.to_json(), handle, indent=1)
            handle.write("\n")
        manifest.append({
            "file": stem + ".json", "n": n, "d": list(d), "degree": degree,
            "qmax": F.qmax, "default_qmax": default_qmax(desc),
            "terms": len(F.terms), "terms_at_default_qmax": default_terms,
        })
        print(f"{stem}: qmax {F.qmax} (default {default_qmax(desc)}), "
              f"{len(F.terms)} terms ({default_terms} at the default cap)")
    with open(os.path.join(DATA, "manifest.json"), "w") as handle:
        json.dump(manifest, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
