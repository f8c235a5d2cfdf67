"""The verification suite behind `ciqc verify` and the acceptance tests.

Each criterion is a function returning (ok, detail); run_all executes every
criterion (optionally restricted to one descriptor) and returns the report
list consumed by both the test suite and the command-line `verify` command.
All comparisons are exact; there are no tolerances.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction
from typing import Callable, List, Optional, Tuple

from .exact import QPoly, TruncSeries, monomial
from .geometry import describe
from .smallqh import (_mat_vec, build_ring, c_constant, one_point_descendant,
                      small_j)

RING_DESCRIPTORS: List[Tuple[int, tuple]] = [
    (3, (3,)), (4, (3,)), (5, (3,)), (3, (2, 2)), (5, (2, 2)),
    (5, (5,)), (5, (2, 3)),
]

@functools.cache
def _ring(n, d):
    return build_ring(describe(n, d))


def _descriptors(only=None):
    if only is None:
        return RING_DESCRIPTORS
    return [nd for nd in RING_DESCRIPTORS if nd == tuple(only)] or []


def check_ring_relation(only=None) -> Tuple[bool, str]:
    """1. H^{n+1} = b q H^{n+1-a} for every supported descriptor."""
    checked = []
    for n, d in _descriptors(only):
        desc = describe(n, d)
        ring = _ring(n, d)
        vec = ring.powers[0]
        for _ in range(n + 1):
            vec = _mat_vec(ring.multH, vec)
        target = ring.powers[0]
        for _ in range(n + 1 - desc.a):
            target = _mat_vec(ring.multH, target)
        bq = QPoly.q_power(1, desc.b)
        if vec != [t * bq for t in target]:
            return False, f"relation fails at {(n, d)}"
        checked.append((n, d))
    return True, f"verified for {checked}"


def check_c_constant(only=None) -> Tuple[bool, str]:
    """2. c(n,(3)) = 2/9 for 3 <= n <= 8, c(5,(5)) = 14712/390625."""
    details = []
    for n in range(3, 9):
        if only is not None and (n, (3,)) != tuple(only):
            continue
        desc = describe(n, (3,))
        ring = _ring(n, (3,)) if (n, (3,)) in RING_DESCRIPTORS else build_ring(desc)
        val, conj, match = c_constant(desc, ring)
        if val != Fraction(2, 9):
            return False, f"c({n},(3)) = {val} != 2/9"
        details.append(f"c({n},(3))=2/9 conjecture={'ok' if match else 'FAILS'}")
    if only is None or tuple(only) == (5, (5,)):
        val, conj, match = c_constant(describe(5, (5,)), _ring(5, (5,)))
        if val != Fraction(14712, 390625):
            return False, f"c(5,(5)) = {val}"
        details.append(f"c(5,(5))=14712/390625 conjecture={'ok' if match else 'FAILS'}")
    return True, "; ".join(details) if details else "no matching descriptor"


def check_one_point_descendant(only=None) -> Tuple[bool, str]:
    """3. <psi^{n-3} H_n>_{0,1,1} = 18 for cubics, 3 <= n <= 8."""
    rng = []
    for n in range(3, 9):
        if only is not None and (n, (3,)) != tuple(only):
            continue
        desc = describe(n, (3,))
        jet = _ring(n, (3,)).jfun if (n, (3,)) in RING_DESCRIPTORS else small_j(desc)
        val = one_point_descendant(desc, jet, n - 3, n).coefficient(1)
        if val != 18:
            return False, f"n = {n}: {val} != 18"
        rng.append(n)
    if rng:
        return True, f"= 18 for n in {rng}"
    return True, "no matching descriptor"


def check_gamma(only=None) -> Tuple[bool, str]:
    """4. gamma o gamma = 0, eigenvector property, (gamma, 1) = 1."""
    from .reconstruct import gamma_vector
    checked = []
    for n, d in _descriptors(only):
        gamma_vector(describe(n, d), _ring(n, d))  # raises on failure
        checked.append((n, d))
    return True, f"verified for {checked}"


def check_f1(only=None) -> Tuple[bool, str]:
    """5. F^(1) jet matches the printed cubic/(2,2) forms; the order-one
    expansion residuals vanish to the order the jets determine."""
    from .reconstruct import f1_series
    from .reduction import expand_order_k
    targets = [(3, (3,)), (4, (3,)), (5, (3,)), (3, (2, 2)), (5, (2, 2))]
    if only is not None:
        targets = [t for t in targets if t == tuple(only)]
    for n, d in targets:
        desc = describe(n, d)
        ring = _ring(n, d)
        jet = f1_series(desc, ring)
        expected = _expected_f1_t_jet(desc, ring.qmax)
        if jet.t_jet != expected:
            return False, f"F^(1) jet mismatch at {(n, d)}"
        mixed, pure = expand_order_k([ring.origin.jet_series(4), jet.tau_jet],
                                     1, ring.ginv)
        for key, series in mixed.items():
            if not series.truncate_degree(1).is_zero():
                return False, f"order-1 residual at {(n, d)}, indices {key}"
        if not pure.truncate_degree(1).is_zero():
            return False, f"order-1 isotropy residual at {(n, d)}"
    return True, f"jets and residuals verified for {targets}"


def _expected_f1_t_jet(desc, qmax) -> TruncSeries:
    n, ell = desc.n, desc.ell
    terms = {monomial(n + 1, (0,)): QPoly.const(1),
             monomial(n + 1, (n - 1,)): QPoly.q_power(1, -ell)}
    for i in range(1, n // 2 + 1):
        terms[monomial(n + 1, (i, n - i))] = QPoly.q_power(
            1, Fraction(-ell, 2 if 2 * i == n else 1))
    terms[monomial(n + 1, (n - 1, n))] = QPoly.q_power(2, -ell * ell)
    return TruncSeries(n + 1, 2, qmax, terms=terms)


def check_f2_roots(only=None) -> Tuple[bool, str]:
    """6. Root sets {1,4} for cubics, {1} for odd (2,2), {0} for (5,(2,3))
    and whenever gcd(n-2, a) > 1."""
    import math
    from .reconstruct import f1_series, f2_at_zero
    cases = [((4, (3,)), [1, 4]), ((5, (3,)), [1, 4]), ((3, (3,)), [1, 4]),
             ((3, (2, 2)), [1]), ((5, (2, 2)), [1]), ((5, (2, 3)), [0])]
    if only is not None:
        cases = [c for c in cases if c[0] == tuple(only)]
    for (n, d), expected in cases:
        desc, ring = describe(n, d), _ring(n, d)
        roots = f2_at_zero(desc, ring, f1_series(desc, ring))
        if roots != [Fraction(e) for e in expected]:
            return False, f"roots at {(n, d)}: {roots} != {expected}"
    gcd_cases = [] if only is not None else [(6, (2, 3)), (4, (2, 2, 2))]
    for n, d in gcd_cases:
        desc = describe(n, d)
        assert math.gcd(desc.n - 2, desc.a) > 1
        ring = build_ring(desc)
        if f2_at_zero(desc, ring, f1_series(desc, ring)) != [Fraction(0)]:
            return False, f"gcd-filtered case {(n, d)} not {{0}}"
    return True, f"root sets match for {[c[0] for c in cases]} + gcd cases {gcd_cases}"


def check_genus_one(only=None) -> Tuple[bool, str]:
    """7. Genus-one selection f2 = 1 for n in {3,4,5}; <H_n>_{1,1} matches
    the closed form (0 at n=3, -9/4 at n=4); routes agree for 3 <= n <= 12."""
    from .genus_one import f2_from_genus1, hn_11
    if only is not None and tuple(only) not in [(3, (3,)), (4, (3,)), (5, (3,))]:
        return True, "not a genus-one target"
    reports = {n: f2_from_genus1(n) for n in (3, 4, 5)}
    for n, rep in reports.items():
        if rep.f2 != 1:
            return False, f"f2({n}) = {rep.f2}"
    if reports[3].hn11 != 0:
        return False, "<H_3>_{1,1} != 0"
    if reports[4].hn11 != Fraction(-9, 4):
        return False, "<H_4>_{1,1} != -9/4"
    # n = 3..5 went through hn_11 inside f2_from_genus1 above
    for n in range(6, 13):
        # residue route vs closed form enforced internally
        desc = describe(n, (3,))
        hn_11(desc, build_ring(desc))
    return True, "f2 = 1 for n in {3,4,5}; <H_n>_{1,1} routes agree for n <= 12"


def check_fano_lines(only=None) -> Tuple[bool, str]:
    """8. Lines-variety identities for 3 <= n <= 10."""
    from .fano_lines import omega_checks
    if only is not None and tuple(only)[1] != (3,):
        return True, "not a cubic descriptor"
    anchors = {3: 80, 4: 528, 5: 1680}
    for n in range(3, 11):
        report = omega_checks(n)
        if not (report["normalization_ok"] and report["quartic_ok"]):
            return False, f"identity failure at n = {n}: {report}"
        if n in anchors and report["quartic"] != anchors[n]:
            return False, f"quartic at n = {n}: {report['quartic']}"
        if report["f2_at_zero"] != 1:
            return False, f"lines-variety f2 at n = {n}: {report['f2_at_zero']}"
    return True, "z-classes, normalization, quartics (80/528/1680) and f2 = 1 for n <= 10"


def check_hilb2(only=None) -> Tuple[bool, str]:
    """9. The hyperkaehler fourfold cross-check returns 1."""
    from .fano_lines import hilb2_check
    val = hilb2_check()
    if val != 1:
        return False, f"scalar = {val}"
    return True, "symbolic S^[2] computation forces 1"


def check_property_suites(only=None, seed: int = 20240811) -> Tuple[bool, str]:
    """10. Reduced-vs-full WDVV on a synthetic instance, randomized Pieri
    associativity and duality, W M = I and pairing inverses, and the
    quotient-ring model checks."""
    rng = random.Random(seed)

    # (a) reduced vs full WDVV, even mode, m = 3
    from .reduction import expand_to_full, full_wdvv_residuals
    n, m = 2, 3
    good = TruncSeries(n + 1, 4, 0, terms={(2, 0, 1, 0): Fraction(1, 2),
                                            (1, 2, 0, 0): Fraction(1, 2)})
    res = full_wdvv_residuals(expand_to_full(good, n, m), n, m, Fraction(1))
    if any(not r.truncate_degree(1).is_zero() for r in res.values()):
        return False, "associative toy fails the full WDVV"
    bad = good.add_term((0, 1, 0, 1), QPoly.const(1))
    res_bad = full_wdvv_residuals(expand_to_full(bad, n, m), n, m, Fraction(1))
    if all(r.truncate_degree(0).is_zero() for r in res_bad.values()):
        return False, "perturbed toy not detected by the full WDVV"

    # (b) Pieri associativity and duality at fixed seed
    from .fano_lines import SchubertVector, schubert_product
    nn = 6
    sigma1 = SchubertVector.basis(nn, 1, 0)
    for _ in range(10):
        u = SchubertVector(nn)
        v = SchubertVector(nn)
        for _ in range(3):
            a = rng.randrange(nn + 1)
            u = u + SchubertVector(nn, {(a, rng.randrange(a + 1)):
                                        Fraction(rng.randrange(-3, 4))})
            c = rng.randrange(nn + 1)
            v = v + SchubertVector(nn, {(c, rng.randrange(c + 1)):
                                        Fraction(rng.randrange(-3, 4))})
        lhs = schubert_product(schubert_product(sigma1, u), v)
        rhs = schubert_product(sigma1, schubert_product(u, v))
        if lhs != rhs:
            return False, "Pieri associativity failed"
    for a in range(nn + 1):
        for b in range(a + 1):
            pair = schubert_product(SchubertVector.basis(nn, a, b),
                                    SchubertVector.basis(nn, nn - b, nn - a))
            if pair.integral() != 1:
                return False, f"duality failed at {(a, b)}"

    # (c) W M = I and pairing inverse for every supported descriptor
    for nd in _descriptors(only):
        ring = _ring(*nd)
        size = nd[0] + 1
        for i in range(size):
            for j in range(size):
                acc = sum(ring.W[i][k] * ring.M[k][j] for k in range(size))
                if acc != (1 if i == j else 0):
                    return False, f"W M != I at {nd}"
                prod = QPoly.zero()
                for f in range(size):
                    prod = prod + ring.g[i][f] * ring.ginv[f][j]
                if prod != (1 if i == j else 0):
                    return False, f"pairing inverse fails at {nd}"

    # (d) quotient-ring model checks; k = 1 is the semisimple case
    from .reconstruct import artin_iso
    for nk in [(4, 1), (4, 2), (5, 3), (6, 2)]:
        report = artin_iso(nk[0], nk[1], 27)
        closed = report["semisimple_distinct_roots" if nk[1] == 1
                        else "eps_power_formula"]
        if not (report["eps_k_zero"] and closed):
            return False, f"quotient-ring checks fail at {nk}"
    return True, "WDVV equivalence, Pieri/duality, W M = I, pairing inverses, quotient model"


CRITERIA: List[Tuple[str, Callable]] = [
    ("1 ring relation", check_ring_relation),
    ("2 c-constant", check_c_constant),
    ("3 one-point descendant", check_one_point_descendant),
    ("4 gamma invariants", check_gamma),
    ("5 F^(1) jet and order-1 residuals", check_f1),
    ("6 F^(2)(0) root sets", check_f2_roots),
    ("7 genus-one selection", check_genus_one),
    ("8 lines-variety identities", check_fano_lines),
    ("9 hyperkaehler fourfold cross-check", check_hilb2),
    ("10 property suites", check_property_suites),
]


def run_all(only: Optional[tuple] = None, seed: int = 20240811):
    """Run every acceptance criterion; returns [(name, ok, detail)]."""
    out = []
    for name, fn in CRITERIA:
        try:
            if fn is check_property_suites:
                ok, detail = fn(only, seed)
            else:
                ok, detail = fn(only)
        except Exception as exc:  # a raised invariant is a failure, not a crash
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        out.append((name, ok, detail))
    return out
