"""The verification suite behind `ciqc verify` and the acceptance tests.

Each criterion is a function of its cases, tuples that start with the
descriptor (n, d), returning (ok, detail); CRITERIA declares the cases once.
run_all filters them (optionally to one descriptor) and returns the report
list consumed by the test suite and `verify`.  All comparisons are exact.
"""

from __future__ import annotations

import functools
import math
import random
from collections import Counter
from fractions import Fraction
from typing import Callable, List, Optional, Tuple

from .errors import DomainError
from .exact import QPoly, TruncSeries, monomial
from .geometry import describe
from .smallqh import _mat_vec, build_ring, c_constant

RING_DESCRIPTORS: List[Tuple[int, tuple]] = [
    (3, (3,)), (4, (3,)), (5, (3,)), (3, (2, 2)), (5, (2, 2)),
    (5, (5,)), (5, (2, 3)),
]

TOY_MODELS = (None, None)  # criterion 10's descriptor-free parts; no filter keeps it

def _ring(n, d):
    """X_n(d)'s quantum ring, which criteria read here.  Only a ring read by
    more than one criterion (one whose code calls _ring) is kept."""
    if (n, d) in _SHARED_RINGS:
        return _kept_ring(n, d)
    return build_ring(describe(n, d))


@functools.cache
def _kept_ring(n, d):
    return build_ring(describe(n, d))


def _dimensions(cases) -> str:
    """'n <= N' when the cases run through n = 3..N, else the list."""
    ns = [n for n, *_ in cases]
    return f"n <= {ns[-1]}" if ns == list(range(3, ns[-1] + 1)) else f"n in {ns}"


def check_ring_relation(cases) -> Tuple[bool, str]:
    """1. H^{n+1} = b q H^{n+1-a} for every supported descriptor."""
    for n, d in cases:
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
    return True, f"verified for {cases}"


def check_c_constant(cases) -> Tuple[bool, str]:
    """2. c(n,(3)) = 2/9 for 3 <= n <= 8, c(5,(5)) = 14712/390625."""
    details = []
    for n, d, expected in cases:
        val, conj, match = c_constant(describe(n, d), _ring(n, d))
        if val != expected:
            return False, f"c at {(n, d)} = {val} != {expected}"
        details.append(f"c({n},({','.join(map(str, d))}))={expected} "
                       f"conjecture={'ok' if match else 'FAILS'}")
    return True, "; ".join(details)


def check_one_point_descendant(cases) -> Tuple[bool, str]:
    """3. <psi^{n-3} H_n>_{0,1,1} = 18 for cubics, 3 <= n <= 8."""
    for n, d in cases:
        val = _ring(n, d).one_point(n, n - 3).coefficient(1)
        if val != 18:
            return False, f"n = {n}: {val} != 18"
    return True, f"= 18 for n in {[n for n, _ in cases]}"


def check_gamma(cases) -> Tuple[bool, str]:
    """4. gamma o gamma = 0, eigenvector property, (gamma, 1) = 1."""
    from .reconstruct import gamma_vector
    for n, d in cases:
        gamma_vector(describe(n, d), _ring(n, d))  # raises on failure
    return True, f"verified for {cases}"


def check_f1(cases) -> Tuple[bool, str]:
    """5. F^(1) jet matches the printed cubic/(2,2) forms; the order-one
    expansion residuals vanish to the order the jets determine."""
    from .reduction import expand_order_k
    for n, d in cases:
        desc = describe(n, d)
        ring = _ring(n, d)
        jet = ring.f1
        expected = _expected_f1_t_jet(desc)
        if jet.t_jet != expected:
            return False, f"F^(1) jet mismatch at {(n, d)}"
        mixed, pure = expand_order_k([ring.origin.jet_series(4), jet.tau_jet],
                                     1, ring.ginv)
        for key, series in mixed.items():
            if not series.truncate_degree(1).is_zero():
                return False, f"order-1 residual at {(n, d)}, indices {key}"
        if not pure.truncate_degree(1).is_zero():
            return False, f"order-1 isotropy residual at {(n, d)}"
    return True, f"jets and residuals verified for {cases}"


def _expected_f1_t_jet(desc) -> TruncSeries:
    n, ell = desc.n, desc.ell
    terms = {monomial(n + 1, (0,)): QPoly.const(1),
             monomial(n + 1, (n - 1,)): QPoly.q_power(1, -ell)}
    for i in range(1, n // 2 + 1):
        terms[monomial(n + 1, (i, n - i))] = QPoly.q_power(
            1, Fraction(-ell, 2 if 2 * i == n else 1))
    terms[monomial(n + 1, (n - 1, n))] = QPoly.q_power(2, -ell * ell)
    return TruncSeries(n + 1, 2, 2, terms=terms)  # the terms reach q^2


def check_f2_roots(cases) -> Tuple[bool, str]:
    """6. Root sets {1,4} for cubics, {1} for odd (2,2), {0} for (5,(2,3))
    and whenever gcd(n-2, a) > 1."""
    listed, gcd_cases = [], []
    for n, d, expected, gcd_filtered in cases:
        if gcd_filtered and math.gcd(n - 2, describe(n, d).a) == 1:
            return False, f"{(n, d)} is not a gcd-filtered case"
        roots = [jet.root for jet in _ring(n, d).f2]
        if roots != [Fraction(e) for e in expected]:
            return False, f"roots at {(n, d)}: {roots} != {expected}"
        (gcd_cases if gcd_filtered else listed).append((n, d))
    return True, f"root sets match for {listed} + gcd cases {gcd_cases}"


def check_genus_one(cases) -> Tuple[bool, str]:
    """7. Genus-one selection f2 = 1 for n in {3,4,5}; <H_n>_{1,1} matches
    the closed form (0 at n=3, -9/4 at n=4); routes agree for 3 <= n <= 12."""
    from .genus_one import f2_from_genus1, hn_11
    pinned = {3: Fraction(0), 4: Fraction(-9, 4)}
    selected = []
    for n, d in cases:
        desc, ring = describe(n, d), _ring(n, d)
        if n <= 5:
            report = f2_from_genus1(desc, ring)
            if report.f2 != 1:
                return False, f"f2({n}) = {report.f2}"
            hn = report.hn11
            selected.append(n)
        else:
            hn = hn_11(desc, ring)  # residue route vs closed form, enforced inside
        if n in pinned and hn != pinned[n]:
            return False, f"<H_{n}>_{{1,1}} = {hn} != {pinned[n]}"
    detail = f"<H_n>_{{1,1}} routes agree for {_dimensions(cases)}"
    if selected:
        detail = f"f2 = 1 for n in {{{','.join(map(str, selected))}}}; {detail}"
    return True, detail


def check_fano_lines(cases) -> Tuple[bool, str]:
    """8. Lines-variety identities for 3 <= n <= 10."""
    from .fano_lines import omega_checks
    anchors = {3: 80, 4: 528, 5: 1680}
    for n, _ in cases:
        report = omega_checks(n)  # raises unless both identities hold
        if n in anchors and report["quartic"]["value"] != anchors[n]:
            return False, f"quartic at n = {n}: {report['quartic']['value']}"
        if report["f2_at_zero"] != 1:
            return False, f"lines-variety f2 at n = {n}: {report['f2_at_zero']}"
    quartics = "/".join(str(anchors[n]) for n, _ in cases if n in anchors)
    quartics = f"quartics ({quartics})" if quartics else "quartics"
    return True, (f"z-classes, normalization, {quartics} and f2 = 1 for "
                  f"{_dimensions(cases)}")


def check_hilb2(cases) -> Tuple[bool, str]:
    """9. The hyperkaehler fourfold cross-check returns 1."""
    from .fano_lines import hilb2_check
    val = hilb2_check()
    if val != 1:
        return False, f"scalar = {val}"
    return True, "symbolic S^[2] computation forces 1"


def check_property_suites(cases, seed: int = 20240811) -> Tuple[bool, str]:
    """10. W M = I and pairing inverses for every ring descriptor; in the full
    suite also reduced-vs-full WDVV on a synthetic instance, randomized Pieri
    associativity and duality, and the quotient-ring model checks."""
    # (c) W M = I and pairing inverse for every supported descriptor: the
    # ring's build checks both, raising on failure
    descriptors = [nd for nd in cases if nd != TOY_MODELS]
    for nd in descriptors:
        _ring(*nd)
    if TOY_MODELS not in cases:
        return True, f"W M = I, pairing inverses for {descriptors}"
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
            u = u + SchubertVector(nn, {(a, rng.randrange(a + 1)): rng.randrange(-3, 4)})
            c = rng.randrange(nn + 1)
            v = v + SchubertVector(nn, {(c, rng.randrange(c + 1)): rng.randrange(-3, 4)})
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

    # (d) quotient-ring model checks; k = 1 is the semisimple case
    from .reconstruct import artin_iso
    for nk in [(4, 1), (4, 2), (5, 3), (6, 2)]:
        report = artin_iso(nk[0], nk[1], 27)
        closed = report["semisimple_distinct_roots" if nk[1] == 1
                        else "eps_power_formula"]
        if not (report["eps_k_zero"] and closed):
            return False, f"quotient-ring checks fail at {nk}"
    return True, "WDVV equivalence, Pieri/duality, W M = I, pairing inverses, quotient model"


CUBICS = [(n, (3,)) for n in range(3, 13)]

CRITERIA: List[Tuple[str, Callable, list]] = [
    ("1 ring relation", check_ring_relation, RING_DESCRIPTORS),
    ("2 c-constant", check_c_constant,
     [(n, d, Fraction(2, 9)) for n, d in CUBICS[:6]]
     + [(5, (5,), Fraction(14712, 390625))]),
    ("3 one-point descendant", check_one_point_descendant, CUBICS[:6]),
    ("4 gamma invariants", check_gamma, RING_DESCRIPTORS),
    ("5 F^(1) jet and order-1 residuals", check_f1, RING_DESCRIPTORS[:5]),
    ("6 F^(2)(0) root sets", check_f2_roots,
     [(4, (3,), [1, 4], False), (5, (3,), [1, 4], False), (3, (3,), [1, 4], False),
      (3, (2, 2), [1], False), (5, (2, 2), [1], False), (5, (2, 3), [0], False),
      (6, (2, 3), [0], True), (4, (2, 2, 2), [0], True)]),
    ("7 genus-one selection", check_genus_one, CUBICS),
    ("8 lines-variety identities", check_fano_lines, CUBICS[:8]),
    ("9 hyperkaehler fourfold cross-check", check_hilb2, [(4, (3,))]),
    ("10 property suites", check_property_suites,
     RING_DESCRIPTORS + [TOY_MODELS]),
]

# the descriptors whose ring more than one ring-reading criterion reads
_SHARED_RINGS = frozenset(
    key for key, readers in Counter(
        key for _, check, cases in CRITERIA if "_ring" in check.__code__.co_names
        for key in {case[:2] for case in cases}).items()
    if readers > 1)


def run_all(only: Optional[tuple] = None, seed: int = 20240811):
    """Run every acceptance criterion; returns [(name, ok, detail)].

    ``only`` = (n, d), with d sorted as ``describe`` sorts it, keeps the
    cases of that descriptor; a criterion left with none says so,
    and a descriptor that no case names is a DomainError.
    """
    rows = [(name, fn, [c for c in cases if only is None or c[:2] == only])
            for name, fn, cases in CRITERIA]
    if not any(cases for _, _, cases in rows):
        raise DomainError(f"no verify case covers (n, d) = {only}")
    out = []
    for name, fn, cases in rows:
        try:
            if not cases:
                ok, detail = True, "no case covers this descriptor"
            elif fn is check_property_suites:
                ok, detail = fn(cases, seed)
            else:
                ok, detail = fn(cases)
        except Exception as exc:  # a raised invariant is a failure, not a crash
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        out.append((name, ok, detail))
    return out
