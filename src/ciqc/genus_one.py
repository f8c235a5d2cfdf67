"""Degree-one genus-one pipeline and the four-point primitive normalization.

In degree one the standard-versus-reduced comparison collapses (genus-one
maps of degree one contract their elliptic component), so the genus-one
invariants reduce to genus-zero data: one- and two-point descendants read
off the ring's flat sections (the two-point ones checked against their
closed form in two seeds), a Chern-weighted descendant sum, and the
genus-one topological recursion relation contracted over the primitive
classes.  Solving the resulting linear equation determines the four-point
primitive constant; for cubic hypersurfaces it comes out 1 in every
dimension.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import NamedTuple, Tuple

from .errors import DomainError, VerificationError
from .geometry import CIDescriptor, _chern_numbers, chern_integrals
from .smallqh import QuantumRingData


def _seeds(desc: CIDescriptor, ring: QuantumRingData) -> Tuple[Fraction, Fraction]:
    """Degree-one two-point seeds <H_n, H_{n-2}> and <H_{n-1}, H_{n-1}>.

    For cubics these are the cited values 18 and 45; they are read off the
    ring's flat sections and cross-checked for cubics.
    """
    n = desc.n
    s1 = ring.two_point(n, n - 2).coefficient(1)
    s2 = ring.two_point(n - 1, n - 1).coefficient(1)
    if desc.d == (3,) and (s1, s2) != (18, 45):
        raise VerificationError(f"cubic two-point seeds {(s1, s2)} != (18, 45)")
    return s1, s2


def two_point_g0(desc: CIDescriptor, ring: QuantumRingData,
                 i: int, j: int) -> Fraction:
    """<psi^K H_i, H_j>_{0,2,1}, K = 2n-2-i-j, read off the flat section S_i.

    The value is compared before returning against the binomial closed form
    in the seeds <H_n, H_{n-2}> and <H_{n-1}, H_{n-1}>, an independent route.
    """
    n = desc.n
    if not (0 <= i <= n and 0 <= j <= n and i + j <= 2 * n - 2):
        raise DomainError(f"indices ({i},{j}) out of range for n = {n}")
    s1, s2 = _seeds(desc, ring)
    K = 2 * n - 2 - i - j
    value = ring.two_point(i, j, K).coefficient(1)
    closed = sum((-1) ** (n - c - i) * comb(K, n - c - i) * seed
                 for c, seed in ((0, s1), (1, s2), (2, s1)) if 0 <= n - c - i <= K)
    if value != closed:
        raise VerificationError(
            f"flat-section two-point {value} != closed form {closed} at ({i},{j})")
    return value


def descendant_chern_sum(desc: CIDescriptor, ring: QuantumRingData) -> Fraction:
    """sum_{p=0}^{n-2} <psi^p c_{n-2-p}(TX), H_n>_{0,2,1}.

    Each summand is kappa_{n-2-p} <psi^p H_{n-2-p}, H_n>, whose descendant
    is (-1)^p times the <H_n, H_{n-2}> seed (``two_point_g0``'s closed form
    at j = n), which is the residue form of the sum.
    """
    n = desc.n
    kappa = _chern_numbers(n, desc.d)
    total = sum((kappa[n - 2 - p] * two_point_g0(desc, ring, n - 2 - p, n)
                 for p in range(n - 1)), Fraction(0))
    if desc.d == (3,):
        closed = Fraction(2, 3) * ((-1) ** n * 2 ** (n + 1) + 1) \
            + 3 * n * n + n - 2
        if total != closed:
            raise VerificationError(
                f"descendant sum {total} != cubic closed form {closed}")
    return total


def hn_11(desc: CIDescriptor, ring: QuantumRingData) -> Fraction:
    """<H_n>_{1,1} assembled from the degree-one comparison formula

        -(1/24) sum_p <psi^p c_{n-2-p}(TX), H_n> + (1/24) <psi^{n-3} H_n>,

    checked for cubics against the closed form
    (-(-2)^{n+2} - 9n^2 - 3n + 58)/72.  Every descendant comes from
    ``ring``, the descriptor's quantum ring.
    """
    n = desc.n
    value = -Fraction(1, 24) * descendant_chern_sum(desc, ring) \
        + Fraction(1, 24) * ring.one_point(n, n - 3).coefficient(1)
    if desc.d == (3,):
        closed = Fraction(-((-2) ** (n + 2)) - 9 * n * n - 3 * n + 58, 72)
        if value != closed:
            raise VerificationError(
                f"<H_n>_(1,1) {value} != closed form {closed} at n = {n}")
    return value


def h_10(desc: CIDescriptor) -> Fraction:
    """<H>_{1,0} = -(1/24) integral of H c_{n-1}(TX)."""
    ints = chern_integrals(desc)
    value = -Fraction(1, 24) * ints[1]
    if desc.d == (3,):
        n = desc.n
        closed = -Fraction(1, 24) * (Fraction(1 - (-2) ** (n + 2), 9)
                                     + Fraction(3 * n * n + 7 * n + 2, 6))
        if value != closed:
            raise VerificationError("degree-zero genus-one value mismatch")
    return value


class GenusOneReport(NamedTuple):
    n: int
    chi: int
    hn11: Fraction          # <H_n>_{1,1}
    h10: Fraction           # <H>_{1,0}
    psi11: Fraction         # the coefficient of g_{bc} in <psi gamma_b, gamma_c>_{1,1}
    f2: Fraction            # the solved four-point primitive constant
    experimental: bool = False


def f2_from_genus1(desc: CIDescriptor, ring: QuantumRingData) -> GenusOneReport:
    """Solve the primitive contraction of the genus-one recursion for the
    four-point constant of ``desc``, a cubic or (2,2), n >= 3, on its ``ring``.

    Writing M = chi - n - 1 (the signed primitive rank), the contraction of
    the genus-one relation over the primitive classes reads

      psi11 * M = (kappa/deg) M <H>_{1,0} + (M/deg) <H_n>_{1,1}
                  + (1/24) [ (kappa/deg)(n-1) M + ((chi-n)^2 - 1) F2 ]

    with kappa = -ell the degree-one coefficient of the mixed three-point
    invariant and psi11 = <psi^{n-3} H_n> / (12 deg).  The even- and odd-
    dimensional pairing signs are absorbed uniformly into M, a convention
    verified against the independent lines-variety route.
    """
    n, d, deg = desc.n, desc.d, desc.degree
    kappa = Fraction(-desc.ell)
    M = Fraction(desc.chi - n - 1)
    psi11 = ring.one_point(n, n - 3).coefficient(1) / (12 * deg)
    if d == (3,) and psi11 != Fraction(1, 2):
        raise VerificationError("<psi gamma, gamma>_{1,1} coefficient != 1/2")
    hn = hn_11(desc, ring)
    h0 = h_10(desc)
    coeff_f2 = Fraction((desc.chi - n) ** 2 - 1, 24)
    rhs = psi11 * M - Fraction(kappa, deg) * M * h0 - Fraction(M, deg) * hn \
        - Fraction(1, 24) * Fraction(kappa, deg) * (n - 1) * M
    f2 = rhs / coeff_f2

    roots = [jet.root for jet in ring.f2]
    if f2 not in roots:
        raise VerificationError(
            f"genus-one value {f2} is not a root of the quadratic {roots}")
    return GenusOneReport(n=n, chi=desc.chi, hn11=hn, h10=h0, psi11=psi11,
                          f2=f2, experimental=d != (3,))
