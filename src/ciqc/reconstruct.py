"""Reconstruction of primitive-class data from the ambient origin structure.

The square-zero vector gamma = (H~^n - b q H~^{n-a}) / deg X is a common
eigenvector of the quantum multiplications at the origin; the quotient-ring
model C[w]/(w^{n+1} - b w^k) identifies the origin algebra with
C[eps]/(eps^k) + C^{n+1-k}.  On top of that sit the degree-2 jet of F^(1), the
quadratic satisfied by F^(2)(0) with its origin gradient, and the linear
coefficients that determine the higher s-derivatives for cubics and for odd
intersections of two quadrics.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, NamedTuple, Optional

from .errors import DomainError, InternalConsistencyError
from .exact import (QPoly, Rational, TruncSeries, contract, linear_substitute,
                    monomial, solve_linear)
from .geometry import CIDescriptor, require_reconstruction_domain
from .smallqh import QuantumRingData, _mat_vec, _unit_vector, quantum_product_qp, reduce_power


def gamma_vector(desc: CIDescriptor, ring: QuantumRingData):
    """The square-zero eigenvector gamma in the classical basis.

    All three structural properties are verified before returning:
    gamma o gamma = 0, H^a o gamma = lambda_a gamma with lambda_a = delta_a0,
    and (gamma, 1) = 1.
    """
    n = desc.n
    gamma_qp = ring.ginv[0]  # gamma^e = g^{e0}

    square = quantum_product_qp(desc, gamma_qp, gamma_qp)
    if any(not c.is_zero() for c in square):
        raise InternalConsistencyError("gamma o gamma != 0")
    for e in range(n + 1):
        prod = quantum_product_qp(desc, _unit_vector(n, e), gamma_qp)
        expect = gamma_qp if e == 0 else [QPoly.zero()] * (n + 1)
        if prod != expect:
            raise InternalConsistencyError(f"gamma is not an eigenvector for H^{e}")

    gamma_cl = _mat_vec(list(zip(*ring.powers)), gamma_qp)
    if gamma_cl[n].scale(desc.degree) != QPoly.const(1):
        raise InternalConsistencyError("(gamma, 1) != 1")
    return gamma_cl


# --- artin algebra model ----------------------------------------------------


def _mul_mod(p, q, n: int, k: int, b: Fraction) -> List[Fraction]:
    """p q in C[w]/(w^{n+1} - b w^k) on coefficient lists of length n + 1:
    the ring's power rule w^x = b^e w^{x-ea} (``smallqh.reduce_power`` with
    a = n + 1 - k, at q = 1) reduces each product of monomials."""
    out = [Fraction(0)] * (n + 1)
    for i, ci in enumerate(p):
        if ci:
            for j, cj in enumerate(q):
                if cj:
                    x, e = reduce_power(n, n + 1 - k, i + j)
                    out[x] += ci * cj * b ** e
    return out


def artin_iso(n: int, k: int, b: Rational) -> dict:
    """Verify the quotient-ring model C[w]/(w^{n+1} - b w^k).

    Checks eps^k = 0 for eps = w^{n-k+2} - b w, the closed form
    phi(eps^{k-1}) = (-1)^k b^{k-2} (w^n - b w^{k-1}) for k >= 2, and for
    k = 1 that w^{n+1} - b w is separable (the semisimple case).
    """
    b = Fraction(b)
    if b == 0:
        raise DomainError("b must be nonzero")
    if not (1 <= k <= n) or n < 2:
        raise DomainError("need 1 <= k <= n and n >= 2")

    def w(x):
        return [Fraction(int(i == x)) for i in range(n + 1)]

    # eps = w^{n-k+2} - b w, its first term reduced as w^{n-k+1} w
    eps = [x - b * y for x, y in zip(_mul_mod(w(n - k + 1), w(1), n, k, b), w(1))]
    powers = [w(0)]
    for _ in range(k):
        powers.append(_mul_mod(powers[-1], eps, n, k, b))

    report = {"n": n, "k": k, "b": b, "eps_k_zero": not any(powers[k]),
              "eps_power_formula": None, "semisimple_distinct_roots": None}

    if k >= 2:
        sign = Fraction((-1) ** k) * b ** (k - 2)
        expected = [Fraction(0)] * (n + 1)
        expected[n], expected[k - 1] = sign, -sign * b
        report["eps_power_formula"] = powers[k - 1] == expected
    else:
        # w^{n+1} - b w has n+1 distinct roots iff gcd with derivative is 1
        p = [0, -b] + [0] * (n - 1) + [1]
        dp = [i * c for i, c in enumerate(p)][1:]
        report["semisimple_distinct_roots"] = _poly_gcd_degree(p, dp) == 0
    return report


def _poly_gcd_degree(p, q):
    """deg gcd(p, q) for coefficient lists (constant term first) with nonzero
    leading coefficients: the kernel dimension of the Sylvester map
    (u, v) -> u p + v q, deg u < deg q and deg v < deg p."""
    m, l = len(p) - 1, len(q) - 1
    return len(solve_linear([dict(enumerate(p, i)) for i in range(l)]
                            + [dict(enumerate(q, j)) for j in range(m)], {})[1])


# --- F^(1) ------------------------------------------------------------------


class F1Jet(NamedTuple):
    constant: QPoly                 # -ell q for index 1, else 0
    hessian: List[List[QPoly]]      # F^(1)_{ij}(0), tau indices; row and column 0 vanish
    tau_jet: TruncSeries
    t_jet: TruncSeries


def _tau_to_t_forms(ring: QuantumRingData):
    """tau^i as a linear combination of t-variables: tau^i = sum M_{i+ka}^i q^k t^{i+ka}."""
    n, a = ring.desc.n, ring.desc.a
    return [[(j, QPoly.q_power((j - i) // a, ring.M[j][i]))
             for j in range(i, n + 1, a) if ring.M[j][i]]
            for i in range(n + 1)]


def f1_series(desc: CIDescriptor, ring: QuantumRingData) -> F1Jet:
    """Degree-2 jet of F^(1), in quantum-power coordinates and converted to
    the classical coordinates.

    The linear part is tau^0 (string equation); the second derivatives come
    from the divisor vector field (entries with an index 1) and from the
    contracted fourth derivatives of F^(0) (all other entries).
    """
    origin = ring.origin
    n, a = desc.n, desc.a

    hessian = [[QPoly.zero()] * (n + 1) for _ in range(n + 1)]
    constant = QPoly.q_power(1, -desc.ell) if a == 1 else QPoly.zero()
    terms = {monomial(n + 1): constant, monomial(n + 1, (0,)): QPoly.const(1)}
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            # index 1: the divisor vector field; otherwise the contracted
            # fourth derivatives F^(1)_{ij}(0) = - sum_e F_{1,i-1,j,e}(0) g^{e0}
            val = (QPoly.q_power(j // a, origin._phi.get((j, 0), 0)) if i == 1
                   else -origin.contract0((1, i - 1, j)))
            hessian[i][j] = hessian[j][i] = val
            # Taylor coefficient: F_{ij} for i != j, F_{ii}/2 on the diagonal
            terms[monomial(n + 1, (i, j))] = val if i != j else val.scale(Fraction(1, 2))
    tau = TruncSeries(n + 1, 2, ring.qmax, terms=terms)
    t_jet = linear_substitute(tau, _tau_to_t_forms(ring))
    return F1Jet(constant, hessian, tau, t_jet)


# --- F^(2) ------------------------------------------------------------------


def euler_beta(desc: CIDescriptor, k: int) -> Optional[int]:
    """Degree beta = (k(n-2)-(n-3))/a forced on F^(k)(0); None when it is
    not a positive integer (so F^(k)(0) = 0 by the dimension filter)."""
    num = k * (desc.n - 2) - (desc.n - 3)
    if num <= 0 or num % desc.a != 0:
        return None
    return num // desc.a


def _f2_gradient_parts(desc: CIDescriptor, ring: QuantumRingData):
    """The tau-gradient of F^(2) at 0 as (const, slope), affine in
    F2 = F^(2)(0): F2_b = const_b + slope_b F2, read off the order-2
    equations as F2_1 = (n-1)/a F2 and, for b >= 2,
    F2_b = F1_{1e} g^{ef} F1_{f,b-1} - 2 F1_{1,b-1} F2 (F1: ``ring.f1``)."""
    n, hessian = desc.n, ring.f1.hessian
    const = [QPoly.zero()] * 2 + [contract(ring.ginv, hessian[1], hessian[b - 1])
                                  for b in range(2, n + 1)]
    slope = [QPoly.zero(), QPoly.const(Fraction(n - 1, desc.a))] + [
        hessian[1][b - 1].scale(-2) for b in range(2, n + 1)]
    return const, slope


def _roots(ring: QuantumRingData, beta: int, const, slope) -> List[Fraction]:
    """The roots of F2^2 + A F2 + B = 0, the pure order-2 equation
    F2^2 + g^{0f} F2_f = 0 with A and B the g^{0f}-contractions of the
    gradient's slope and constant part, at the q-degree beta of F^(2)(0);
    sorted ascending, {0} when the quadratic degenerates to F^2 = 0."""
    unit = _unit_vector(ring.desc.n, 0)
    A = contract(ring.ginv, unit, slope)
    B = contract(ring.ginv, unit, const)
    a_coeff = A.coefficient(beta)
    b_coeff = B.coefficient(2 * beta)
    if A != QPoly.q_power(beta, a_coeff):
        raise InternalConsistencyError("quadratic A-coefficient not q-homogeneous")
    if B != QPoly.q_power(2 * beta, b_coeff):
        raise InternalConsistencyError("quadratic B-coefficient not q-homogeneous")
    if a_coeff == 0 and b_coeff == 0:
        return [Fraction(0)]
    disc = a_coeff * a_coeff - 4 * b_coeff
    root = _exact_sqrt(disc)
    if root is None:
        raise InternalConsistencyError("quadratic for F^(2)(0) has no rational root")
    return sorted({(-a_coeff - root) / 2, (-a_coeff + root) / 2})


def _exact_sqrt(x: Fraction) -> Optional[Fraction]:
    if x < 0:
        return None
    num = math.isqrt(x.numerator)
    den = math.isqrt(x.denominator)
    if num * num == x.numerator and den * den == x.denominator:
        return Fraction(num, den)
    return None


class F2Jet(NamedTuple):
    """The origin jet of F^(2) on one root of its quadratic: the root, the
    value F^(2)(0) with the q-grading, and the gradients d/d tau^b and
    d/d t^b at 0 (b = 0..n)."""
    root: Fraction
    value: QPoly
    tau_grad: List[QPoly]
    t_grad: List[QPoly]


def f2_gradient(desc: CIDescriptor, ring: QuantumRingData) -> List[F2Jet]:
    """The origin jet of F^(2) on each root of the quadratic, ascending; the
    commands read it as ``ring.f2``.  The gradient parts are built once, also
    when the admissibility degree (n-1)/a = ``euler_beta(desc, 2)`` is None:
    the root set is then {0} without a quadratic, and the gradient is their
    constant part.  The t-gradient is the tau-gradient under the base change
    tau^i = sum_j c_ij t^j: d/dt^j = sum_i c_ij d/dtau^i."""
    const, slope = _f2_gradient_parts(desc, ring)
    n, beta = desc.n, euler_beta(desc, 2)
    roots = [Fraction(0)] if beta is None else _roots(ring, beta, const, slope)
    forms, jets = _tau_to_t_forms(ring), []
    for root in roots:
        value = QPoly.zero() if beta is None else QPoly.q_power(beta, root)
        tau_grad = [c + s * value for c, s in zip(const, slope)]
        t_grad = [QPoly.zero()] * (n + 1)
        for form, g in zip(forms, tau_grad):
            for j, c in form:
                t_grad[j] += c * g
        jets.append(F2Jet(root, value, tau_grad, t_grad))
    return jets


# --- higher-order coefficients ----------------------------------------------


class HigherKRecord(NamedTuple):
    order: int              # the derivative F^(order)(0) being determined
    k: int                  # expansion index (order - 1)
    coefficient: Fraction
    admissible: bool        # Euler-filter admissibility of F^(order)(0) != 0
    determined: bool
    note: str


def higher_k_coeffs(desc: CIDescriptor, kmax: int) -> List[HigherKRecord]:
    """Linear coefficients determining F^(k+1)(0) for cubics and (2,2).

    For d = (3) the coefficient of F^(k+1)(0) is 9(k-1)/(n-1) - 3k, which
    vanishes only for the cubic threefold at order 4; for d = (2,2) it is
    4(k-1)/(n-1), never zero in range.
    """
    require_reconstruction_domain(desc)
    if desc.d not in ((3,), (2, 2)):
        raise DomainError("closed recursion only available for d = (3) or (2,2)")
    out = []
    for order in range(3, kmax + 1):
        k = order - 1
        if desc.d == (3,):
            coeff = Fraction(9 * (k - 1), desc.n - 1) - 3 * k
        else:
            coeff = Fraction(4 * (k - 1), desc.n - 1)
        admissible = euler_beta(desc, order) is not None
        determined = coeff != 0
        note = ""
        if not determined:
            note = "unknown parameter F^(4)(0) for the cubic threefold"
        elif not admissible:
            note = "forced to vanish by the dimension filter"
        out.append(HigherKRecord(order, k, coeff, admissible, determined, note))
    return out
