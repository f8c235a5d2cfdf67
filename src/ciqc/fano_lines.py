"""Schubert calculus on G(2, n+2) and the cohomology of the variety of lines.

Two-row Schubert classes {l0, l1} (n >= l0 >= l1 >= 0) multiply by iterated
Pieri rules: {1,1} adds a box to each row, sigma_k adds a horizontal strip.
The fundamental class of the lines on a cubic hypersurface is
9(3 sigma_1^4 - 4 sigma_1^2 sigma_2 + sigma_2^2); multiplying against it
models integrals over the variety of lines.  The class of the contracted
primitive square solves a tridiagonal kernel system, is normalized by an
Euler-characteristic integral, and its self-intersection produces the
four-point primitive normalization.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from operator import mul
from typing import Dict, List, Optional, Tuple, Union

from .errors import DomainError, InternalConsistencyError, VerificationError
from .exact import solve_linear
from .geometry import describe

TwoRowPartition = Tuple[int, int]
Coeff = Union[int, Fraction]


def _exact(c):
    """``c`` itself if exact (an int or a Fraction); a float or str is refused."""
    if not isinstance(c, (int, Fraction)):
        raise DomainError(f"coefficient {c!r} is not an int or a Fraction")
    return c


class SchubertVector:
    """Finitely supported exact combination of two-row Schubert classes: the
    coefficients stay Python ints until a Fraction enters, and mixed
    arithmetic keeps them exact."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Optional[Dict[TwoRowPartition, Coeff]] = None):
        self.n = n
        self.terms: Dict[TwoRowPartition, Coeff] = {}
        if terms:
            for key, c in terms.items():
                self._store(key, _exact(c))

    def _store(self, key: TwoRowPartition, c: Coeff) -> None:
        a, b = key
        if not (a >= b >= 0):
            raise DomainError(f"not a partition: {key}")
        if a > self.n or c == 0:
            return  # classes beyond the box vanish
        cur = self.terms.get((a, b), 0) + c
        if cur == 0:
            self.terms.pop((a, b), None)
        else:
            self.terms[(a, b)] = cur

    @staticmethod
    def basis(n: int, a: int, b: int) -> "SchubertVector":
        return SchubertVector(n, {(a, b): 1})

    def __add__(self, other: "SchubertVector") -> "SchubertVector":
        self._check(other)
        out = SchubertVector(self.n, dict(self.terms))
        for key, c in other.terms.items():
            out._store(key, c)
        return out

    def scale(self, c) -> "SchubertVector":
        return SchubertVector(self.n, {k: v * c for k, v in self.terms.items()})

    def _check(self, other: "SchubertVector") -> None:
        if self.n != other.n:
            raise DomainError("ambient Grassmannians differ")

    def __eq__(self, other) -> bool:
        return isinstance(other, SchubertVector) and self.n == other.n \
            and self.terms == other.terms

    def pieri_h(self, k: int) -> "SchubertVector":
        """Multiply by the special class sigma_k (horizontal strips)."""
        out = SchubertVector(self.n)
        for (a, b), c in self.terms.items():
            lo = max(0, k - (a - b))
            hi = min(k, self.n - a)
            for j in range(lo, hi + 1):
                out._store((a + j, b + k - j), c)
        return out

    def pieri_e2(self) -> "SchubertVector":
        """Multiply by {1,1} (a box on each row)."""
        out = SchubertVector(self.n)
        for (a, b), c in self.terms.items():
            out._store((a + 1, b + 1), c)
        return out

    def integral(self) -> Coeff:
        """Integration over G(2, n+2): the {n,n}-coefficient."""
        return self.terms.get((self.n, self.n), 0)

    def sorted_terms(self):
        return sorted(self.terms.items())

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"{c}*{{{a},{b}}}" for (a, b), c in self.sorted_terms())


def schubert_product(u: SchubertVector, v: SchubertVector) -> SchubertVector:
    """Exact product in H^*(G(2, n+2)) by iterated Pieri multiplication."""
    u._check(v)
    out = SchubertVector(u.n)
    for (a, b), c in v.sorted_terms():
        w = u.scale(c)
        for _ in range(b):
            w = w.pieri_e2()
        if a - b:
            w = w.pieri_h(a - b)
        out = out + w
    return out


def sigma1_power(n: int, k: int) -> SchubertVector:
    out = SchubertVector.basis(n, 0, 0)
    for _ in range(k):
        out = out.pieri_h(1)
    return out


def lines_class_primitive(n: int) -> SchubertVector:
    """3 sigma_1^4 - 4 sigma_1^2 sigma_2 + sigma_2^2 (the class over 9)."""
    s1_2 = sigma1_power(n, 2)
    s2 = SchubertVector.basis(n, 2, 0)
    t1 = schubert_product(s1_2, s1_2).scale(3)
    t2 = schubert_product(s1_2, s2).scale(-4)
    t3 = schubert_product(s2, s2)
    return t1 + t2 + t3


def _kernel(images: List[SchubertVector]) -> List[List[Fraction]]:
    """``solve_linear``'s basis of the kernel of z -> sum_k z_k images[k]."""
    return solve_linear([img.terms for img in images], {})[1]


def prim_square_class(n: int) -> List[Fraction]:
    """Coefficients z_k of the contracted primitive square
    sum beta_i g^{ij} beta_j = sum_k z_k {n-2-k, k}.

    The kernel system comes from multiplying by {1,1} and the lines class;
    the scale is fixed by the integral against sigma_1^{n-2} being
    (-2)^{n+3} - 4.  The result is cross-checked against the closed form
    z_k = ((-2)^{n+1-k} - (-2)^{k+2}) / 9.
    """
    if n < 3:
        raise DomainError("need n >= 3")
    n0 = n // 2
    cls = lines_class_primitive(n)
    e2cls = schubert_product(cls, SchubertVector.basis(n, 1, 1))

    # kernel of z -> sum z_k {n-2-k,k} * cls * {1,1}
    kernel = _kernel([schubert_product(SchubertVector.basis(n, n - 2 - k, k),
                                       e2cls) for k in range(n0)])
    if len(kernel) != 1:
        raise InternalConsistencyError(
            f"kernel dimension {len(kernel)} != 1 at n = {n}")
    z = kernel[0]

    s1pow = sigma1_power(n, n - 2)
    total = schubert_product(schubert_product(prim_square_vector(n, z), s1pow),
                             cls).integral() * 9
    if total == 0:
        raise InternalConsistencyError("normalization integral vanished")
    scale = Fraction((-2) ** (n + 3) - 4, 1) / total
    z = [zk * scale for zk in z]

    closed = [Fraction((-2) ** (n + 1 - k) - (-2) ** (k + 2), 9) for k in range(n0)]
    if z != closed:
        raise VerificationError(
            f"recursion-normalized z {z} disagrees with the closed form {closed}")
    return z


def prim_square_vector(n: int, z: List[Fraction]) -> SchubertVector:
    """The class sum_k z_k {n-2-k, k} of the coefficients ``z``."""
    out = SchubertVector(n)
    for k, zk in enumerate(z):
        out._store((n - 2 - k, k), zk)
    return out


def omega_checks(n: int) -> dict:
    """All identities of the lines-variety model at dimension n.

    Verifies the normalization integral, the quartic self-intersection
    formula 9 z0 (5 z0 + 2 z1) together with its value (chi - n)^2 - 1,
    and reports the resulting four-point normalization scalar.
    """
    z = prim_square_class(n)  # refuses n < 3
    desc = describe(n, (3,))
    v = prim_square_vector(n, z)
    cls = lines_class_primitive(n)

    s1pow = sigma1_power(n, n - 2)
    norm = schubert_product(schubert_product(v, s1pow), cls).integral() * 9
    norm_expected = Fraction((-2) ** (n + 3) - 4)

    quartic = schubert_product(schubert_product(v, v), cls).integral() * 9
    z0 = z[0]
    z1 = z[1] if len(z) > 1 else Fraction(0)
    quartic_closed = 9 * z0 * (5 * z0 + 2 * z1)
    chi_target = Fraction((desc.chi - n) ** 2 - 1)
    # the printed even/odd discrepancy: m^2 + 2m equals (chi-n)^2 - 1 only in
    # even dimensions; both values are reported, not resolved
    m_form = Fraction(desc.m ** 2 + 2 * desc.m)

    report = {
        "z": z,
        "normalization": {"value": norm, "expected": norm_expected,
                          "ok": norm == norm_expected},
        "quartic": {"value": quartic, "closed_form": quartic_closed,
                    "euler_value": chi_target,
                    "ok": quartic == quartic_closed == chi_target,
                    "m_form_value": m_form, "m_form_matches": m_form == chi_target},
        "f2_at_zero": quartic / chi_target,
    }
    if not report["normalization"]["ok"] or not report["quartic"]["ok"]:
        raise VerificationError(f"lines-variety identities failed: {report}")
    return report


def rank_estimates(n: int) -> dict:
    """The Betti table of the variety of lines F, derived from kernel[j], the
    kernel dimension of .[F] on H^{2j}(G(2, n+2)), j = 0..2n-4.  b_k(F) is
      rk_image, the rank of the image of H^k(G) in H^k(F): the number of
        classes {a, k/2 - a} of the n-box less kernel[k/2] for even k, 0 for
        odd k,
      + m on the hard-Lefschetz string n - 2 <= k <= 3n - 6, k = n (mod 2),
      + P - 1 at k = 2n - 4: the products of the m primitive classes, Sym^2
        (n even) or Lambda^2 (n odd, the classes are odd), less the
        contracted primitive square, which lies in the image.
    ``kernel_by_degree`` maps 2j to kernel[j] for j >= n - 2 (zero below);
    it must agree with ``expected_kernels``, or InternalConsistencyError.
    """
    if n < 3:
        raise DomainError("need n >= 3")
    m = describe(n, (3,)).m
    cls = lines_class_primitive(n)

    def classes(j):
        return [(a, j - a) for a in range((j + 1) // 2, min(j, n) + 1)]

    kernel = [len(_kernel([schubert_product(SchubertVector.basis(n, a, b), cls)
                           for a, b in classes(j)]))
              for j in range(2 * n - 3)]
    pair_rank = m * (m + 1) // 2 if n % 2 == 0 else m * (m - 1) // 2
    betti = []
    for k in range(4 * n - 7):
        rk_image = 0 if k % 2 else len(classes(k // 2)) - kernel[k // 2]
        b = rk_image
        if n - 2 <= k <= 3 * n - 6 and (k - n) % 2 == 0:
            b += m
        if k == 2 * n - 4:
            b += pair_rank - 1
        betti.append({"degree": k, "rk_image": rk_image, "rk_lines": b})
    by_degree = {2 * j: kernel[j] for j in range(n - 2, 2 * n - 3)}
    expected = {2 * n - 4: 0, 2 * n - 2: 1}
    if any(by_degree[k] != v for k, v in expected.items()):
        raise InternalConsistencyError(
            f"kernels {by_degree} differ from the expected {expected} at n = {n}")
    return {"n": n, "kernel_by_degree": by_degree, "betti": betti,
            "expected_kernels": expected}


# --- the hyperkaehler fourfold cross-check ---------------------------------


class LatticeVector:
    """Element gamma + a * delta of the rank-23 model lattice.  The model's
    vectors are integral, so the coordinates and forms are Python ints."""

    __slots__ = ("gamma", "a")

    def __init__(self, gamma: List[Coeff], a: Coeff):
        self.gamma = [_exact(c) for c in gamma]
        self.a = _exact(a)


# Gram data: index 0 is the polarization l with l.l = 14; indices 1..21 are
# orthogonal classes of square -2 (the precise off-l form is immaterial for
# the identity being verified, which is multilinear)
_RANK = 22


def _dot(u: List[Coeff], v: List[Coeff]) -> Coeff:
    return 14 * u[0] * v[0] - 2 * sum(map(mul, u[1:_RANK], v[1:_RANK]))


def _b2(v: LatticeVector, w: LatticeVector) -> Coeff:
    """(sigma_1, sigma_1, v, w): six times the quadratic lattice form."""
    return 6 * (_dot(v.gamma, w.gamma) - 2 * v.a * w.a)


def _b4(v1, v2, v3, v4) -> Coeff:
    pairs = [(v1, v2, v3, v4), (v1, v3, v2, v4), (v1, v4, v2, v3)]
    acc = 0
    for (x, y, z, w) in pairs:
        acc += _dot(x.gamma, y.gamma) * _dot(z.gamma, w.gamma)
    vs = [v1, v2, v3, v4]
    for i in range(4):
        for j in range(i + 1, 4):
            rest = [vs[k] for k in range(4) if k not in (i, j)]
            acc += -2 * vs[i].a * vs[j].a * _dot(rest[0].gamma, rest[1].gamma)
    acc += 12 * v1.a * v2.a * v3.a * v4.a
    return acc


def _unit(i: int) -> List[int]:
    return [int(j == i) for j in range(_RANK)]


def _hilb2_basis() -> List[LatticeVector]:
    """Basis of the primitive lattice: the classes f_1..f_21 orthogonal to l
    (a = 0), then v* = 5 l - 14 delta."""
    basis = [LatticeVector(_unit(i), 0) for i in range(1, _RANK)]
    basis.append(LatticeVector([5 if j == 0 else 0 for j in range(_RANK)], -14))
    return basis


def _gram_data(basis: List[LatticeVector]) -> Tuple[List[List[int]], List[int]]:
    """The Gram matrix _dot(gamma_i, gamma_j) and the delta coefficients a_i
    of a basis, as Python ints; a non-integral entry is an error."""
    def as_int(x: Coeff) -> int:
        if x.denominator != 1:
            raise InternalConsistencyError(f"Gram entry {x} is not integral")
        return x.numerator

    gram = [[as_int(_dot(u.gamma, v.gamma)) for v in basis] for u in basis]
    return gram, [as_int(v.a) for v in basis]


def _quadruple_rows(gram: List[List[int]], bmat: List[List[int]], a: List[int],
                    i: int, j: int, k: int) -> List[Tuple[int, int]]:
    """(lhs, b4) for the basis vectors (i, j, k, l), l = k, k + 1, ..., over
    the pairings (ij|kl), (ik|jl), (il|jk): lhs, the symmetrized product of
    _b2 forms, is 36 B_wx B_yz with B = gram - 2 a a^T (``bmat``); b4 is _b4,
    12 a_i a_j a_k a_l + G_wx G_yz - 2 (a_w a_x G_yz + a_y a_z G_wx) from
    the Gram data, its factors of a_l, G_kl, G_jl, G_il formed once a row."""
    g_i, g_j, g_k, b_i, b_j, b_k = gram[i], gram[j], gram[k], bmat[i], bmat[j], bmat[k]
    a_i, a_j, a_k = a[i], a[j], a[k]
    c_a = 12 * a_i * a_j * a_k - 2 * (a_k * g_i[j] + a_j * g_i[k] + a_i * g_j[k])
    c_k, c_j, c_i = g_i[j] - 2 * a_i * a_j, g_i[k] - 2 * a_i * a_k, g_j[k] - 2 * a_j * a_k
    p_k, p_j, p_i = 36 * b_i[j], 36 * b_i[k], 36 * b_j[k]
    return [(p_k * b_kl + p_j * b_jl + p_i * b_il,
             c_a * a_l + c_k * g_kl + c_j * g_jl + c_i * g_il)
            for g_il, g_jl, g_kl, b_il, b_jl, b_kl, a_l in zip(
                g_i[k:], g_j[k:], g_k[k:], b_i[k:], b_j[k:], b_k[k:], a[k:])]


def hilb2_check() -> Fraction:
    """Verify the four-point normalization on the hyperkaehler model of the
    lines on a cubic fourfold and return the forced scalar.

    The polarization is sigma_1 = 2 l - 5 delta; primitive classes satisfy
    gamma.l + 5 a = 0.  For every quadruple of primitive basis vectors (all
    22 of them) the quadruple integral must equal the scalar times the
    symmetrized product of the 2-point forms; the scalar comes out as 1.
    Both sides are symmetric in the four slots once the Gram matrix is, so
    each multiset of basis vectors is checked once, in integer arithmetic.
    """
    basis = _hilb2_basis()
    vstar = basis[-1]
    if _dot(vstar.gamma, _unit(0)) + 5 * vstar.a != 0:
        raise InternalConsistencyError("v* is not primitive")

    sigma1 = LatticeVector([2 if j == 0 else 0 for j in range(_RANK)], -5)
    for v in basis:
        # primitivity against the polarization: (v, sigma1, sigma1, sigma1) = 0
        if _b4(v, sigma1, sigma1, sigma1) != 0:
            raise InternalConsistencyError("basis vector is not primitive")

    gram, a = _gram_data(basis)
    if any(row[j] != gram[j][i] for i, row in enumerate(gram) for j in range(i)):
        raise InternalConsistencyError("Gram matrix is not symmetric")
    bmat = [[g - 2 * x * y for g, y in zip(row, a)] for row, x in zip(gram, a)]

    # the first nondegenerate ratio rhs0 / lhs0, compared with each later
    # one by cross-multiplying (exact, as lhs != 0)
    rhs0 = lhs0 = None
    for i, j, k in combinations_with_replacement(range(len(basis)), 3):
        for lhs, b4 in _quadruple_rows(gram, bmat, a, i, j, k):
            rhs = 36 * b4
            if lhs == 0:
                if rhs != 0:
                    raise VerificationError("inconsistent quadruple")
                continue
            if lhs0 is None:
                rhs0, lhs0 = rhs, lhs
            elif rhs * lhs0 != rhs0 * lhs:
                raise VerificationError(f"scalar not constant: {Fraction(rhs0, lhs0)} "
                                        f"vs {Fraction(rhs, lhs)}")
    if lhs0 is None:
        raise InternalConsistencyError("no nondegenerate quadruple found")
    return Fraction(rhs0, lhs0)


def hilb2_examples() -> dict:
    """The two printed instances of the intersection forms: the all-delta
    four-point value 12, and the two-point value -12 against an isotropic
    gamma (here l + 2f_1 + f_2 + f_3 + f_4, of square 14 - 14 = 0)."""
    delta = LatticeVector([0] * _RANK, 1)
    iso = [1, 2, 1, 1, 1] + [0] * (_RANK - 5)
    if _dot(iso, iso) != 0:
        raise InternalConsistencyError("isotropic vector is not isotropic")
    gd = LatticeVector(iso, 1)
    return {
        "all_delta_four_point": _b4(delta, delta, delta, delta),
        "gamma_plus_delta_two_point": _b2(gd, gd),
    }
