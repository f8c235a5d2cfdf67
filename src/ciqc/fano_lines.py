"""Schubert calculus on G(2, n+2) and the cohomology of the variety of lines.

Two-row Schubert classes {l0, l1} (n >= l0 >= l1 >= 0) multiply by iterated
Pieri rules: {1,1} adds a box to each row, sigma_k adds a horizontal strip.
The class [F] of the lines F on a cubic hypersurface is
9(3 sigma_1^4 - 4 sigma_1^2 sigma_2 + sigma_2^2); multiplying against it
gives integrals over F.  The class of the contracted primitive square solves
a tridiagonal kernel system, is normalized by an Euler-characteristic
integral, and its self-intersection produces the four-point primitive
normalization.  On the cubic fourfold F is a hyperkaehler fourfold of K3^[2]
type, and the same integrals satisfy its three Fujiki relations; two values
of that Fujiki form are printed as examples.
"""

from __future__ import annotations

from fractions import Fraction
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


def lines_class(n: int) -> SchubertVector:
    """[F] = 9(3 sigma_1^4 - 4 sigma_1^2 sigma_2 + sigma_2^2), the class of the
    lines on a cubic n-fold in G(2, n+2)."""
    s1_2 = sigma1_power(n, 2)
    s2 = SchubertVector.basis(n, 2, 0)
    t1 = schubert_product(s1_2, s1_2).scale(3)
    t2 = schubert_product(s1_2, s2).scale(-4)
    t3 = schubert_product(s2, s2)
    return (t1 + t2 + t3).scale(9)


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
    cls = lines_class(n)
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
                             cls).integral()
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
    cls = lines_class(n)

    s1pow = sigma1_power(n, n - 2)
    norm = schubert_product(schubert_product(v, s1pow), cls).integral()
    norm_expected = Fraction((-2) ** (n + 3) - 4)

    quartic = schubert_product(schubert_product(v, v), cls).integral()
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
    cls = lines_class(n)

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
# The lines F on a cubic fourfold form a hyperkaehler fourfold of K3^[2] type
# (Beauville-Donagi) whose Beauville-Bogomolov form q satisfies the Fujiki
# relation int_F x^4 = FUJIKI c q(x)^2 with c = 1.  The Pluecker class
# h = sigma_1 has q(h) = 6, and the Abel-Jacobi images of primitive classes
# pair as minus the cubic's pairing, so they are q-orthogonal to h.  The
# exceptional class delta of S^[2] has q(delta) = -2; the printed examples
# are values of this one form.

_Q_H = 6
_Q_DELTA = -2
_FUJIKI = 3


def hilb2_check() -> Fraction:
    """Verify the Fujiki relations on the variety of lines F of the cubic
    fourfold, as integrals over G(2, 6) against [F], and return the forced
    constant c.

    c is int_F h^4 / (FUJIKI q(h)^2) = 108 / 108.  Polarizing the relation
    on h, h and the m = 22 primitive classes, then contracting them into
    the primitive square PS, gives int_F h^2 PS = c q(h) (-m) = -132 and
    int_F PS^2 = c (m^2 + 2m) = 528; ``omega_checks(4)`` computes both
    integrals.  A mismatch raises VerificationError.
    """
    m = describe(4, (3,)).m
    h4 = schubert_product(sigma1_power(4, 4), lines_class(4)).integral()
    c = Fraction(h4, _FUJIKI * _Q_H ** 2)
    report = omega_checks(4)
    for key, fujiki in (("normalization", c * _Q_H * -m), ("quartic", c * (m * m + 2 * m))):
        if report[key]["value"] != fujiki:
            raise VerificationError(f"Fujiki relation fails: the {key} integral is "
                                    f"{report[key]['value']}, c = {c} gives {fujiki}")
    return c


def hilb2_examples(c: Fraction) -> dict:
    """Two values of the Fujiki form with constant ``c``: int delta^4 =
    FUJIKI c q(delta)^2, and int h^2 x^2 = c q(h) q(x) for x = gamma + delta
    with gamma isotropic and q-orthogonal to delta, and x q-orthogonal to h,
    so that q(x) = q(delta)."""
    return {"all_delta_four_point": _FUJIKI * c * _Q_DELTA ** 2,
            "gamma_plus_delta_two_point": c * _Q_H * _Q_DELTA}
