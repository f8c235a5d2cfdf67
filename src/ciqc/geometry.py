"""Numerical invariants and monodromy classification of complete intersections.

A complete intersection X_n(d) of multidegree d = (d_1, ..., d_r) in P^{n+r}
carries the invariants used everywhere downstream: the Fano index
a = n + r + 1 - sum(d), the products ell = prod d_i! and b = prod d_i^{d_i},
the Euler characteristic (computed from the adjunction generating function
(1+x)^{n+r+1} / prod(1+d_i x)), the rank m of the middle primitive cohomology,
and the Zariski closure of the monodromy group, which is orthogonal or
symplectic away from three exceptional families.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Tuple

from .errors import DomainError

ORTHOGONAL = "Orthogonal"
SYMPLECTIC = "Symplectic"
Z2 = "Z2"
WEYL_D = "WeylD"
WEYL_E6 = "WeylE6"

# The largest multidegree sum: under it b = prod d_i^{d_i} <= (sum d)^{sum d} has
# at most 4298 digits, and Python writes an int of up to 4300 digits, so b prints.
MULTIDEGREE_SUM_LIMIT = 1370
# The largest dimension: for n <= 1300 and s = sum d <= MULTIDEGREE_SUM_LIMIT,
# |chi| <= prod(d) s^n (1 + 1/s)^{n+r+1} with prod(d) <= 3^{s/3} and r <= s/2,
# below 10^4297, so chi and m print (X_1370(1370)'s chi has 4301 digits).
DIMENSION_LIMIT = 1300


class CIDescriptor(NamedTuple):
    n: int
    d: Tuple[int, ...]
    r: int
    a: int              # Fano index
    ell: int            # prod d_i!
    b: int              # prod d_i^{d_i}
    chi: int            # topological Euler characteristic
    m: int              # rank of middle primitive cohomology
    exceptional: bool
    exceptional_case: str | None
    monodromy: str

    @property
    def degree(self) -> int:
        return math.prod(self.d)

    def is_fano(self) -> bool:
        return self.a >= 1


def _exceptional_family(n: int, d: Tuple[int, ...]):
    """(name, monodromy, m) of X_n(d) when it lies in one of the three
    exceptional families, with m its primitive rank in closed form; else
    None."""
    if d == (2,):
        return "quadric hypersurface X_n(2)", Z2, 1 if n % 2 == 0 else 0
    if d == (2, 2) and n % 2 == 0:
        return "even-dimensional intersection of two quadrics X_n(2,2)", WEYL_D, n + 3
    if d == (3,) and n == 2:
        return "cubic surface X_2(3)", WEYL_E6, 6
    return None


def _chern_numbers(n: int, d: Tuple[int, ...]):
    """Coefficients kappa_j of x^j in (1+x)^{n+r+1} / prod(1+d_i x), j<=n,
    as ints: dividing an integer series by 1 + d_i x keeps it integral."""
    series = [math.comb(n + len(d) + 1, j) for j in range(n + 1)]
    for di in d:
        # divide by (1 + di*x) in place: out[j] = series[j] - di*out[j-1]
        for j in range(1, n + 1):
            series[j] -= di * series[j - 1]
    return series


def chern_integrals(desc: CIDescriptor):
    """Integrals of H^j c_{n-j}(TX) over X for j = 0..n.

    Entry j equals (prod d_i) * [x^{n-j}] ((1+x)^{n+r+1} / prod(1+d_i x));
    entry 0 is the Euler characteristic and entry n the degree of X.
    """
    kappa = _chern_numbers(desc.n, desc.d)
    return [Fraction(desc.degree * kappa[desc.n - j]) for j in range(desc.n + 1)]


def describe(n: int, d) -> CIDescriptor:
    """Build the descriptor of X_n(d), 1 <= n <= DIMENSION_LIMIT, d_i >= 2.

    Downstream reconstruction operations impose their own Fano and
    non-exceptional hypotheses; this classification does not.
    """
    if n < 1:
        raise DomainError(f"dimension must be >= 1, got {n}")
    if n > DIMENSION_LIMIT:
        raise DomainError(f"dimension {n} exceeds {DIMENSION_LIMIT}")
    d = tuple(sorted(int(x) for x in d))
    if not d or any(di < 2 for di in d):
        raise DomainError(f"every multidegree entry must be >= 2, got {d}")
    if sum(d) > MULTIDEGREE_SUM_LIMIT:
        raise DomainError(f"multidegree sum {sum(d)} exceeds {MULTIDEGREE_SUM_LIMIT}")
    r = len(d)
    a = n + r + 1 - sum(d)
    ell = math.prod(map(math.factorial, d))
    b = math.prod(di ** di for di in d)

    chi = math.prod(d) * _chern_numbers(n, d)[n]

    m = (chi - (n + 1)) if n % 2 == 0 else -(chi - (n + 1))
    if m < 0:
        raise DomainError("negative primitive rank; invalid input")

    # an exceptional family's primitive rank has a closed form; cross-check
    case, monodromy, expected = _exceptional_family(n, d) or (
        None, ORTHOGONAL if n % 2 == 0 else SYMPLECTIC, m)
    if m != expected:
        raise DomainError(
            f"primitive rank {m} disagrees with classification {expected}")
    return CIDescriptor(n=n, d=d, r=r, a=a, ell=ell, b=b, chi=chi, m=m,
                        exceptional=case is not None, exceptional_case=case,
                        monodromy=monodromy)


def require_reconstruction_domain(desc: CIDescriptor) -> None:
    """Common hypothesis of the reconstruction theory: Fano, dim >= 3, non-exceptional."""
    if desc.n < 3:
        raise DomainError(
            f"dimension {desc.n} < 3: primitive-class data reduces to the "
            "divisor sector or is classical")
    if not desc.is_fano():
        raise DomainError(
            "non-Fano: all reconstruction trivial (index "
            f"a = {desc.a} <= 0)")
    if desc.exceptional:
        raise DomainError(f"exceptional complete intersection: {desc.exceptional_case}")
