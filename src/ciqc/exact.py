"""Exact scalar, polynomial, truncated-series and linear-algebra substrate.

Every number in the package is a ``fractions.Fraction`` (re-exported here as
``Rational``); there is no floating point anywhere.  On top of that sit

* ``QPoly`` -- exact polynomials in the formal degree variable q,
* ``TruncSeries`` -- sparse multivariate series in t^0..t^n and s with QPoly
  coefficients, truncated by total degree, by a q-cap and (in odd
  dimensions) by an s-cap; it is the only place q is truncated,
* ``substitute`` -- replacing each variable of a series by a series (the
  flat change of basis, and s = sum u^2/2 in the equivalence oracle),
* ``contract`` -- the contraction of two QPoly rows through an inverse
  pairing,
* ``derivative_table`` -- a series and its derivatives as the packed-integer
  rows over one denominator that every series product is summed on:
  ``TruncSeries.__mul__`` reads a series' own rows, the residual checker
  the derivatives it names,
* ``solve_linear`` -- sparse exact row reduction of a map given by its
  column images, with kernel basis and a self-check of both results.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import lcm, perm
from typing import NamedTuple, Optional

from .errors import ConfigurationError, DomainError, InternalConsistencyError

Rational = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def rat(x) -> Fraction:
    """Coerce an int, string or Fraction to an exact Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return parse_rat(x)
    raise DomainError(f"cannot coerce {x!r} to a Rational")


def rat_str(x: Fraction) -> str:
    """Serialize a Rational as "p/q", or "p" when the denominator is 1."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_rat(s: str) -> Fraction:
    """Parse the "p/q" / "p" string form back into a Rational."""
    s = s.strip()
    if "/" in s:
        num, den = s.split("/")
        return Fraction(int(num), int(den))
    return Fraction(int(s))


class QPoly:
    """Exact polynomial in the Novikov variable q.

    Coefficients are Rationals; zero coefficients are never stored and all
    exponents are non-negative.  QPoly never truncates: a q-cap exists only
    on a stored ``TruncSeries``.  Instances are immutable in practice: no
    method mutates self after construction.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Optional[dict] = None):
        clean = {}
        if coeffs:
            for k, c in coeffs.items():
                if k < 0:
                    raise DomainError("negative q exponent")
                c = rat(c)
                if c != 0:
                    clean[k] = c
        self.coeffs = clean

    @classmethod
    def _of(cls, coeffs: dict) -> "QPoly":
        """An arithmetic result: Rationals at non-negative exponents, taken
        unchecked, zeros dropped; ``QPoly(dict)`` validates its input."""
        out = object.__new__(cls)
        out.coeffs = {k: c for k, c in coeffs.items() if c}
        return out

    @staticmethod
    def const(c) -> "QPoly":
        return QPoly._of({0: rat(c)})

    @staticmethod
    def zero() -> "QPoly":
        return QPoly()

    @staticmethod
    def q_power(k: int, c=ONE) -> "QPoly":
        if k < 0:
            raise DomainError("negative q exponent")
        return QPoly._of({k: rat(c)})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def coefficient(self, k: int) -> Fraction:
        return self.coeffs.get(k, ZERO)

    def __add__(self, other: "QPoly") -> "QPoly":
        if not (self.coeffs and other.coeffs):
            return self if other.is_zero() else other
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, ZERO) + c
        return QPoly._of(out)

    def __neg__(self) -> "QPoly":
        return QPoly._of({k: -c for k, c in self.coeffs.items()})

    def __mul__(self, other) -> "QPoly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        out = {}
        for k1, c1 in self.coeffs.items():
            for k2, c2 in other.coeffs.items():
                k = k1 + k2
                out[k] = out.get(k, ZERO) + c1 * c2
        return QPoly._of(out)

    __rmul__ = __mul__

    def scale(self, c) -> "QPoly":
        if isinstance(c, QPoly):
            return self * c
        c = rat(c)
        return QPoly._of({k: v * c for k, v in self.coeffs.items()})

    def eval_q1(self) -> Fraction:
        """Substitute q = 1 (output-side specialization only)."""
        return sum(self.coeffs.values(), ZERO)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):  # a constant; no QPoly is built
            return self.coeffs == {0: other} if other else not self.coeffs
        return isinstance(other, QPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(sorted(self.coeffs.items())))

    def items(self):
        return sorted(self.coeffs.items())

    def to_json(self) -> list:
        return [[k, rat_str(c)] for k, c in self.items()]

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in self.items():
            if k == 0:
                parts.append(rat_str(c))
            elif c == 1:
                parts.append(f"q^{k}" if k > 1 else "q")
            else:
                parts.append(f"{rat_str(c)}*q^{k}" if k > 1 else f"{rat_str(c)}*q")
        return " + ".join(parts)


class TruncSeries:
    """Sparse truncated series in t^0..t^{nt-1} and s with QPoly coefficients.

    ``nt`` is the number of t-variables; the s variable is always tracked as
    an extra exponent slot.  ``degree_cap`` bounds the total degree (t plus s)
    of stored monomials and ``s_cap`` optionally bounds the s-exponent, which
    implements the odd-dimensional nilpotency s^{m/2+1} = 0.  ``qmax``
    bounds the q-exponents kept in each coefficient.

    Canonical monomial ordering is lexicographic on
    (s-degree, total t-degree, t-exponent tuple), which makes all derived
    output reproducible.
    """

    __slots__ = ("nt", "degree_cap", "s_cap", "qmax", "terms")
    _ONE = QPoly.const(1)  # the g of a plain product

    def __init__(self, nt: int, degree_cap: int, qmax: int,
                 s_cap: Optional[int] = None, terms: Optional[dict] = None):
        self.nt = nt
        self.degree_cap = degree_cap
        self.s_cap = s_cap
        self.qmax = qmax
        self.terms = {}
        if terms:
            for key, coeff in terms.items():
                self._store(key, coeff)

    # keys are tuples (e_0, ..., e_{nt-1}, e_s)

    def _keep(self, key) -> bool:
        if sum(key) > self.degree_cap:
            return False
        if self.s_cap is not None and key[-1] > self.s_cap:
            return False
        return True

    def _store(self, key, coeff) -> None:
        if len(key) != self.nt + 1:
            raise ConfigurationError("exponent tuple has wrong length")
        if not isinstance(coeff, QPoly):
            coeff = QPoly.const(coeff)
        if not self._keep(key):
            return
        qmax = self.qmax
        for k in coeff.coeffs:
            if k > qmax:
                coeff = QPoly._of({k: c for k, c in coeff.coeffs.items() if k <= qmax})
                break
        if coeff.is_zero():
            return
        key = tuple(key)
        if key in self.terms:
            c = self.terms[key] + coeff
            if c.is_zero():
                del self.terms[key]
            else:
                self.terms[key] = c
        else:
            self.terms[key] = coeff

    def _check(self, other: "TruncSeries") -> None:
        if (self.nt, self.degree_cap, self.s_cap, self.qmax) != \
           (other.nt, other.degree_cap, other.s_cap, other.qmax):
            raise ConfigurationError("series cap/variable mismatch")

    def like(self, terms: Optional[dict] = None) -> "TruncSeries":
        """A series with the same variables and caps holding ``terms``."""
        return TruncSeries(self.nt, self.degree_cap, self.qmax, self.s_cap, terms)

    def add_term(self, key, coeff) -> "TruncSeries":
        out = self.copy()
        out._store(tuple(key), coeff)
        return out

    def copy(self) -> "TruncSeries":
        out = self.like()
        out.terms = dict(self.terms)
        return out

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        self._check(other)
        out = self.copy()
        for key, c in other.terms.items():
            out._store(key, c)
        return out

    def scale(self, c) -> "TruncSeries":
        return self.like({key: v.scale(c) for key, v in self.terms.items()})

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        """The product under the caps of self, on the integer kernel: each
        operand's order-0 rows are read once, and once for a square."""
        self._check(other)
        left = derivative_table(self, [((), 0)])
        right = left if other is self else derivative_table(other, [((), 0)])
        acc = _accumulate(self, [(left.rows[(), 0], self._ONE, right.rows[(), 0])], 1)
        return _collect(self, acc, left.den * right.den, _base(self))

    def coefficient(self, t_exps: dict, s_exp: int = 0) -> QPoly:
        key = monomial(self.nt, Counter(t_exps).elements(), s_exp)
        return self.terms.get(key, QPoly.zero())

    def is_zero(self) -> bool:
        return not self.terms

    def truncate_degree(self, cap: int) -> "TruncSeries":
        return self.recap(min(cap, self.degree_cap), self.s_cap)

    def recap(self, degree_cap: int, s_cap=None) -> "TruncSeries":
        """Re-store the terms under new caps (raising a cap marks the new
        orders as unknown-zero rather than computing them)."""
        return TruncSeries(self.nt, degree_cap, self.qmax, s_cap, self.terms)

    def s_slice(self, s_power: int) -> "TruncSeries":
        """Series of t-monomials multiplying s^s_power (s removed)."""
        out = TruncSeries(self.nt, self.degree_cap, self.qmax, None)
        for key, c in self.terms.items():
            if key[-1] == s_power:
                out._store(key[:-1] + (0,), c)
        return out

    def sorted_terms(self):
        return sorted(self.terms.items(), key=_mono_order_key)

    def __eq__(self, other) -> bool:
        return (isinstance(other, TruncSeries) and self.nt == other.nt
                and self.terms == other.terms)

    def to_json(self, coefficient=QPoly.to_json) -> dict:
        """JSON form; ``coefficient`` maps each QPoly to its JSON value."""
        return {
            "nt": self.nt,
            "degree_cap": self.degree_cap,
            "s_cap": self.s_cap,
            "qmax": self.qmax,
            "terms": [
                {"monomial": list(key), "coefficient": coefficient(c)}
                for key, c in self.sorted_terms()
            ],
        }

    @staticmethod
    def from_json(data: dict) -> "TruncSeries":
        """Parse the ``to_json`` form strictly: raises ValueError on a
        malformed field, on a repeated monomial or q-exponent and on a term
        outside the series' own caps, so nothing is silently coerced, summed
        or dropped."""
        out = TruncSeries(_json_nonneg_int(data["nt"], "nt"),
                          _json_nonneg_int(data["degree_cap"], "degree_cap"),
                          _json_nonneg_int(data["qmax"], "qmax"),
                          None if data.get("s_cap") is None
                          else _json_nonneg_int(data["s_cap"], "s_cap"))
        seen = set()
        for item in data["terms"]:
            mono = item["monomial"]
            if not isinstance(mono, list) or len(mono) != out.nt + 1:
                raise ValueError(f"monomial {mono!r} needs {out.nt + 1} exponents")
            key = tuple(_json_nonneg_int(e, "monomial exponent") for e in mono)
            if not out._keep(key) or key in seen:
                raise ValueError(f"monomial {mono} is repeated or outside the caps")
            seen.add(key)
            coeffs = {}
            for k, c in item["coefficient"]:
                k = _json_nonneg_int(k, "q-exponent")
                if k > out.qmax or k in coeffs:
                    raise ValueError(f"q-exponent {k} is repeated or above qmax {out.qmax}")
                if not isinstance(c, str):
                    raise ValueError(f"coefficient {c!r} is not a \"p/q\" string")
                try:
                    coeffs[k] = parse_rat(c)
                except ZeroDivisionError:
                    raise ValueError(f"coefficient {c!r} has a zero denominator")
            out._store(key, QPoly(coeffs))
        return out

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for key, c in self.sorted_terms():
            mono = []
            for i, e in enumerate(key[:-1]):
                if e == 1:
                    mono.append(f"t{i}")
                elif e > 1:
                    mono.append(f"t{i}^{e}")
            if key[-1] == 1:
                mono.append("s")
            elif key[-1] > 1:
                mono.append(f"s^{key[-1]}")
            m = "*".join(mono) if mono else "1"
            parts.append(f"({c!r})*{m}")
        return " + ".join(parts)


def _json_nonneg_int(value, what: str) -> int:
    """A non-negative JSON integer (bools and floats are refused)."""
    if type(value) is not int or value < 0:
        raise ValueError(f"{what} must be a non-negative integer, got {value!r}")
    return value


def monomial(nt: int, t_indices=(), s: int = 0) -> tuple:
    """The exponent key (e_0, ..., e_{nt-1}, e_s) of the product of t^i over
    ``t_indices`` (an index may repeat) times s^s."""
    key = [0] * (nt + 1)
    for i in t_indices:
        key[i] += 1
    key[-1] = s
    return tuple(key)


def _mono_order_key(item):
    key = item[0]
    return (key[-1], sum(key[:-1]), key[:-1])


def substitute(series: TruncSeries, images) -> TruncSeries:
    """Replace variable v of ``series`` (t^0..t^{nt-1}, then s) by the series
    ``images[v]``; the result has the variables and caps of the images.

    Each power of an image is formed once.  Truncation commutes with the
    substitution because no exponent is negative.
    """
    one = images[0].like({monomial(images[0].nt): ONE})
    powers = [[one, image] for image in images]
    out = one.like()
    for key, coeff in series.sorted_terms():
        term = one
        for v, e in enumerate(key):
            if e:
                while len(powers[v]) <= e:
                    powers[v].append(powers[v][-1] * images[v])
                term = term * powers[v][e]
        out = out + term.scale(coeff)
    return out


def linear_substitute(series: TruncSeries, forms) -> TruncSeries:
    """Substitute each t-variable by a QPoly-linear combination of t-variables.

    ``forms[i]`` is a list of (j, QPoly) pairs meaning t_i -> sum c_j t_j.
    The s variable is untouched.  Used for the flat change of coordinates
    between the classical-power and quantum-power bases.
    """
    nt = series.nt
    images = [series.like({monomial(nt, (j,)): c for j, c in forms[i]})
              for i in range(nt)]
    return substitute(series, images + [series.like({monomial(nt, s=1): ONE})])


def _base(like: TruncSeries) -> int:
    """The radix of packed keys under the caps of ``like``: a key holds q,
    e_0..e_{nt-1} and e_s as its digits, lowest first, and a sum of keys
    inside the caps carries no digit."""
    return max(like.degree_cap, like.qmax, 0) + 1


class DerivativeTable(NamedTuple):
    """Derivatives of ``F`` as packed rows over ``den`` (``derivative_table``)."""
    F: TruncSeries
    den: int
    rows: dict


def derivative_table(F: TruncSeries, specs) -> DerivativeTable:
    """The derivatives ``specs`` of F in one pass over F's terms.  A spec
    (idx, shift) is s^shift times the derivative in the sorted variables
    ``idx`` (index nt standing for s), F itself ((), 0).  ``rows[spec]`` are
    its terms (degree, s, packed, q, numerator) sorted by degree: ``packed``
    holds q, e_0..e_{nt-1}, e_s as digits in base ``_base(F)``, lowest first,
    and ``numerator`` is the coefficient of q^q times F's common denominator.
    A derivative scales a term by falling factorials of its exponents and
    moves its key by their units; ``_accumulate`` applies the caps."""
    nt, base = F.nt, _base(F)
    rows, plan = {}, []
    for idx, shift in specs:
        # (variable, order) pairs, their mask, the moves of key, degree, s
        need, mask, dk = [], 0, shift * base ** (nt + 1)
        for v in set(idx):
            need.append((v, idx.count(v)))
            mask |= 1 << v
            dk -= idx.count(v) * base ** (v + 1)
        rows[idx, shift] = out = []
        plan.append((mask, need, dk, shift - len(idx), shift - idx.count(nt), out))
    den = _common_denominator(F.terms.values())
    for key, coeff in F.terms.items():
        packed = mask = 0
        for e in reversed(key):
            packed = packed * base + e
            mask += mask + (e > 0)
        packed, degree, s, absent = packed * base, sum(key), key[nt], ~mask
        for q, c in coeff.coeffs.items():
            num = c.numerator * (den // c.denominator)
            for need_mask, need, dk, dd, ds, out in plan:
                if need_mask & absent:
                    continue
                factor = num
                for v, order in need:
                    factor *= perm(key[v], order)  # 0 below the order
                if factor:
                    out.append((degree + dd, s + ds, packed + dk + q, q, factor))
    for out in rows.values():
        out.sort(key=lambda row: row[0])
    return DerivativeTable(F, den, rows)


def _common_denominator(polys) -> int:
    """The least common denominator of the coefficients of the QPolys."""
    return lcm(*(c.denominator for poly in polys for c in poly.coeffs.values()))


def _accumulate(like: TruncSeries, triples, g_den: int) -> dict:
    """sum left * g * right over ``triples`` of table rows (over D_left and
    D_right) and QPolys g under the caps of ``like``, as packed key ->
    integer numerator over D_left D_right ``g_den``.  A product key is one
    sum of packed keys; the right rows are sorted by degree."""
    cap, qmax = like.degree_cap, like.qmax
    s_cap = cap if like.s_cap is None else like.s_cap
    acc = {}
    for left, g, right in triples:
        for gq, c in g.coeffs.items():
            gn = c.numerator * (g_den // c.denominator)
            for d1, s1, k1, q1, n1 in left:
                room, s_room, q_room = cap - d1, s_cap - s1, qmax - q1 - gq
                k1, n1 = k1 + gq, n1 * gn
                for d2, s2, k2, q2, n2 in right:
                    if d2 > room:
                        break
                    if s2 <= s_room and q2 <= q_room:
                        key = k1 + k2
                        acc[key] = acc.get(key, 0) + n1 * n2
    return acc


def _collect(like: TruncSeries, acc: dict, den: int, base: int) -> TruncSeries:
    """The series under the caps of ``like`` with coefficient acc[key] / den
    at each key packed in ``base``; one Fraction per nonzero entry."""
    grouped = {}
    for packed, num in acc.items():
        if num:
            mono, q = divmod(packed, base)
            grouped.setdefault(mono, {})[q] = Fraction(num, den)
    out = like.like()
    for mono, coeffs in grouped.items():
        key = []
        for _ in range(like.nt + 1):
            mono, e = divmod(mono, base)
            key.append(e)
        out.terms[tuple(key)] = QPoly._of(coeffs)
    return out


def contract(ginv, left, right) -> QPoly:
    """sum_{e,f} left[e] g^{ef} right[f] over rows of QPolys through the
    inverse pairing ``ginv``; a product is formed only where g^{ef} is
    nonzero."""
    acc = QPoly.zero()
    for e, le in enumerate(left):
        for f, g in enumerate(ginv[e]):
            if not g.is_zero():
                acc = acc + (le * right[f]).scale(g)
    return acc


def solve_linear(columns, rhs):
    """Exact sparse reduced row echelon solve of sum_j x_j columns[j] = rhs.

    Each column image, and ``rhs``, is a dict from a row key to a Rational (a
    missing key is 0).  Returns (particular, kernel, witness): the solution
    whose free variables are 0, or None and the first row key at which the
    rows so far read 0 = nonzero; and a basis of the homogeneous solutions,
    one vector per free column with first nonzero entry 1.  Rows are reduced
    in the order their keys first appear (the columns in order, then
    ``rhs``); a new pivot is its row's smallest column and is eliminated from
    the earlier pivot rows, so the form stays reduced and both results are
    the unique reduced-echelon ones.  Both are substituted back into every
    row, and a mismatch raises InternalConsistencyError.
    """
    cols = len(columns)  # the rhs is entry ``cols`` of a row
    rows = {}
    for j, column in enumerate([*columns, rhs]):
        for key, c in column.items():
            if c:
                rows.setdefault(key, {})[j] = rat(c)
    pivots, witness = {}, None
    for key, row in rows.items():
        row = dict(row)
        for c in [c for c in row if c in pivots]:
            _eliminate(row, c, pivots[c])
        unknowns = [c for c in row if c < cols]
        if not unknowns:
            if row and witness is None:
                witness = key
            continue
        p = min(unknowns)
        row = {j: v / row[p] for j, v in row.items()}
        for other in pivots.values():
            if p in other:
                _eliminate(other, p, row)
        pivots[p] = row
    particular = None if witness is not None else [
        pivots[c].get(cols, ZERO) if c in pivots else ZERO for c in range(cols)]
    kernel = []
    for free in (c for c in range(cols) if c not in pivots):
        vec = [-pivots[p].get(free, ZERO) if p in pivots else ZERO for p in range(cols)]
        vec[free] = ONE
        first = next(v for v in vec if v)
        kernel.append([v / first for v in vec])
    solutions = [vec + [ZERO] for vec in kernel] + \
        ([] if particular is None else [particular + [-ONE]])
    if any(sum(v * x[j] for j, v in row.items()) for x in solutions for row in rows.values()):
        raise InternalConsistencyError("a solve_linear result fails a row")
    return particular, kernel, witness


def _eliminate(row, c, pivot_row):
    """row -= row[c] * pivot_row in place (pivot_row[c] is 1), dropping zeros."""
    f = row[c]
    for j, v in pivot_row.items():
        row[j] = row.get(j, ZERO) - f * v
        if not row[j]:
            del row[j]
