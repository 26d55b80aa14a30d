"""Certified rational closed forms from exact term data.

Everything here is integer or rational arithmetic; a fit is never a
numerical approximation.  A denominator is always kept as its multiset of
(1 - t^w) factors and never multiplied out: fitting multiplies the term
data by one factor at a time and expansion divides by one factor at a time,
each a strided pass over the terms.  A fit succeeds only when the product
vanishes for at least `margin` coefficients above the numerator degree.
The returned object is a certificate relative to its verified range,
nothing more.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache

from .errors import FormatError, InputError, NoFitError, PerigrowthError
from .periodic_graph import QuotientGraph
from .walks import (
    DEFAULT_CYCLE_CAP,
    enumerate_cycles,
    strongly_connected,
    velocity_polytope,
)

DEFAULT_MARGIN = 10
DEFAULT_MARGIN_PER_AXIS = 5

# ---------------------------------------------------------------------------
# dense integer polynomials (index = degree, trailing zeros trimmed) and
# truncated power series, changed in place one (1 - t^w) factor at a time


def poly_trim(p: list[int]) -> list[int]:
    n = len(p)
    while n and p[n - 1] == 0:
        n -= 1
    return p[:n]


def _times(x: list[int], w: int) -> None:
    """x *= 1 - t^w, truncated to len(x): x[i] -= x[i - w] from the top down."""
    x[w:] = map(operator.sub, x[w:], x[:-w])


def _over(x: list[int], w: int) -> None:
    """x /= 1 - t^w, truncated to len(x): x[i] += x[i - w] from the bottom up."""
    for r in range(min(w, len(x))):
        x[r::w] = itertools.accumulate(x[r::w])


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _mobius(n: int) -> int:
    sign, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if n > 1 else sign


def _psi(d: int) -> tuple[list[int], list[int]]:
    """psi_d = prod over e | d of (1 - t^e)^mu(d/e): (e with mu = 1, e with mu = -1).

    psi_1 = 1 - t and psi_d is the cyclotomic polynomial Phi_d for d >= 2, so
    1 - t^w is the product of psi_d over d | w: the psi_d are the irreducible
    factors of every denominator here, each with constant term 1.
    """
    divisors = _divisors(d)
    up = [e for e in divisors if _mobius(d // e) == 1]
    down = [e for e in divisors if _mobius(d // e) == -1]
    return up, down


def _divide(p: list[int], up, down) -> list[int] | None:
    """p / f for a nonzero polynomial p, or None unless f divides p, where
    f = prod over `up` of (1 - t^e) / prod over `down` of (1 - t^e).

    The power series p / f, truncated at deg p, is the polynomial quotient
    exactly when its top deg(f) coefficients vanish.
    """
    keep = len(p) - sum(up) + sum(down)
    if keep < 1:
        return None
    q = list(p)
    for e in up:
        _over(q, e)
    for e in down:
        _times(q, e)
    return None if any(q[keep:]) else q[:keep]


def _multiply(p: list[int], up, down) -> list[int]:
    """p * f, f as in `_divide`; exact because the product fits in deg p + deg f."""
    q = p + [0] * (sum(up) - sum(down))
    for e in up:
        _times(q, e)
    for e in down:
        _over(q, e)
    return q


def merge_factors(factors) -> tuple[tuple[int, int], ...]:
    """Accumulate duplicate periods and sort."""
    acc: dict[int, int] = {}
    for w, e in factors:
        if w < 1 or e < 1:
            raise ValueError(f"bad denominator factor ({w}, {e})")
        acc[w] = acc.get(w, 0) + e
    return tuple(sorted(acc.items()))


# ---------------------------------------------------------------------------
# univariate series


@dataclass(frozen=True)
class RationalSeries:
    """Integer numerator over a product of (1 - t^w)^e factors.

    The expansion matches the source terms through `verified_through`; that
    is the whole claim.
    """

    numerator: tuple[int, ...]
    factors: tuple[tuple[int, int], ...]
    verified_through: int

    def numerator_degree(self) -> int:
        return len(poly_trim(list(self.numerator))) - 1

    def denominator_degree(self) -> int:
        return sum(w * e for w, e in self.factors)


def expand_series(rs: RationalSeries, through: int) -> list[int]:
    """Coefficients 0..through: the numerator divided by each factor in turn."""
    out = list(rs.numerator[: through + 1])
    out += [0] * (through + 1 - len(out))
    for w, e in rs.factors:
        for _ in range(e):
            _over(out, w)
    return out


def default_denominator(
    g: QuotientGraph, *, cycle_cap: int = DEFAULT_CYCLE_CAP
) -> tuple[tuple[int, int], ...]:
    """Denominator ansatz read off the velocity polytope of g.

    P is the hull of the velocities disp(c)/w(c) of the simple cycles c, and
    W(v) the distinct weights of the cycles of velocity v.  The ansatz is
    D = (1 - t) * lcm over the facets F of P of prod over the cycle
    velocities v on F of prod over W(v) of (1 - t^w), where the lcm keeps
    the largest exponent of each weight.  A velocity inside a facet counts
    as well as its vertices: a weight-3 loop of velocity (0, 1/3) on the
    hull edge from (-1/2, 0) to (1, 1) puts (1 - t^3) into the reduced
    denominator.  D is used when g is strongly connected, of dimension 1 or
    2, and P is full-dimensional; otherwise this is `cycle_product`.

    Why D should hold the reduced denominator is a sketch, not a proof: in
    the cone over a facet, a vertex is reached from a residue class plus
    nonnegative combinations of the cycles whose velocities lie on the
    facet, and P's vertices are simple-cycle velocities because every closed
    walk splits into simple cycles.  The ansatz is fixed before any term is
    read, so a fit over it is still a certificate over its range; when D is
    wrong the fit fails and `pg series` goes on to `cycle_product`.
    """
    return _ansatzes(g, cycle_cap)[0]


def cycle_product(
    g: QuotientGraph, *, cycle_cap: int = DEFAULT_CYCLE_CAP
) -> tuple[tuple[int, int], ...]:
    """Denominator ansatz (1-t) * prod over simple cycles (1-t^{weight})."""
    return _ansatzes(g, cycle_cap)[1]


@lru_cache(maxsize=1)
def _ansatzes(g: QuotientGraph, cycle_cap: int):
    """(`default_denominator`, `cycle_product`) of g from one cycle
    enumeration; the one cached entry lets `pg series` read both rungs of
    its ladder from one pass.  The results are tuples, so sharing them is safe."""
    cycles = enumerate_cycles(g, cap=cycle_cap)
    product = merge_factors([(1, 1)] + [(w, 1) for _, w, _ in cycles])
    facets = velocity_polytope(g.dim, cycles) if strongly_connected(g) else []
    if not facets:
        return product, product
    exponents: dict[int, int] = {}
    for facet in facets:
        weights = [w for at_v in facet.values() for w in at_v]
        for w in set(weights):
            exponents[w] = max(exponents.get(w, 0), weights.count(w))
    return merge_factors([(1, 1), *exponents.items()]), product


def fit_univariate(
    terms,
    factors,
    *,
    margin: int = DEFAULT_MARGIN,
) -> RationalSeries:
    """Fit numerator / prod(1 - t^w)^e against exact terms.

    The numerator is the product of the terms and the denominator, truncated
    at the last term, so it reproduces every term by construction.  What
    certifies the fit is that the ansatz is fixed before the terms are read:
    it succeeds only when the product vanishes at `margin` or more indices
    above its detected degree, that is, when at least `margin` terms lie
    beyond it.
    """
    if margin < 0:
        raise InputError("margin must be nonnegative")
    numerator = list(terms)
    through = len(numerator) - 1
    factors = merge_factors(factors)
    for w, e in factors:
        for _ in range(e):
            _times(numerator, w)
    numerator = poly_trim(numerator)
    detected = len(numerator) - 1
    if through < detected + margin:
        raise NoFitError(
            f"no fit at this ansatz: numerator support reaches degree {detected},"
            f" leaving margin {through - detected} < {margin}"
        )
    return RationalSeries(tuple(numerator), factors, through)


def canonicalize(rs: RationalSeries) -> RationalSeries:
    """Reduce to lowest terms and lift the denominator to a (1 - t^w) product.

    Factors (1 - t^w) that divide the numerator cancel whole first, one pass
    each.  What is left of the denominator is prod psi_d^m_d over the
    divisors d of its periods, so cancelling each psi_d from the numerator by
    exact division, while both still hold it, divides by the exact gcd.  The
    reduced denominator prod psi_d^r_d is then lifted greedily: take the
    largest d with r_d > 0, add the factor (1 - t^d), and remove one psi_e
    for every e | d, multiplying the numerator by psi_e where none is left.
    When the reduced denominator is a (1 - t^w) product this returns exactly
    the factors of largest-period peeling; otherwise the numerator may share
    a factor with the lifted denominator.
    """
    num = poly_trim(list(rs.numerator))
    if not num:
        return replace(rs, numerator=(), factors=())
    left: dict[int, int] = {}  # d -> how many psi_d the denominator still holds
    for w, e in rs.factors:
        for _ in range(e):
            quot = _divide(num, [w], [])
            if quot is not None:
                num = quot
                continue
            for d in _divisors(w):
                left[d] = left.get(d, 0) + 1
    for d in left:
        while left[d]:
            quot = _divide(num, *_psi(d))
            if quot is None:
                break
            num = quot
            left[d] -= 1
    factors = []
    while any(left.values()):
        d = max(k for k, m in left.items() if m)
        factors.append((d, 1))
        for e in _divisors(d):
            if left[e]:
                left[e] -= 1
            else:
                num = _multiply(num, *_psi(e))
    reduced = replace(rs, numerator=tuple(num), factors=merge_factors(factors))
    # reduction must not change the expansion
    if expand_series(reduced, rs.verified_through) != expand_series(
        rs, rs.verified_through
    ):
        raise PerigrowthError("canonical reduction changed the expansion")
    return reduced


def _escalate(fit, *ansatzes):
    """Escalation ladder: fit over each distinct ansatz in turn, first as
    given and then with its factors squared."""
    failures = []
    for factors in dict.fromkeys(ansatzes):
        for candidate in (factors, tuple((w, 2 * e) for w, e in factors)):
            try:
                return fit(candidate)
            except NoFitError as exc:
                failures.append(f"ansatz {candidate}: {exc}")
    raise NoFitError("; ".join(failures))


def fit_univariate_auto(
    terms, *ansatzes, margin: int = DEFAULT_MARGIN
) -> RationalSeries:
    """The univariate fit on the escalation ladder of the given ansatzes."""
    return _escalate(
        lambda f: fit_univariate(terms, f, margin=margin),
        *map(merge_factors, ansatzes),
    )


# ---------------------------------------------------------------------------
# quasi-polynomial extraction


@dataclass(frozen=True)
class QuasiPolynomial:
    """Eventually-periodic polynomial form of a rational series' coefficients."""

    period: int
    threshold: int
    polynomials: tuple[tuple[Fraction, ...], ...]
    exceptions: dict[int, int]


def quasi_polynomial(rs: RationalSeries) -> QuasiPolynomial:
    """Per-residue polynomials by exact interpolation, verified term by term."""
    period = math.lcm(*[w for w, _ in rs.factors]) if rs.factors else 1
    count = sum(e for _, e in rs.factors)
    threshold = max(0, rs.numerator_degree() - rs.denominator_degree() + 1)
    horizon = max(rs.verified_through, threshold + period * (count + 1))
    coeffs = expand_series(rs, horizon)
    polynomials = []
    for residue in range(period):
        first = threshold + ((residue - threshold) % period)
        xs = [first + period * j for j in range(count)]
        ys = [Fraction(coeffs[x]) for x in xs]
        polynomials.append(_interpolate(xs, ys))
    qp = QuasiPolynomial(
        period,
        threshold,
        tuple(polynomials),
        {i: coeffs[i] for i in range(threshold)},
    )
    for i in range(threshold, rs.verified_through + 1):
        if qp_evaluate(qp, i) != coeffs[i]:
            raise PerigrowthError(
                f"interpolation inconsistency at index {i} (internal bug)"
            )
    return qp


def _interpolate(xs, ys) -> tuple[Fraction, ...]:
    """Lagrange interpolation, dense coefficients, exact."""
    n = len(xs)
    coeffs = [Fraction(0)] * n
    for k in range(n):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j in range(n):
            if j == k:
                continue
            # multiply basis by (x - xs[j])
            nxt = [Fraction(0)] * (len(basis) + 1)
            for i, c in enumerate(basis):
                nxt[i] -= c * xs[j]
                nxt[i + 1] += c
            basis = nxt
            denom *= xs[k] - xs[j]
        scale = ys[k] / denom
        for i, c in enumerate(basis):
            coeffs[i] += scale * c
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def qp_evaluate(qp: QuasiPolynomial, i: int) -> int:
    if i < qp.threshold:
        return qp.exceptions[i]
    poly = qp.polynomials[i % qp.period]
    value = Fraction(0)
    for c in reversed(poly):
        value = value * i + c
    if value.denominator != 1:
        raise PerigrowthError(f"non-integer quasi-polynomial value at {i}")
    return int(value)


# ---------------------------------------------------------------------------
# multivariate series


def merge_mv_factors(factors) -> tuple[tuple[tuple[int, ...], int], ...]:
    acc: dict[tuple[int, ...], int] = {}
    for w, e in factors:
        w = tuple(w)
        if all(c == 0 for c in w) or any(c < 0 for c in w) or e < 1:
            raise ValueError(f"bad denominator factor ({w}, {e})")
        acc[w] = acc.get(w, 0) + e
    return tuple(sorted(acc.items(), key=lambda it: (sum(it[0]), it[0])))


@dataclass(frozen=True)
class MultivariateRationalSeries:
    """Sparse integer numerator over a product of (1 - z^w)^e factors."""

    arity: int
    numerator: dict[tuple[int, ...], int]
    factors: tuple[tuple[tuple[int, ...], int], ...]
    verified_box: tuple[int, ...]

    def numerator_degrees(self) -> tuple[int, ...]:
        degs = [0] * self.arity
        for a, c in self.numerator.items():
            if c:
                for i, x in enumerate(a):
                    degs[i] = max(degs[i], x)
        return tuple(degs)


def _box_points(box):
    return itertools.product(*(range(b + 1) for b in box))


def _box_pass(x: list[int], box, w, divide: bool) -> None:
    """x *= 1 - z^w, or x /= 1 - z^w when `divide`, truncated to the box.

    x holds the box points in lexicographic order.  Multiplying visits them
    in reverse, so x[a - w] is still the old value when x[a] reads it;
    dividing visits them in order, so it is already the new one.
    """
    strides = [1] * len(box)
    for i in range(len(box) - 1, 0, -1):
        strides[i - 1] = strides[i] * (box[i] + 1)
    shift = sum(wi * stride for wi, stride in zip(w, strides))
    index = [0]
    for wi, b, stride in zip(w, box, strides):
        index = [i + a * stride for i in index for a in range(wi, b + 1)]
    if divide:
        for i in index:
            x[i] += x[i - shift]
    else:
        for i in reversed(index):
            x[i] -= x[i - shift]


def expand_mv_series(ms: MultivariateRationalSeries, box) -> dict[tuple[int, ...], int]:
    """Expansion coefficients over the box: the numerator divided by each factor."""
    points = list(_box_points(box))
    coeffs = [ms.numerator.get(a, 0) for a in points]
    for w, e in ms.factors:
        for _ in range(e):
            _box_pass(coeffs, box, w, divide=True)
    return dict(zip(points, coeffs))


def fit_multivariate(
    table: dict[tuple[int, ...], int],
    box,
    factors,
    *,
    margins=None,
) -> MultivariateRationalSeries:
    """Fit a sparse numerator over the given factor ansatz against a table.

    The table must be total over the box (missing keys count as zero, which
    is how empty sets are passed).  The fit succeeds when, on every axis,
    the detected numerator support stays at least that axis's verification
    margin below the table box boundary.
    """
    box = tuple(box)
    arity = len(box)
    factors = merge_mv_factors(factors)
    if margins is None:
        margins = tuple(DEFAULT_MARGIN_PER_AXIS for _ in box)
    if min(margins, default=0) < 0:
        raise InputError("margin must be nonnegative")
    points = list(_box_points(box))
    coeffs = [table.get(a, 0) for a in points]
    for w, e in factors:
        for _ in range(e):
            _box_pass(coeffs, box, w, divide=False)
    num = {a: c for a, c in zip(points, coeffs) if c}
    fit = MultivariateRationalSeries(arity, num, factors, box)
    for i, support in enumerate(fit.numerator_degrees()):
        if support + margins[i] > box[i]:
            raise NoFitError(
                f"no fit at this ansatz: axis {i} numerator support {support}"
                f" leaves margin {box[i] - support} < {margins[i]}"
            )
    return fit


def fit_multivariate_auto(
    table, box, factors, *, margins=None
) -> MultivariateRationalSeries:
    """The multivariate fit on the escalation ladder."""
    return _escalate(
        lambda f: fit_multivariate(table, box, f, margins=margins),
        merge_mv_factors(factors),
    )


def s_from_b(ms: MultivariateRationalSeries) -> MultivariateRationalSeries:
    """Multiply by prod_i (1 - z_i), cancelling denominator factors when present."""
    factors = dict(ms.factors)
    numerator = dict(ms.numerator)
    for i in range(ms.arity):
        unit = tuple(1 if j == i else 0 for j in range(ms.arity))
        if factors.get(unit, 0) >= 1:
            factors[unit] -= 1
            if factors[unit] == 0:
                del factors[unit]
        else:
            nxt: dict[tuple[int, ...], int] = {}
            for a, c in numerator.items():
                nxt[a] = nxt.get(a, 0) + c
                shifted = tuple(x + y for x, y in zip(a, unit))
                nxt[shifted] = nxt.get(shifted, 0) - c
            numerator = {a: c for a, c in nxt.items() if c}
    return MultivariateRationalSeries(
        ms.arity, numerator, tuple(sorted(factors.items(), key=lambda it: (sum(it[0]), it[0]))), ms.verified_box
    )


def specialize_to_univariate(ms: MultivariateRationalSeries) -> RationalSeries:
    """Substitute every variable by t; result is canonicalized."""
    degree = max((sum(a) for a, c in ms.numerator.items() if c), default=0)
    num = [0] * (degree + 1)
    for a, c in ms.numerator.items():
        num[sum(a)] += c
    factors = merge_factors(
        (sum(w), e) for w, e in ms.factors
    )
    rs = RationalSeries(
        tuple(poly_trim(num)),
        factors,
        verified_through=min(ms.verified_box),
    )
    return canonicalize(rs)


# ---------------------------------------------------------------------------
# bit-exact text format


def series_to_text(obj: RationalSeries | MultivariateRationalSeries) -> str:
    lines = []
    if isinstance(obj, RationalSeries):
        lines.append("series d=1")
        for a, c in enumerate(obj.numerator):
            if c:
                lines.append(f"num {a} {c}")
        for w, e in obj.factors:
            lines.append(f"den {w} ^{e}")
        lines.append(f"verified {obj.verified_through}")
    else:
        lines.append(f"series d={obj.arity}")
        for a in sorted(obj.numerator):
            c = obj.numerator[a]
            if c:
                lines.append("num " + " ".join(str(x) for x in a) + f" {c}")
        for w, e in obj.factors:
            lines.append("den " + " ".join(str(x) for x in w) + f" ^{e}")
        lines.append("verified " + " ".join(str(b) for b in obj.verified_box))
    return "\n".join(lines) + "\n"


def _ints(ln: str, tokens) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in tokens)
    except ValueError:
        raise FormatError(f"bad integer in series line {ln!r}") from None


def series_from_text(text: str) -> RationalSeries | MultivariateRationalSeries:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("series d="):
        raise InputError("missing series header")
    try:
        arity = int(lines[0].split("=", 1)[1])
    except ValueError:
        arity = 0  # reported below, with the other headers that name no arity
    if arity < 1:
        raise FormatError(f"bad series header {lines[0]!r}")
    num: dict[tuple[int, ...], int] = {}
    factors = []
    verified = None
    for ln in lines[1:]:
        tokens = ln.split()
        if tokens[0] == "num":
            if len(tokens) != arity + 2:
                raise FormatError(f"bad num line {ln!r}")
            *degrees, c = _ints(ln, tokens[1:])
            if min(degrees) < 0:
                raise FormatError(f"negative degree in num line {ln!r}")
            if tuple(degrees) in num:
                raise FormatError(f"repeated num degree in {ln!r}")
            num[tuple(degrees)] = c
        elif tokens[0] == "den":
            if len(tokens) != arity + 2 or not tokens[-1].startswith("^"):
                raise FormatError(f"bad den line {ln!r}")
            *w, e = _ints(ln, tokens[1:-1] + [tokens[-1][1:]])
            if min(w) < 0 or not any(w) or e < 1:
                raise FormatError(f"bad denominator factor in {ln!r}")
            factors.append((tuple(w), e))
        elif tokens[0] == "verified":
            if verified is not None:
                raise FormatError(f"second verified line {ln!r}")
            verified = _ints(ln, tokens[1:])
            if any(v < 0 for v in verified):
                raise FormatError(f"negative verified bound in {ln!r}")
        else:
            raise FormatError(f"unknown series line {ln!r}")
    if verified is None or len(verified) != arity:
        raise InputError("missing or malformed verified line")
    if arity == 1:
        degree = max((a[0] for a in num), default=-1)
        dense = [0] * (degree + 1)
        for (a,), c in num.items():
            dense[a] = c
        return RationalSeries(
            tuple(dense),
            merge_factors((w[0], e) for w, e in factors),
            verified[0],
        )
    return MultivariateRationalSeries(arity, num, merge_mv_factors(factors), verified)
