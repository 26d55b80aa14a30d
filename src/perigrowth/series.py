"""Certified rational closed forms from exact term data.

Everything here is integer or rational arithmetic; a fit is never a
numerical approximation.  Fitting multiplies the term data by a candidate
denominator (a product of (1 - t^w)-style factors) and succeeds only when
the product truncates to a low-degree polynomial with a comfortable margin
of surplus vanishing coefficients.  The returned object is a certificate
relative to its verified range, nothing more.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import FormatError, InputError, NoFitError, PerigrowthError
from .periodic_graph import QuotientGraph
from .walks import enumerate_cycles, walk_weight

DEFAULT_MARGIN = 10
DEFAULT_MARGIN_PER_AXIS = 5

# ---------------------------------------------------------------------------
# dense integer polynomial helpers (index = degree, trailing zeros trimmed)


def poly_trim(p: list[int]) -> list[int]:
    n = len(p)
    while n and p[n - 1] == 0:
        n -= 1
    return p[:n]


def poly_mul(a, b) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return out


def poly_mul_trunc(a, b, through: int) -> list[int]:
    out = [0] * (through + 1)
    for i, ca in enumerate(a):
        if ca and i <= through:
            top = min(len(b) - 1, through - i)
            for j in range(top + 1):
                out[i + j] += ca * b[j]
    return out


def cyclotomic_factor(w: int) -> list[int]:
    """The polynomial 1 - t^w."""
    p = [0] * (w + 1)
    p[0] = 1
    p[w] = -1
    return p


def expand_factors(factors) -> list[int]:
    """Expand a multiset of (period, exponent) factors to a dense polynomial."""
    out = [1]
    for w, e in factors:
        for _ in range(e):
            out = poly_mul(out, cyclotomic_factor(w))
    return out


def poly_div_exact(num: list[int], den: list[int]) -> list[int] | None:
    """Exact division over Q; None unless den divides num with integer result."""
    num = [Fraction(c) for c in poly_trim(list(num))]
    den = [Fraction(c) for c in poly_trim(list(den))]
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    if not num:
        return []
    if len(num) < len(den):
        return None
    quot = [Fraction(0)] * (len(num) - len(den) + 1)
    rem = num[:]
    lead = den[-1]
    for i in range(len(quot) - 1, -1, -1):
        c = rem[i + len(den) - 1] / lead
        quot[i] = c
        if c:
            for j, dc in enumerate(den):
                rem[i + j] -= c * dc
    if any(rem):
        return None
    if any(c.denominator != 1 for c in quot):
        return None
    return [int(c) for c in quot]


def _content(p: list[int]) -> int:
    return math.gcd(*[abs(c) for c in p]) if p else 0


def poly_gcd_primitive(a: list[int], b: list[int]) -> list[int]:
    """Primitive integer gcd of two integer polynomials."""
    fa = [Fraction(c) for c in poly_trim(list(a))]
    fb = [Fraction(c) for c in poly_trim(list(b))]
    while fb:
        # remainder of fa by fb
        rem = fa[:]
        lead = fb[-1]
        for i in range(len(rem) - len(fb), -1, -1):
            c = rem[i + len(fb) - 1] / lead
            if c:
                for j, dc in enumerate(fb):
                    rem[i + j] -= c * dc
        while rem and rem[-1] == 0:
            rem.pop()
        fa, fb = fb, rem
    if not fa:
        return []
    denom = math.lcm(*[c.denominator for c in fa])
    ints = [int(c * denom) for c in fa]
    cont = _content(ints)
    ints = [c // cont for c in ints]
    if ints[-1] < 0:
        ints = [-c for c in ints]
    return ints


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
    is the whole claim.  When canonical reduction cannot re-express the
    reduced denominator as such a product, the expanded polynomial is kept
    in `expanded_denominator` instead of `factors`.
    """

    numerator: tuple[int, ...]
    factors: tuple[tuple[int, int], ...]
    verified_through: int
    canonical: bool = False
    expanded_denominator: tuple[int, ...] | None = None

    def denominator_polynomial(self) -> list[int]:
        if self.expanded_denominator is not None:
            return list(self.expanded_denominator)
        return expand_factors(self.factors)

    def numerator_degree(self) -> int:
        return len(poly_trim(list(self.numerator))) - 1

    def denominator_degree(self) -> int:
        if self.expanded_denominator is not None:
            return len(poly_trim(list(self.expanded_denominator))) - 1
        return sum(w * e for w, e in self.factors)


def expand_series(rs: RationalSeries, through: int) -> list[int]:
    """Coefficients 0..through by the exact linear recurrence."""
    den = rs.denominator_polynomial()
    if not den or den[0] != 1:
        raise ValueError("denominator must have constant term 1")
    num = list(rs.numerator)
    out = []
    for i in range(through + 1):
        c = num[i] if i < len(num) else 0
        for j in range(1, min(i, len(den) - 1) + 1):
            c -= den[j] * out[i - j]
        out.append(c)
    return out


def evaluate_series(rs: RationalSeries, i: int) -> int:
    """Coefficient of t^i."""
    if i < 0:
        raise ValueError("index must be nonnegative")
    return expand_series(rs, i)[i]


def default_denominator(
    g: QuotientGraph, *, cycle_cap: int = 1_000_000
) -> tuple[tuple[int, int], ...]:
    """Denominator ansatz (1-t) * prod over cycles (1-t^{weight})."""
    factors = [(1, 1)]
    factors.extend((walk_weight(g, c), 1) for c in enumerate_cycles(g, cap=cycle_cap))
    return merge_factors(factors)


def fit_univariate(
    terms,
    factors,
    *,
    numerator_degree: int | None = None,
    margin: int = DEFAULT_MARGIN,
) -> RationalSeries:
    """Fit numerator / prod(1 - t^w)^e against exact terms.

    Multiplies the terms by the expanded denominator; the fit succeeds only
    if the product vanishes above the numerator degree, leaving at least
    `margin` surplus checks beyond numerator degree + denominator degree.
    """
    terms = list(terms)
    through = len(terms) - 1
    factors = merge_factors(factors)
    den = expand_factors(factors)
    numerator = poly_trim(poly_mul_trunc(den, terms, through))
    detected = len(numerator) - 1
    if numerator_degree is not None:
        if through < numerator_degree + margin:
            raise InputError(
                f"insufficient terms: need {numerator_degree + margin + 1},"
                f" got {through + 1}"
            )
        if detected > numerator_degree:
            raise NoFitError(
                f"no fit at this ansatz: numerator support reaches degree {detected},"
                f" requested bound {numerator_degree}"
            )
    elif through < detected + margin:
        raise NoFitError(
            f"no fit at this ansatz: numerator support reaches degree {detected},"
            f" leaving margin {through - detected} < {margin}"
        )
    return RationalSeries(tuple(numerator), factors, through)


def canonicalize(rs: RationalSeries) -> RationalSeries:
    """Reduce by the exact polynomial gcd and refactor the denominator.

    Greedy largest-period peeling recovers a (1 - t^w) product whenever one
    exists; otherwise the reduced denominator is kept expanded.
    """
    num = poly_trim(list(rs.numerator))
    den = rs.denominator_polynomial()
    if not num:
        return replace(rs, numerator=(), factors=(), canonical=True,
                       expanded_denominator=None)
    g = poly_gcd_primitive(num, den)
    if len(g) > 1:
        num = poly_div_exact(num, g)
        den = poly_div_exact(den, g)
        assert num is not None and den is not None
    if den[0] == -1:
        num = [-c for c in num]
        den = [-c for c in den]
    if den[0] != 1:
        raise PerigrowthError("reduced denominator has non-unit constant term")
    factors = []
    residual = den
    for w in range(len(residual) - 1, 0, -1):
        while True:
            quot = poly_div_exact(residual, cyclotomic_factor(w))
            if quot is None:
                break
            factors.append((w, 1))
            residual = quot
            if len(residual) - 1 < w:
                break
    reduced = replace(
        rs,
        numerator=tuple(num),
        canonical=True,
        factors=merge_factors(factors) if residual == [1] else (),
        expanded_denominator=None if residual == [1] else tuple(den),
    )
    # reduction must not change the expansion
    if expand_series(reduced, rs.verified_through) != expand_series(
        rs, rs.verified_through
    ):
        raise PerigrowthError("canonical reduction changed the expansion")
    return reduced


def fit_univariate_auto(
    terms, factors, *, margin: int = DEFAULT_MARGIN, canonical: bool = False
) -> RationalSeries:
    """Escalation ladder: default ansatz, then squared factors."""
    factors = merge_factors(factors)
    attempts = [factors, tuple((w, 2 * e) for w, e in factors)]
    failures = []
    for candidate in attempts:
        try:
            fit = fit_univariate(terms, candidate, margin=margin)
            return canonicalize(fit) if canonical else fit
        except (NoFitError, InputError) as exc:
            failures.append(f"ansatz {candidate}: {exc}")
    raise NoFitError("; ".join(failures))


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
    if rs.expanded_denominator is not None:
        raise ValueError("denominator is not a product of (1 - t^w) factors")
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

    def denominator_degrees(self) -> tuple[int, ...]:
        totals = [0] * self.arity
        for w, e in self.factors:
            for i, c in enumerate(w):
                totals[i] += c * e
        return tuple(totals)

    def numerator_degrees(self) -> tuple[int, ...]:
        degs = [0] * self.arity
        for a, c in self.numerator.items():
            if c:
                for i, x in enumerate(a):
                    degs[i] = max(degs[i], x)
        return tuple(degs)


def _box_points(box):
    return itertools.product(*(range(b + 1) for b in box))


def expand_mv_denominator(factors, box) -> dict[tuple[int, ...], int]:
    out = {tuple(0 for _ in box): 1}
    for w, e in factors:
        for _ in range(e):
            nxt: dict[tuple[int, ...], int] = {}
            for a, c in out.items():
                nxt[a] = nxt.get(a, 0) + c
                shifted = tuple(x + y for x, y in zip(a, w))
                if all(x <= b for x, b in zip(shifted, box)):
                    nxt[shifted] = nxt.get(shifted, 0) - c
            out = {a: c for a, c in nxt.items() if c}
    return out


def expand_mv_series(ms: MultivariateRationalSeries, box) -> dict[tuple[int, ...], int]:
    """Expansion coefficients over the box, by multidimensional recurrence."""
    den = expand_mv_denominator(ms.factors, box)
    zero = tuple(0 for _ in box)
    assert den.get(zero) == 1
    den_rest = [(a, c) for a, c in den.items() if a != zero]
    out: dict[tuple[int, ...], int] = {}
    for a in _box_points(box):
        c = ms.numerator.get(a, 0)
        for b, cb in den_rest:
            prev = tuple(x - y for x, y in zip(a, b))
            if all(x >= 0 for x in prev):
                c -= cb * out[prev]
        out[a] = c
    return out


def fit_multivariate(
    table: dict[tuple[int, ...], int],
    box,
    factors,
    *,
    numerator_box=None,
    margins=None,
) -> MultivariateRationalSeries:
    """Fit a sparse numerator over the given factor ansatz against a table.

    The table must be total over the box (missing keys count as zero, which
    is how empty sets are passed).  The fit succeeds when the numerator
    support stays inside `numerator_box` (auto-detected when omitted) with
    the per-axis verification margin left over at the table box boundary.
    """
    box = tuple(box)
    arity = len(box)
    factors = merge_mv_factors(factors)
    if margins is None:
        margins = tuple(DEFAULT_MARGIN_PER_AXIS for _ in box)
    den = expand_mv_denominator(factors, box)
    num: dict[tuple[int, ...], int] = {}
    for a in _box_points(box):
        c = 0
        for b, cb in den.items():
            rest = tuple(x - y for x, y in zip(a, b))
            if all(x >= 0 for x in rest):
                c += cb * table.get(rest, 0)
        if c:
            num[a] = c
    support = [0] * arity
    for a in num:
        for i, x in enumerate(a):
            support[i] = max(support[i], x)
    if numerator_box is not None:
        for i in range(arity):
            if box[i] < numerator_box[i] + margins[i]:
                raise InputError(
                    f"insufficient table: axis {i} needs box {numerator_box[i] + margins[i]}"
                )
            if support[i] > numerator_box[i]:
                raise NoFitError(
                    f"no fit at this ansatz: axis {i} numerator support {support[i]}"
                    f" exceeds the requested bound {numerator_box[i]}"
                )
    for i in range(arity):
        if support[i] + margins[i] > box[i]:
            raise NoFitError(
                f"no fit at this ansatz: axis {i} numerator support {support[i]}"
                f" leaves margin {box[i] - support[i]} < {margins[i]}"
            )
    return MultivariateRationalSeries(arity, num, factors, box)


def fit_multivariate_auto(
    table, box, factors, *, margins=None
) -> MultivariateRationalSeries:
    """Escalation ladder for the multivariate fit (square factors once)."""
    factors = merge_mv_factors(factors)
    attempts = [factors, tuple((w, 2 * e) for w, e in factors)]
    failures = []
    for candidate in attempts:
        try:
            return fit_multivariate(table, box, candidate, margins=margins)
        except NoFitError as exc:
            failures.append(f"ansatz {candidate}: {exc}")
    raise NoFitError("; ".join(failures))


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
        if obj.expanded_denominator is not None:
            raise ValueError("expanded denominators have no factored text form")
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


def series_from_text(text: str) -> RationalSeries | MultivariateRationalSeries:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("series d="):
        raise InputError("missing series header")
    try:
        arity = int(lines[0].split("=", 1)[1])
    except ValueError:
        raise FormatError(f"bad series header {lines[0]!r}") from None
    num: dict[tuple[int, ...], int] = {}
    factors = []
    verified = None
    for ln in lines[1:]:
        tokens = ln.split()
        if tokens[0] == "num":
            if len(tokens) != arity + 2:
                raise InputError(f"bad num line {ln!r}")
            num[tuple(int(t) for t in tokens[1 : 1 + arity])] = int(tokens[-1])
        elif tokens[0] == "den":
            if len(tokens) != arity + 2 or not tokens[-1].startswith("^"):
                raise InputError(f"bad den line {ln!r}")
            factors.append(
                (tuple(int(t) for t in tokens[1 : 1 + arity]), int(tokens[-1][1:]))
            )
        elif tokens[0] == "verified":
            verified = tuple(int(t) for t in tokens[1:])
        else:
            raise InputError(f"unknown series line {ln!r}")
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
