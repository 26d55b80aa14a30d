"""Virtually abelian groups as explicit finite extensions of Z^n.

A group is given by a finite part (multiplication table), an action of the
finite part on the lattice by integer matrices, and an integral 2-cocycle
(zero for split extensions).  Elements are (lattice vector, finite index)
pairs multiplied by the extension formula; the right Cayley graph of a
weighted generating set is a periodic graph whose ball distances realize
the weighted word length, which is what all growth counting runs on.
"""

from __future__ import annotations

import bisect
import itertools
import math
import re
from dataclasses import dataclass

from .ball import DEFAULT_BALL_CAP, DistanceMap, RelativeCountTable, count_table
from .errors import (
    DisjointnessError,
    FormatError,
    GuardError,
    InputError,
    ResourceLimitError,
)
from .periodic_graph import EdgeOrbit, PeriodicVertex, QuotientGraph, Vector, _tokenize
from .walks import DEFAULT_CYCLE_CAP, enumerate_cycles

Matrix = tuple[tuple[int, ...], ...]

ORDER_CAP = 64
SOLVE_BOX_CAP = 2_000_000


@dataclass(frozen=True, order=True)
class GroupElement:
    vec: Vector
    part: int

    def __str__(self) -> str:
        """The `(v1,...,vn;part)` notation of `.set` files and `vag solve`."""
        return "(" + ",".join(map(str, self.vec)) + f";{self.part})"


@dataclass(frozen=True)
class VAGroup:
    rank: int
    order: int
    mult: tuple[tuple[int, ...], ...]
    action: tuple[Matrix, ...]
    cocycle: tuple[tuple[Vector, ...], ...]

    def identity(self) -> GroupElement:
        return GroupElement((0,) * self.rank, 0)


@dataclass(frozen=True)
class WeightedGenerator:
    name: str
    element: GroupElement
    weight: int


def _identity_matrix(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _apply(matrix: Matrix, vec: Vector) -> Vector:
    return tuple(sum(row[j] * vec[j] for j in range(len(vec))) for row in matrix)


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def validate_group(group: VAGroup) -> list[str]:
    """Exhaustively check the extension axioms; empty report means valid."""
    report = []
    k, n = group.order, group.rank
    if k < 1:
        return [f"order {k} must be positive"]
    if k > ORDER_CAP:
        return [f"order {k} exceeds the cap {ORDER_CAP}"]
    if n < 0:
        report.append(f"negative rank {n}")
    if len(group.mult) != k or any(len(row) != k for row in group.mult):
        return report + ["multiplication table is not order x order"]
    for f, row in enumerate(group.mult):
        for g, h in enumerate(row):
            if not 0 <= h < k:
                report.append(f"mult[{f}][{g}] = {h} out of range")
    if report:
        return report
    for g in range(k):
        if group.mult[0][g] != g or group.mult[g][0] != g:
            report.append(f"index 0 is not an identity at {g}")
    for f in range(k):
        for g in range(k):
            for h in range(k):
                if (
                    group.mult[group.mult[f][g]][h]
                    != group.mult[f][group.mult[g][h]]
                ):
                    report.append(f"associativity fails at ({f}, {g}, {h})")
    for f in range(k):
        if not any(
            group.mult[f][g] == 0 and group.mult[g][f] == 0 for g in range(k)
        ):
            report.append(f"no inverse for finite part {f}")
    if len(group.action) != k:
        return report + ["need one action matrix per finite part"]
    for f, mat in enumerate(group.action):
        if len(mat) != n or any(len(row) != n for row in mat):
            report.append(f"action matrix {f} is not rank x rank")
    if report:
        return report
    if group.action[0] != _identity_matrix(n):
        report.append("action of the identity is not the identity matrix")
    for f, mat in enumerate(group.action):
        # an integer matrix has an integer inverse exactly when |det| = 1,
        # the product of the leading entries of its full-rank Hermite form
        h, _ = _hermite(mat, n)
        if len(h) < n or math.prod(h[j][j] for j in range(n)) != 1:
            report.append(f"action matrix {f} is not invertible over the integers")
    for f in range(k):
        for g in range(k):
            if _mat_mul(group.action[f], group.action[g]) != group.action[
                group.mult[f][g]
            ]:
                report.append(f"action is not a homomorphism at ({f}, {g})")
    if len(group.cocycle) != k or any(len(row) != k for row in group.cocycle):
        return report + ["cocycle table is not order x order"]
    for f in range(k):
        for g in range(k):
            if len(group.cocycle[f][g]) != n:
                report.append(f"cocycle({f}, {g}) has wrong length")
    if report:
        return report
    for g in range(k):
        if any(group.cocycle[0][g]) or any(group.cocycle[g][0]):
            report.append(f"cocycle is not normalized at index {g}")
    for f in range(k):
        for g in range(k):
            for h in range(k):
                lhs = tuple(
                    a + b
                    for a, b in zip(
                        _apply(group.action[f], group.cocycle[g][h]),
                        group.cocycle[f][group.mult[g][h]],
                    )
                )
                rhs = tuple(
                    a + b
                    for a, b in zip(
                        group.cocycle[f][g], group.cocycle[group.mult[f][g]][h]
                    )
                )
                if lhs != rhs:
                    report.append(f"cocycle identity fails at ({f}, {g}, {h})")
    return report


def multiply(group: VAGroup, a: GroupElement, b: GroupElement) -> GroupElement:
    vec = tuple(
        x + y + z
        for x, y, z in zip(
            a.vec, _apply(group.action[a.part], b.vec), group.cocycle[a.part][b.part]
        )
    )
    return GroupElement(vec, group.mult[a.part][b.part])


def inverse(group: VAGroup, a: GroupElement) -> GroupElement:
    part = next(
        g
        for g in range(group.order)
        if group.mult[a.part][g] == 0 and group.mult[g][a.part] == 0
    )
    shifted = tuple(x + y for x, y in zip(a.vec, group.cocycle[a.part][part]))
    vec = tuple(-x for x in _apply(group.action[part], shifted))
    return GroupElement(vec, part)


def build_cayley(
    group: VAGroup, gens: list[WeightedGenerator]
) -> tuple[QuotientGraph, PeriodicVertex]:
    """Right Cayley graph as a periodic graph, with the identity as base.

    One orbit per finite part, one edge orbit per (orbit, generator); the
    edge shift is the lattice part of right multiplication at the orbit's
    canonical lift.
    """
    edges = []
    for f in range(group.order):
        for gen in gens:
            end = multiply(group, GroupElement((0,) * group.rank, f), gen.element)
            edges.append(EdgeOrbit(len(edges), f, end.part, end.vec, gen.weight))
    names = tuple(f"f{f}" for f in range(group.order))
    graph = QuotientGraph(group.rank, names, tuple(edges))
    return graph, PeriodicVertex(0, (0,) * group.rank)


# ---------------------------------------------------------------------------
# equations


Token = tuple[str, int] | tuple[str, GroupElement]
Word = tuple[Token, ...]


def evaluate_word(
    group: VAGroup, word: Word, assignment: tuple[GroupElement, ...]
) -> GroupElement:
    value = group.identity()
    for kind, payload in word:
        if kind == "var":
            value = multiply(group, value, assignment[payload - 1])
        elif kind == "inv":
            value = multiply(group, value, inverse(group, assignment[payload - 1]))
        else:
            value = multiply(group, value, payload)
    return value


def solve_box(
    group: VAGroup,
    arity: int,
    words: list[Word],
    radius: int,
) -> list[tuple[GroupElement, ...]]:
    """All solution tuples with every lattice coordinate in [-radius, radius].

    Brute force by definition: this is the oracle-grade truncation of the
    solution set, not a fast path.
    """
    if radius < 0:
        raise InputError("box radius must be nonnegative")
    per_coordinate = (2 * radius + 1) ** group.rank * group.order
    total = per_coordinate**arity
    if total > SOLVE_BOX_CAP:
        raise GuardError(
            f"box enumeration would visit {total} tuples, cap is {SOLVE_BOX_CAP}"
        )
    coords = [
        GroupElement(vec, part)
        for vec in itertools.product(
            range(-radius, radius + 1), repeat=group.rank
        )
        for part in range(group.order)
    ]
    identity = group.identity()
    solutions = []
    for tup in itertools.product(coords, repeat=arity):
        if all(evaluate_word(group, w, tup) == identity for w in words):
            solutions.append(tup)
    solutions.sort()
    return solutions


# ---------------------------------------------------------------------------
# monoid-module form of an algebraic set


@dataclass(frozen=True)
class MonoidModulePiece:
    """One piece: the orbit of `shift` under the monoid generated by `ugens`."""

    ugens: tuple[tuple[Vector, ...], ...]  # each generator is d lattice vectors
    shift: tuple[GroupElement, ...]


@dataclass(frozen=True)
class MonoidModuleSet:
    arity: int
    pieces: tuple[MonoidModulePiece, ...]


def _hermite(rows: list[Vector] | Matrix, n: int) -> tuple[list[Vector], list[Vector]]:
    """Unreduced column Hermite form A·U = [H | 0] of the integer matrix A =
    rows, whose n columns are passed as A may have no rows, by Euclid column
    operations: the columns of H, each with a positive leading entry below
    the one before, and of the unimodular U, which are the rows of V = Uᵀ."""
    m = len(rows)
    cols = [[row[j] for row in rows] + [int(i == j) for i in range(n)] for j in range(n)]
    r = 0
    for i in range(m):
        for j in range(r + 1, n):
            while cols[j][i]:
                f = cols[r][i] // cols[j][i]
                cols[r], cols[j] = cols[j], [x - f * y for x, y in zip(cols[r], cols[j])]
        if r < n and cols[r][i]:
            if cols[r][i] < 0:
                cols[r] = [-x for x in cols[r]]
            r += 1
    return [tuple(col[:m]) for col in cols[:r]], [tuple(col[m:]) for col in cols]


def _nonnegative_solution(h: list[Vector], t: list[int]) -> bool:
    """Whether Hᵀc = t, Hᵀ upper triangular, has an integer c >= 0 (solved in t)."""
    for j in reversed(range(len(t))):
        t[j], rest = divmod(t[j] - sum(h[j][i] * t[i] for i in range(j + 1, len(t))), h[j][j])
        if rest or t[j] < 0:
            return False
    return True


def enumerate_monoid_module_set(
    dm: DistanceMap,
    mmset: MonoidModuleSet,
    box: tuple[int, ...],
    *,
    cap: int = DEFAULT_BALL_CAP,
) -> dict[tuple[GroupElement, ...], tuple[int, ...]]:
    """Each element whose every coordinate has word weight within the box,
    mapped to those weights.

    `dm` is the Cayley ball from the identity, of radius at least max(box).
    A piece's k ugens, flattened to length q = n·d, must be linearly
    independent (an `InputError` names the piece otherwise).  As the rows
    of A they have a Hermite form A·U = [H | 0], H square, V = Uᵀ
    unimodular; y lies in the piece exactly when V(y - shift) = (t ; 0)
    and Hᵀc = t has an integer solution c >= 0, found by back substitution.
    V splits by coordinate, so each allowed ball point maps to one integer
    vector; the last coordinate's points are indexed by their q - k lower
    entries, and each tuple of the other coordinates' points (at most `cap`
    of them per piece) looks up the negated sum.  Each member is checked
    against the map as it enters: a piece that meets an earlier one is a
    hard error naming the earliest such piece and their least common member.
    """
    if len(box) != mmset.arity:
        raise InputError("box arity does not match set arity")
    dm.check_radius(max(box))
    n, d = len(dm.base.coord), mmset.arity
    q = n * d
    # per-orbit lattice points of the ball, with their distances
    by_orbit: dict[int, list[tuple[Vector, int]]] = {}
    for v, dist in dm.entries.items():
        by_orbit.setdefault(v.orbit, []).append((v.coord, dist))
    members: dict[tuple[GroupElement, ...], tuple[int, ...]] = {}
    ends = []  # len(members) after each piece
    for index, piece in enumerate(mmset.pieces):
        k = len(piece.ugens)
        h, v = _hermite(
            [tuple(itertools.chain.from_iterable(gen)) for gen in piece.ugens], q
        )
        if len(h) < k:
            raise InputError(f"piece {index} has linearly dependent ugens")
        shift = tuple(itertools.chain.from_iterable(t.vec for t in piece.shift))
        origin = [-x for x in _apply(v, shift)]
        images = []  # per coordinate: (V_i y, element, weight) per allowed ball point
        for i, (bound, t) in enumerate(zip(box, piece.shift)):
            block = [row[i * n : (i + 1) * n] for row in v]
            images.append(
                [
                    (_apply(block, y), GroupElement(y, t.part), dist)
                    for y, dist in by_orbit.get(t.part, [])
                    if dist <= bound
                ]
            )
        *head, last = images
        if math.prod(len(points) for points in head) > cap:
            raise ResourceLimitError(
                f"piece {index}: monoid-module join exceeds {cap} head tuples;"
                " raise the cap"
            )
        by_lower: dict[tuple[int, ...], list] = {}
        for image, el, dist in last:
            by_lower.setdefault(image[k:], []).append((image[:k], el, dist))
        clashes = []
        for combo in itertools.product(*head):
            total = [sum(col) for col in zip(origin, *(point[0] for point in combo))]
            for upper, el, dist in by_lower.get(tuple(-x for x in total[k:]), ()):
                if _nonnegative_solution(h, [a + b for a, b in zip(total, upper)]):
                    member = tuple(point[1] for point in combo) + (el,)
                    if member in members:
                        clashes.append(member)
                    else:
                        members[member] = tuple(point[2] for point in combo) + (dist,)
        if clashes:
            position = {member: p for p, member in enumerate(members)}
            first, least = min(
                (bisect.bisect_right(ends, position[m]), m) for m in clashes
            )
            raise DisjointnessError(
                f"pieces {first} and {index} overlap at {' '.join(map(str, least))}"
            )
        ends.append(len(members))
    return members


def relative_growth_terms(
    members: dict[tuple[GroupElement, ...], tuple[int, ...]],
    box: tuple[int, ...],
) -> RelativeCountTable:
    """Count the members of `enumerate_monoid_module_set` by their weights."""
    return count_table(members.values(), box)


def univariate_terms(table: RelativeCountTable, through: int) -> list[int]:
    """The table's exact counts summed by total degree, through `through`.

    A tuple of total weight <= through <= min(box) has every coordinate
    within the box, so the table holds it; a wider window is refused.
    """
    if through > min(table.box):
        raise ValueError(f"window {through} exceeds the box {table.box}")
    terms = [0] * (through + 1)
    for key, count in table.counts_exact.items():
        total = sum(key)
        if total <= through:
            terms[total] += count
    return terms


def coupling_radius(graph: QuotientGraph, mmset: MonoidModuleSet) -> int:
    """The least ball radius `default_set_denominator` accepts.

    It is the largest |u|_1 over the translations u of the piece
    generators, times the largest generator weight.
    """
    return max(
        (sum(abs(c) for c in u) for p in mmset.pieces for g in p.ugens for u in g),
        default=0,
    ) * graph.max_weight()


def default_set_denominator(
    graph: QuotientGraph,
    dm: DistanceMap,
    mmset: MonoidModuleSet,
    *,
    cycle_cap: int = DEFAULT_CYCLE_CAP,
) -> list[tuple[tuple[int, ...], int]]:
    """Denominator ansatz for the multivariate fit of a monoid-module set.

    Per axis: (1 - z_i) and one (1 - z_i^w) per distinct cycle weight of
    the Cayley quotient `graph`; plus one coupling factor (1 - z^w) per
    piece generator, graded by the word weight of each coordinate's
    translation in the ball `dm`, whose radius must reach `coupling_radius`.
    """
    dm.check_radius(coupling_radius(graph, mmset))
    d = mmset.arity
    vectors: set[tuple[int, ...]] = set()
    weights = {w for _, w, _ in enumerate_cycles(graph, cap=cycle_cap)}
    for i in range(d):
        vectors.add(tuple(1 if j == i else 0 for j in range(d)))
        vectors.update(tuple(w if j == i else 0 for j in range(d)) for w in weights)
    # coupling terms: grade each piece generator by the word weight of its
    # per-coordinate lattice translation; a translation outside the ball has
    # no known weight there, and the generator is skipped
    for piece in mmset.pieces:
        for gen in piece.ugens:
            wvec = []
            for u in gen:
                dist = 0 if not any(u) else dm.distance(PeriodicVertex(0, u))
                if dist is None:
                    break
                wvec.append(dist)
            else:
                if any(wvec):
                    vectors.add(tuple(wvec))
    return [(w, 1) for w in sorted(vectors, key=lambda w: (sum(w), w))]


# ---------------------------------------------------------------------------
# text formats


def _int_tokens(tokens, lineno, what):
    try:
        return [int(t) for t in tokens]
    except ValueError:
        raise FormatError(f"{what} must be integers", lineno) from None


def _part_index(tokens, at: int, name: str, order: int, lineno) -> int:
    """The finite-part index in the `<name>=<i>` token at position `at`."""
    m = re.fullmatch(rf"{name}=(\d+)", tokens[at]) if at < len(tokens) else None
    if not m:
        raise FormatError(f"{tokens[0]} needs {name}=<index>", lineno)
    index = int(m.group(1))
    if index >= order:
        raise FormatError(f"{name}={index} out of range for finite {order}", lineno)
    return index


def _rows(values: list[int], count: int, width: int) -> tuple[tuple[int, ...], ...]:
    """The first count * width values as `count` consecutive rows."""
    return tuple(tuple(values[i * width : (i + 1) * width]) for i in range(count))


def _int_arg(tokens, lineno) -> int:
    """The one integer argument of a `<directive> <n>` line."""
    if len(tokens) != 2:
        raise FormatError(f"{tokens[0]} takes exactly one integer argument", lineno)
    return _int_tokens(tokens[1:], lineno, f"{tokens[0]} argument")[0]


def parse_vag(text: str) -> tuple[VAGroup, list[WeightedGenerator]]:
    """Parse the `.vag` format: rank, finite order, tables, generators."""
    rank = order = None
    mult = None
    action: dict[int, Matrix] = {}
    cocycle: dict[tuple[int, int], Vector] = {}
    gens: list[WeightedGenerator] = []
    seen: set[str] = set()
    for lineno, tokens in _tokenize(text):
        key = tokens[0]
        if key in ("rank", "finite", "mult"):
            if key in seen:
                raise FormatError(f"duplicate {key} directive", lineno)
            seen.add(key)
        if key in ("action", "cocycle", "gen") and (rank is None or order is None):
            raise FormatError(f"rank and finite must come before {key}", lineno)
        if key == "rank":
            rank = _int_arg(tokens, lineno)
        elif key == "finite":
            order = _int_arg(tokens, lineno)
        elif key == "mult":
            if order is None:
                raise FormatError("finite must come before mult", lineno)
            values = _int_tokens(tokens[1:], lineno, "mult entries")
            if len(values) != order * order:
                raise FormatError(
                    f"mult needs {order * order} entries, got {len(values)}", lineno
                )
            mult = _rows(values, order, order)
        elif key == "action":
            f = _part_index(tokens, 1, "f", order, lineno)
            if f == 0:
                raise FormatError("f=0 always acts as the identity", lineno)
            if f in action:
                raise FormatError(f"duplicate action for f={f}", lineno)
            values = _int_tokens(tokens[2:], lineno, "action entries")
            if len(values) != rank * rank:
                raise FormatError(
                    f"action needs {rank * rank} entries, got {len(values)}", lineno
                )
            action[f] = _rows(values, rank, rank)
        elif key == "cocycle":
            f = _part_index(tokens, 1, "f", order, lineno)
            g = _part_index(tokens, 2, "g", order, lineno)
            if (f, g) in cocycle:
                raise FormatError(f"duplicate cocycle for f={f} g={g}", lineno)
            values = _int_tokens(tokens[3:], lineno, "cocycle entries")
            if len(values) != rank:
                raise FormatError(f"cocycle needs {rank} entries", lineno)
            cocycle[(f, g)] = tuple(values)
        elif key == "gen":
            if len(tokens) != 4 + rank:
                raise FormatError(
                    f"gen needs name, {rank} vector entries, part and weight", lineno
                )
            name = tokens[1]
            values = _int_tokens(tokens[2:], lineno, "gen entries")
            vec, part, weight = tuple(values[:rank]), values[rank], values[rank + 1]
            if not 0 <= part < order:
                raise FormatError(f"gen part {part} out of range", lineno)
            if weight < 1:
                raise FormatError(f"gen weight {weight} must be positive", lineno)
            if any(g.name == name for g in gens):
                raise FormatError(f"duplicate generator name {name!r}", lineno)
            gens.append(WeightedGenerator(name, GroupElement(vec, part), weight))
        else:
            raise FormatError(f"unknown directive {key!r}", lineno)
    if rank is None or order is None:
        raise FormatError("missing rank or finite directive")
    if mult is None:
        if order == 1:
            mult = ((0,),)
        else:
            raise FormatError("missing mult directive")
    matrices = []
    for f in range(order):
        if f == 0:
            matrices.append(_identity_matrix(rank))
        elif f in action:
            matrices.append(action[f])
        else:
            raise FormatError(f"missing action matrix for f={f}")
    zero = (0,) * rank
    table = tuple(
        tuple(cocycle.get((f, g), zero) for g in range(order)) for f in range(order)
    )
    return VAGroup(rank, order, mult, tuple(matrices), table), gens


_ELEMENT_RE = {
    "constant": re.compile(r"\[([0-9,\s-]*);(\d+)\]"),
    "shift": re.compile(r"\(([0-9,\s-]*);(\d+)\)"),
}


def _parse_element(token: str, what: str, group: VAGroup, lineno) -> GroupElement:
    """A `[v1,...,vn;part]` constant or `(v1,...,vn;part)` shift token."""
    m = _ELEMENT_RE[what].fullmatch(token)
    if not m:
        raise FormatError(f"bad {what} token {token!r}", lineno)
    body = m.group(1).strip()
    entries = body.split(",") if body else []
    vec = tuple(_int_tokens(entries, lineno, f"{what} vector entries"))
    if len(vec) != group.rank:
        raise FormatError(
            f"{what} vector has length {len(vec)}, rank is {group.rank}", lineno
        )
    part = int(m.group(2))
    if part >= group.order:
        raise FormatError(f"{what} part {part} out of range", lineno)
    return GroupElement(vec, part)


def parse_eqn(text: str, group: VAGroup) -> tuple[int, list[Word]]:
    """Parse the `.eqn` format: vars count plus one word per line."""
    arity = None
    words: list[Word] = []
    for lineno, tokens in _tokenize(text):
        if tokens[0] == "vars":
            if arity is not None:
                raise FormatError("duplicate vars directive", lineno)
            arity = _int_arg(tokens, lineno)
            if arity < 1:
                raise FormatError("vars must be positive", lineno)
        elif tokens[0] == "word":
            if arity is None:
                raise FormatError("vars must come before word", lineno)
            parsed: list[Token] = []
            for token in tokens[1:]:
                m = re.fullmatch(r"X(\d+)(~?)", token)
                if m:
                    index = int(m.group(1))
                    if not 1 <= index <= arity:
                        raise FormatError(
                            f"variable index {index} out of range", lineno
                        )
                    parsed.append(("inv" if m.group(2) else "var", index))
                else:
                    const = _parse_element(token, "constant", group, lineno)
                    parsed.append(("const", const))
            words.append(tuple(parsed))
        else:
            raise FormatError(f"unknown directive {tokens[0]!r}", lineno)
    if arity is None:
        raise FormatError("missing vars directive")
    return arity, words


def parse_set(text: str, group: VAGroup) -> MonoidModuleSet:
    """Parse the `.set` format: arity plus piece blocks (ugen lines, one shift)."""
    arity = None
    pieces: list[MonoidModulePiece] = []
    current_gens: list[tuple[Vector, ...]] | None = None
    current_shift: tuple[GroupElement, ...] | None = None
    current_line = None

    def close():
        nonlocal current_gens, current_shift
        if current_gens is None:
            return
        if current_shift is None:
            raise FormatError("piece has no shift line", current_line)
        pieces.append(MonoidModulePiece(tuple(current_gens), current_shift))
        current_gens = None
        current_shift = None

    for lineno, tokens in _tokenize(text):
        key = tokens[0]
        if key == "arity":
            if arity is not None:
                raise FormatError("duplicate arity directive", lineno)
            arity = _int_arg(tokens, lineno)
            if arity < 1:
                raise FormatError("arity must be positive", lineno)
        elif key == "piece":
            if arity is None:
                raise FormatError("arity must come before piece", lineno)
            close()
            current_gens = []
            current_line = lineno
        elif key == "ugen":
            if current_gens is None:
                raise FormatError("ugen outside a piece block", lineno)
            values = _int_tokens(tokens[1:], lineno, "ugen entries")
            if len(values) != arity * group.rank:
                raise FormatError(
                    f"ugen needs {arity * group.rank} entries, got {len(values)}",
                    lineno,
                )
            current_gens.append(_rows(values, arity, group.rank))
        elif key == "shift":
            if current_gens is None:
                raise FormatError("shift outside a piece block", lineno)
            if current_shift is not None:
                raise FormatError("piece has two shift lines", lineno)
            if len(tokens) != arity + 1:
                raise FormatError(f"shift needs {arity} tuples", lineno)
            current_shift = tuple(
                _parse_element(token, "shift", group, lineno) for token in tokens[1:]
            )
        else:
            raise FormatError(f"unknown directive {key!r}", lineno)
    close()
    if arity is None:
        raise FormatError("missing arity directive")
    return MonoidModuleSet(arity, tuple(pieces))
