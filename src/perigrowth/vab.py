"""Virtually abelian groups as explicit finite extensions of Z^n.

A group is given by a finite part (multiplication table), an action of the
finite part on the lattice by integer matrices, and an integral 2-cocycle
(zero for split extensions).  Elements are (lattice vector, finite index)
pairs multiplied by the extension formula; the right Cayley graph of a
weighted generating set is a periodic graph whose ball distances realize
the weighted word length, which is what all growth counting runs on.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .ball import DEFAULT_BALL_CAP, DistanceMap, RelativeCountTable, relative_counts
from .errors import (
    DisjointnessError,
    FormatError,
    GuardError,
    InputError,
    ResourceLimitError,
)
from .periodic_graph import EdgeOrbit, PeriodicVertex, QuotientGraph, Vector, _tokenize
from .walks import cycle_weights

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
        # that is when its elimination needs no scaling
        elimination = _eliminate(list(mat), n)
        if elimination is None or elimination[1] != 1:
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


def element_vertex(el: GroupElement) -> PeriodicVertex:
    return PeriodicVertex(el.part, el.vec)


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


def _eliminate(columns: list[tuple[int, ...]], q: int) -> tuple[Matrix, int] | None:
    """An invertible integer E and scale with E·U = (scale·I_k ; 0).

    U stacks the k columns (each of length q); None when they are linearly
    dependent.  One Gauss-Jordan elimination of [U | I] over the rationals,
    scaled to integers by the lcm of the denominators.
    """
    k = len(columns)
    rows = [
        [Fraction(col[r]) for col in columns] + [Fraction(int(r == c)) for c in range(q)]
        for r in range(q)
    ]
    for j in range(k):
        pivot = next((r for r in range(j, q) if rows[r][j]), None)
        if pivot is None:
            return None
        rows[j], rows[pivot] = rows[pivot], rows[j]
        rows[j] = [x / rows[j][j] for x in rows[j]]
        for r in range(q):
            if r != j and rows[r][j]:
                f = rows[r][j]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[j])]
    scale = math.lcm(*(x.denominator for row in rows for x in row[k:]))
    return tuple(tuple(int(x * scale) for x in row[k:]) for row in rows), scale


def enumerate_monoid_module_set(
    dm: DistanceMap,
    mmset: MonoidModuleSet,
    box: tuple[int, ...],
    *,
    cap: int = DEFAULT_BALL_CAP,
) -> list[tuple[GroupElement, ...]]:
    """All elements whose every coordinate has word weight within the box.

    `dm` is the Cayley ball from the identity, of radius at least max(box).
    A piece's k ugens, flattened to length q = n·d, must be linearly
    independent (an `InputError` names the piece otherwise), so `_eliminate`
    gives an invertible E with E·U = (scale·I_k ; 0).  Then y lies in the
    piece exactly when E(y - shift) = (c ; 0) with every c_j >= 0 and
    divisible by scale: E(y - shift) = E·U·c' forces y - shift = U·c'.
    E splits by coordinate, so each allowed ball point maps to one integer
    vector; the last coordinate's points are indexed by their q - k lower
    entries, and each tuple of the other coordinates' points (at most `cap`
    of them per piece) looks up the negated sum.  Declared disjointness is
    verified on the enumerated sets and violations are hard errors.
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
    seen_by_piece = []
    for index, piece in enumerate(mmset.pieces):
        k = len(piece.ugens)
        elimination = _eliminate(
            [tuple(itertools.chain.from_iterable(gen)) for gen in piece.ugens], q
        )
        if elimination is None:
            raise InputError(f"piece {index} has linearly dependent ugens")
        e, scale = elimination
        shift = tuple(itertools.chain.from_iterable(t.vec for t in piece.shift))
        origin = [-x for x in _apply(e, shift)]
        images = []  # per coordinate: (E_i y, element) of each allowed ball point
        for i, (bound, t) in enumerate(zip(box, piece.shift)):
            block = [row[i * n : (i + 1) * n] for row in e]
            images.append(
                [
                    (_apply(block, y), GroupElement(y, t.part))
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
        for image, el in last:
            by_lower.setdefault(image[k:], []).append((image[:k], el))
        members = set()
        for combo in itertools.product(*head):
            total = [sum(col) for col in zip(origin, *(image for image, _ in combo))]
            for upper, el in by_lower.get(tuple(-x for x in total[k:]), ()):
                c = [a + b for a, b in zip(total, upper)]
                if all(x >= 0 and x % scale == 0 for x in c):
                    members.add(tuple(el for _, el in combo) + (el,))
        seen_by_piece.append(members)
    for i in range(len(seen_by_piece)):
        for j in range(i + 1, len(seen_by_piece)):
            overlap = seen_by_piece[i] & seen_by_piece[j]
            if overlap:
                raise DisjointnessError(
                    f"pieces {i} and {j} overlap at"
                    f" {' '.join(map(str, sorted(overlap)[0]))}"
                )
    union = set().union(*seen_by_piece) if seen_by_piece else set()
    return sorted(union)


def relative_growth_terms(
    dm: DistanceMap,
    tuples: list[tuple[GroupElement, ...]],
    box: tuple[int, ...],
) -> RelativeCountTable:
    """Count tuples by per-coordinate word weight over the box.

    `dm` is the Cayley ball from the identity, of radius at least max(box).
    Every coordinate must lie in the ball, as those of
    `enumerate_monoid_module_set` do; `ball.relative_counts` raises
    `CoverageError` for one outside it, which may have finite weight beyond
    the box that only the producer can rule in or out.
    """
    return relative_counts(
        dm, [tuple(element_vertex(el) for el in tup) for tup in tuples], box
    )


def univariate_terms(
    dm: DistanceMap,
    tuples: list[tuple[GroupElement, ...]],
    through: int,
) -> list[int]:
    """Counts of tuples by total word weight, complete through `through`.

    Any tuple of total weight <= through has every coordinate weight
    <= through and therefore sits inside the Cayley ball `dm` once its
    radius reaches `through`, so a tuple with an out-of-ball coordinate
    contributes nothing here (its total is larger than the window or
    infinite) and is skipped exactly.
    """
    dm.check_radius(through)
    terms = [0] * (through + 1)
    for tup in tuples:
        total = 0
        for el in tup:
            dist = dm.distance(element_vertex(el))
            if dist is None:
                total = None
                break
            total += dist
        if total is not None and total <= through:
            terms[total] += 1
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
    cycle_cap: int = 1_000_000,
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
    weights = set(cycle_weights(graph, cap=cycle_cap))
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
