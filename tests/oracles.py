"""Independent oracles used to pin expected values before testing the library.

Everything here is deliberately naive and self-contained: hand counts,
explicitly materialized patches, exhaustive enumeration.  None of it calls
the code paths under test (group word enumeration uses only `multiply`);
the pair-set cover materializes every graded pair through
`module_elements_upto` and `graded_growth_slice`, which the least-degree
cover check does not use, and the reference action check steps
`PeriodicVertex` values by `translate`, where the library steps packed keys.
The monoid-module piece oracle reads only the ball's entries and solves
every tuple of allowed points on its own, where the library joins them.
"""

import heapq
import math
from collections import deque
from fractions import Fraction
from itertools import combinations, permutations, product

from perigrowth.ball import graded_growth_slice
from perigrowth.decomposition import ActionReport, module_elements_upto
from perigrowth.periodic_graph import PeriodicVertex, translate
from perigrowth.vab import GroupElement, multiply


def square_lattice_count(i: int) -> int:
    """Number of integer points with |x| + |y| = i, by direct counting."""
    return sum(
        1
        for x in range(-i, i + 1)
        for y in range(-i, i + 1)
        if abs(x) + abs(y) == i
    )


def honeycomb_patch_growth(radius: int) -> list[int]:
    """BFS on an explicitly materialized honeycomb patch, from an a-vertex.

    Adjacency is hardcoded from the net geometry: a(x, y) touches b(x, y),
    b(x+1, y), b(x, y+1).  The patch is wide enough that the radius-R ball
    never reaches its boundary.
    """
    span = radius + 2

    def neighbors(node):
        kind, x, y = node
        if kind == "a":
            return [("b", x, y), ("b", x + 1, y), ("b", x, y + 1)]
        return [("a", x, y), ("a", x - 1, y), ("a", x, y - 1)]

    start = ("a", 0, 0)
    dist = {start: 0}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        if dist[node] == radius:
            continue
        for nb in neighbors(node):
            if abs(nb[1]) > span or abs(nb[2]) > span:
                raise AssertionError("patch too small")
            if nb not in dist:
                dist[nb] = dist[node] + 1
                queue.append(nb)
    terms = [0] * (radius + 1)
    for d in dist.values():
        terms[d] += 1
    return terms


def dijkstra_ball(edges, base, radius: int) -> dict:
    """Shortest walk weights from base over explicit (orbit, coord) tuples.

    `edges` lists (src, dst, shift, weight) quotient edges; the cover is
    expanded lazily with a binary heap, one tuple per vertex, and every
    vertex with distance at most `radius` is returned.
    """
    dist = {base: 0}
    heap = [(0, base)]
    while heap:
        d, (orbit, coord) = heapq.heappop(heap)
        if d > dist[(orbit, coord)]:
            continue
        for src, dst, shift, weight in edges:
            if src != orbit or d + weight > radius:
                continue
            nb = (dst, tuple(c + s for c, s in zip(coord, shift)))
            if nb not in dist or d + weight < dist[nb]:
                dist[nb] = d + weight
                heapq.heappush(heap, (d + weight, nb))
    return dist


def heap_distances(starts, successors, budget: int) -> dict:
    """Least d0 + walk weight <= budget per node, by a binary heap.

    `starts` lists (node, d0) pairs and `successors(node)` yields
    (node, weight) pairs with positive weights; nodes must be orderable.
    """
    dist = {}
    heap = []
    for node, d0 in starts:
        if d0 <= budget and (node not in dist or d0 < dist[node]):
            dist[node] = d0
            heapq.heappush(heap, (d0, node))
    while heap:
        d, node = heapq.heappop(heap)
        if d > dist[node]:
            continue
        for nb, w in successors(node):
            if d + w <= budget and (nb not in dist or d + w < dist[nb]):
                dist[nb] = d + w
                heapq.heappush(heap, (d + w, nb))
    return dist


def pair_set_cover(g, x0, radius: int, blocks, max_witnesses) -> dict:
    """A cover report's values, recomputed from its blocks by pair sets.

    Each block's module is saturated to the full set of its graded pairs
    (i, y) with i <= radius, and the union is compared with the graded
    growth slice.  `max_witnesses=None` keeps every witness.
    """
    target = graded_growth_slice(g, x0, radius)
    union = set()
    sizes = {}
    for S, monoid, gens, _ in blocks:
        piece = module_elements_upto(monoid, gens.generators, radius)
        sizes[S] = len(piece)
        union |= piece
    return {
        "ok": union == target,
        "covered": len(target),
        "missing": tuple(sorted(target - union))[:max_witnesses],
        "extra": tuple(sorted(union - target))[:max_witnesses],
        "module_sizes": sizes,
    }


def support_state_distances(g, x0, radius: int) -> dict:
    """Least walk weight <= radius per (endpoint, exact orbit support).

    Keys are (PeriodicVertex, frozenset of orbits); the length-0 walk at x0
    has support {orbit of x0}.  Searched by `heap_distances` over explicit
    (orbit, coord, sorted support) tuples.
    """

    def successors(node):
        orbit, coord, sup = node
        for e in g.edges:
            if e.src == orbit:
                step = tuple(a + b for a, b in zip(coord, e.shift))
                yield (e.dst, step, tuple(sorted(set(sup) | {e.dst}))), e.weight

    start = (x0.orbit, x0.coord, (x0.orbit,))
    dist = heap_distances([(start, 0)], successors, radius)
    return {
        (PeriodicVertex(orbit, coord), frozenset(sup)): d
        for (orbit, coord, sup), d in dist.items()
    }


def reference_action(sdist, S, monoid, radius: int) -> ActionReport:
    """The module-action check on `PeriodicVertex` values, one `translate` each.

    `sdist` maps (vertex, support) to least walk weight.  Every monoid
    generator, in sorted order, acts on the least-weight element (d, y) of
    every S-supported vertex y, in vertex order; the first image of degree
    <= radius that no S-supported walk reaches by that degree is the witness.
    """
    min_weight = sorted((v, d) for (v, sup), d in sdist.items() if sup == S)
    reached = dict(min_weight)
    for gd, gvec in sorted(monoid.generators):
        for y, d in min_weight:
            nd = d + gd
            if nd > radius:
                continue
            image = translate(y, gvec)
            di = reached.get(image)
            if di is None or di > nd:
                return ActionReport(False, ((gd, gvec), (d, y), (nd, image)))
    return ActionReport(True, None)


def lift_endpoint(g, edges, x0) -> tuple:
    """(orbit, coord) at the end of the lift from x0 of a quotient walk.

    `edges` lists edge-orbit ids; each must start where the walk stands.
    """
    orbit, coord = x0.orbit, x0.coord
    for eid in edges:
        e = g.edges[eid]
        assert e.src == orbit, f"edge {eid} does not start at orbit {orbit}"
        orbit, coord = e.dst, tuple(a + b for a, b in zip(coord, e.shift))
    return orbit, coord


def brute_force_cycles(g, max_length: int) -> set[tuple[int, ...]]:
    """All cycles as least-rotation edge tuples, by exhaustive sequences."""
    found = set()
    for length in range(1, max_length + 1):
        for seq in product(range(len(g.edges)), repeat=length):
            orbits = [g.edges[seq[0]].src]
            ok = True
            for eid in seq:
                if g.edges[eid].src != orbits[-1]:
                    ok = False
                    break
                orbits.append(g.edges[eid].dst)
            if not ok or orbits[0] != orbits[-1]:
                continue
            targets = orbits[1:]
            if len(set(targets)) != len(targets):
                continue
            found.add(min(seq[i:] + seq[:i] for i in range(length)))
    return found


def word_weights(group, gens, max_weight: int) -> dict:
    """Minimal weighted word length per element, by breadth-first products.

    Uses only the group multiplication, so it is independent of the Cayley
    graph and ball machinery.
    """
    weights = {group.identity(): 0}
    levels = {0: [group.identity()]}
    for w in range(max_weight + 1):
        for el in levels.get(w, []):
            if weights[el] != w:
                continue
            for gen in gens:
                nw = w + gen.weight
                if nw > max_weight:
                    continue
                nxt = multiply(group, el, gen.element)
                if nxt not in weights or nw < weights[nxt]:
                    weights[nxt] = nw
                    levels.setdefault(nw, []).append(nxt)
    return weights


def growth_from_weights(weights, max_weight: int) -> list[int]:
    terms = [0] * (max_weight + 1)
    for w in weights.values():
        terms[w] += 1
    return terms


def monoid_elements_by_exponents(gens, degree: int) -> set:
    """All nonnegative combinations of graded generators up to a degree.

    Exhaustive exponent vectors; every generator has degree >= 1 so each
    exponent is bounded by the degree.
    """
    elements = set()
    rank = len(gens[0][1]) if gens else 0

    def rec(index, deg, vec):
        if deg > degree:
            return
        elements.add((deg, tuple(vec)))
        for j in range(index, len(gens)):
            gdeg, gvec = gens[j]
            rec(
                j,
                deg + gdeg,
                [a + b for a, b in zip(vec, gvec)],
            )

    rec(0, 0, [0] * rank)
    return elements


def _leibniz_det(m) -> int:
    """Determinant by the permutation expansion."""
    total = 0
    for perm in permutations(range(len(m))):
        inversions = sum(
            1 for i in range(len(perm)) for j in range(i) if perm[j] > perm[i]
        )
        total += (-1) ** inversions * math.prod(m[i][perm[i]] for i in range(len(m)))
    return total


def matrix_rank(rows, n: int) -> int:
    """Rank of the integer matrix with these rows and n columns: the largest
    order of a nonzero minor."""
    return max(
        (
            r
            for r in range(1, min(len(rows), n) + 1)
            for picked in combinations(rows, r)
            for cols in combinations(range(n), r)
            if _leibniz_det([[row[j] for j in cols] for row in picked])
        ),
        default=0,
    )


def unimodular_inverse(u):
    """The integer inverse of a square matrix of determinant +-1, from its
    cofactors: inverse[i][j] = det * (-1)^(i+j) * minor(j, i)."""
    det = _leibniz_det(u)
    assert det in (1, -1), "the oracle needs a unimodular matrix"
    return [
        [
            det
            * (-1) ** (i + j)
            * _leibniz_det([row[:i] + row[i + 1 :] for a, row in enumerate(u) if a != j])
            for j in range(len(u))
        ]
        for i in range(len(u))
    ]


def independent_columns(columns) -> bool:
    """Whether the integer columns are linearly independent (Gram det != 0)."""
    gram = [[sum(a * b for a, b in zip(u, v)) for v in columns] for u in columns]
    return _leibniz_det(gram) != 0


def monoid_module_piece_tuples(dm, piece, box) -> set:
    """Every tuple of allowed ball points that lies in one piece, by brute force.

    Coordinate i may take any ball vertex in the orbit of the shift's part
    at distance <= box[i]; each tuple of the product is solved exactly for
    its coefficients over the flattened ugens by the normal equations, with
    the Gram inverse from cofactors (the ugens must be independent), and
    kept when they are nonnegative integers that reproduce the tuple.
    """
    columns = [tuple(c for u in gen for c in u) for gen in piece.ugens]
    k = len(columns)
    gram = [[sum(a * b for a, b in zip(u, v)) for v in columns] for u in columns]
    det = _leibniz_det(gram)
    assert det != 0, "the oracle needs independent ugens"
    cofactor = [
        [
            (-1) ** (i + j)
            * _leibniz_det([r[:j] + r[j + 1 :] for a, r in enumerate(gram) if a != i])
            for j in range(k)
        ]
        for i in range(k)
    ]
    choices = [
        [
            GroupElement(v.coord, v.orbit)
            for v, dist in dm.entries.items()
            if v.orbit == t.part and dist <= bound
        ]
        for bound, t in zip(box, piece.shift)
    ]
    members = set()
    for tup in product(*choices):
        x = [y - s for el, t in zip(tup, piece.shift) for y, s in zip(el.vec, t.vec)]
        rhs = [sum(a * b for a, b in zip(u, x)) for u in columns]
        coeffs = [
            Fraction(sum(cofactor[i][j] * rhs[i] for i in range(k)), det)
            for j in range(k)
        ]
        if all(c >= 0 and c.denominator == 1 for c in coeffs) and all(
            sum(c * u[r] for c, u in zip(coeffs, columns)) == x[r] for r in range(len(x))
        ):
            members.add(tup)
    return members


# ---------------------------------------------------------------------------
# dense rational series: every (1 - t^w) product multiplied out, reduced by a
# Fraction-Euclid gcd and refactored by greedy largest-period peeling


def poly_trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


def expand_factors(factors):
    """prod (1 - t^w)^e as a dense integer polynomial."""
    out = [1]
    for w, e in factors:
        for _ in range(e):
            out = poly_mul(out, [1] + [0] * (w - 1) + [-1])
    return out


def dense_fit_numerator(terms, factors):
    """(denominator * terms) truncated at the last term, trailing zeros trimmed."""
    den = expand_factors(factors)
    through = len(terms) - 1
    out = [0] * (through + 1)
    for i, c in enumerate(den[: through + 1]):
        for j in range(through + 1 - i):
            out[i + j] += c * terms[j]
    return poly_trim(out)


def dense_expand(numerator, den, through):
    """Coefficients 0..through of numerator / den (den[0] == 1), by recurrence."""
    out = []
    for i in range(through + 1):
        c = numerator[i] if i < len(numerator) else 0
        for j in range(1, min(i, len(den) - 1) + 1):
            c -= den[j] * out[i - j]
        out.append(c)
    return out


def poly_div_exact(num, den):
    """num / den when den divides num over Z, else None."""
    num = [Fraction(c) for c in poly_trim(num)]
    den = [Fraction(c) for c in poly_trim(den)]
    if not num:
        return []
    if len(num) < len(den):
        return None
    quot = [Fraction(0)] * (len(num) - len(den) + 1)
    for i in range(len(quot) - 1, -1, -1):
        c = num[i + len(den) - 1] / den[-1]
        quot[i] = c
        for j, dc in enumerate(den):
            num[i + j] -= c * dc
    if any(num) or any(c.denominator != 1 for c in quot):
        return None
    return [int(c) for c in quot]


def poly_gcd_primitive(a, b):
    """Primitive integer gcd with positive leading coefficient, by Euclid over Q."""
    fa = [Fraction(c) for c in poly_trim(a)]
    fb = [Fraction(c) for c in poly_trim(b)]
    while fb:
        rem = fa[:]
        for i in range(len(rem) - len(fb), -1, -1):
            c = rem[i + len(fb) - 1] / fb[-1]
            for j, dc in enumerate(fb):
                rem[i + j] -= c * dc
        fa, fb = fb, poly_trim(rem)
    denom = math.lcm(*[c.denominator for c in fa])
    ints = [int(c * denom) for c in fa]
    content = math.gcd(*ints)
    ints = [c // content for c in ints]
    return [-c for c in ints] if ints[-1] < 0 else ints


def reference_reduction(numerator, factors):
    """(reduced numerator, reduced denominator, peeled factors or None).

    The reduced denominator has constant term 1; the factors are the greedy
    largest-period (1 - t^w) peeling of it, or None when peeling leaves a
    residual other than 1.
    """
    num = poly_trim(numerator)
    den = expand_factors(factors)
    if not num:
        return [], [1], ()
    g = poly_gcd_primitive(num, den)
    num, den = poly_div_exact(num, g), poly_div_exact(den, g)
    if den[0] == -1:
        num, den = [-c for c in num], [-c for c in den]
    peeled = {}
    residual = den
    for w in range(len(den) - 1, 0, -1):
        while len(residual) - 1 >= w:
            quot = poly_div_exact(residual, [1] + [0] * (w - 1) + [-1])
            if quot is None:
                break
            peeled[w] = peeled.get(w, 0) + 1
            residual = quot
    return num, den, tuple(sorted(peeled.items())) if residual == [1] else None


def expand_mv_denominator(factors, box):
    """prod (1 - z^w)^e as a sparse dict, truncated to the box."""
    out = {tuple(0 for _ in box): 1}
    for w, e in factors:
        for _ in range(e):
            nxt = {}
            for a, c in out.items():
                nxt[a] = nxt.get(a, 0) + c
                shifted = tuple(x + y for x, y in zip(a, w))
                if all(x <= b for x, b in zip(shifted, box)):
                    nxt[shifted] = nxt.get(shifted, 0) - c
            out = {a: c for a, c in nxt.items() if c}
    return out


def dense_mv_fit_numerator(table, box, factors):
    """Nonzero coefficients of (denominator * table) truncated to the box."""
    den = expand_mv_denominator(factors, box)
    num = {}
    for a in product(*(range(b + 1) for b in box)):
        c = 0
        for b, cb in den.items():
            rest = tuple(x - y for x, y in zip(a, b))
            if all(x >= 0 for x in rest):
                c += cb * table.get(rest, 0)
        if c:
            num[a] = c
    return num


def dense_mv_expand(numerator, factors, box):
    """Coefficients of numerator / prod (1 - z^w)^e over the box, by recurrence."""
    den = expand_mv_denominator(factors, box)
    rest = [(b, cb) for b, cb in den.items() if any(b)]
    out = {}
    for a in product(*(range(b + 1) for b in box)):
        c = numerator.get(a, 0)
        for b, cb in rest:
            prev = tuple(x - y for x, y in zip(a, b))
            if all(x >= 0 for x in prev):
                c -= cb * out[prev]
        out[a] = c
    return out


# ---------------------------------------------------------------------------
# the reduced denominator of a sequence, by Berlekamp-Massey


def berlekamp_massey(terms, p=(1 << 61) - 1):
    """Shortest C with C[0] = 1 and sum_j C[j] * terms[n - j] = 0 for every
    n from len(C) - 1 on, modulo the prime p, lifted to the integers of
    absolute value below p / 2."""
    c, b = [1], [1]
    length, shift, last = 0, 1, 1
    for n, s in enumerate(terms):
        d = sum(c[i] * terms[n - i] for i in range(length + 1)) % p
        if d == 0:
            shift += 1
            continue
        coef = d * pow(last, -1, p) % p
        previous = c[:]
        c += [0] * max(0, len(b) + shift - len(c))
        for i, bi in enumerate(b):
            c[i + shift] = (c[i + shift] - coef * bi) % p
        if 2 * length <= n:
            length, b, last, shift = n + 1 - length, previous, d, 1
        else:
            shift += 1
    return [x - p if x > p // 2 else x for x in c[: length + 1]]


def reduced_denominator(terms):
    """Q with Q(0) = 1 such that the terms' generating function is P/Q in
    lowest terms, or None when the terms are too few to pin Q down: the
    recurrence found on the first half of the terms must hold, over the
    integers, on all of them.  A long transient makes a short prefix fit a
    spurious recurrence, so agreement on twice the length is asked, not a
    count of terms."""
    c = berlekamp_massey(terms)
    if c != berlekamp_massey(terms[: len(terms) // 2]):
        return None
    for n in range(len(c) - 1, len(terms)):
        if sum(cj * terms[n - j] for j, cj in enumerate(c)):
            return None
    return poly_trim(c)
