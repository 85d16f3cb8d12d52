"""Shared test utilities: cached builders, pair sets, independent oracles."""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, gcd

from hypothesis import strategies as st

from ratassoc import (
    CollapseCertificate,
    Diagonal,
    DyckPath,
    InvariantViolationError,
    LatticePoint,
    NotAFaceError,
    NotConeVertexError,
    ScheduleFailedError,
    SimplicialComplex,
    StageRecord,
    VerificationReport,
    build_ass,
    build_hat_ass,
    build_obstruction_graph,
    collapse_schedule,
    all_admissible_diagonals,
    crossing_indices,
    enumerate_dyck_paths,
    face_text,
    half_wedge_completion,
    wedge_completion,
)
from ratassoc import lattice
from ratassoc.complexes import bit_positions, bits_of
from ratassoc.homology import BettiVector
from ratassoc.polygon import admissible_by_ends, admissible_compatibility, check_slope_pair
from ratassoc.polygon import compatibility_masks


def coprime_pairs(max_sum: int | None = None, max_b: int | None = None) -> list[tuple[int, int]]:
    top_b = max_b if max_b is not None else (max_sum - 1 if max_sum else 0)
    out = []
    for b in range(2, top_b + 1):
        for a in range(1, b):
            if gcd(a, b) != 1:
                continue
            if max_sum is not None and a + b > max_sum:
                continue
            out.append((a, b))
    return out


def is_fuss(a: int, b: int) -> bool:
    """True when b = k*a + 1 for some positive k (the two models coincide)."""
    return b % a == 1


def polygon_dissections(b: int) -> int:
    """Sum over k of C(b-2, k) C(b+k, k) / (k+1), the number of sets of
    pairwise noncrossing diagonals of the (b+1)-gon (Kirkman-Cayley): the
    closed form of the face count of Delta_b = hat(b-1, b).  Each term counts
    the dissections with k diagonals, so each division is exact."""
    return sum(comb(b - 2, k) * comb(b + k, k) // (k + 1) for k in range(b - 1))


@lru_cache(maxsize=None)
def hat(a: int, b: int):
    return build_hat_ass(a, b, max_b=max(14, b))


@lru_cache(maxsize=None)
def ass(a: int, b: int):
    return build_ass(a, b, max_b=max(14, b))


@lru_cache(maxsize=None)
def obstruction_graph(a: int, b: int):
    return build_obstruction_graph(a, b)


@lru_cache(maxsize=None)
def schedule(a: int, b: int):
    return collapse_schedule(a, b, hat=hat(a, b), ass=ass(a, b), graph=obstruction_graph(a, b))


@lru_cache(maxsize=None)
def all_facets(a: int, b: int) -> tuple[frozenset, ...]:
    """The Dyck facets as diagonal sets, decoded from the walk's masks."""
    ground = all_admissible_diagonals(a, b)
    return tuple(frozenset(ground[p] for p in bit_positions(m)) for m in enumerate_dyck_paths(a, b))


def checked_path(a: int, b: int, word: str) -> DyckPath:
    """The (a, b)-Dyck path of the step word ``word``, parsed and checked:
    the oracle for the walk's masks.  It fires the lasers with
    ``lattice._path_lasers``, through ``lattice._read_row`` on a one-path
    trie, checks them with ``lattice._fire``, and raises a failed check as
    the walk does."""
    check_slope_pair(a, b)
    if len(word) != a + b or word.count("N") != a or word.count("E") != b:
        raise ValueError(f"word {word!r} is not an (N^{a}, E^{b}) shuffle")
    xs, east = [], 0
    for step in word:
        if step == "N":
            xs.append(east)
        elif step == "E":
            east += 1
            if len(xs) * b < east * a:
                raise ValueError(f"word {word!r} dips below the line y = {a}/{b} x")
        else:
            raise ValueError(f"bad step {step!r} in {word!r}")
    xs = (*xs, east)
    fired, escaped = lattice._path_lasers(a, b, xs)
    mask = lattice._fire(0, fired, admissible_by_ends(a, b), admissible_compatibility(a, b))
    if mask < 0 or escaped:
        lattice._raise_facet_failure(a, b, word, xs)
    return DyckPath(a, b, word, xs, mask)


def dyck_paths(a: int, b: int) -> list[DyckPath]:
    """Every (a, b)-Dyck path, built by ``checked_path`` from the reference
    words, in their lex order."""
    return [checked_path(a, b, w) for w in reference_dyck_words(a, b)]


def skeleton_of_facets(masks, n_ground: int) -> tuple[list[int], int]:
    """The adjacency rows and the vertex mask of the 1-skeleton of the facet
    masks, by the loop over every bit of every facet."""
    adj, vertices = [0] * n_ground, 0
    for m in masks:
        vertices |= m
        rest = m
        while rest:
            bit = rest & -rest
            rest ^= bit
            adj[bit.bit_length() - 1] |= m ^ bit
    return adj, vertices


def reference_dyck_words(a: int, b: int) -> list[str]:
    """Every (a, b)-Dyck word in lexicographic order with N < E, by the
    naive recursion on words: append N, then E, while the prefix stays
    weakly above the line y = (a/b) x."""
    out: list[str] = []

    def grow(word: str, north: int, east: int) -> None:
        if north == a and east == b:
            out.append(word)
            return
        if north < a:
            grow(word + "N", north + 1, east)
        if east < b and north * b >= (east + 1) * a:
            grow(word + "E", north, east + 1)

    grow("", 0, 0)
    return out


def path_points(path: DyckPath) -> list[LatticePoint]:
    """All a+b+1 lattice points of the path in order, read off its word."""
    pts = [LatticePoint(0, 0)]
    x = y = 0
    for step in path.word:
        if step == "N":
            y += 1
        else:
            x += 1
        pts.append(LatticePoint(x, y))
    return pts


def north_step_bottoms(path: DyckPath) -> list[LatticePoint]:
    """Bottom points of all north steps, in path order (origin included)."""
    return [LatticePoint(x, y) for y, x in enumerate(path.xs[:-1])]


def vertical_run_xs(path: DyckPath) -> list[int]:
    """x-coordinates holding a vertical run, in increasing order."""
    return sorted(set(path.xs[:-1]))


def oracle_in_ass(face, a: int, b: int) -> bool:
    """Exhaustive membership oracle: some Dyck path facet contains the face."""
    face = frozenset(face)
    return any(face <= F for F in all_facets(a, b))


def laser_hit_oracle(path: DyckPath, source) -> int:
    """Independent laser trace with exact rationals over every path segment.

    Walks all segments of the path, intersects each with the open ray of
    slope a/b from the source, takes the first intersection, and insists
    it lies in the open interior of an east step.  Returns the right
    endpoint's x-coordinate.
    """
    a, b = path.a, path.b
    x0, y0 = source
    slope = Fraction(a, b)
    best_x = None
    best_kind = None
    best_payload = None
    pts = path_points(path)
    for p, q in zip(pts, pts[1:]):
        if p.x == q.x:  # north step at x = p.x
            x = p.x
            if x <= x0:
                continue
            y = y0 + slope * (x - x0)
            assert y != p.y and y != q.y, "ray passes through a lattice point"
            if p.y < y < q.y and (best_x is None or x < best_x):
                best_x, best_kind, best_payload = Fraction(x), "north", (p, q)
        else:  # east step at height p.y
            y = p.y
            if y <= y0:
                continue
            x = x0 + Fraction((y - y0) * b, a)
            assert x != p.x and x != q.x, "ray passes through a lattice point"
            if p.x < x < q.x and (best_x is None or x < best_x):
                best_x, best_kind, best_payload = x, "east", q.x
    assert best_x is not None, "ray never met the path"
    assert best_kind == "east", f"first hit is not an east-step interior: {best_payload}"
    return best_payload


def partition_of(path: DyckPath) -> tuple[int, ...]:
    """Row lengths of the cells northwest of the path, top row first: row i
    is the x-coordinate of the i-th north step counted from the top, so the
    tuple is weakly decreasing and fits under the staircase cut out by the
    line."""
    return tuple(reversed(path.xs[:-1]))


def young_contains(inner, outer) -> bool:
    """Containment of partitions: inner[i] <= outer[i] for all rows."""
    n = max(len(inner), len(outer))
    get = lambda p, i: p[i] if i < len(p) else 0
    return all(get(inner, i) <= get(outer, i) for i in range(n))


def weighted_clique_tree(adj, vertices: int, limit: int) -> tuple[int, list[int]]:
    """The number of cliques of the graph ``adj`` on ``vertices``, the empty
    clique included, and the cliques its matching tree leaves unmatched; the
    count is some number above ``limit`` once it passes it, and the list is
    then partial.

    A node (A, free, w) stands for w * (cliques of the graph on ``free``)
    cliques A + S.  A free vertex adjacent to all the other free ones is a
    cone apex: it doubles the count of the rest, so it leaves ``free`` and
    doubles w.  With no free vertex left the node adds w to the count, and
    A is a leaf reached through no cone when w is 1.  Otherwise the node
    splits on the highest free vertex p into (A, free - p, w) and
    (A + p, free & adj[p], w).
    """
    count, unmatched = 0, []
    stack = [(0, vertices, 1)]
    while stack and count <= limit:
        face, free, weight = stack.pop()
        rest = free
        while rest:  # a vertex adjacent to all the others stays so without them
            bit = rest & -rest
            rest ^= bit
            if free & ~adj[bit.bit_length() - 1] == bit:
                free ^= bit
                weight *= 2
        if not free:
            count += weight
            if weight == 1:
                unmatched.append(face)
            continue
        top = free.bit_length() - 1
        stack.append((face, free ^ 1 << top, weight))
        stack.append((face | 1 << top, free & adj[top], weight))
    return count, unmatched


def rows_of(n: int, edges) -> list[int]:
    """The adjacency rows of the graph on n vertices with the pairs ``edges``."""
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


# name: (adjacency rows, vertex mask, the maximal cliques)
SMALL_GRAPHS = {
    "no-vertex": ([], 0, [0]),
    "edgeless": ([0] * 4, 0b1111, [1, 2, 4, 8]),
    "complete": (rows_of(5, combinations(range(5), 2)), 0b11111, [0b11111]),
    "5-cycle": (rows_of(5, [(v, (v + 1) % 5) for v in range(5)]), 0b11111,
                [0b00011, 0b00110, 0b01100, 0b11000, 0b10001]),
    "bowtie": (rows_of(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)]), 0b11111,
               [0b00111, 0b11100]),
    # vertex 3 is adjacent to all the others but outside the vertex mask
    "rows-outside": (rows_of(5, [(0, 1), (1, 2), (0, 3), (1, 3), (2, 3), (3, 4)]), 0b10111,
                     [0b00011, 0b00110, 0b10000]),
}


def graph_complex(ground, vertices: int, edges, a=None, b=None) -> SimplicialComplex:
    """The clique complex of the graph on the ground positions in the mask
    ``vertices`` whose edges are the position pairs ``edges``."""
    ground = tuple(ground)
    assert list(ground) == sorted(ground, key=Diagonal.key), "ground must be canonically sorted"
    adj = [0] * len(ground)
    for u, v in edges:
        assert u != v and vertices >> u & 1 and vertices >> v & 1, (u, v)
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return SimplicialComplex(ground, adj, vertices, a, b)


def graph_complexes(ground, min_vertices: int = 0):
    """A hypothesis strategy for clique complexes of graphs on ``ground``:
    an edge density is drawn, from none to every pair, then each vertex pair
    is an edge or not, and the vertices are the edges' ends and any others
    drawn, at least ``min_vertices`` of them."""
    pairs = list(combinations(range(len(ground)), 2))

    @st.composite
    def draw(draw):
        eighths = draw(st.integers(0, 8))
        kept = draw(st.lists(st.integers(1, 8), min_size=len(pairs), max_size=len(pairs)))
        edges = [e for e, k in zip(pairs, kept) if k <= eighths]
        vertices = draw(st.integers(0, (1 << len(ground)) - 1))
        for u, v in edges:
            vertices |= 1 << u | 1 << v
        if vertices.bit_count() < min_vertices:
            vertices |= (1 << min_vertices) - 1
        return graph_complex(ground, vertices, edges)

    return draw()


def closure(masks) -> set[int]:
    """The downward closure of a family of masks, the empty face included."""
    closed: set[int] = set()
    stack = list(masks)
    while stack:
        m = stack.pop()
        if m in closed:
            continue
        closed.add(m)
        for bit in bits_of(m):
            if m ^ bit not in closed:
                stack.append(m ^ bit)
    closed.add(0)
    return closed


def skeleton_adjacency(masks: set[int], n_ground: int) -> list[int]:
    """Adjacency bitmasks of the 1-skeleton of a face set, read by testing
    each vertex pair.

    By downward closure, any coface of a face extends it by a vertex
    adjacent to all of its members, so these masks bound coface searches
    soundly for arbitrary downward-closed families.
    """
    adj = [0] * n_ground
    for u in range(n_ground):
        for v in range(u + 1, n_ground):
            if 1 << u | 1 << v in masks:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return adj


def flag_witness(masks: set[int]) -> int | None:
    """None if the downward-closed mask set is flag, every minimal non-face
    an edge; else a minimal non-face of three or more vertices.  Such a
    non-face is a face of two or more vertices plus one vertex, so the scan
    tries each face with each vertex it lacks."""
    points = [m for m in masks if m.bit_count() == 1]
    for face in masks:
        if face.bit_count() < 2:
            continue
        for v in points:
            grown = face | v
            if grown != face and grown not in masks and all(
                    grown ^ bit in masks for bit in bits_of(face)):
                return grown
    return None


def maximal_masks(masks: set[int]) -> set[int]:
    """The faces of a downward-closed mask set that lie in no larger face:
    those that are not another face less one vertex."""
    covered = set()
    for m in masks:
        rest = m
        while rest:
            bit = rest & -rest
            rest ^= bit
            covered.add(m ^ bit)
    return masks - covered


def bron_kerbosch(adj, vertices: int) -> list[int]:
    """The maximal cliques of the graph ``adj`` on ``vertices``, each once,
    by Bron-Kerbosch with Tomita's pivot and no memo: a node grows the
    clique R from candidates P, with X the vertices whose cliques are
    already listed, and branches only on the candidates outside the
    neighbourhood of a pivot in P | X with the most neighbours in P.  R is
    maximal when P and X are both empty: the empty clique when
    ``vertices`` is 0."""
    found = []
    stack = [(0, vertices, 0)]  # (R, P, X)
    while stack:
        clique, cand, done = stack.pop()
        if not cand:
            if not done:
                found.append(clique)
            continue
        most, rest = -1, cand | done
        while rest:
            u = rest.bit_length() - 1
            rest ^= 1 << u
            n = (cand & adj[u]).bit_count()
            if n > most:
                most, pivot_row = n, adj[u]
        branch = cand & ~pivot_row
        while branch:
            v = branch.bit_length() - 1
            bit = 1 << v
            branch ^= bit
            row = adj[v]
            stack.append((clique | bit, cand & row, done & row))
            cand ^= bit
            done |= bit
    return found


def translate(d: Diagonal, k: int) -> Diagonal | None:
    """The diagonal (i-k)-(j-k), or None when it leaves the polygon.

    Negative ``k`` shifts upward; the result must satisfy 0 <= i-k and
    j-k <= b.  The translate of a diagonal is always a diagonal (span and
    non-side status are translation invariant away from the boundary wrap).
    """
    ni, nj = d.i - k, d.j - k
    if ni < 0 or nj > d.b:
        return None
    return Diagonal(ni, nj, d.b)


def random_dyck_path(a: int, b: int, rng: random.Random) -> DyckPath:
    """A uniform-ish random (a, b)-Dyck path by feasible-step sampling."""
    word = []
    north = east = 0
    for _ in range(a + b):
        choices = []
        if north < a:
            choices.append("N")
        if east < b and north * b >= (east + 1) * a:
            choices.append("E")
        step = rng.choice(choices)
        word.append(step)
        if step == "N":
            north += 1
        else:
            east += 1
    return checked_path(a, b, "".join(word))


# -- the direct homology route: the oracle for the matching-tree reduction


class BoundaryMatrix:
    """Sparse boundary operator from k-cells to (k-1)-cells.

    Columns follow the canonical cell order (sorted masks); entries are
    +-1 by position parity of the removed diagonal within the cell.
    """

    def __init__(self, k: int, rows: list[int], cols: list[int], row_index: dict[int, int]):
        self.k = k
        self.shape = (len(rows), len(cols))
        self.columns: list[list[tuple[int, int]]] = []
        for m in cols:
            col = []
            for pos, bit in enumerate(bits_of(m)):
                cell = m ^ bit
                r = row_index.get(cell)
                if r is not None:
                    col.append((r, -1 if pos % 2 else 1))
            self.columns.append(col)

    def rank_gf2(self) -> int:
        # each column as a bitmask over its rows, eliminated column by column
        packed = []
        for col in self.columns:
            v = 0
            for r, _ in col:
                v |= 1 << r
            packed.append(v)
        pivots: dict[int, int] = {}  # leading row bit -> reduced column
        rank = 0
        for v in packed:
            while v:
                lead = v & -v
                other = pivots.get(lead)
                if other is None:
                    pivots[lead] = v
                    rank += 1
                    break
                v ^= other
        return rank

    def rank_q(self) -> int:
        cols = [dict(col) for col in self.columns]
        pivots: dict[int, dict[int, int]] = {}  # pivot row -> column, normalized
        rank = 0
        for col in cols:
            while col:
                lead = min(col)
                piv = pivots.get(lead)
                if piv is None:
                    g = gcd(*col.values())
                    pivots[lead] = {r: c // g for r, c in col.items()}
                    rank += 1
                    break
                # col -= (col[lead]/piv[lead]) * piv, cleared without division:
                # scale col by piv[lead], subtract col[lead] * piv, renormalize
                s, t = piv[lead], col[lead]
                merged: dict[int, int] = {}
                for r, c in col.items():
                    merged[r] = c * s
                for r, c in piv.items():
                    merged[r] = merged.get(r, 0) - c * t
                col = {r: c for r, c in merged.items() if c}
                if col:
                    g = gcd(*col.values())
                    if g > 1:
                        col = {r: c // g for r, c in col.items()}
        return rank

    def rank(self, field: str) -> int:
        if field == "gf2":
            return self.rank_gf2()
        if field == "q":
            return self.rank_q()
        raise ValueError(f"unknown field {field!r}; expected 'gf2' or 'q'")


def build_matrices(cells) -> tuple[dict[int, list[int]], dict[int, BoundaryMatrix]]:
    """The cells by dimension, each list sorted, and the boundary matrix of
    each dimension into the one below."""
    by_dim: dict[int, list[int]] = {}
    for m in cells:
        by_dim.setdefault(m.bit_count() - 1, []).append(m)
    for cl in by_dim.values():
        cl.sort()
    mats: dict[int, BoundaryMatrix] = {}
    for k, col_cells in sorted(by_dim.items()):
        rows = by_dim.get(k - 1, [])
        row_index = {m: i for i, m in enumerate(rows)}
        mats[k] = BoundaryMatrix(k, rows, col_cells, row_index)
    return by_dim, mats


def check_dd_zero(by_dim: dict, mats: dict) -> None:
    """Assert boundary-of-boundary vanishes over the integers."""
    for k, mat in mats.items():
        lower = mats.get(k - 1)
        if lower is None or not mat.columns:
            continue
        for col in mat.columns:
            acc: dict[int, int] = {}
            for r, c in col:
                for rr, cc in lower.columns[r]:
                    acc[rr] = acc.get(rr, 0) + c * cc
            if any(acc.values()):
                raise InvariantViolationError(f"boundary squared is nonzero in dim {k}")


def direct_betti(cpx: SimplicialComplex, field: str) -> BettiVector:
    """Reduced Betti numbers from the boundary matrices of every face of
    ``cpx``, with no reduction, once the boundary is checked to compose to
    zero."""
    by_dim, mats = build_matrices(cpx.mask_set)
    check_dd_zero(by_dim, mats)
    ranks = {k: mat.rank(field) for k, mat in mats.items()}
    dim = len(cpx.f_vector_counts()) - 2
    values = tuple(len(by_dim.get(k, [])) - ranks.get(k, 0) - ranks.get(k + 1, 0)
                   for k in range(-1, dim + 1))
    return BettiVector(field, dim, values)


# -- the explicit collapse engine: oracles for the predicate generator and replay


def explicit_cone_batch(masks: set[int], face_mask: int, cone_bit: int, compat: list[int]) -> list[int]:
    """Collapse away every face containing ``face_mask`` via the cone bit,
    removing the pairs from the face set ``masks`` itself.

    ``compat[p]`` must cover every vertex that shares a face with vertex
    ``p``.  The star (every face containing ``face_mask``, complete because
    ``masks`` is downward closed) is walked once, each face carrying its
    common neighbours on the stack; the faces avoiding the cone bit are
    bucketed by size as the walk finds them.  One checked pass then removes
    the pairs largest first, ties in walk order, and checks each pair at
    its turn.  Returns the smaller face of each removed pair, in removal
    order; on error ``masks`` is left partly collapsed.
    """
    if face_mask not in masks:
        raise NotAFaceError("the target face is not in the complex", witness=face_mask)
    if face_mask & cone_bit:
        raise NotConeVertexError("cone vertex already belongs to the face")
    common = (1 << len(compat)) - 1
    for pos in bit_positions(face_mask):
        common &= compat[pos]
    lower = [[(face_mask, common)]]
    n_star = 1
    stack = [(face_mask, common & ~face_mask, common, 0)]
    while stack:
        face, cand, common, depth = stack.pop()
        depth += 1
        if depth == len(lower):
            lower.append([])
        bucket = lower[depth]
        while cand:
            bit = cand & -cand
            cand ^= bit
            child = face | bit
            if child in masks:
                row = compat[bit.bit_length() - 1]
                shared = common & row
                n_star += 1
                if not child & cone_bit:
                    bucket.append((child, shared))
                stack.append((child, cand & row, shared, depth))
    smaller = []
    for bucket in reversed(lower):
        for m, common in bucket:
            facet = m | cone_bit
            if facet not in masks:
                raise NotConeVertexError("cone condition fails: a face has no extension", witness=m)
            rest = common & ~facet
            while rest:
                bit = rest & -rest
                if m | bit in masks:
                    raise InvariantViolationError(
                        "a pair is not free: its smaller face has a second cofacet", witness=m
                    )
                rest ^= bit
            masks.remove(facet)
            masks.remove(m)
            smaller.append(m)
    if 2 * len(smaller) != n_star:
        raise InvariantViolationError("cone pairing does not partition the star")
    return smaller


def explicit_schedule(a: int, b: int, *, hat, ass, graph) -> CollapseCertificate:
    """The schedule generator on an explicit copy of ``hat``'s face set:
    each stage removes its pairs with :func:`explicit_cone_batch`, and the
    faces left must equal ``ass``'s face set."""
    ground, bit = hat.ground, hat._bit
    current = set(hat.mask_set)
    compat = compatibility_masks(ground)
    stages = []
    for r in range(len(graph.edges), 0, -1):
        edge = graph.edges[r - 1]
        batches = [
            (half_wedge_completion(edge, s, graph), edge.pair() | {Diagonal(s, edge.apex, b)})
            for s in crossing_indices(edge, graph)
        ]
        batches.append((wedge_completion(edge), edge.pair()))
        for q, (cone, target) in enumerate(batches, start=1):
            try:
                smaller = explicit_cone_batch(current, hat._mask_of(target), bit[cone], compat)
            except (NotConeVertexError, NotAFaceError, InvariantViolationError) as exc:
                face = None if exc.witness is None else face_text(hat._face_of(exc.witness))
                where = f"stage (r={r}, q={q}, cone {cone.text()}) failed"
                raise ScheduleFailedError(
                    f"{where}: {exc}" + (f" at face {face}" if face else ""), r=r, q=q, face=face,
                ) from exc
            stages.append(StageRecord(r, q, cone, target, len(smaller)))
    if current != ass.mask_set:
        extra, missing = current - ass.mask_set, ass.mask_set - current
        first = face_text(hat._face_of(min(extra | missing, key=lambda m: (m.bit_count(), m))))
        raise ScheduleFailedError(
            f"terminal complex has {len(current)} faces, expected {ass.n_faces}: "
            f"{len(extra)} extra, {len(missing)} missing, first at face {first}",
            face=first,
        )
    return CollapseCertificate(a, b, ground, tuple(stages))


class ExplicitReplay:
    """The certificate replay on an explicit copy of the start complex's face
    set, ``masks``, from which each stage removes its pairs.

    By default the star of a stage target is walked upward through the
    1-skeleton of the start complex, each face carrying the vertices
    adjacent to all of it, and each cofacet test draws its candidates from
    what the walk kept.  With ``exhaustive`` neither relies on downward
    closure: the star is a scan of every remaining face, and so is each
    freeness test.  Either way the pairs go largest first, ties by mask,
    and each check runs at its pair's turn.
    """

    def __init__(self, start: SimplicialComplex, cert: CollapseCertificate, *, exhaustive=False):
        if start.ground != cert.ground:
            raise ValueError("certificate ground set does not match the start complex")
        self.masks = set(start.mask_set)
        self.steps_applied = 0
        self.exhaustive = exhaustive
        self._bit = {d: 1 << i for i, d in enumerate(start.ground)}
        self._adj = skeleton_adjacency(self.masks, len(start.ground))

    def _star(self, target: int, cone: int):
        masks = self.masks
        if self.exhaustive:
            star = [m for m in masks if m & target == target]
            order = sorted((m for m in star if not m & cone), key=lambda m: (m.bit_count(), -m))
            return [[(m, None)] for m in order], [m for m in star if m & cone]
        lower, upper = [[]], []
        adj = self._adj
        common = ~target
        for p in bit_positions(target):
            common &= adj[p]
        lower[0].append((target, common))
        stack = [(target, common, common, 0)]
        while stack:
            face, cand, common, depth = stack.pop()
            depth += 1
            if depth == len(lower):
                lower.append([])
            bucket = lower[depth]
            while cand:
                x = cand & -cand
                cand ^= x
                child = face | x
                if child in masks:
                    row = adj[x.bit_length() - 1]
                    shared = common & row
                    if child & cone:
                        upper.append(child)
                    else:
                        bucket.append((child, shared))
                    stack.append((child, cand & row, shared, depth))
        return lower, upper

    def expand(self, stage: StageRecord) -> str | None:
        masks = self.masks
        target = 0
        for d in stage.target:
            target |= self._bit[d]
        cone = self._bit[stage.cone]
        if not target:
            return "stage target is empty"
        if target not in masks:
            return "stage target missing from current complex"
        if target & cone:
            return "stage target contains its cone"
        lower, upper = self._star(target, cone)
        if sum(map(len, lower)) != stage.n_steps:
            return "expanded pair count differs from the certificate"
        for bucket in reversed(lower):
            bucket.sort()
            for sub, common in bucket:
                facet = sub | cone
                if facet not in masks:
                    return "cone extension missing from current complex"
                if self.exhaustive:
                    if any(m & sub == sub and m != sub and m != facet for m in masks):
                        return "subface has another proper superface"
                else:
                    rest = common & ~facet
                    while rest:
                        x = rest & -rest
                        if sub | x in masks:
                            return "subface has another cofacet"
                        rest ^= x
                masks.remove(facet)
                masks.remove(sub)
                self.steps_applied += 1
        if not masks.isdisjoint(upper):
            return "faces containing the stage target remain"
        return None

    def run(self, stages):
        for k, stage in enumerate(stages):
            reason = self.expand(stage)
            if reason is not None:
                return k, reason
        return None

    def check_labels(self, stages):
        end = skeleton_adjacency(self.masks, len(self._adj))
        edges = [
            1 << p | high
            for p, row in enumerate(self._adj)
            for high in bits_of(row & ~end[p] & -(2 << p))
        ]
        batches = Counter(stage.r for stage in stages)
        labels = Counter((stage.r, stage.q) for stage in stages)
        for k, stage in enumerate(stages):
            r, q, m = stage.r, stage.q, batches[stage.r]
            if not 1 <= r <= len(edges):
                return k, "stage r is not an obstruction edge index"
            edge, target = edges[r - 1], sum(self._bit[d] for d in stage.target)
            if target & edge != edge:
                return k, "stage target lacks its obstruction edge"
            if not 1 <= q <= m or labels[r, q] > 1:
                return k, "stage q labels of an edge are not 1..m"
            if (q == m) != (target == edge):
                return k, "exactly the last batch of an edge targets the edge itself"
        return None


def explicit_verify(start, target, cert, *, exhaustive=False) -> VerificationReport:
    """The certificate check of :class:`ExplicitReplay`: every stage
    expanded on the face set, then the terminal face set compared with
    ``target``'s, then the (r, q) labels."""
    replay = ExplicitReplay(start, cert, exhaustive=exhaustive)
    failure = replay.run(cert.stages)
    matched = replay.masks == target.mask_set
    if failure is None and not matched:
        failure = (len(cert.stages), "terminal face set differs from target")
    if failure is None:
        failure = replay.check_labels(cert.stages)
    index, reason = failure or (None, None)
    return VerificationReport(
        failure is None, replay.steps_applied, index, reason, len(replay.masks), matched
    )
