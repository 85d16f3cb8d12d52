"""Shared test utilities: cached builders, pair sets, independent oracles."""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from math import gcd

from ratassoc import (
    DyckPath,
    LatticePoint,
    SimplicialComplex,
    build_ass,
    build_hat_ass,
    build_obstruction_graph,
    collapse_schedule,
    all_admissible_diagonals,
    enumerate_dyck_paths,
)
from ratassoc.complexes import bit_positions


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


@lru_cache(maxsize=None)
def hat(a: int, b: int):
    return build_hat_ass(a, b, max_b=max(14, b))


@lru_cache(maxsize=None)
def ass(a: int, b: int):
    return build_ass(a, b, max_b=max(14, b))


@lru_cache(maxsize=None)
def obstruction_graph(a: int, b: int):
    return build_obstruction_graph(a, b)


def copy_of(cpx: SimplicialComplex) -> SimplicialComplex:
    """A complex with its own face set, for the collapse and the replay,
    which consume the start complex they are given."""
    return SimplicialComplex._trusted(cpx.ground, set(cpx.mask_set), cpx.a, cpx.b)


@lru_cache(maxsize=None)
def schedule(a: int, b: int):
    return collapse_schedule(
        a, b, hat=copy_of(hat(a, b)), ass=ass(a, b), graph=obstruction_graph(a, b)
    )


@lru_cache(maxsize=None)
def all_facets(a: int, b: int) -> tuple[frozenset, ...]:
    """The Dyck facets as diagonal sets, decoded from the walk's masks."""
    ground = all_admissible_diagonals(a, b)
    return tuple(frozenset(ground[p] for p in bit_positions(m)) for m in enumerate_dyck_paths(a, b))


def dyck_paths(a: int, b: int) -> list[DyckPath]:
    """Every (a, b)-Dyck path, built by the checking constructor from the
    reference words, in their lex order."""
    return [DyckPath(a, b, w) for w in reference_dyck_words(a, b)]


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
    return DyckPath(a, b, "".join(word))
