"""Reduced simplicial homology from the critical cells of a matching tree,
plus the Alexander-duality reports.

Betti numbers are reduced: the empty face is a genuine cell in dimension
-1, every vertex has it on its boundary, and the rank of reduced homology
in dimension -1 is nonzero only for the complex whose sole face is empty.

One walk over the graph the complex is the clique complex of,
:meth:`SimplicialComplex.clique_walk`, gives both the critical cells of
its matching tree (:func:`_reduce_cells`) and the face counts the Euler
check reads.  The complex keeps the walk, so neither needs its face set,
and both fields read the same walk.  When the critical cells all lie in
one dimension, the Morse complex has no differential (Forman, Adv. Math.
134, 1998): each reduced Betti number is a cell count, the same over
every field, and the integral homology has no torsion.  Cells in two or
more dimensions are refused; no model in reach has them.  An
Euler-characteristic check against the face counts closes the
computation.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import comb, gcd

from .complexes import SimplicialComplex, _exact_div
from .errors import InvariantViolationError
from .polygon import all_admissible_diagonals, all_diagonals, check_slope_pair

FIELDS = ("gf2", "q")


@dataclass(frozen=True)
class BettiVector:
    """Reduced Betti numbers b~_{-1} .. b~_dim over the tagged field."""

    field: str
    dim: int
    values: tuple[int, ...]  # index 0 holds b~_{-1}

    def tilde(self, k: int) -> int:
        idx = k + 1
        if 0 <= idx < len(self.values):
            return self.values[idx]
        return 0

    def nonzero(self) -> dict[int, int]:
        return {k - 1: v for k, v in enumerate(self.values) if v}


def _reduce_cells(cpx: SimplicialComplex) -> tuple[int, ...]:
    """The critical cells of the complex's matching tree, which carry its
    reduced homology: refused with :class:`InvariantViolationError` when
    they lie in two or more dimensions.

    The cells are read from :meth:`SimplicialComplex.clique_walk`, which
    the complex walks once over its graph and keeps, so no face set is
    built.

    The tree is the matching tree of Bousquet-Melou, Linusson and Nevo
    (J. Algebraic Combin. 27, 2008): a node (A, free) holds the faces A + S
    for the cliques S of the graph on ``free``; at a cone apex c toggling c
    matches all of them; otherwise the node splits on the highest free
    vertex p into (A, free - p) and (A + p, free & adj[p]).  The leaves
    reached through no cone are the critical cells.

    The faces containing p form an upper set, so each split is a poset map
    to {0 < 1}, and the patchwork theorem (Kozlov, Combinatorial Algebraic
    Topology, 2008, Thm 11.10) makes the whole matching acyclic, the empty
    face included.  When every critical cell lies in one dimension d, the
    Morse complex has no differential (Forman, Adv. Math. 134, 1998): over
    every field the reduced Betti number in dimension d is the number of
    critical cells and all others vanish.  In two or more dimensions the
    cells bound the Betti numbers from above but do not decide them.
    """
    cells = cpx.clique_walk().cells
    sizes = Counter(m.bit_count() for m in cells)
    if len(sizes) > 1:
        spread = ", ".join(f"{n} in dimension {k - 1}" for k, n in sorted(sizes.items()))
        raise InvariantViolationError(
            f"the matching tree's critical cells lie in two or more dimensions "
            f"({spread}), so they do not decide the homology"
        )
    return cells


def betti_numbers(cpx: SimplicialComplex, field: str = "gf2") -> BettiVector:
    """Reduced Betti numbers of the complex over the chosen field.

    Counts the critical cells :func:`_reduce_cells` leaves in their one
    dimension, which are the Betti numbers over every field.  An
    Euler-characteristic cross-check against the face counts is enforced.
    """
    if field not in FIELDS:
        raise ValueError(f"unknown field {field!r}; expected one of {FIELDS}")
    f = cpx.f_vector_counts()
    dim = len(f) - 2
    sizes = Counter(m.bit_count() for m in _reduce_cells(cpx))
    vec = BettiVector(field, dim, tuple(sizes[n] for n in range(dim + 2)))
    euler_faces = sum((-1) ** (k % 2) * f[k + 1] for k in range(-1, dim + 1))
    euler_betti = sum((-1) ** (k % 2) * vec.tilde(k) for k in range(-1, dim + 1))
    if euler_faces != euler_betti:
        raise InvariantViolationError(
            f"Euler check failed: faces give {euler_faces}, Betti give {euler_betti}"
        )
    return vec


# -- reports ----------------------------------------------------------------


def _sphere_count(a: int, b: int) -> int:
    """C(b, a)/b, the number of spheres in the wedge."""
    return _exact_div(comb(b, a), b, f"C({b},{a})/{b}")


@dataclass(frozen=True)
class PartitionReport:
    b: int
    ok: bool
    pairs: tuple[tuple[int, int, int], ...]  # (a, |adm(a,b)|, |adm(b-a,b)|)
    total_diagonals: int
    notes: tuple[str, ...]


def alexander_partition_check(b: int) -> PartitionReport:
    """For every a coprime to b, the admissible sets of (a, b) and (b-a, b)
    split the diagonal set of the (b+1)-gon in two."""
    if b < 3:
        raise ValueError("need b >= 3 for the polygon to have diagonals")
    everything = set(all_diagonals(b))
    rows = []
    notes = []
    ok = True
    for a in range(1, b):
        if gcd(a, b) != 1:
            continue
        mine = set(all_admissible_diagonals(a, b))
        dual = set(all_admissible_diagonals(b - a, b))
        rows.append((a, len(mine), len(dual)))
        if mine & dual:
            ok = False
            notes.append(f"a={a}: admissible sets intersect")
        if mine | dual != everything:
            ok = False
            notes.append(f"a={a}: admissible sets do not cover all diagonals")
    return PartitionReport(b, ok, tuple(rows), len(everything), tuple(notes))


@dataclass(frozen=True)
class DualityReport:
    a: int
    b: int
    ok: bool
    expected_rank: int
    rank_left: int
    rank_right: int
    sphere_dim: int
    notes: tuple[str, ...]


def alexander_duality_check(
    a: int,
    b: int,
    *,
    ass_left: SimplicialComplex,
    ass_right: SimplicialComplex,
) -> DualityReport:
    """Rank-level shadow of Alexander duality between (a, b) and (b-a, b).

    Checks b~_{a-2} of the first model equals b~_{b-a-2} of the second,
    both equal to C(b, a)/b, inside the ambient (b-3)-sphere where the
    dimensions a-2 and b-a-2 are complementary.  These are homology-rank
    surrogates for the topological duality statement, which is not
    mechanized here; the vertex-partition half lives in
    :func:`alexander_partition_check`.  ``ass_left`` and ``ass_right`` are
    the lattice-path models of the two pairs.
    """
    check_slope_pair(a, b)
    expected = _sphere_count(a, b)
    left = betti_numbers(ass_left, "gf2").tilde(a - 2)
    right = betti_numbers(ass_right, "gf2").tilde(b - a - 2)
    sphere_dim = b - 3
    notes = [
        "rank-level surrogate: compares reduced Betti ranks, not the "
        "deformation retraction itself",
        f"complementary dimensions: ({a}-2) + ({b - a}-2) = {sphere_dim} - 1",
    ]
    ok = left == right == expected and (a - 2) + (b - a - 2) == sphere_dim - 1
    return DualityReport(a, b, ok, expected, left, right, sphere_dim, tuple(notes))
