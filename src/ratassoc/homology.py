"""Reduced simplicial homology by exact boundary-matrix rank, plus the
Alexander-duality reports.

Betti numbers are reduced: the empty face is a genuine cell in dimension
-1, every vertex has it on its boundary, and the rank of reduced homology
in dimension -1 is nonzero only for the complex whose sole face is empty.

Two rank backends run over the same chain data: bit-packed Gaussian
elimination over GF(2), and division-free integer elimination with gcd
normalization over the rationals.  Agreement of the two Betti vectors
rules out 2-torsion at this scale.

Large complexes are first shrunk (:func:`_reduce_cells`) to the critical
cells of a matching tree.  One walk over the graph the complex is the
clique complex of, :meth:`SimplicialComplex.clique_walk`, gives both those
cells and the face counts the Euler check reads.  The complex keeps the
walk, so neither needs its face set, and both fields read the same walk.
When the critical cells all lie in one dimension, discrete Morse theory
makes them the homology, over every field, and the rank step sees only
them.  Otherwise every cell is kept and the exact ranks decide.  Either
way an Euler-characteristic check against the face counts closes the
computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, gcd
from typing import Collection

from .complexes import SimplicialComplex, _exact_div, bits_of
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


def _reduce_cells(cpx: SimplicialComplex) -> Collection[int]:
    """A cell set with the same reduced homology as ``cpx``: its critical
    cells when they decide it, else all of its faces, ``cpx.mask_set``
    itself, not to be mutated.

    The critical cells are read from :meth:`SimplicialComplex.clique_walk`,
    which the complex walks once over its graph and keeps, so no face set
    is built unless the cells lie in two or more dimensions.

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
    critical cells and all others vanish, so the critical cells stand in for
    the complex.  Critical cells in two or more dimensions keep every cell.
    """
    walk = cpx.clique_walk()
    if len({m.bit_count() for m in walk.cells}) > 1:
        return cpx.mask_set
    return walk.cells


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
        raise ValueError(f"unknown field {field!r}; expected one of {FIELDS}")


def _build_matrices(
    cells: Collection[int],
) -> tuple[dict[int, list[int]], dict[int, BoundaryMatrix]]:
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


def betti_numbers(cpx: SimplicialComplex, field: str = "gf2") -> BettiVector:
    """Reduced Betti numbers of the complex over the chosen field.

    Ranks the cells :func:`_reduce_cells` leaves: the critical cells of the
    matching tree when they lie in one dimension, where the ranks are zero
    and the Betti numbers are their counts, and every cell otherwise.  An
    Euler-characteristic cross-check against the face counts is enforced.
    """
    if field not in FIELDS:
        raise ValueError(f"unknown field {field!r}; expected one of {FIELDS}")
    f = cpx.f_vector_counts()
    dim = len(f) - 2
    by_dim, mats = _build_matrices(_reduce_cells(cpx))
    ranks = {k: mat.rank(field) for k, mat in mats.items()}
    values = []
    for k in range(-1, dim + 1):
        n_k = len(by_dim.get(k, []))
        values.append(n_k - ranks.get(k, 0) - ranks.get(k + 1, 0))
    vec = BettiVector(field, dim, tuple(values))
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
        dual = set(all_admissible_diagonals(b - a, b)) if b - a > 0 else set()
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
