"""The obstruction graph: pairs blocked from the lattice-path model.

Vertices are the admissible diagonals; {d, d'} is an edge exactly when the
two diagonals do not cross but no Dyck path facet contains both.  Edges
always share their larger endpoint (checked at build time as a hard
invariant), so the graph splits into per-apex components, and the whole
graph is a truncation-translate of the apex-b component.

The total edge order compares lesser diagonals by (j, i), then greater
ones; the collapse schedule consumes edges in descending order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .errors import AdmissibilityViolatedError, InvariantViolationError
from .membership import is_face_of_ass
from .polygon import (
    Diagonal,
    admissible_by_ends,
    all_admissible_diagonals,
    check_slope_pair,
    crosses,
)


@dataclass(frozen=True)
class ObstructionEdge:
    """An obstructing pair, stored with lesser < greater in the (j, i) order.

    Carries its slope parameter ``a`` so admissibility of completions can
    be checked without the ambient graph; ``b`` comes from the diagonals.
    """

    a: int
    lesser: Diagonal
    greater: Diagonal

    def __post_init__(self):
        if self.lesser.b != self.greater.b:
            raise ValueError("edge endpoints live on different polygons")
        if self.lesser.key() >= self.greater.key():
            raise ValueError(f"edge {self} is not ordered by (j, i)")

    @property
    def b(self) -> int:
        return self.lesser.b

    @property
    def apex(self) -> int:
        """The shared larger endpoint of the two diagonals."""
        return self.greater.j

    def sort_key(self) -> tuple[int, int, int, int]:
        return (*self.lesser.key(), *self.greater.key())

    def pair(self) -> frozenset[Diagonal]:
        return frozenset((self.lesser, self.greater))

    def text(self) -> str:
        return f"{self.lesser.text()} {self.greater.text()}"

    def __str__(self) -> str:
        return "{%s, %s}" % (self.lesser.text(), self.greater.text())


@dataclass(frozen=True)
class ObstructionGraph:
    """Obstruction graph (or one of its apex components)."""

    a: int
    b: int
    vertices: tuple[Diagonal, ...]
    edges: tuple[ObstructionEdge, ...]

    @cached_property
    def _edge_pairs(self) -> frozenset[frozenset[Diagonal]]:
        return frozenset(e.pair() for e in self.edges)

    def has_edge(self, d1: Diagonal, d2: Diagonal) -> bool:
        return frozenset((d1, d2)) in self._edge_pairs

    def component(self, m: int) -> "ObstructionGraph":
        """The apex-m piece: vertices with larger endpoint m, edges with apex m."""
        if not 0 <= m <= self.b:
            raise ValueError(f"apex {m} outside 0..{self.b}")
        verts = tuple(d for d in self.vertices if d.j == m)
        edges = tuple(e for e in self.edges if e.apex == m)
        return ObstructionGraph(self.a, self.b, verts, edges)

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "a": self.a,
            "b": self.b,
            "vertices": [[d.i, d.j] for d in self.vertices],
            "edges": [
                [[e.lesser.i, e.lesser.j], [e.greater.i, e.greater.j]] for e in self.edges
            ],
        }

    def to_dot(self) -> str:
        """Undirected DOT output with one cluster per apex."""
        lines = [f'graph "obstruction_{self.a}_{self.b}" {{']
        for m in range(self.b + 1):
            comp = self.component(m)
            if not comp.vertices:
                continue
            lines.append(f"  subgraph cluster_{m} {{")
            lines.append(f'    label="apex {m}";')
            for d in comp.vertices:
                lines.append(f'    "{d.text()}";')
            for e in comp.edges:
                lines.append(f'    "{e.lesser.text()}" -- "{e.greater.text()}";')
            lines.append("  }")
        lines.append("}")
        return "\n".join(lines) + "\n"


def build_obstruction_graph(a: int, b: int) -> ObstructionGraph:
    """Brute-force construction over all noncrossing admissible pairs.

    Each candidate pair goes through the membership test; the shared larger
    endpoint property is asserted on every edge found rather than assumed.
    """
    check_slope_pair(a, b)
    vertices = all_admissible_diagonals(a, b)
    edges = []
    for d1, d2 in combinations(vertices, 2):
        if crosses(d1, d2):
            continue
        if is_face_of_ass((d1, d2), a, b):
            continue
        if d1.j != d2.j:
            raise InvariantViolationError(
                f"obstructing pair {d1}, {d2} does not share its larger endpoint"
            )
        lesser, greater = sorted((d1, d2), key=lambda d: d.key())
        edges.append(ObstructionEdge(a, lesser, greater))
    edges.sort(key=ObstructionEdge.sort_key)
    return ObstructionGraph(a, b, vertices, tuple(edges))


def wedge_completion(edge: ObstructionEdge) -> Diagonal:
    """For an obstructing wedge {i-k, j-k}, the closing chord i-j.

    The closure is guaranteed admissible for obstructing edges; a failure
    here means the caller handed in a non-edge or hit an internal bug.
    """
    i, j = edge.lesser.i, edge.greater.i
    p = admissible_by_ends(edge.a, edge.b).get((i, j))
    if p is None:
        raise AdmissibilityViolatedError(
            f"completion {i}-{j} of {edge} is not an admissible diagonal"
        )
    return all_admissible_diagonals(edge.a, edge.b)[p]


def crossing_indices(edge: ObstructionEdge, graph: ObstructionGraph) -> list[int]:
    """Indices s strictly between the lesser endpoints such that s-k is
    admissible and {s-k, j-k} is not an edge of the graph; increasing."""
    i, j, k = edge.lesser.i, edge.greater.i, edge.apex
    ground, by_ends = all_admissible_diagonals(edge.a, edge.b), admissible_by_ends(edge.a, edge.b)
    return [
        s for s in range(i + 1, j)
        if (s, k) in by_ends and not graph.has_edge(ground[by_ends[s, k]], edge.greater)
    ]


def half_wedge_completion(edge: ObstructionEdge, s: int, graph: ObstructionGraph) -> Diagonal:
    """For an obstructing wedge {i-k, j-k} and a crossing index s, the chord
    i-s, asserted admissible; also asserts that {i-k, s-k} is itself an
    obstructing edge, which the narrower-wedge result guarantees."""
    i, k = edge.lesser.i, edge.apex
    ground, by_ends = all_admissible_diagonals(edge.a, edge.b), admissible_by_ends(edge.a, edge.b)
    p = by_ends.get((i, s))
    if p is None:
        raise AdmissibilityViolatedError(
            f"half completion {i}-{s} of {edge} is not an admissible diagonal"
        )
    sk = by_ends.get((s, k))
    if sk is None or not graph.has_edge(edge.lesser, ground[sk]):
        raise AdmissibilityViolatedError(
            f"expected {{{edge.lesser.text()}, {s}-{k}}} to be an obstructing edge"
        )
    return ground[p]
