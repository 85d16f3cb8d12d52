"""Simplicial complexes over diagonal ground sets, and the two rational
associahedron models.

Both models are flag, so a complex is its graph: the adjacency rows of its
1-skeleton and its vertex mask, over a canonically ordered ground set
(diagonals sorted by (j, i)), and its faces are the graph's cliques, as
integer bitmasks over that order.  ``build_hat_ass`` gives the noncrossing
model, the clique complex of the noncrossing pairs of admissible
diagonals, whose rows ``polygon.admissible_compatibility`` holds once per
pair.  ``build_ass`` gives the lattice-path model, whose facets are the
laser sets of Dyck paths, as the clique complex of the Dyck-facet
skeleton, checked; ``lattice.enumerate_dyck_paths`` gives both the facet
masks and the skeleton from one walk, with no path object.  The second is
a subcomplex of the first, pure of dimension a-2, with Kirkman/Narayana
face counts; the first need not be.

Three walks over a graph answer what is asked of a model:
``clique_walk``, the f-vector and the critical cells of a matching tree,
for homology; ``maximal_cliques``, the facets and the lattice-path
model's flag proof; and ``clique_complex``, the face set, built only
when something reads it (see :class:`SimplicialComplex`).  The first two
run on an explicit stack and memoise a state that fixes all that lies
below it: ``clique_walk`` its free set, and ``maximal_cliques`` its
candidates and excluded vertices, whose union is the common
neighbourhood of the clique grown so far.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import CapExceededError, InvariantViolationError, NonIntegralError
from .lattice import enumerate_dyck_paths
from .polygon import Diagonal, admissible_compatibility, all_admissible_diagonals, check_slope_pair

DEFAULT_FACE_CAP = 10**7
DEFAULT_MAX_B = 14


def guard_b(b: int, max_b: int) -> None:
    """Refuse a width b over the size guard ``max_b``."""
    if b > max_b:
        raise CapExceededError(f"b = {b} exceeds the size guard {max_b}")


def _guarded_ground(a: int, b: int, max_b: int) -> tuple[Diagonal, ...]:
    """Check the slope pair and the size guard; returns the ground set."""
    check_slope_pair(a, b)
    guard_b(b, max_b)
    return all_admissible_diagonals(a, b)


def face_key(face: Iterable[Diagonal]) -> tuple[tuple[int, int], ...]:
    """Canonical encoding of a face: its diagonals' (j, i) keys, sorted."""
    return tuple(sorted(d.key() for d in face))


def face_text(face: Iterable[Diagonal]) -> str:
    """Text form like ``"0-4,2-4"`` in canonical order."""
    return ",".join(f"{i}-{j}" for j, i in face_key(face))


def parse_face(text: str, b: int) -> frozenset[Diagonal]:
    """Parse the text form produced by :func:`face_text`; "" is the empty face."""
    text = text.strip()
    if not text:
        return frozenset()
    return frozenset(Diagonal.parse(part.strip(), b) for part in text.split(","))


def face_to_lists(face: Iterable[Diagonal]) -> list[list[int]]:
    """JSON form: [[i, j], ...] in canonical order."""
    return [[i, j] for j, i in face_key(face)]


class SimplicialComplex:
    """The clique complex of a graph over an ordered ground set of diagonals.

    Both models are flag, so a complex is its graph: ``adj``, the adjacency
    rows of its 1-skeleton, each without its own bit, and ``vertices``, its
    vertex mask, over a canonically sorted ground set; a face is a clique,
    as a bitmask over that order.  Its f-vector, dimension and homology
    cells come from one :func:`clique_walk`, kept in one slot, its facets
    from :func:`maximal_cliques`, and its face set is filled, by
    :func:`clique_complex`, only when something reads it: ``mask_set``,
    ``faces`` and ``to_json(include_faces=True)``.
    ``walk`` and ``maximal``, when the builder already has them, are the
    graph's :func:`clique_walk` and :func:`maximal_cliques`, in any order.

    Instances behave as immutable values.  ``collapse_schedule`` and
    ``verify_certificate`` read the start complex without changing it: the
    complex they collapse is a predicate on its graph.
    """

    __slots__ = (
        "ground", "a", "b", "_bit", "_graph", "_masks", "_facet_masks", "_walk"
    )

    def __init__(
        self,
        ground: tuple[Diagonal, ...],
        adj: Sequence[int],
        vertices: int,
        a: int | None,
        b: int | None,
        *,
        walk: CliqueWalk | None = None,
        maximal: list[int] | None = None,
    ):
        self.ground, self.a, self.b = ground, a, b
        self._bit = {d: 1 << i for i, d in enumerate(ground)}
        self._graph, self._walk, self._facet_masks = (adj, vertices), walk, maximal
        self._masks = None

    def _mask_of(self, face: Iterable[Diagonal]) -> int:
        m = 0
        for d in face:
            m |= self._bit[d]
        return m

    def _face_of(self, mask: int) -> frozenset[Diagonal]:
        return frozenset(self.ground[p] for p in bit_positions(mask))

    # -- queries ---------------------------------------------------------

    @property
    def n_faces(self) -> int:
        return sum(self.f_vector_counts())

    @property
    def dim(self) -> int:
        """Max face dimension; -1 when only the empty face is present."""
        return len(self.f_vector_counts()) - 2

    def faces(self) -> Iterator[frozenset[Diagonal]]:
        """All faces, empty face included, in mask order."""
        for m in sorted(self.mask_set):
            yield self._face_of(m)

    @property
    def mask_set(self) -> set[int]:
        """The internal mask set, built from the graph on first read; not to
        be mutated."""
        if self._masks is None:
            self._masks = clique_complex(*self._graph)
        return self._masks

    def _compute_facet_masks(self) -> tuple[int, ...]:
        """The facets in (size, mask) order.  Until the first read,
        ``_facet_masks`` is None or a list of them in any order."""
        facets = self._facet_masks
        if type(facets) is not tuple:
            if facets is None:
                facets = maximal_cliques(*self._graph)
            facets.sort()
            facets.sort(key=int.bit_count)
            self._facet_masks = facets = tuple(facets)
        return facets

    def facets(self) -> list[frozenset[Diagonal]]:
        """Inclusion-maximal faces, smallest dimension first."""
        return [self._face_of(m) for m in self._compute_facet_masks()]

    def f_vector_counts(self) -> tuple[int, ...]:
        """(f_-1, f_0, ..., f_dim): the :meth:`clique_walk` counts."""
        return self.clique_walk().counts

    def clique_walk(self) -> CliqueWalk:
        """The :func:`clique_walk` of the complex's graph, walked once and
        kept."""
        if self._walk is None:
            self._walk = clique_walk(*self._graph)
        return self._walk

    def __repr__(self) -> str:
        tag = f"a={self.a}, b={self.b}, " if self.a is not None else ""
        return f"SimplicialComplex({tag}{len(self.ground)} vertices, {self.n_faces} faces)"

    # -- serialization ---------------------------------------------------

    def to_json(self, include_faces: bool = False) -> dict:
        doc = {
            "schema": 1,
            "a": self.a,
            "b": self.b,
            "ground": [[d.i, d.j] for d in self.ground],
            "facets": [face_to_lists(f) for f in self.facets()],
        }
        if include_faces:
            doc["faces"] = [face_to_lists(f) for f in self.faces()]
        return doc


def bits_of(mask: int) -> Iterator[int]:
    """The set bits of ``mask`` as single-bit integers, lowest first."""
    while mask:
        bit = mask & -mask
        mask ^= bit
        yield bit


def bit_positions(mask: int) -> tuple[int, ...]:
    """Ground indices of the set bits of ``mask``, lowest first."""
    return tuple(bit.bit_length() - 1 for bit in bits_of(mask))


# -- walks over a graph ----------------------------------------------------
# Each takes the adjacency rows ``adj`` of a graph, which exclude their own
# bit, and its vertex mask ``vertices``; its cliques, the empty one
# included, are the faces of its clique complex.


class CliqueWalk(NamedTuple):
    counts: tuple[int, ...]  # cliques of each size 0, 1, 2, ...: the f-vector
    cells: tuple[int, ...]  # the matching tree's critical cells, in walk order


def clique_walk(adj: Sequence[int], vertices: int) -> CliqueWalk:
    """The number of cliques of each size and the critical cells of the
    matching tree of Bousquet-Melou, Linusson and Nevo (J. Algebraic
    Combin. 27, 2008) on the clique complex, without listing a clique.

    Over a free set S, read the cliques of the graph on S as a polynomial
    P(S) in t, one t per vertex, and let C(S) be the cliques the tree
    leaves unmatched.  A cone apex c of S, a vertex adjacent to all the
    others, gives P(S) = (1 + t) P(S - c); toggling c matches every clique,
    so C(S) is empty.  With no free vertex left, P = 1 and the empty
    clique is critical.  Otherwise the top vertex p of S splits it:
    P(S) = P(S - p) + t P(S & adj[p]), and C(S) is C(S & adj[p]) with p
    added, then C(S - p).  The walk memoises both on the free set; a stack
    entry scans its free set for apexes once and keeps the split for its
    second visit, when both halves are known.
    """
    memo: dict[int, tuple[list[int], tuple[int, ...]]] = {}
    stack: list = [vertices]
    while stack:
        entry = stack.pop()
        if type(entry) is int:
            free = entry
            if free in memo:
                continue
            apexes, core, rest = 0, free, free
            while rest:
                bit = rest & -rest
                rest ^= bit
                if free & ~adj[bit.bit_length() - 1] == bit:
                    core ^= bit
                    apexes += 1
            if not core:
                memo[free] = ([comb(apexes, k) for k in range(apexes + 1)], () if apexes else (0,))
                continue
            top = core.bit_length() - 1
            without, within = core ^ 1 << top, core & adj[top]
            stack += ((free, apexes, top, without, within), without, within)
            continue
        free, apexes, top, without, within = entry
        poly, low_cells = memo[without]
        high, high_cells = memo[within]
        poly = poly + [0] * (len(high) + 1 - len(poly))
        for k, c in enumerate(high, 1):
            poly[k] += c
        for _ in range(apexes):
            poly = [x + y for x, y in zip(poly + [0], [0] + poly)]
        bit = 1 << top
        memo[free] = (poly, () if apexes else tuple([c | bit for c in high_cells]) + low_cells)
    poly, cells = memo[vertices]
    return CliqueWalk(tuple(poly), cells)


def maximal_cliques(adj: Sequence[int], vertices: int) -> list[int]:
    """The maximal cliques, each once, by Bron-Kerbosch with Tomita's
    pivot (Tomita, Tanaka and Takahashi, TCS 363, 2006): a node grows the
    clique R from candidates P, with X the vertices whose cliques are
    already listed; it branches only on the candidates outside the
    neighbourhood of a pivot in P | X with the most neighbours in P.  R is
    maximal when P and X are both empty: the empty clique when
    ``vertices`` is 0.

    The search below a node depends on its state (P, X) alone, not on R:
    P | X is the common neighbourhood of R, the pivot is read off P and X,
    and a branch on v narrows both to adj[v].  So the extensions of a node,
    the sets S with R | S maximal, are memoised on its state, exactly, in
    two passes over an explicit stack.  The first visits each state once,
    picks its pivot, records its branches and counts its readers, the
    branches that lead to it.  The second, in post-order, lists the
    extensions of the root and of each state with two readers or more:
    it walks down the branches, ORing their bits on the way, expands a
    state read once where it stands, takes a listed state's extensions
    from its list, and drops that list once its last reader has read it.
    A state read once is thus walked once and never listed, and what is
    held besides the states is the output and the lists still to be read.
    A branch to an empty P is a leaf: one extension, the branch vertex,
    when its X is empty too, else none."""
    if not vertices:
        return [0]
    # a state's node: [its branches (bit, node or None for a maximal leaf),
    # or None until visited; its readers; its list, if it has one]
    root: list = [None, 0, None]
    nodes = {(vertices, 0): root}
    order = []
    stack: list = [(vertices, 0)]
    while stack:
        state = stack.pop()
        node = nodes[state] if type(state) is tuple else None
        if node is None:  # the node's second visit: every state below is done
            order.append(state)
            continue
        if node[0] is not None:
            continue
        cand, done = state
        most, rest = -1, cand | done
        while rest:
            u = rest.bit_length() - 1
            rest ^= 1 << u
            n = (cand & adj[u]).bit_count()
            if n > most:
                most, pivot_row = n, adj[u]
        out = node[0] = []
        stack.append(node)
        branch = cand & ~pivot_row
        while branch:
            v = branch.bit_length() - 1
            bit = 1 << v
            branch ^= bit
            row = adj[v]
            child = (cand & row, done & row)
            if child[0]:
                below = nodes.get(child)
                if below is None:
                    below = nodes[child] = [None, 0, None]
                if below[0] is None:  # again, if pushed, to finish before ours
                    stack.append(child)
                below[1] += 1
                out.append((bit, below))
            elif not child[1]:
                out.append((bit, None))
            cand ^= bit
            done |= bit
    for node in order:
        if node[1] == 1:  # read once: its reader expands it
            continue
        found = []
        stack = [(node, 0)]  # (a node to expand, the bits of the branches above it)
        while stack:
            top, above = stack.pop()
            for bit, below in top[0]:
                bit |= above
                if below is None:
                    found.append(bit)
                elif below[2] is None:  # read once; a list goes only after its last read
                    stack.append((below, bit))
                else:
                    found += [s | bit for s in below[2]]
                    below[1] -= 1
                    if not below[1]:
                        below[2] = None
        node[2] = found
    return root[2]


def clique_complex(adj: Sequence[int], vertices: int) -> set[int]:
    """Every clique, as a mask set.  A clique grows only by candidates below
    its lowest vertex and adjacent to all of it, so each is added once."""
    faces = {0}
    stack = [(0, vertices)]  # (clique, candidates)
    while stack:
        mask, cand = stack.pop()
        while cand:
            top = cand.bit_length() - 1
            cand ^= 1 << top
            child = mask | 1 << top
            faces.add(child)
            below = cand & adj[top]
            if below:
                stack.append((child, below))
    return faces


# -- builders -------------------------------------------------------------


def build_hat_ass(
    a: int,
    b: int,
    *,
    max_faces: int = DEFAULT_FACE_CAP,
    max_b: int = DEFAULT_MAX_B,
) -> SimplicialComplex:
    """The noncrossing model: the clique complex of the compatibility graph,
    refused when its exact face count by :func:`clique_walk` passes
    ``max_faces``.  The noncrossing sets of all diagonals contain the model,
    so the walk is needed only when they do not fit under the cap."""
    ground = _guarded_ground(a, b, max_b)
    compat, vertices = admissible_compatibility(a, b), (1 << len(ground)) - 1
    walk = None
    if polygon_dissections(b) > max_faces:
        walk = clique_walk(compat, vertices)
        if sum(walk.counts) > max_faces:
            what = f"noncrossing family of ({a},{b})"
            raise CapExceededError(f"{what} exceeds the face cap {max_faces}")
    return SimplicialComplex(ground, compat, vertices, a, b, walk=walk)


def build_ass(
    a: int,
    b: int,
    *,
    max_faces: int = DEFAULT_FACE_CAP,
    max_b: int = DEFAULT_MAX_B,
) -> SimplicialComplex:
    """The lattice-path model: the clique complex of the Dyck-facet skeleton,
    checked.  The facet masks ``enumerate_dyck_paths`` lists, with their
    skeleton, must biject with the Dyck paths and be the skeleton's maximal
    cliques (:func:`maximal_cliques`, which expands each search state once,
    however many ways reach it): each face is then a clique and each clique
    lies in a facet, so the model is flag.  The cliques it lists become the
    complex's facets, sorted on first read.
    Refused before any path is listed when its Kirkman face count passes
    ``max_faces``."""
    ground = _guarded_ground(a, b, max_b)
    predicted = sum(rational_kirkman(a, b, i) for i in range(1, a + 1))
    if predicted > max_faces:
        raise CapExceededError(f"({a},{b}) has {predicted} faces, over the cap {max_faces}")
    facets, cat = enumerate_dyck_paths(a, b), rational_catalan(a, b)  # cat <= predicted
    facet_masks = set(facets)
    if not len(facets) == len(facet_masks) == cat:
        raise InvariantViolationError(
            f"({a},{b}) facets do not biject with Dyck paths: {len(facets)} listed,"
            f" {len(facet_masks)} distinct, Cat = {cat}"
        )
    adj, vertices = facets.adj, facets.vertices
    maximal = maximal_cliques(adj, vertices)
    if set(maximal) != facet_masks:
        raise InvariantViolationError(f"({a},{b}): skeleton cliques are not the Dyck facets")
    return SimplicialComplex(ground, adj, vertices, a, b, maximal=maximal)


# -- counting -------------------------------------------------------------


def _exact_div(num: int, den: int, what: str) -> int:
    q, r = divmod(num, den)
    if r:
        raise NonIntegralError(f"{what}: {num} is not divisible by {den}")
    return q


def rational_catalan(a: int, b: int) -> int:
    """C(a+b, a) / (a+b), the facet count of the lattice-path model."""
    check_slope_pair(a, b)
    return _exact_div(comb(a + b, a), a + b, f"catalan({a},{b})")


def polygon_dissections(b: int) -> int:
    """Sum over k of C(b-2, k) C(b+k, k) / (k+1), the number of sets of
    pairwise noncrossing diagonals of the (b+1)-gon (Kirkman-Cayley)."""
    return sum(_exact_div(comb(b - 2, k) * comb(b + k, k), k + 1, f"dissections({b})")
               for k in range(b - 1))


def rational_kirkman(a: int, b: int, i: int) -> int:
    """C(a, i) * C(b+i-1, i-1) / a, the number of faces with i-1 diagonals."""
    check_slope_pair(a, b)
    if not 1 <= i <= a:
        raise ValueError(f"need 1 <= i <= a, got i={i}")
    return _exact_div(comb(a, i) * comb(b + i - 1, i - 1), a, f"kirkman({a},{b},{i})")


def rational_narayana(a: int, b: int, i: int) -> int:
    """C(a, i) * C(b-1, i-1) / a, the h-vector entries of the path model."""
    check_slope_pair(a, b)
    if not 1 <= i <= a:
        raise ValueError(f"need 1 <= i <= a, got i={i}")
    return _exact_div(comb(a, i) * comb(b - 1, i - 1), a, f"narayana({a},{b},{i})")


@dataclass(frozen=True)
class FHVector:
    """Face and h-count vectors of a complex of dimension d.

    ``f`` is (f_-1, f_0, ..., f_d) and ``h`` is (h_0, ..., h_{d+1}),
    related by h_k = sum_i (-1)^{k-i} C(d+1-i, k-i) f_{i-1}.  Equivalently
    sum_k h_k t^{D-k} = sum_i f_{i-1} (t-1)^{D-i} with D = d+1, which pins
    the top entry: sum(h) = f_d.  Only ``f`` is passed in; ``h`` is
    computed from it, so a mismatched pair cannot be constructed.  The void
    complex, with no face at all (dim -2), has f = h = ().
    """

    f: tuple[int, ...]
    h: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        cap = len(self.f) - 1
        h = tuple(
            sum((-1) ** (k - i) * comb(cap - i, k - i) * self.f[i] for i in range(k + 1))
            for k in range(cap + 1)
        )
        if self.f and sum(h) != self.f[-1]:
            raise InvariantViolationError("h-vector top-term consistency failed")
        object.__setattr__(self, "h", h)

    @classmethod
    def of(cls, cpx: SimplicialComplex) -> "FHVector":
        return cls(cpx.f_vector_counts())
