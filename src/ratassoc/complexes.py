"""Simplicial complexes over diagonal ground sets, and the two rational
associahedron models.

Faces are stored as integer bitmasks over a canonically ordered ground set
(diagonals sorted by (j, i)), so membership, subset tests, and deletions
are single integer operations.  The empty face (mask 0) is always present.

One kernel, ``clique_complex``, builds both flag models.  ``build_hat_ass``
gives the noncrossing model, the clique complex of the noncrossing pairs
of admissible diagonals, whose rows ``polygon.admissible_compatibility``
holds once per pair.  ``build_ass`` gives the lattice-path model, whose
facets are the laser sets of Dyck paths, as the clique complex of the
Dyck-facet skeleton, checked; each facet is the ground mask
``DyckPath.facet`` that ``lattice.enumerate_dyck_paths`` fires along its
walk.  The second is a subcomplex of the first, pure of
dimension a-2, with Kirkman/Narayana face counts; the first need not be.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from math import comb
from typing import Iterable, Iterator, NamedTuple

from .errors import CapExceededError, InvariantViolationError, NonIntegralError
from .lattice import enumerate_dyck_paths
from .polygon import Diagonal, admissible_compatibility, all_admissible_diagonals, check_slope_pair

DEFAULT_FACE_CAP = 10**7
DEFAULT_MAX_B = 14


def guard_b(b: int, max_b: int) -> None:
    """Refuse a width b over the size guard ``max_b``."""
    if b > max_b:
        raise CapExceededError(f"b = {b} exceeds the size guard {max_b}")


def _guarded_ground(a: int, b: int, max_b: int) -> tuple[tuple[Diagonal, ...], int]:
    """Check the slope pair and the size guard; returns the ground set and
    the lattice-path model's face count by the Kirkman numbers."""
    check_slope_pair(a, b)
    guard_b(b, max_b)
    return all_admissible_diagonals(a, b), sum(rational_kirkman(a, b, i) for i in range(1, a + 1))


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
    """Explicit face family over an ordered ground set of diagonals.

    The ground set is canonically sorted at construction; every face is a
    bitmask over that order.  Instances behave as immutable values, except
    that ``collapse_schedule`` and ``verify_certificate`` collapse the face
    set of the start complex they are given in place, through
    :meth:`shrinking_mask_set`.
    """

    __slots__ = ("ground", "a", "b", "_bit", "_masks", "_facet_masks", "_f_counts", "_reduced")

    def __init__(
        self,
        ground: Iterable[Diagonal],
        faces: Iterable[Iterable[Diagonal]],
        a: int | None = None,
        b: int | None = None,
    ):
        ground_sorted = tuple(sorted(set(ground), key=lambda d: d.key()))
        b = b if b is not None else (ground_sorted[0].b if ground_sorted else None)
        self._adopt(ground_sorted, set(), a, b)
        self._masks = _downward_closure({self._mask_of(face) for face in faces})

    @classmethod
    def _trusted(
        cls,
        ground: tuple[Diagonal, ...],
        masks: set[int],
        a: int | None,
        b: int | None,
        maximal: Iterable[int] | None = None,
    ) -> "SimplicialComplex":
        """Internal constructor for mask sets already closed downward, over a
        canonically sorted ground set; ``maximal``, when the caller already
        has them, are the maximal masks."""
        self = object.__new__(cls)
        self._adopt(ground, masks, a, b)
        if maximal is not None:
            self._facet_masks = sorted(maximal, key=lambda m: (m.bit_count(), m))
        return self

    def _adopt(self, ground: tuple[Diagonal, ...], masks: set[int], a: int | None, b: int | None):
        self.ground, self.a, self.b, self._masks = ground, a, b, masks
        self._bit = {d: 1 << i for i, d in enumerate(ground)}
        self.shrinking_mask_set()

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
        return len(self._masks)

    @property
    def dim(self) -> int:
        """Max face dimension; -1 when only the empty face is present."""
        if not self._masks:
            return -2  # void complex, reachable only by collapsing everything
        return max(m.bit_count() for m in self._masks) - 1

    def has_face(self, face: Iterable[Diagonal]) -> bool:
        try:
            return self._mask_of(face) in self._masks
        except KeyError:
            return False

    __contains__ = has_face

    def faces(self) -> Iterator[frozenset[Diagonal]]:
        """All faces, empty face included, in mask order."""
        for m in sorted(self._masks):
            yield self._face_of(m)

    @property
    def mask_set(self) -> set[int]:
        """The internal mask set, not to be mutated: see :meth:`shrinking_mask_set`."""
        return self._masks

    def shrinking_mask_set(self) -> set[int]:
        """The internal mask set, handed out for the collapse and the replay
        to remove faces from in place.  Drops everything derived from it,
        which would go stale: the facets, the f-vector and the cells that
        ``homology.betti_numbers`` keeps."""
        self._facet_masks = self._f_counts = self._reduced = None
        return self._masks

    def _compute_facet_masks(self) -> list[int]:
        if self._facet_masks is None:
            full = (1 << len(self.ground)) - 1
            facets = []
            for m in self._masks:
                rest = full & ~m
                maximal = True
                while rest:
                    bit = rest & -rest
                    rest ^= bit
                    if (m | bit) in self._masks:
                        maximal = False
                        break
                if maximal:
                    facets.append(m)
            facets.sort(key=lambda m: (m.bit_count(), m))
            self._facet_masks = facets
        return self._facet_masks

    def facets(self) -> list[frozenset[Diagonal]]:
        """Inclusion-maximal faces, smallest dimension first."""
        return [self._face_of(m) for m in self._compute_facet_masks()]

    def f_vector_counts(self) -> tuple[int, ...]:
        """(f_-1, f_0, ..., f_dim) by direct counting, in one pass, once per
        face set."""
        if self._f_counts is None:
            sizes = Counter(map(int.bit_count, self._masks))
            self._f_counts = tuple(sizes[k] for k in range(max(sizes, default=-1) + 1))
        return self._f_counts

    def is_pure(self) -> bool:
        sizes = {m.bit_count() for m in self._compute_facet_masks()}
        return len(sizes) <= 1

    # -- constructions ---------------------------------------------------

    def deletion(self, avoid: Iterable[Iterable[Diagonal]]) -> "SimplicialComplex":
        """Faces containing no member of ``avoid`` (deletion of a face set)."""
        avoid_masks = [self._mask_of(f) for f in avoid]
        kept = {
            m for m in self._masks if not any(m & am == am for am in avoid_masks)
        }
        return SimplicialComplex._trusted(self.ground, kept, self.a, self.b)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self.ground == other.ground and self._masks == other._masks

    __hash__ = None  # type: ignore[assignment]

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

    @classmethod
    def from_json(cls, doc: dict) -> "SimplicialComplex":
        b = doc["b"]
        ground = [Diagonal(i, j, b) for i, j in doc["ground"]]
        source = doc.get("faces") or doc["facets"]
        faces = [[Diagonal(i, j, b) for i, j in face] for face in source]
        return cls(ground, faces, a=doc.get("a"), b=b)


def bits_of(mask: int) -> Iterator[int]:
    """The set bits of ``mask`` as single-bit integers, lowest first."""
    while mask:
        bit = mask & -mask
        mask ^= bit
        yield bit


def bit_positions(mask: int) -> tuple[int, ...]:
    """Ground indices of the set bits of ``mask``, lowest first."""
    return tuple(bit.bit_length() - 1 for bit in bits_of(mask))


def skeleton_adjacency(masks: set[int], n_ground: int) -> list[int]:
    """Adjacency bitmasks of the 1-skeleton, read by testing each vertex pair.

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


def _downward_closure(masks: set[int]) -> set[int]:
    closed: set[int] = set()
    stack = list(masks)
    while stack:
        m = stack.pop()
        if m in closed:
            continue
        closed.add(m)
        mm = m
        while mm:
            bit = mm & -mm
            mm ^= bit
            sub = m ^ bit
            if sub not in closed:
                stack.append(sub)
    closed.add(0)
    return closed


# -- builders -------------------------------------------------------------


def clique_complex(adj: list[int], vertices: int, max_faces: int, what: str):
    """The cliques of the graph ``adj`` on ``vertices`` (a mask set) and the
    maximal ones (a list); rows of ``adj`` exclude their own bit.  A clique's
    common neighbours are exactly the vertices that extend it, so it is
    maximal exactly when it has none: the empty clique when ``vertices`` is 0."""
    faces = {0}
    maximal = [] if vertices else [0]
    stack = [(0, vertices, vertices)]  # (clique, candidates, common neighbours)
    while stack:
        mask, cand, common = stack.pop()
        while cand:
            bit = cand & -cand
            cand ^= bit
            row = adj[bit.bit_length() - 1]
            child = mask | bit
            faces.add(child)
            if len(faces) > max_faces:
                raise CapExceededError(f"{what} exceeds the face cap {max_faces}")
            child_cand = cand & row  # only vertices above the new one: no clique twice
            if child_cand:
                stack.append((child, child_cand, common & row))
            elif not common & row:
                maximal.append(child)
    return faces, maximal


def clique_tree(adj: list[int], vertices: int, limit: int) -> tuple[int, list[int]]:
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
    (A + p, free & adj[p], w).  Each leaf adds at least 1 and is reached
    through at most one split per vertex, so the work stays within
    (limit + 1) leaves whatever the graph.
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


def build_hat_ass(
    a: int,
    b: int,
    *,
    max_faces: int = DEFAULT_FACE_CAP,
    max_b: int = DEFAULT_MAX_B,
) -> SimplicialComplex:
    """The noncrossing model: the clique complex of the compatibility graph."""
    ground, predicted = _guarded_ground(a, b, max_b)
    what = f"noncrossing family of ({a},{b})"
    compat, vertices = admissible_compatibility(a, b), (1 << len(ground)) - 1
    # the lattice-path model is a subcomplex: its face count is a lower bound;
    # the noncrossing sets of all diagonals contain the model: an upper one
    if predicted > max_faces or (
        polygon_dissections(b) > max_faces and clique_tree(compat, vertices, max_faces)[0] > max_faces
    ):
        raise CapExceededError(f"{what} exceeds the face cap {max_faces}")
    masks, maximal = clique_complex(compat, vertices, max_faces, what)
    return SimplicialComplex._trusted(ground, masks, a, b, maximal)


def build_ass(
    a: int,
    b: int,
    *,
    max_faces: int = DEFAULT_FACE_CAP,
    max_b: int = DEFAULT_MAX_B,
) -> SimplicialComplex:
    """The lattice-path model: the clique complex of the Dyck-facet skeleton,
    checked.  The facets, the ground masks ``DyckPath.facet`` of the paths
    ``enumerate_dyck_paths`` lists, must biject with the Dyck paths and be
    the skeleton's maximal cliques: each face is then a clique and each
    clique lies in a facet, so the model is flag."""
    ground, predicted = _guarded_ground(a, b, max_b)
    if predicted > max_faces:
        raise CapExceededError(f"({a},{b}) has {predicted} faces, over the cap {max_faces}")
    facet_masks = {p.facet for p in enumerate_dyck_paths(a, b)}  # Cat(a,b) <= predicted
    if len(facet_masks) != rational_catalan(a, b):
        raise InvariantViolationError(
            f"({a},{b}) facets do not biject with Dyck paths: {len(facet_masks)}"
        )
    adj, vertices = [0] * len(ground), 0
    for m in facet_masks:
        vertices |= m
        rest = m
        while rest:
            bit = rest & -rest
            rest ^= bit
            adj[bit.bit_length() - 1] |= m ^ bit
    masks, maximal = clique_complex(adj, vertices, max_faces, f"lattice-path model of ({a},{b})")
    if set(maximal) != facet_masks:
        raise InvariantViolationError(f"({a},{b}): skeleton cliques are not the Dyck facets")
    return SimplicialComplex._trusted(ground, masks, a, b, maximal)  # ints shared with masks


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


def f_vector(cpx: SimplicialComplex) -> FHVector:
    """Face counts by dimension (with the h part alongside)."""
    return FHVector.of(cpx)


# -- flagness --------------------------------------------------------------


class FlagReport(NamedTuple):
    is_flag: bool
    witness: frozenset[Diagonal] | None


def is_flag(cpx: SimplicialComplex) -> FlagReport:
    """Whether every clique of the 1-skeleton is a face.

    Every face is a clique, so the complex is flag exactly when the clique
    count of :func:`clique_tree` equals the face count.  Otherwise some
    clique is missing, and adding its vertices one at a time to the empty
    face leaves the faces at some face F and vertex v adjacent to all of F.
    The first such F + v in (size, mask) order is the witness: a clique
    that is not a face but all of whose facets are.
    """
    masks = cpx.mask_set
    adj = skeleton_adjacency(masks, len(cpx.ground))
    vertices = sum(1 << p for p in range(len(cpx.ground)) if 1 << p in masks)
    if clique_tree(adj, vertices, len(masks))[0] == len(masks):
        return FlagReport(True, None)
    for face in sorted(masks, key=lambda m: (m.bit_count(), m)):
        common = vertices
        for p in bit_positions(face):
            common &= adj[p]
        for bit in bits_of(common):
            if face | bit not in masks:
                return FlagReport(False, cpx._face_of(face | bit))
    return FlagReport(False, frozenset())  # the void complex lacks even the empty clique
