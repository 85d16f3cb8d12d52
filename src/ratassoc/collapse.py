"""Elementary-collapse machinery and the certified collapse of the
noncrossing model onto the lattice-path model.

A pair (G, F') with F' one smaller than G is free when G is the only face
properly containing F'; removing both is an elementary collapse.  In a
downward-closed family, uniqueness of the proper superface is equivalent
to uniqueness of the one-bigger superface: any strictly larger superface
would contribute a second cofacet by closure.

Batches come from cone vertices.  When c extends every face containing F
to another face, the faces containing F pair up as (F', F' + {c}), and
taking the lower faces F' largest first, ties by mask, the batch realizes
the deletion of F with nothing left to check.  Each pair is free at its
turn: any other cofacet F' + x of F' is a larger lower face, removed
before it.  No face containing F is left: one holding c is F' + c for the
F' it was removed with.  So a batch holds exactly when the link of F is a
cone with apex c.  The generator decides it from the link alone: a
current face is a clique, so the link is the clique complex of the graph
on the vertices adjacent to all of F, and it is a cone with apex c exactly
when c is one of them and adjacent to every other; the pairs are counted
as the cliques of the rest, by the generator's own memoised split on the
top vertex (:func:`_clique_count`).  The verifier decides each stage by the
same link with its own code: its own cone test and its own clique count,
the same split written again (:meth:`StageReplay._cliques`), which refuses
a wrong count at once.  Neither side runs ``complexes.clique_walk``, the
f-vector and matching-tree walk of homology.  A stage whose link is not a
cone, or one whose link holds the two or more vertices a live target (see
below) has outside F, has its lower faces listed in that order: there
must be ``pairs`` of them, and the first one c does not extend names the
rejection, the pairs before it removed, so failure indices are the same
on every run.

The full schedule walks the obstruction-graph edges in descending order;
for the edge {i-k, j-k} it first clears the crossing triples
{i-k, s-k, j-k} (cone vertex i-s) and then the edge itself (cone vertex
i-j).  The terminal complex must equal the lattice-path model; when it
does not, the failure counts the faces extra and missing and names the
first differing face, fewest diagonals first.

A certificate (schema 2) stores what fixes each batch, not the pairs it
removes::

    {"schema": 2, "a": a, "b": b, "steps": [stage, ...]}
    stage = {"r": r, "q": q, "cone": [i, j], "target": [[i, j], ...], "pairs": n}

with one stage per batch in schedule order: ``r`` and ``q`` locate it (see
:class:`StageRecord`), ``cone`` is the cone diagonal c, ``target`` the
face T whose containing faces it removes and ``pairs`` the number of
pairs.  :func:`verify_certificate` expands a stage with its own code into
the pairs (F', F' + c), one for every current face F' containing T and
avoiding c: T must be present and avoid c, there must be exactly ``pairs``
pairs and c must extend every F', which a cone link shows at once and the
listing otherwise; then the terminal complex must equal the lattice-path
model, and the labels must fit the obstruction edges, the start
skeleton's edges the replay dropped (:meth:`StageReplay.check_labels`).

Neither side builds or changes a face set: each treats the current
complex as a predicate on the start complex's graph.  A stage that passes
has removed exactly its target's star, so the current complex is the
faces of the start complex holding no processed target, less, after a
rejected stage, the pairs it removed before its failure, which go to a
set.  A processed edge leaves a private copy of the start's graph; the
replay's link and its listing read it, so every clique listed is a face
of the start complex.
The terminal complex is the clique complex of what is left of the graph,
less the stars of the larger targets still live, and equals the flag
lattice-path model exactly when the graphs are equal and no live target
is a clique; face sets are built only to describe a difference.  The
replay counts the start complex's faces with its own clique count before
the first stage, and the pairs it removes, so the terminal complex has
the start complex's faces less two per pair.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .complexes import (
    DEFAULT_MAX_B,
    SimplicialComplex,
    bit_positions,
    bits_of,
    clique_complex,
    face_text,
    face_to_lists,
    guard_b,
)
from .errors import (
    MalformedCertificateError,
    NotAFaceError,
    NotConeVertexError,
    ScheduleFailedError,
)
from .obstruction import (
    ObstructionGraph,
    crossing_indices,
    half_wedge_completion,
    wedge_completion,
)
from .polygon import Diagonal, admissible_by_ends, all_admissible_diagonals, check_slope_pair

SCHEMA = 2
_STAGE_KEYS = frozenset(("r", "q", "cone", "target", "pairs"))


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise MalformedCertificateError(message)


@dataclass(frozen=True)
class StageRecord:
    """One cone-vertex batch of the schedule.

    ``r`` is the 1-based edge index in the ascending edge order (stages run
    r = N down to 1); ``q`` counts the crossing-face batches 1..p, with
    q = p+1 the closing batch for the edge itself; ``target`` is the face
    whose containing faces the batch removes, and ``n_steps`` the number
    of pairs it removes.  The verifier checks ``r`` and ``q`` against the
    obstruction edges it derives itself (:meth:`StageReplay.check_labels`).
    """

    r: int
    q: int
    cone: Diagonal
    target: frozenset[Diagonal]
    n_steps: int


class CollapseCertificate:
    """The stages of a collapse, re-checkable offline.

    ``stages`` lists the cone-vertex batches in schedule order, each fixed
    by its target face T, cone diagonal c and pair count; the JSON form
    (schema 2, see the module docstring) stores one ``{"r", "q", "cone",
    "target", "pairs"}`` object per stage under ``"steps"``.  No pair is
    stored: :class:`StageReplay` re-derives them as (F', F' + c) for every
    current face F' containing T and avoiding c, largest F' first, checks
    the target, the count and that c extends each F', and counts the pairs
    it removes.
    """

    __slots__ = ("a", "b", "ground", "stages")

    def __init__(
        self,
        a: int,
        b: int,
        ground: tuple[Diagonal, ...],
        stages: tuple[StageRecord, ...],
    ):
        self.a = a
        self.b = b
        self.ground = ground
        self.stages = stages

    @property
    def n_steps(self) -> int:
        """The number of free pairs over all stages."""
        return sum(s.n_steps for s in self.stages)

    def to_json(self) -> dict:
        steps = [
            {
                "r": s.r,
                "q": s.q,
                "cone": [s.cone.i, s.cone.j],
                "target": face_to_lists(s.target),
                "pairs": s.n_steps,
            }
            for s in self.stages
        ]
        return {"schema": SCHEMA, "a": self.a, "b": self.b, "steps": steps}

    @classmethod
    def from_json(cls, doc, *, max_b: int = DEFAULT_MAX_B) -> "CollapseCertificate":
        """Read a schema-2 document, checking its shape and every diagonal.

        Raises MalformedCertificateError (or the slope-pair errors) on any
        departure from the schema, and CapExceededError when b > ``max_b``.
        Whether the stages collapse anything is for the verifier to decide.
        """
        _require(isinstance(doc, dict), "certificate must be a JSON object")
        schema = doc.get("schema")
        _require(type(schema) is int and schema == SCHEMA,
                 f"unsupported certificate schema {schema!r}, expected {SCHEMA}")
        _require(set(doc) == {"schema", "a", "b", "steps"},
                 'certificate keys must be exactly "schema", "a", "b" and "steps"')
        a, b, steps = doc["a"], doc["b"], doc["steps"]
        _require(type(a) is int and type(b) is int, "a and b must be integers")
        check_slope_pair(a, b)
        guard_b(b, max_b)
        ground, by_ends = all_admissible_diagonals(a, b), admissible_by_ends(a, b)
        _require(isinstance(steps, list), '"steps" must be a list of stages')

        def diagonal(value, where: str) -> Diagonal:
            _require(isinstance(value, list) and len(value) == 2
                     and all(type(v) is int for v in value),
                     f"{where}: a diagonal must be a pair [i, j] of integers")
            p = by_ends.get(tuple(value))
            _require(p is not None,
                     f"{where}: {value[0]}-{value[1]} is not an admissible diagonal of ({a},{b})")
            return ground[p]

        stages = []
        for k, st in enumerate(steps):
            where = f"stage {k}"
            _require(isinstance(st, dict) and set(st) == _STAGE_KEYS,
                     f'{where} must be an object with keys "r", "q", "cone", "target" and "pairs"')
            r, q, n, target = st["r"], st["q"], st["pairs"], st["target"]
            _require(all(type(v) is int for v in (r, q, n)) and r >= 1 and q >= 1 and n >= 0,
                     f"{where}: r and q must be positive integers, pairs a non-negative integer")
            _require(isinstance(target, list) and target != [],
                     f"{where}: target must be a non-empty list")
            face = frozenset(diagonal(v, where) for v in target)
            _require(len(face) == len(target), f"{where}: target repeats a diagonal")
            stages.append(StageRecord(r, q, diagonal(st["cone"], where), face, n))
        return cls(a, b, ground, tuple(stages))

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, indent=2) + "\n"


# -- engine ----------------------------------------------------------------


def _cone_batch(adj: list[int], free: int, face_mask: int, cone_bit: int) -> int:
    """Decide, by the link of the target, the batch that collapses away
    every current face containing ``face_mask`` via the cone bit; returns
    its number of pairs.

    A face is current when it is a clique of ``adj`` within ``free``, so the
    link of the target T is the clique complex of the graph on V, the free
    vertices outside T adjacent to all of T.  It is a cone with apex c
    exactly when c is in V and adjacent to every other vertex of V; the
    pairs (F', F' + c) are then one per clique of V - c, the empty one
    included.  A failure names a face whose cone extension is missing: T
    when c is not in V, else T + v for the lowest v of V that c misses.
    The pairs are counted by :func:`_clique_count`, which holds only the
    number of cliques below each free set, not their sizes or cells.
    """
    within = free  # the vertices of free adjacent to every other vertex of the target
    for pos in bit_positions(face_mask):
        within &= adj[pos] | 1 << pos
    if face_mask & ~within:
        raise NotAFaceError("the target face is not in the complex", witness=face_mask)
    if face_mask & cone_bit:
        raise NotConeVertexError("cone vertex already belongs to the face")
    link = within ^ face_mask
    if not link & cone_bit:
        raise NotConeVertexError("cone condition fails: a face has no extension", witness=face_mask)
    rest = link ^ cone_bit
    missed = rest & ~adj[cone_bit.bit_length() - 1]
    if missed:
        raise NotConeVertexError(
            "cone condition fails: a face has no extension", witness=face_mask | missed & -missed
        )
    return _clique_count(adj, rest)


def _clique_count(adj: list[int], free: int) -> int:
    """The number of cliques of ``adj`` within ``free``, the empty one
    included: N(X) = N(X - p) + N(X & adj[p]) for the top vertex p of X,
    with N(0) = 1, memoised on X and run on an explicit stack."""
    memo = {0: 1}
    stack = [free]
    while stack:
        x = stack[-1]
        if x in memo:
            stack.pop()
            continue
        p = x.bit_length() - 1
        without, within = x ^ 1 << p, x & adj[p]
        n, m = memo.get(without), memo.get(within)
        if n is None:
            stack.append(without)
        if m is None:
            stack.append(within)
        if n is not None and m is not None:
            memo[x] = n + m
            stack.pop()
    return memo[free]


def collapse_schedule(
    a: int,
    b: int,
    *,
    hat: SimplicialComplex,
    ass: SimplicialComplex,
    graph: ObstructionGraph,
) -> CollapseCertificate:
    """Generate the full collapse certificate for the pair (a, b) from its
    two models and its obstruction graph; neither model is changed.

    Obstruction edges are processed strictly in descending edge order; for
    each edge, crossing triples are cleared first (in increasing index
    order), then the edge itself.  Each stage is decided by the link of
    its target (:func:`_cone_batch`).  A failing stage raises
    ScheduleFailedError carrying its coordinates and, when there is one, a
    face whose cone extension is missing.  The terminal complex must equal
    the lattice-path model exactly, or ScheduleFailedError counts the extra
    and missing faces and carries the first differing face (fewest
    diagonals, then lowest mask).

    The current complex is a predicate on ``hat``'s graph: a clique is
    current when it holds no processed edge, and, while an edge's batches
    run, no apex of its cleared crossing triples (every face a batch of the
    edge reads holds the edge).  So the processed edges leave a private
    copy of ``hat``'s graph, and the cleared apexes a mask.  The terminal
    complex is the clique complex of what is left of the graph, and equals
    ``ass``, the clique complex of its own graph, exactly when their graphs
    do; face sets are built only to report a difference.
    """
    check_slope_pair(a, b)
    ground = hat.ground
    bit = hat._bit
    rows, vertices = hat._graph
    adj = list(rows)  # a model's rows may be shared, so edges leave a copy
    stages: list[StageRecord] = []

    for r in range(len(graph.edges), 0, -1):
        edge = graph.edges[r - 1]
        batches = [
            (half_wedge_completion(edge, s, graph), edge.pair() | {Diagonal(s, edge.apex, b)})
            for s in crossing_indices(edge, graph)
        ]
        batches.append((wedge_completion(edge), edge.pair()))
        lesser, greater = bit[edge.lesser], bit[edge.greater]
        free = vertices
        for q, (cone, target) in enumerate(batches, start=1):
            face_mask = hat._mask_of(target)
            try:
                n_pairs = _cone_batch(adj, free, face_mask, bit[cone])
            except (NotConeVertexError, NotAFaceError) as exc:
                face = None if exc.witness is None else face_text(hat._face_of(exc.witness))
                where = f"stage (r={r}, q={q}, cone {cone.text()}) failed"
                raise ScheduleFailedError(
                    f"{where}: {exc}" + (f" at face {face}" if face else ""),
                    r=r, q=q, face=face,
                ) from exc
            stages.append(StageRecord(r, q, cone, target, n_pairs))
            free &= ~(face_mask ^ lesser ^ greater)  # a crossing triple's apex
        adj[lesser.bit_length() - 1] &= ~greater
        adj[greater.bit_length() - 1] &= ~lesser

    ass_adj, ass_vertices = ass._graph
    if vertices != ass_vertices or any(
        adj[p] & vertices != ass_adj[p] & vertices for p in bit_positions(vertices)
    ):
        current = clique_complex(adj, vertices)
        extra, missing = current - ass.mask_set, ass.mask_set - current
        first = face_text(hat._face_of(min(extra | missing, key=lambda m: (m.bit_count(), m))))
        raise ScheduleFailedError(
            f"terminal complex has {len(current)} faces, expected {len(ass.mask_set)}: "
            f"{len(extra)} extra, {len(missing)} missing, first at face {first}",
            face=first,
        )
    return CollapseCertificate(a, b, ground, tuple(stages))


# -- verification ------------------------------------------------------------


@dataclass(frozen=True)
class VerificationReport:
    """Replay outcome; ``ok`` requires every stage to expand into free
    pairs and the terminal complex to equal the target.

    ``steps_applied`` counts the pairs removed, and ``terminal_face_count``
    the faces left, the start complex's less two per pair; ``failure_index``
    is the index of the rejected stage, or the number of stages when only
    the terminal comparison fails; ``reason`` is a fixed phrase.
    """

    ok: bool
    steps_applied: int
    failure_index: int | None
    reason: str | None
    terminal_face_count: int
    target_matched: bool


class StageReplay:
    """Expands certificate stages into free pairs on the start complex,
    counting them in ``steps_applied``; the start complex is not changed.

    Shares no code with the schedule generator.  The current complex is a
    predicate: the faces of the start complex that hold no processed stage
    target, less, after a rejected stage, the pairs it removed, in
    ``_gone``.  A processed target of one vertex drops that vertex, and
    one of two drops that edge, from a private copy of the start's
    1-skeleton; a larger one stays live until a vertex or an edge inside
    it is dropped.  This is exact because a stage that passes has removed
    exactly its target's star.  After a rejected stage the replay is over.
    The start complex's faces are counted once, by :meth:`_cliques`, before
    the first stage, so ``n_faces`` is that count less two per pair; a face
    count or face set of the target, when :meth:`matches` needs one, is
    counted and listed on the target's own rows by the same code.

    A stage is decided by its target's link, V_T: the vertices outside the
    target adjacent to all of it in the current skeleton, less those that
    complete a live target with one vertex outside the target.  When no
    live target is wide, with two or more vertices outside the target, all
    in V_T, the star is the target plus each clique of V_T, so the count
    and a cone link decide the stage (:meth:`expand`).  Any other stage
    lists its lower faces (:meth:`_walk`), which explains a rejection: the
    pairs go largest first, ties by mask, and the first face the cone does
    not extend names it, with the pairs before it removed.
    """

    def __init__(self, start: SimplicialComplex, cert: CollapseCertificate):
        if start.ground != cert.ground:
            raise ValueError("certificate ground set does not match the start complex")
        self._start_adj, self._vertices = start._graph
        # _adj[p]: the current skeleton's neighbours of ground position p
        self._adj = list(self._start_adj)
        self._start_faces = self._cliques(self._vertices)
        self._live: list[int] = []
        self._gone: set[int] = set()
        self.steps_applied = 0
        self._bit = {d: 1 << i for i, d in enumerate(start.ground)}

    @property
    def n_faces(self) -> int:
        """The number of current faces: every removal takes out a pair."""
        return self._start_faces - 2 * self.steps_applied

    def _spans(self, face: int) -> bool:
        """Whether ``face`` is a face of the start complex holding no dropped
        vertex or edge: a clique of the current skeleton."""
        if face & ~self._vertices:
            return False
        adj = self._adj
        return not any(face & ~adj[p] & ~(1 << p) for p in bit_positions(face))

    def _link(self, target: int) -> tuple[int, list[int]]:
        """V_T, the vertices outside ``target`` adjacent to all of it that
        complete no live target, and the wide live targets: those with two
        or more vertices outside the target, all in V_T.  Only these can lie
        in a face of the target's star; the listing of its lower faces checks
        each face against them."""
        avoid, outside = 0, []
        for live in self._live:
            out = live & ~target
            if out & (out - 1):
                outside.append(live)
            else:
                avoid |= out
        link = ~(target | avoid)
        for p in bit_positions(target):
            link &= self._adj[p]
        return link, [w for w in outside if not w & ~target & ~link]

    def _cliques(self, free: int, adj: Sequence[int] | None = None) -> int:
        """The number of cliques within ``free`` of the current skeleton, or
        of the graph with rows ``adj``, the empty one included:
        P(X) = P(X - p) + P(X & adj[p]) for the top vertex p of X, memoised
        on X and run on an explicit stack."""
        adj, memo = self._adj if adj is None else adj, {0: 1}
        stack = [free]
        while stack:
            x = stack[-1]
            if x in memo:
                stack.pop()
                continue
            p = x.bit_length() - 1
            without, within = x ^ 1 << p, x & adj[p]
            n, m = memo.get(without), memo.get(within)
            if n is None:
                stack.append(without)
            if m is None:
                stack.append(within)
            if n is not None and m is not None:
                memo[x] = n + m
                stack.pop()
        return memo[free]

    def _faces(self, free: int, adj: Sequence[int] | None = None) -> list[int]:
        """The cliques within ``free`` of the current skeleton, or of the
        graph with rows ``adj``, the empty one included.  A clique grows only
        by candidates above its top vertex and adjacent to all of it, so each
        is listed once."""
        adj, faces = self._adj if adj is None else adj, []
        stack = [(0, free)]
        while stack:
            face, cand = stack.pop()
            faces.append(face)
            while cand:
                x = cand & -cand
                cand ^= x
                stack.append((face | x, cand & adj[x.bit_length() - 1]))
        return faces

    def expand(self, stage: StageRecord) -> str | None:
        """Remove the pairs of ``stage``; returns None, or the fixed reason
        of the first check that fails.

        With no wide live target the star is T + F for every clique F of
        V_T: the pairs are the cliques of V_T - c, counted, not listed, and
        the link is a cone with apex c exactly when c is in V_T and adjacent
        to every other vertex of it.  So a wrong count is refused at once and
        a cone link passes.  Any other stage goes to :meth:`_walk`.
        """
        target = 0
        for d in stage.target:
            target |= self._bit[d]
        cone = self._bit[stage.cone]
        if not target:  # every face contains it, and its link ~0 = -1 has no top vertex
            return "stage target is empty"
        if not self._spans(target) or any(target & live == live for live in self._live):
            return "stage target missing from current complex"
        if target & cone:
            return "stage target contains its cone"
        link, wide = self._link(target)
        rest = link & ~cone
        if not wide and self._cliques(rest) != stage.n_steps:
            return "expanded pair count differs from the certificate"
        if wide or not link & cone or rest & ~self._adj[cone.bit_length() - 1]:
            reason = self._walk(stage.n_steps, target, cone, link, wide)
            if reason is not None:
                return reason
        self.steps_applied += stage.n_steps
        self._drop(target)
        return None

    def _walk(self, n_steps: int, target: int, cone: int, link: int, wide: list[int]) -> str | None:
        """Decide a stage by its lower faces, the faces of the star that
        avoid the cone: T + F for each clique F of V_T - c holding w - T for
        no wide live target w that avoids c.  They must number ``n_steps``.
        Then, largest F first, ties by mask, F must extend: c is in V_T and
        adjacent to all of F, and F + c holds w - T for no wide w.  A failure
        leaves the pairs before it removed, in ``_gone``.

        No other check can fail.  A cofacet T + F + x, x not c, of a lower
        face is a larger lower face, removed before it, or holds a wide
        target; and a face of the star holding c is T + F + c for a lower F,
        removed with it."""
        barred = [w & ~target for w in wide if not w & cone]
        lower = [f for f in self._faces(link & ~cone) if not any(f & w == w for w in barred)]
        if len(lower) != n_steps:
            return "expanded pair count differs from the certificate"
        if not link & cone:
            return "cone extension missing from current complex"
        lower.sort(key=lambda f: (-f.bit_count(), f))
        misses = ~self._adj[cone.bit_length() - 1]
        closing = [w & ~target & ~cone for w in wide if w & cone]
        for k, f in enumerate(lower):
            if f & misses or any(f & w == w for w in closing):
                self._gone = {target | g | e for g in lower[:k] for e in (0, cone)}
                self.steps_applied += k
                return "cone extension missing from current complex"
        return None

    def _drop(self, target: int) -> None:
        """Mark a target whose star is gone: drop it from the skeleton when
        it is a vertex or an edge, with every live target it lies in."""
        adj = self._adj
        if target.bit_count() > 2:
            self._live.append(target)
            return
        if target.bit_count() == 1:
            p = target.bit_length() - 1
            for q in bit_positions(adj[p]):
                adj[q] &= ~target
            adj[p] = 0
            self._vertices &= ~target
        else:
            low = target & -target
            adj[low.bit_length() - 1] &= ~(target ^ low)
            adj[target.bit_length() - 1] &= ~low
        self._live = [live for live in self._live if live & target != target]

    def run(self, stages: Iterable[StageRecord]) -> tuple[int, str] | None:
        """Expand ``stages`` in order, stopping at the first rejected one;
        returns its index and reason, or None when every stage expands."""
        for k, stage in enumerate(stages):
            reason = self.expand(stage)
            if reason is not None:
                return k, reason
        return None

    def current_faces(self) -> set[int]:
        """The current complex as a face set, built on demand."""
        live, faces = self._live, self._faces(self._vertices)
        return {m for m in faces if not any(m & t == t for t in live)} - self._gone

    def matches(self, target: SimplicialComplex) -> bool:
        """Whether the current complex is ``target``.  When no stage is half
        done, the current complex is the clique complex of the current
        skeleton with the live targets' stars taken out, and ``target`` is
        the clique complex of its own graph: so the graphs must be equal and
        no live target a clique.  Otherwise the face counts, then the face
        sets, are compared, ``target``'s counted and listed on its own rows."""
        adj, vertices = target._graph
        if not self._gone:
            return (
                vertices == self._vertices
                and all(self._adj[p] & vertices == adj[p] & vertices
                        for p in bit_positions(vertices))
                and not any(self._spans(live) for live in self._live)
            )
        return (
            self.n_faces == self._cliques(vertices, adj)
            and self.current_faces() == set(self._faces(vertices, adj))
        )

    def check_labels(self, stages: Sequence[StageRecord]) -> tuple[int, str] | None:
        """Check each stage's (r, q), once the replay has ended on the target,
        against the obstruction edges: the start complex's 1-skeleton edges
        the replay dropped, in ascending (lesser, greater) ground order.  Edge
        r must lie in the stage target, the batches of each r must be
        q = 1..m, and exactly batch m must target the edge itself.  Returns
        the first failing stage's index and reason, whatever the stage order,
        or None.

        Every edge then has a closing batch: the replay dropped it, so some
        stage target lies in it, and holds its own edge r, so is that edge.
        """
        edges = [
            1 << p | high
            for p, row in enumerate(self._start_adj)
            for high in bits_of(row & ~self._adj[p] & -(2 << p))
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


def verify_certificate(
    start: SimplicialComplex,
    target: SimplicialComplex,
    cert: CollapseCertificate,
) -> VerificationReport:
    """Replay a certificate on ``start``, which is left unchanged.

    Every stage is expanded by :class:`StageReplay`: its target must be
    non-empty, present and avoid the cone, its expansion must have the
    recorded pair count, and the cone must extend every face of the star
    that avoids it, which makes each pair (F', F' + c) free at its turn and
    leaves no face containing the target.  A stage whose target's link is
    a cone with the recorded count passes by that alone; the listing of its
    lower faces decides, and names where it fails, a stage with a wide live
    target or a link that is not a cone (:meth:`StageReplay.expand`).  The
    terminal complex must equal ``target``.  Stops at the first rejected
    stage.  Then each stage's (r, q) must fit the obstruction edges, the
    1-skeleton edges of ``start`` the replay dropped
    (:meth:`StageReplay.check_labels`).
    """
    replay = StageReplay(start, cert)
    failure = replay.run(cert.stages)
    matched = replay.matches(target)
    if failure is None and not matched:
        failure = (len(cert.stages), "terminal face set differs from target")
    if failure is None:
        failure = replay.check_labels(cert.stages)
    index, reason = failure or (None, None)
    return VerificationReport(
        failure is None, replay.steps_applied, index, reason, replay.n_faces, matched
    )
