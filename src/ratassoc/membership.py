"""Membership of a face in the lattice-path model, by valley-path search.

Given a noncrossing set F of admissible diagonals, the routine below either
produces the unique Dyck path whose facet contains F and whose every valley
laser lies in F (the valley path of F), or reports that no Dyck path facet
contains F.

The path is grown backward from (b, a) in south and west steps.  Walking
west from column b, whenever the current column x = i carries diagonals
i-j1, ..., i-jr of F (j1 < ... < jr), south steps are added until the laser
diagonals fired from the new column-i lattice points have produced all of
them.  Lasers from successively lower points hit strictly farther east, so
either every required diagonal appears, or the column bottoms out through
the line y = (a/b) x and F is rejected.  Each south step fixes one entry
of the north-step sequence, from the top down, and a laser reads only the
rows at and above its source, so each laser is well defined on the part
built so far.  The empty face yields the path of a north run followed by
an east run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .complexes import face_text
from .errors import InvariantViolationError
from .lattice import DyckPath, _laser_hit, _path_with_lasers, facet_of, valleys
from .polygon import Diagonal, check_hat_face, check_slope_pair


@dataclass(frozen=True)
class MembershipResult:
    """Outcome of the valley-path search.

    Exactly one of ``valley_path`` and ``break_x`` is set: the path when F
    belongs to the lattice-path model, the x-coordinate of the column where
    the search crossed the line when it does not.
    """

    valley_path: DyckPath | None
    break_x: int | None

    @property
    def is_member(self) -> bool:
        return self.valley_path is not None


def valley_path(face: Iterable[Diagonal], a: int, b: int) -> MembershipResult:
    """Build the valley path of ``face`` or reject it.

    ``face`` must be a noncrossing set of admissible diagonals (checked).
    On acceptance the result path P satisfies face <= facet_of(P) and every
    valley of P fires a laser whose diagonal is in ``face``; both facts are
    re-verified here before returning.
    """
    check_slope_pair(a, b)
    face = frozenset(face)
    check_hat_face(face, a, b)

    wanted: dict[int, set[int]] = {}
    for d in face:
        wanted.setdefault(d.i, set()).add(d.j)

    # the north-step sequence, filled from the top row down, and where each
    # row's laser ends, fired once as its row is placed; only the face's
    # columns take south steps
    xs, ends = [0] * a + [b], [0] * a
    cy = a
    for i in sorted(wanted, reverse=True):
        needed = set(wanted[i])
        while needed:
            cy -= 1
            # below the line, or at the origin where no laser fires and
            # the next south step would cross the line: a rejection
            if cy * b < a * i or (i, cy) == (0, 0):
                return MembershipResult(None, i)
            xs[cy] = i
            ends[cy] = _laser_hit(xs, a, b, cy)
            needed.discard(ends[cy])
    for y in range(1, cy):  # the rows left in column 0
        ends[y] = _laser_hit(xs, a, b, y)

    path = _path_with_lasers(a, b, tuple(xs), ends)
    got = facet_of(path)
    if not face <= got:
        raise InvariantViolationError(f"valley path {path.word} misses part of {face}")
    for p in valleys(path):
        if ends[p.y] not in wanted.get(p.x, ()):
            raise InvariantViolationError(
                f"valley {p} of {path.word} fires a laser outside {{{face_text(face)}}}"
            )
    return MembershipResult(path, None)


def is_face_of_ass(face: Iterable[Diagonal], a: int, b: int) -> bool:
    """True when some Dyck path facet contains ``face``."""
    return valley_path(face, a, b).is_member
