"""Rational associahedra: exact construction, collapsing, and verification.

For a coprime pair a < b the package builds two simplicial complexes on
the admissible diagonals of a (b+1)-gon: the noncrossing model (every
noncrossing set of admissible diagonals is a face) and the lattice-path
model (faces generated by the laser sets of rational Dyck paths).  It
decides membership in the lattice-path model, constructs the obstruction
graph of blocked pairs, produces and independently re-verifies an explicit
collapse of the first model onto the second, and checks the closed-form
face counts, the homology of a wedge of spheres, read from the critical
cells of a matching tree, and rank-level Alexander duality.
"""

from .collapse import (
    CollapseCertificate,
    StageRecord,
    StageReplay,
    VerificationReport,
    collapse_schedule,
    verify_certificate,
)
from .complexes import (
    FHVector,
    SimplicialComplex,
    build_ass,
    build_hat_ass,
    face_text,
    parse_face,
    rational_catalan,
    rational_kirkman,
    rational_narayana,
)
from .errors import (
    AdmissibilityViolatedError,
    BadOrderError,
    CapExceededError,
    InvariantViolationError,
    MalformedCertificateError,
    NonIntegralError,
    NotAFaceError,
    NotAFaceOfHatError,
    NotConeVertexError,
    NotCoprimeError,
    RatAssocError,
    ScheduleFailedError,
)
from .homology import (
    BettiVector,
    DualityReport,
    PartitionReport,
    alexander_duality_check,
    alexander_partition_check,
    betti_numbers,
)
from .lattice import (
    DyckPath,
    LatticePoint,
    enumerate_dyck_paths,
    facet_of,
    valleys,
)
from .membership import MembershipResult, is_face_of_ass, valley_path
from .obstruction import (
    ObstructionEdge,
    ObstructionGraph,
    build_obstruction_graph,
    crossing_indices,
    half_wedge_completion,
    wedge_completion,
)
from .polygon import (
    Diagonal,
    all_admissible_diagonals,
    crosses,
    is_admissible,
    remainder_set,
)

__version__ = "0.1.0"
