"""framekit: numerical toolkit for finite frame theory.

Frames and their defect measures, canonical Parseval reduction, subspace
geometry (principal angles, chordal distance), equal-norm Parseval
nearness solving, Naimark complements, and prescribed-norm feasibility
tests, with a seeded experiment harness on top.
"""

from ._seeding import derive_seed
from .admissibility import (
    AdmissibilityVerdict,
    AdmissibleSequence,
    SpectrumSpec,
    feasible_norm_targets,
    is_parseval_admissible,
    is_S_admissible,
    nearest_prescribed_norm_parseval,
    prescribed_norm_defect,
)
from .frames import (
    Frame,
    FrameDefects,
    RankDeficientError,
    analysis_image_distance,
    analysis_matrix,
    canonical_parseval,
    defects,
    frame_bounds,
    frame_distance,
    frame_operator,
    frame_potential,
    gram,
    vector_norms_sq,
)
from .linalg import herm_eig, hs_norm
from .naimark import (
    NaimarkReductionReport,
    complement_defect_bound,
    naimark_branch,
    naimark_complement,
    naimark_reduction_check,
    reduce_to_small,
)
from .paulsen import (
    ConvergenceError,
    FrameToProjectionReport,
    PaulsenInstance,
    ProjectionToFrameReport,
    SolverConfig,
    equivalence_chain_frame_to_projection,
    equivalence_chain_projection_to_frame,
    haar_unitary,
    harmonic_frame,
    near_parseval_frame,
    nearest_equal_norm_parseval,
    parseval_pair,
    perturb,
    random_equal_norm_parseval,
    random_parseval,
    random_projection_pair,
)
from .subspaces import (
    PrincipalAngles,
    Projection,
    chordal_sq,
    diagonal_defect,
    frame_from_projection,
    frame_lift,
    principal_angles,
    proj_distance,
    projection_from_frame,
)

__version__ = "0.1.0"
