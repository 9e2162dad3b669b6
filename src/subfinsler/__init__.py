"""Normal curves and face stability on sub-Finsler Lie groups.

A sub-Finsler structure on a Lie group is a left-invariant norm on a
subspace of admissible velocities.  This package computes with the
convex duality of such norms, integrates the characteristic (normal)
flow of the induced length functional, detects branching of normal
curves, and produces quantitative certificates that the maximizing
face of the dual point is stable over explicit time windows.

Subpackages by task:

* :mod:`subfinsler.convex` -- norms, energies, dual norms,
  subdifferentials, and the duality inversion tests.
* :mod:`subfinsler.polyhedra` -- polytope unit balls: face lattices,
  exposed faces, star coverings of the dual sphere.
* :mod:`subfinsler.groups` -- matrix group charts, exponentials, the
  adjoint and coadjoint actions, and the differential of a submetry.
* :mod:`subfinsler.flow` -- the two normal-curve integrators, face
  events, branching detection.
* :mod:`subfinsler.certify` -- adjoint bracket bounds, windowed face
  stability certificates, the abelianized minimality check, and the
  explicit vertical shortcut.
* :mod:`subfinsler.cli` -- scenario-driven command line interface.
"""

from .convex import (
    AxisCornerNorm,
    ConvexSet,
    CornerNorm,
    EuclideanNorm,
    MaxNorm,
    Norm,
    NormError,
    PolyhedralNorm,
    RootSumNorm,
    SumNorm,
    as_polyhedron,
    check_duality_inversion,
    dual_energy,
    energy,
    norm_from_json,
)
from .polyhedra import (
    CoveringError,
    Face,
    Polyhedron,
    PolyhedronError,
    StarCovering,
    l1_ball,
    linf_ball,
    regular_polygon_ball,
)
from .groups import (
    GroupChartError,
    GroupSpec,
    SubmetryData,
    ad_matrix,
    adjoint_matrix,
    affine_line_group,
    bracket,
    check_element,
    coadjoint_dual_point,
    exp,
    from_matrix,
    group_by_name,
    heisenberg_abelianization,
    heisenberg_group,
    matrix_group,
    rotation_group,
    to_matrix,
    translation_group,
    variety_residual,
)
from .flow import (
    BranchReport,
    FaceEvent,
    FaceThrashError,
    FlowError,
    IntegrationError,
    Trajectory,
    check_constant_speed,
    detect_branching,
    arc_terms,
    integrate,
    integrate_polyhedral,
    integrate_smooth,
    read_trajectory_csv,
    subgroup_trajectory,
    write_trajectory_csv,
)
from .certify import (
    MEstimate,
    ShortcutPath,
    StabilityCertificate,
    abelianized_minimality,
    adjoint_bracket_bound,
    certify_trajectory,
    finsler_short_bound,
    stability_window,
    verify_face_stability,
    vertical_shortcut,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
