"""Exact-arithmetic toolkit for the polytopes behind score-based structure
search over directed acyclic graphs: vector encodings, score-equivalent
objectives, supermodular set functions, cluster inequalities, and rational
facet/vertex enumeration with machine-verified catalogs."""

from .dags import (
    Dag,
    covered_arc_neighbors,
    enumerate_dags,
    enumerate_equivalence_classes,
    equivalence_class,
    immoralities,
    is_acyclic,
    is_closed_under_equivalence,
    markov_equivalent,
)
from .dd import Budget
from .encodings import char_from_fam, char_from_standard, fam_vector, standard_imset
from .errors import (
    BnPolyError,
    BudgetExceededError,
    IndexFamilyMismatchError,
    InfeasibleError,
    InvalidInequalityError,
    NotScoreEquivalentError,
    NotSupermodularError,
    UnboundedError,
)
from .ground import (
    CharVector,
    FamVector,
    GroundSet,
    SetFunction,
    enumerate_cai,
    enumerate_family_indices,
    scalar_product,
)
from .ineq import (
    CatalogEntry,
    LinearInequality,
    binomial_identity,
    catalog_se_n4,
    catalog_specific_n4,
    cluster_char,
    cluster_fam,
    counterexample_constants,
    export_lp,
    fam_from_char_ineq,
    modified_convexity,
    nonneg_constraints,
)
from .polyhedra import (
    HRep,
    VRep,
    affine_rank,
    cip_vrep,
    face_of,
    facets_from_vertices,
    fvp_vrep,
    is_facet,
    lp_maximize,
    vertices_from_inequalities,
)
from .scoreeq import (
    char_objective,
    is_se_face,
    is_se_objective,
    moebius_down,
    moebius_up,
    objective_from_setfn,
    setfn_from_objective,
)
from .supermod import (
    cluster_supermodular,
    core_vertices,
    delta,
    duality_transform,
    is_connected_matroid,
    is_extreme,
    is_matroid_rank,
    is_supermodular,
)
from .verify import (
    VerificationReport,
    explore_conjecture,
    verify_counterexample,
    verify_n3,
    verify_n4,
    verify_theorem3,
)

__version__ = "0.1.0"
