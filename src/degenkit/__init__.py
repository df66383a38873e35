"""degenkit: exact-rational engine for splitting enumeration and
degeneration-formula evaluation against relative-invariant tables."""

from .algebra import (
    BasisClass,
    Parity,
    Sector,
    SectorCatalog,
    chen_ruan_dual,
    dual_basis,
    koszul_sign,
)
from .correlator import (
    CorrelatorKey,
    EvaluationResult,
    Insertion,
    InvariantTable,
    evaluate_degeneration,
    evaluate_disconnected,
    needed_keys,
    splitting_inner_sum,
)
from .errors import (
    CatalogError,
    DegenkitError,
    EnumerationBudgetError,
    GluingError,
    InfeasibleInstanceError,
    MissingKeysError,
    ParityError,
    ScaleError,
    SingularPairingError,
)
from .graphs import (
    CurveClass,
    CurveClassMonoid,
    Generator,
    Leg,
    ModularGraph,
    Root,
    Vertex,
    canonical_form,
    d_degree,
    glue,
    intersection_multiplicity,
    total_genus,
    total_weight,
)
from .oracle import (
    DegenerationCheckReport,
    HurwitzInstance,
    RamificationProfile,
    build_p1_table,
    degeneration_check,
    hurwitz_count,
)
from .splitting import (
    DegenerationProblem,
    LegSpec,
    Splitting,
    SplittingOrbit,
    check_condition_B,
    enumerate_splittings,
    orbits,
)
from .twisting import (
    LiftReport,
    MINIMAL_TWIST,
    MultiplicityLedger,
    TwistingChoice,
    degeneration_ledger,
    evaluation_band_order,
    ghost_automorphism_order,
    lift_analysis,
    minimal_twist,
    precedes,
    required_source_index,
)

__version__ = "0.1.0"
