"""Local quiver-variety models of singular moduli of pure-dimension-one
sheaves on a K3 surface: exact Mukai-lattice arithmetic, root combinatorics,
wall-and-chamber structures on both sides of the correspondence, moment-map
numerics and King stability search.

The names of the representation layer, the one layer that needs numpy, are
served from ``quiverk3.reps`` on first access (module ``__getattr__``), so
``import quiverk3`` loads neither: CertifiedUnstable, GroupElement,
NoDestabilizerFound, Representation, SearchBudget, StrictlySemistableWitness,
act, annihilator_witness, check_stability, cyclic_subrep, direct_sum, dual,
is_simple, moment_differential, moment_map, random_representation,
slope_theta, solve_moment_zero, verify_ci_dim and zero_representation.
"""

from .errors import (
    InvariantError,
    MathAssertionError,
    NonPrimitivityWarning,
    SchemaError,
)
from .lattice import (
    CurveConfig,
    DegreeVector,
    MukaiVector,
    degrees,
    is_positive,
    mukai_pairing,
    mukai_square,
    slope,
    vector_of_beta,
)
from .quiver import (
    Decomposition,
    DimVector,
    Quiver,
    SimpleExistence,
    bounded_roots,
    cb_simple_exists,
    d_form,
    decompositions,
    is_positive_root,
    mu_zero_expected_dim,
    p_of,
    quiver_from_config,
    quiver_to_dot,
    rep_space_dim,
)
from .strata import ModelSummary, StratumRecord, singular_model_summary, strata_report
from .walls import (
    AmpleWall,
    ChamberSet,
    CorrespondenceReport,
    GenericityVerdict,
    LocalModel,
    QuiverWall,
    ample_walls_through_h0,
    chamber_signature,
    character_general,
    det_weight_vector,
    enumerate_chambers,
    is_generic,
    quiver_walls,
    restrict_weights_to_type,
    theta_dot,
    v_walls,
    verify_correspondence,
    xi_map,
)

__version__ = "0.1.0"
_REPS_NAMES = frozenset("""CertifiedUnstable GroupElement NoDestabilizerFound Representation
    SearchBudget StrictlySemistableWitness act annihilator_witness check_stability cyclic_subrep
    direct_sum dual is_simple moment_differential moment_map random_representation slope_theta
    solve_moment_zero verify_ci_dim zero_representation""".split())


def __getattr__(name: str):
    if name in _REPS_NAMES:
        from . import reps
        return getattr(reps, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_REPS_NAMES})
