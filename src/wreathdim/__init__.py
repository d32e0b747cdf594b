"""Exact word metrics, wreath-product normal forms, cover controls, and
cube certificates for finitely generated marked groups."""

from .errors import (
    BudgetExceededError,
    ConfigError,
    EncodingError,
    IntegrityError,
    StructureError,
)
from .groups import (
    BallTable,
    CyclicGroup,
    DEFAULT_BUDGET,
    FreeGroup,
    IntegerGroup,
    LengthOracle,
    MarkedGroup,
    ProductGroup,
    TableGroup,
    VirtuallyZGroup,
    VirtuallyZStructure,
    as_radius,
    ball,
    evaluate_word,
    growth,
    max_length_below,
    minimal_word,
    vz_decompose,
    vz_distortion_constant,
    word_length,
    word_length_at_most,
)
from .wreath import (
    Bulb,
    BulbProduct,
    BulbWord,
    WreathContext,
    WreathElement,
    bulb,
    bulb_decompose,
    bulb_lower_bound,
    bulb_product,
    bulb_word,
    kernel_bulbs,
    kernel_window,
)
from .covers import (
    ControlMeasurement,
    ControlPoint,
    CosetCover,
    Cover,
    ExplicitMetricView,
    GroupWindowView,
    LebesgueCheck,
    MetricView,
    PullbackControl,
    component_diameters,
    control_sample,
    coset_cover,
    cover_of,
    growth_linear_bound,
    kernel_control_bound,
    lebesgue_ok,
    max_diameter,
    pullback_cover,
    r_components,
    vz_closure_constant,
    weakly_dominates,
)
from .cubes import (
    CubeObstruction,
    KernelCube,
    KernelCubeCertificate,
    LatticeOutcome,
    LatticeSearchReport,
    RCube,
    build_kernel_cube,
    cube_obstruction,
    exhaustive_lattice_search,
    growth_lower_bound_certificate,
    l1,
    lattice_cover_witness,
    lattice_points,
    sampled_lattice_search,
    verify_cube_edges,
)
from .ballstore import BallRecord, BallStore, default_store
from .config import DEFAULT_CONFIG, ExperimentSetup, default_setup, load_config, parse_config
from .suite import CheckResult, CHECKS, run_suite

__version__ = "0.1.0"
