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
    max_length_below,
    minimal_word,
    vz_decompose,
    vz_distortion_constant,
    word_length,
)
from .wreath import (
    BulbWord,
    WreathContext,
    WreathElement,
    bulb_decompose,
    bulb_lower_bound,
    bulb_product,
    bulb_word,
    kernel_window,
)
from .covers import (
    ControlMeasurement,
    CosetCover,
    Cover,
    GroupWindowView,
    LebesgueCheck,
    PullbackControl,
    ball_window,
    component_diameters,
    coset_cover,
    cover_of,
    growth_linear_bound,
    kernel_control_bound,
    lebesgue_ok,
    max_diameter,
    pullback_cover,
    r_components,
    vz_closure_constant,
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
)
from .ballstore import BallRecord, BallStore
from .config import DEFAULT_CONFIG, ExperimentSetup, default_setup, load_config, parse_config
from .suite import CheckResult, CHECKS, run_suite

__version__ = "0.1.0"
