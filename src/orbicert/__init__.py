"""Exact-arithmetic certification of hyperbolicity hypotheses on blown-up planes."""

__version__ = "0.1.0"

from .lattice import (  # noqa: F401
    Component,
    ConfigError,
    DivisorClass,
    InternalError,
    SurfaceConfig,
    canonical_class,
    chi,
    intersect,
    strict_transform,
)
from .positivity import (  # noqa: F401
    Verdict,
    WeightedBoundary,
    ample_class_sufficient,
    ample_sufficient,
    boundary_class,
    orbifold_canonical_big,
)
from .quadext import (  # noqa: F401
    CrossFieldError,
    NoPositiveRootError,
    NoRealRootError,
    QuadExt,
    compare_cross,
    rational_above,
    rational_below,
)
from .certifier import (  # noqa: F401
    BoundaryPairings,
    Certificate,
    boundary_pairings,
    build_report,
    certify,
    checklist_holds,
    weight_slack,
)
