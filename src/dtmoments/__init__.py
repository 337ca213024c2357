"""Exact *-moments of diagonal-plus-triangular operator limits.

The package computes limit traces of words in a normal diagonal generator D
(with base measure mu) and a strictly upper-triangular Gaussian generator T,
three independent ways:

* exactly, by an interval DP over letter positions that sums over all
  compatible non-crossing pairings at once, each weighted by the
  linear-extension count of its folded quotient tree (:mod:`.moments`); the
  pairing-by-pairing sum stays in the tests as its oracle;
* for the scale-1 point-mass specialization, by a subset recursion on
  alternating exponent sequences (:mod:`.quasinil`);
* empirically, by seeded random-matrix Monte Carlo (:mod:`.rmt`).

Supporting machinery: measure models exposed through mixed moments
(:mod:`.measures`), exact power-series transforms (:mod:`.transforms`), and
the closed-form spectral density of T*T (:mod:`.spectral`).
"""

from .errors import CapExceededError, WordParseError
from .exact import ComplexRational, MomentValue
from .linext import TreePoset, count_linear_extensions, nto
from .measures import (
    Atomic,
    MeasureModel,
    MomentTable,
    ScaledMeasure,
    UniformAnnulus,
    UniformDisk,
    UniformEllipse,
    conjugate,
    measure_from_json,
    mixed_moment,
    scale,
)
from .moments import (
    DTWord,
    ZWord,
    adjoint_dt,
    dt_word_moment,
    elliptic_dt,
    parse_word,
    scaled_dt,
    t_word_moment,
    word_moment,
    z_word_moment,
)
from .ncpair import (
    ONE,
    STAR,
    OrientedQuotientGraph,
    Pairing,
    StarWord,
    enumerate_compatible_ncp,
    is_noncrossing,
    quotient_graph,
)
from .quasinil import (
    ZERO,
    canonicalize,
    conjecture_value,
    m_recursive,
    stn_moment,
    tstt_moment,
    ttn_moment,
)
from .rmt import (
    Estimate,
    deterministic_diagonal_run,
    estimate_elliptic_moment,
    estimate_word_moment,
    pure_t_word_sweep,
)
from .spectral import (
    DensityPoint,
    SUPPORT_UPPER,
    density_grid,
    density_moment,
    phi_at,
    rho,
)
from .transforms import (
    Series,
    finite_n_r_relation_check,
    free_cumulants_to_moments,
    kn_inverse_check,
    l_limit_inverse_check,
    ln_inverse_check,
    moments_to_free_cumulants,
    r_transform_closed_form,
)

__version__ = "0.1.0"
