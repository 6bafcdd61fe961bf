"""Correlation of powers of Brown-Resnick max-stable fields and the
spatial risk measures they induce, with an internal Monte-Carlo oracle."""

from .dependence import (
    GevParams,
    PowerSpec,
    cov_gev,
    cov_simple,
    dep_measure,
    dep_measure_from_gamma,
    extremal_coefficient,
    mean_cost,
    var_gev,
    var_simple,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    DomainError,
    UnsupportedVariogramError,
    WindriskError,
)
from .geometry import (
    Region,
    disk,
    disk_distance_density,
    square,
    square_distance_density,
)
from .numerics import (
    DEFAULT_QUAD,
    QuadResult,
    QuadSpec,
    integrate,
    integrate_rows,
    norm_cdf,
    norm_pdf,
    norm_quantile,
)
from .risk import (
    CltApprox,
    RiskQuery,
    asymptotic_cov_integral,
    clt_approx,
    es_asymptotic,
    r2,
    r2_curves,
    var_asymptotic,
)
from .simulate import (
    FieldSample,
    Grid,
    McEstimate,
    brown_resnick_at,
    gaussian_increment_field,
    gev_transform,
    gev_transform_values,
    grid_region_mask,
    mc_normalized_loss,
    mc_risk,
    read_field_samples,
    region_grid,
    simulate_brown_resnick,
    simulate_schlather,
    simulate_smith,
    simulate_tube,
    write_field_samples,
)
from .variogram import (
    Variogram,
    anisotropic_power,
    power,
    power_m,
    quadratic_form,
)

__version__ = "0.1.0"
