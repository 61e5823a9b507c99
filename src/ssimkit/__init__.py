"""Full-reference structural-similarity toolkit.

Local statistics under rectangular/Gaussian windows, from one path shared by
frames and rolling temporal volumes (exact box sums for integer samples,
summed-area tables for float ones), SSIM and multiscale SSIM,
spatio-temporal SSIM over rolling temporal windows, color similarity
models, one table of spatial/temporal pooling operators, resolution/viewing
adaptation, scaled-score prediction, and a 5PL + correlation benchmarking
harness with a batch CLI.
"""

from .adaptation import (
    HistogramMatcher,
    ProductPredictor,
    box_downsample,
    compute_ratio,
    enhanced_scale_factor,
    legacy_scale_factor,
    sast_factor,
    scaled_ssim_product,
    viewing_geometry,
)
from .color import (
    channelwise_cssim,
    cmssim,
    fixed_weight_cssim,
    hssim,
    qssim,
    rgb_to_ycbcr_bt709,
    ycbcr_bt709_to_rgb,
)
from .config import (
    ColorModelSpec,
    MultiscaleSpec,
    ScalePolicy,
    SsimConfig,
    STANDARD_EXPONENTS,
    WindowSpec,
)
from .errors import SsimkitError
from .evaluation import (
    CostPerfPoint,
    LabeledDataset,
    Logistic5,
    correlations,
    cross_apply,
    eval_5pl,
    fit_5pl,
    pareto_front,
)
from .frames import ColorFrame, LumaPlane, QualityMap, ScoreSeries, validate_frame_pair
from .media import read_planar_raw, read_pnm, read_y4m, write_report
from .multiscale import dyadic_downsample, msssim
from .pipeline import PipelineSpec, expand_preset, run_benchmark, run_score
from .pooling import SpatialPooler, TemporalPooler, pool_spatial, pool_temporal
from .spatiotemporal import RollingVolume, msssim3d, ssim3d_map
from .ssim import SsimTermMaps, mssim, ssim_map, ssim_score
from .stats import LocalStatsMaps, gaussian_kernel, local_statistics, rect_equivalent

__version__ = "0.1.0"

__all__ = [
    "HistogramMatcher",
    "ProductPredictor",
    "box_downsample",
    "compute_ratio",
    "enhanced_scale_factor",
    "legacy_scale_factor",
    "sast_factor",
    "scaled_ssim_product",
    "viewing_geometry",
    "channelwise_cssim",
    "cmssim",
    "fixed_weight_cssim",
    "hssim",
    "qssim",
    "rgb_to_ycbcr_bt709",
    "ycbcr_bt709_to_rgb",
    "ColorModelSpec",
    "MultiscaleSpec",
    "ScalePolicy",
    "SsimConfig",
    "STANDARD_EXPONENTS",
    "WindowSpec",
    "SsimkitError",
    "CostPerfPoint",
    "LabeledDataset",
    "Logistic5",
    "correlations",
    "cross_apply",
    "eval_5pl",
    "fit_5pl",
    "pareto_front",
    "ColorFrame",
    "LumaPlane",
    "QualityMap",
    "ScoreSeries",
    "validate_frame_pair",
    "read_planar_raw",
    "read_pnm",
    "read_y4m",
    "write_report",
    "dyadic_downsample",
    "msssim",
    "PipelineSpec",
    "expand_preset",
    "run_benchmark",
    "run_score",
    "SpatialPooler",
    "TemporalPooler",
    "pool_spatial",
    "pool_temporal",
    "RollingVolume",
    "msssim3d",
    "ssim3d_map",
    "SsimTermMaps",
    "mssim",
    "ssim_map",
    "ssim_score",
    "LocalStatsMaps",
    "gaussian_kernel",
    "local_statistics",
    "rect_equivalent",
]
