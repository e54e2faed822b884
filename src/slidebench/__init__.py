"""slidebench: a synthetic whole-slide segmentation benchmark toolkit.

The package covers the full loop of a segmentation challenge: pyramid slide
storage, polygon annotations, label refinement against tissue masks, tile
extraction, pixel-level scoring, signed-rank comparisons and leaderboards,
multi-model fusion, a noisy-label co-teaching demo, and a synthetic slide
generator that makes every one of those steps testable against exact truth.
"""
__version__ = "1.0.0"

from .errors import (
    ConfigError,
    DegenerateHistogramError,
    DegeneratePolygonWarning,
    DivergenceError,
    FormatError,
    GeometryError,
    NoInformationError,
    SlidebenchError,
    ValidationError,
)
from .slide_io import (
    Annotation,
    AnnotationSet,
    PyramidLevel,
    SlidePyramid,
    build_pyramid,
    level_dimensions,
    parse_annotations,
    read_pyramid,
    serialize_annotations,
    write_pyramid,
)
from .masks import (
    METHOD_GRAY200,
    METHOD_OTSU,
    TISSUE_METHODS,
    BinaryMask,
    luma,
    otsu_threshold,
    rasterize,
    read_mask,
    refine_labels,
    tissue_mask,
    write_mask,
)
from .tiling import (
    TileRecord,
    TilingConfig,
    big_patch_nine,
    emit_manifest,
    extract_tiles,
    read_manifest,
    rebalance_mix,
)
from .metrics import (
    ConfusionCounts,
    SlideScore,
    TeamReport,
    aggregate,
    confusion,
    dice,
    evaluate_team,
    read_report,
    report_aggregates,
    score_slide,
    write_report,
    write_scores_csv,
)
from .stats import PairedSample, SignedRankResult, wilcoxon_signed_rank
from .leaderboard import (
    LeaderboardEntry,
    group_compare,
    rank_teams,
    render_leaderboard,
)
from .ensemble import (
    ProbabilityMap,
    binarize,
    fuse_mean,
    fuse_vote,
    read_probability_map,
    write_probability_map,
)
from .coteach import (
    CoteachConfig,
    PixelBatch,
    coteach_step,
    noise_benchmark,
    pixel_features,
    train,
    train_single,
)
from .synth import (
    CorruptionSpec,
    SynthConfig,
    corrupt_prediction,
    generate_challenge,
    generate_slide,
    read_subtypes,
    read_truth_table,
    slide_name,
)
