"""slidebench: a synthetic whole-slide segmentation benchmark toolkit.

The package covers the full loop of a segmentation challenge: pyramid slide
storage, polygon annotations, label refinement against tissue masks, tile
extraction, pixel-level scoring, signed-rank comparisons and leaderboards,
multi-model fusion, a noisy-label co-teaching demo, and a synthetic slide
generator that makes every one of those steps testable against exact truth.

``import slidebench`` runs none of its submodules. Each one is registered in
``sys.modules`` through ``importlib.util.LazyLoader`` and runs on first use,
so a CLI start runs only what its subcommand calls. The names below are
looked up in the submodule that defines them on every access (PEP 562), so
``slidebench.tissue_mask`` always is ``slidebench.masks.tissue_mask``, even
while that attribute is patched.
"""
import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

__version__ = "1.0.0"

# the public names, by the submodule that defines them
_EXPORTS = {
    "errors": """ConfigError DegenerateHistogramError DegeneratePolygonWarning DivergenceError
        FormatError GeometryError NoInformationError SlidebenchError ValidationError
        METHOD_GRAY200 METHOD_OTSU TISSUE_METHODS""",
    "slide_io": """Annotation AnnotationSet PyramidLevel SlidePyramid build_pyramid
        level_dimensions parse_annotations read_pyramid serialize_annotations write_pyramid""",
    "masks": "BinaryMask luma otsu_threshold rasterize read_mask refine_labels tissue_mask write_mask",
    "tiling": "TileRecord TilingConfig emit_manifest extract_tiles read_manifest rebalance_mix",
    "reports": """ConfusionCounts SlideScore TeamReport aggregate dice read_report read_subtypes
        read_truth_table report_aggregates score_slide write_report write_scores_csv""",
    "metrics": "confusion evaluate_team",
    "stats": "PairedSample SignedRankResult wilcoxon_signed_rank",
    "leaderboard": "LeaderboardEntry group_compare rank_teams render_leaderboard",
    "ensemble": """ProbabilityMap binarize fuse_mean fuse_vote read_probability_map
        write_probability_map""",
    "coteach": "CoteachConfig PixelBatch coteach_step noise_benchmark pixel_features train train_single",
    "synth": """CorruptionSpec SynthConfig corrupt_prediction generate_challenge generate_slide
        slide_name""",
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_ORIGIN)


def _register(*names: str) -> None:
    """Put each submodule in ``sys.modules`` and in this package, to run on first use."""
    for name in names:
        spec = find_spec(f"{__name__}.{name}")
        spec.loader = LazyLoader(spec.loader)
        module = module_from_spec(spec)
        sys.modules[spec.name] = globals()[name] = module
        spec.loader.exec_module(module)


_register("cli", "netpbm", "parallel", *_EXPORTS)


def __getattr__(name: str):
    # not cached in this module: the name must follow its submodule's attribute
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_ORIGIN[name]], name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
