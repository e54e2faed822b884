"""Every type with invariants checks them when it is built, and nothing else calls its check."""
import ast
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import numpy as np
import pytest

from slidebench import (
    Annotation,
    AnnotationSet,
    BinaryMask,
    ConfusionCounts,
    CoteachConfig,
    CorruptionSpec,
    LeaderboardEntry,
    PairedSample,
    PixelBatch,
    ProbabilityMap,
    PyramidLevel,
    SlidePyramid,
    SlideScore,
    SynthConfig,
    TeamReport,
    TileRecord,
    TilingConfig,
)
from slidebench.errors import GeometryError, ValidationError
from slidebench.leaderboard import GROUP_SINGLE
from slidebench.tiling import RULE_BIG_PATCH_NINE

SRC = Path(__file__).resolve().parents[1] / "src" / "slidebench"

_RGB = np.zeros((16, 16, 3), dtype=np.uint8)
_TRIANGLE = np.array([(0.0, 0.0), (4.0, 0.0), (0.0, 4.0)])
_FEATURES = np.zeros((4, 4, 6))

# per type, the error its check raises and builders of values that break it
INVALID = {
    "PyramidLevel": (ValidationError, [
        lambda: PyramidLevel(np.zeros((16, 16), dtype=np.uint8)),
        lambda: PyramidLevel(np.zeros((0, 16, 3), dtype=np.uint8)),
        lambda: PyramidLevel(_RGB.astype(np.float64)),
    ]),
    "SlidePyramid": (ValidationError, [
        lambda: SlidePyramid("s", []),
        lambda: SlidePyramid("s", [PyramidLevel(_RGB),
                                   PyramidLevel(np.zeros((8, 9, 3), dtype=np.uint8))]),
    ]),
    "Annotation": (ValidationError, [
        lambda: Annotation("a", "g", _TRIANGLE[:2]),
        lambda: Annotation("a", "g", np.array([(0.0, 0.0), (np.inf, 0.0), (0.0, 4.0)])),
        lambda: Annotation("a", "g", _TRIANGLE.ravel()),
    ]),
    "AnnotationSet": (ValidationError, [
        lambda: AnnotationSet("s", [Annotation("a", "g", _TRIANGLE)] * 2),
    ]),
    "BinaryMask": (ValidationError, [
        lambda: BinaryMask("s", -1, np.zeros((2, 2), dtype=bool)),
        lambda: BinaryMask("s", 0, np.zeros((2, 2), dtype=np.uint8)),
    ]),
    "ProbabilityMap": (ValidationError, [
        lambda: ProbabilityMap("s", 0, np.full((2, 2), 1.5)),
        lambda: ProbabilityMap("s", 0, np.full((2, 2), np.nan)),
        lambda: ProbabilityMap("s", -1, np.zeros((2, 2))),
        lambda: ProbabilityMap("s", 0, np.zeros((2, 2), dtype=np.float32)),
    ]),
    "TileRecord": (ValidationError, [
        lambda: TileRecord("s", 0, 0, 0, 4, 0, 15, "Negative"),
        lambda: TileRecord("s", 0, 0, 0, 4, 17, 16, "Positive"),
        lambda: TileRecord("s", 0, 0, 0, 4, 0, 16, "Bogus"),
    ]),
    "TilingConfig": (ValidationError, [
        lambda: TilingConfig(tile_size=0),
        lambda: TilingConfig(rule="bogus"),
        lambda: TilingConfig(tile_size=100, rule=RULE_BIG_PATCH_NINE),
        lambda: TilingConfig(tissue_filter="median"),
        lambda: replace(TilingConfig(), stride=0),
    ]),
    "ConfusionCounts": (ValidationError, [lambda: ConfusionCounts(-1, 0, 0, 0)]),
    "SlideScore": (ValidationError, [
        lambda: SlideScore("s", 1.5, 1.0, 0.0, 0.0),
        lambda: SlideScore("s", 0.5, 1.0, 0.0, 0.0, subtype="Bogus"),
        lambda: SlideScore("s", 0.1, 0.8, 0.25, 1 / 6, counts=ConfusionCounts(3, 1, 1, 5)),
    ]),
    "TeamReport": (ValidationError, [
        lambda: TeamReport("t", [SlideScore("s", 0.5, 1.0, 0.0, 0.0)] * 2),
    ]),
    "PairedSample": (ValidationError, [
        lambda: PairedSample(("a", "b"), (0.5, 0.6), (0.5,)),
        lambda: PairedSample((), (), ()),
    ]),
    "LeaderboardEntry": (ValidationError, [
        lambda: LeaderboardEntry("t", "Nonsense", 0.5, 0, 0.5, 0, 0, 1),
        lambda: LeaderboardEntry("t", GROUP_SINGLE, 0.5, 0, 0.5, 0, 0, 0),
    ]),
    "SynthConfig": (ValidationError, [
        lambda: SynthConfig(slides=0),
        lambda: replace(SynthConfig(), seed=-1),
    ]),
    "CorruptionSpec": (ValidationError, [
        lambda: CorruptionSpec(flip_rate=1.5),
        lambda: replace(CorruptionSpec(), erode=-1),
    ]),
    "CoteachConfig": (ValidationError, [
        lambda: CoteachConfig(eta=0.0),
        lambda: CoteachConfig(tau=1.0),
        lambda: CoteachConfig(t_max=0),
        lambda: replace(CoteachConfig(), seed=-1),
    ]),
    "PixelBatch": (GeometryError, [
        lambda: PixelBatch("b", _FEATURES, np.zeros((4, 5), dtype=bool)),
        lambda: PixelBatch("b", _FEATURES, np.zeros((4, 4), dtype=np.uint8)),
    ]),
}


@pytest.mark.parametrize("kind", INVALID)
def test_invalid_objects_cannot_be_built(kind):
    error, builders = INVALID[kind]
    for build in builders:
        with pytest.raises(error):
            build()


def test_a_pixel_batch_without_pixels_is_rejected_by_name():
    # with no pixels the trainers would divide by zero and blame the step size
    with pytest.raises(ValidationError, match="batch e: no pixels"):
        PixelBatch("e", np.zeros((0, 4, 6)), np.zeros((0, 4), dtype=bool))


@pytest.mark.parametrize("config", [SynthConfig(), CorruptionSpec(), TilingConfig(),
                                    CoteachConfig()], ids=lambda c: type(c).__name__)
def test_checked_configs_cannot_change(config):
    with pytest.raises(FrozenInstanceError):
        setattr(config, fields(config)[0].name, -1)


def test_no_module_calls_validate():
    """A value is checked once, when it is built; ``validate`` is only ``__post_init__``."""
    calls = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "validate"
    ]
    assert calls == []


def _top_level_owners(tree: ast.Module):
    """``(name, node)`` for every node of a module: ``name`` is the top-level function the
    node sits in, or ``""`` outside every function."""
    for top in tree.body:
        owner = top.name if isinstance(top, ast.FunctionDef) else ""
        for node in ast.walk(top):
            yield owner, node


def _sites(match) -> list[str]:
    return [f"{path.name}:{owner}"
            for path in sorted(SRC.glob("*.py"))
            for owner, node in _top_level_owners(ast.parse(path.read_text()))
            if match(node)]


def _is_attribute(node, module: str, names: tuple[str, ...]) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr in names
            and isinstance(node.value, ast.Name) and node.value.id == module)


def test_every_json_document_and_csv_goes_through_its_one_dialect():
    """No module sets up its own CSV writer or indented JSON; each dialect has one site."""
    assert _sites(lambda n: _is_attribute(n, "csv", ("writer", "DictWriter"))) == [
        "errors.py:format_csv"]
    assert _sites(lambda n: isinstance(n, ast.Call)
                  and _is_attribute(n.func, "json", ("dump", "dumps"))
                  and any(k.arg == "indent" for k in n.keywords)) == ["errors.py:format_json"]


def test_netpbm_has_one_writer():
    """``row_writer`` is the only netpbm function that writes or opens a file to write."""
    tree = ast.parse((SRC / "netpbm.py").read_text())
    writers = {owner for owner, node in _top_level_owners(tree)
               if isinstance(node, ast.FunctionDef) and "write" in node.name
               or isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
               and node.func.id == "open"
               and any(isinstance(a, ast.Constant) and set(str(a.value)) & set("wax+")
                       for a in node.args[1:])}
    assert writers == {"row_writer"}
