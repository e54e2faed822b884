"""Exception types shared across the toolkit, the one text read of its JSON and
text readers, their typed-field check and the file prefix of their errors, the
one JSON and one CSV dialect of its writers, and the option values the CLI offers.

The option values live here, beside the exceptions, so that the CLI parser
(``--help``, ``--version``) runs without numpy. ``masks``, ``tiling``,
``stats`` and ``leaderboard`` re-export the ones they use. The dialects import
``json`` and ``csv`` when first called, so those starts load neither.
"""

from contextlib import contextmanager

METHOD_OTSU = "otsu"
METHOD_GRAY200 = "gray200"
TISSUE_METHODS = (METHOD_OTSU, METHOD_GRAY200)

RULE_THRESHOLD75 = "threshold75"
RULE_THREECLASS = "three_class"
RULE_BIG_PATCH_NINE = "big_patch_nine"
RULES = (RULE_THRESHOLD75, RULE_THREECLASS, RULE_BIG_PATCH_NINE)

MODE_EXACT = "exact"
MODE_APPROX = "normal-approx"
MODE_AUTO = "auto"
MODES = (MODE_EXACT, MODE_APPROX, MODE_AUTO)

FORMATS = ("csv", "json", "text")


class SlidebenchError(Exception):
    """Base class for all toolkit errors."""


class FormatError(SlidebenchError):
    """A file violates its schema (manifest, XML, netpbm, JSONL, CSV)."""


class ValidationError(SlidebenchError):
    """An in-memory object violates its invariants or an operation precondition."""


class GeometryError(SlidebenchError):
    """Dimension, level, or coordinate-range mismatch between rasters."""


class DegenerateHistogramError(SlidebenchError):
    """Histogram has all mass in a single bin; no threshold separates two classes."""


class NoInformationError(SlidebenchError):
    """All paired differences are zero; the signed-rank test carries no information."""


class DivergenceError(SlidebenchError):
    """Learner parameters or gradients became non-finite during training."""


class ConfigError(SlidebenchError):
    """Invalid configuration value or malformed config file."""


class DegeneratePolygonWarning(UserWarning):
    """A polygon had zero area after scaling and contributed no pixels."""


def read_text(path, what: str, parse=None, error=FormatError):
    """The UTF-8 text of ``path``, through ``parse`` if given (``json.loads``, say). A
    ValueError of either (a bad byte, malformed JSON) is raised as ``error``: ``{path}:
    cannot read {what}: {exc}``. An OSError passes through."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        return parse(text) if parse else text
    except ValueError as exc:
        raise error(f"{path}: cannot read {what}: {exc}") from exc


def typed_field(record, key: str, kind, where: str):
    """``record[key]``, checked to be an instance of ``kind`` (a type or tuple).

    ``bool`` never passes for a number. Raises FormatError, prefixed by
    ``where``, when ``record`` is not a JSON object, lacks ``key`` or holds a
    value of another type.
    """
    if not isinstance(record, dict):
        raise FormatError(f"{where} is not a JSON object")
    if key not in record:
        raise FormatError(f"{where} missing field {key!r}")
    value = record[key]
    kinds = kind if isinstance(kind, tuple) else (kind,)
    if not isinstance(value, kinds) or (isinstance(value, bool) and bool not in kinds):
        names = " or ".join(k.__name__ for k in kinds)
        raise FormatError(f"{where} field {key!r} is {value!r}, expected {names}")
    return value


@contextmanager
def naming(path, error=FormatError):
    """Re-raise a ValidationError of the block as ``error`` naming ``path``, the file read."""
    try:
        yield
    except ValidationError as exc:
        raise error(f"{path}: {exc}") from exc


def format_json(obj) -> str:
    """``obj`` as the toolkit writes every JSON document: indented by 2, newline-ended."""
    import json

    return json.dumps(obj, indent=2) + "\n"


def format_csv(header, rows) -> str:
    """``header`` and ``rows`` as the toolkit writes every CSV: each row ends with ``\\n``."""
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()
