"""Exception types shared across the toolkit, and the typed-field check of its JSON readers."""


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
