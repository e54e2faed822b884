"""Command-line entry point for the whole toolkit.

Every subcommand is fully specified by its flags: same flags and inputs give
byte-identical outputs, regardless of --workers. Exit codes: 0 success,
1 data error (bad file contents, failed invariants, no memory left), 2 usage error,
130 and 143 a run stopped by SIGINT and SIGTERM, whose pool is killed and reaped.
Diagnostics go to stderr; machine-readable output goes to files or stdout, as UTF-8.
The stages are the package's lazy submodules, which run on first use, so a
start runs only the modules its subcommand calls: ``--version`` and ``--help``
need no numpy. A command that loads numpy gets one OpenBLAS thread unless
``OPENBLAS_NUM_THREADS`` is set.
"""
from __future__ import annotations

import argparse
import os
import signal
import sys
import threading
from pathlib import Path

from . import __version__, coteach, ensemble, leaderboard, masks, metrics, reports, slide_io
from . import synth, tiling
from .errors import FORMATS, METHOD_OTSU, MODE_AUTO, MODES, RULE_THRESHOLD75, RULES, TISSUE_METHODS
from .errors import FormatError, SlidebenchError, ValidationError, format_json, write_text


def _write_stdout(document: str) -> None:
    """Write ``document`` to stdout as UTF-8 bytes, as ``write_text`` writes a file, whatever
    the locale's encoding; a stream without bytes (``io.StringIO``) takes the text."""
    sys.stdout.flush()
    buffer = getattr(sys.stdout, "buffer", None)
    if buffer is None:
        sys.stdout.write(document)
    else:
        buffer.write(document.encode("utf-8"))


def _parse_team(text: str, default_seed: int) -> tuple[str, synth.CorruptionSpec]:
    from dataclasses import fields

    name, _, rest = text.partition(":")
    casts = {f.name: type(f.default) for f in fields(synth.CorruptionSpec)}
    kwargs: dict = {}
    if rest:
        for part in rest.split(","):
            key, sep, value = part.partition("=")
            key = key.strip()
            if not sep or key not in casts:
                raise ValidationError(f"--team {text!r}: bad field {part!r}")
            if key in kwargs:
                raise ValidationError(f"--team {text!r}: repeated field {key!r}")
            try:
                kwargs[key] = casts[key](value)
            except ValueError as exc:
                raise ValidationError(f"--team {text!r}: bad value in {part!r}") from exc
    return name, synth.CorruptionSpec(**{"seed": default_seed, **kwargs})


def cmd_synth(args: argparse.Namespace) -> int:
    cfg = synth.SynthConfig(
        seed=args.seed,
        slides=args.slides,
        level0_size=args.size,
        n_levels=args.levels,
        n_lesions=(args.lesions[0], args.lesions[1]),
        lesion_radius=(args.radius[0], args.radius[1]),
        subtype_ratio=tuple(args.ratio),
        annotation_dilation=args.dilation,
        label_background_inclusion=args.include_background,
    )
    if args.team:
        teams = [_parse_team(t, args.seed) for t in args.team]
    else:
        teams = [
            ("exact", synth.CorruptionSpec(seed=args.seed)),
            ("flip2", synth.CorruptionSpec(flip_rate=0.02, seed=args.seed)),
            ("flip5", synth.CorruptionSpec(flip_rate=0.05, seed=args.seed)),
        ]
    summary = synth.generate_challenge(cfg, teams, args.out, workers=args.workers)
    _write_stdout(format_json(summary))
    return 0


def cmd_tissue(args: argparse.Namespace) -> int:
    pyramid = slide_io.read_pyramid(args.slide)
    masks.write_mask(masks.tissue_mask(pyramid, args.level, args.method), args.out)
    return 0


def cmd_rasterize(args: argparse.Namespace) -> int:
    pyramid = slide_io.read_pyramid(args.slide)
    aset = slide_io.parse_annotations(args.annotations)
    if aset.slide_id != pyramid.slide_id:
        raise ValidationError(
            f"{args.annotations} annotates slide {aset.slide_id!r}, not {pyramid.slide_id!r}"
        )
    lvl = pyramid.level(args.level)
    masks.write_mask(masks.rasterize(aset, args.level, lvl.width, lvl.height), args.out)
    return 0


def cmd_refine(args: argparse.Namespace) -> int:
    gt = masks.read_mask(args.gt)
    tissue = masks.read_mask(args.tissue)
    masks.write_mask(masks.refine_labels(gt, tissue), args.out)
    return 0


def cmd_tile(args: argparse.Namespace) -> int:
    pyramid = slide_io.read_pyramid(args.slide)
    gt = masks.read_mask(args.gt)
    cfg = tiling.TilingConfig(
        tile_size=args.size,
        stride=args.stride,
        rule=args.rule,
        tissue_filter=args.tissue_filter,
    )
    records = tiling.extract_tiles(pyramid, gt, cfg, workers=args.workers)
    if args.rebalance:
        records = tiling.rebalance_mix(records, args.seed)
    tiling.emit_manifest(records, args.out)
    return 0


class _MaskFiles(dict):
    """Slide id -> checked mask file. A lookup reads the mask, so each pool worker reads
    only the slides it scores, and holds one at a time."""

    def __getitem__(self, slide_id: str) -> masks.BinaryMask:
        return masks.read_mask(super().__getitem__(slide_id))


def _mask_files(directory: str | Path) -> _MaskFiles:
    directory = Path(directory)
    if not directory.is_dir():
        raise FormatError(f"{directory}: not a directory")
    paths = {}
    for path in sorted(directory.glob("*.pgm")):
        slide_id = masks.check_mask(path)
        if slide_id in paths:
            raise FormatError(f"{paths[slide_id]} and {path} both hold slide {slide_id!r}")
        paths[slide_id] = path
    if not paths:
        raise FormatError(f"{directory}: no .pgm masks found")
    return _MaskFiles(paths)


def cmd_eval(args: argparse.Namespace) -> int:
    gt = _mask_files(args.truth)
    pred = _mask_files(args.pred)
    subtypes = reports.read_subtypes(args.subtypes) if args.subtypes else None
    report = metrics.evaluate_team(args.team, gt, pred, subtypes=subtypes, workers=args.workers)
    reports.write_report(report, args.out)
    if args.csv:
        reports.write_scores_csv(report, args.csv)
    return 0


def cmd_ensemble(args: argparse.Namespace) -> int:
    if args.mode == "vote" and args.binarize is not None:
        raise ValidationError("--binarize applies only to --mode mean")
    if args.mode == "mean":
        fused = ensemble.fuse_mean([ensemble.read_probability_map(p) for p in args.inputs])
        if args.binarize is not None:
            masks.write_mask(ensemble.binarize(fused, args.binarize), args.out)
        else:
            ensemble.write_probability_map(fused, args.out)
    else:
        masks.write_mask(ensemble.fuse_vote([masks.read_mask(p) for p in args.inputs]), args.out)
    return 0


def cmd_coteach(args: argparse.Namespace) -> int:
    from dataclasses import replace

    if args.seeds < 1:
        raise ValidationError(f"--seeds must be >= 1, got {args.seeds}")
    base = coteach.parse_config(args.config) if args.config else coteach.CoteachConfig()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    results = [coteach.noise_benchmark(seed, replace(base, seed=seed))
               for seed in range(args.seeds)]
    histories = [r.pop("history") for r in results]
    coteach.write_history(histories[0], out / "history.csv")
    wins = sum(r["coteach_accuracy"] >= r["single_accuracy"] for r in results)
    summary = {"runs": results, "coteach_at_least_single": wins, "seeds": args.seeds}
    write_text(out / "summary.json", format_json(summary))
    return 0


def _load_reports(paths: list[str]) -> list:
    expanded = []
    for p in paths:
        path = Path(p)
        if path.is_dir():
            expanded.extend(sorted(path.glob("*.json")))
        else:
            expanded.append(path)
    if not expanded:
        raise FormatError("no report files found")
    return [reports.read_report(p) for p in expanded]


def _parse_groups(text: str | None) -> dict[str, str]:
    if not text:
        return {}
    groups = {}
    for part in text.split(","):
        team, sep, group = (s.strip() for s in part.partition("="))
        if not sep or not team or not group:
            raise ValidationError(f"--groups: expected team=Group, got {part!r}")
        if team in groups:
            raise ValidationError(f"--groups: team {team!r} is named twice")
        groups[team] = group
    return groups


def cmd_compare(args: argparse.Namespace) -> int:
    team_reports = _load_reports(args.reports)
    grouping = _parse_groups(args.groups)
    result = leaderboard.group_compare(team_reports, grouping, mode=args.mode)
    write_text(args.out, format_json(result))
    return 0


def cmd_leaderboard(args: argparse.Namespace) -> int:
    team_reports = _load_reports(args.reports)
    grouping = _parse_groups(args.groups)
    entries = leaderboard.rank_teams(team_reports, grouping)
    document = leaderboard.render_leaderboard(entries, args.format)
    if args.out:
        write_text(args.out, document)
    else:
        _write_stdout(document)
    return 0


# flags that more than one subcommand takes, as (flag, add_argument keywords)
SEED = ("--seed", {"type": int, "default": 0, "help": "global random seed"})
WORKERS = ("--workers", {"type": int, "default": 1, "help": "worker process count"})
SLIDE = ("--slide", {"required": True, "help": "pyramid manifest.json"})
LEVEL = ("--level", {"type": int, "default": 0})
GT = ("--gt", {"required": True, "help": "ground-truth mask .pgm"})
REPORTS = ("--reports", {"required": True, "nargs": "+",
                         "help": "report .json files or a directory"})


class _SubcommandParser(argparse.ArgumentParser):
    """A subcommand's parser: no abbreviated flags (coteach's --seed must not be
    taken for --seeds), and unknown flags reported with its own usage line."""

    def __init__(self, **kwargs) -> None:
        super().__init__(allow_abbrev=False, **kwargs)

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def _add(parser: argparse.ArgumentParser, *options: tuple[str, dict]) -> None:
    for flag, kwargs in options:
        parser.add_argument(flag, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slidebench",
        description="Synthetic whole-slide segmentation benchmark toolkit.",
    )
    parser.add_argument("--version", action="version", version=f"slidebench {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command", parser_class=_SubcommandParser)

    p = sub.add_parser("synth", help="generate a synthetic challenge tree")
    _add(p, SEED, WORKERS)
    p.add_argument("--out", required=True)
    p.add_argument("--slides", type=int, default=5)
    p.add_argument("--size", type=int, default=2048, help="level-0 square size in pixels")
    p.add_argument("--levels", type=int, default=3)
    p.add_argument("--lesions", type=int, nargs=2, default=(2, 5), metavar=("LO", "HI"))
    p.add_argument("--radius", type=float, nargs=2, default=(20.0, 60.0), metavar=("LO", "HI"))
    p.add_argument("--ratio", type=float, nargs=3, default=(6.0, 3.0, 1.0),
                   metavar=("SCC", "SCLC", "ADC"))
    p.add_argument("--dilation", type=int, default=0,
                   help="expand annotation polygons by this many pixels")
    p.add_argument("--include-background", action="store_true",
                   help="place lesions across the tissue boundary")
    p.add_argument("--team", action="append",
                   help="NAME[:erode=E,dilate=D,flip_rate=F,seed=S]; repeatable")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("tissue", help="compute a tissue mask")
    _add(p, SLIDE, LEVEL)
    p.add_argument("--method", choices=TISSUE_METHODS, default=METHOD_OTSU)
    p.add_argument("--out", required=True, help="output mask .pgm")
    p.set_defaults(func=cmd_tissue)

    p = sub.add_parser("rasterize", help="rasterize annotation polygons")
    p.add_argument("--annotations", required=True, help="annotation .xml")
    _add(p, SLIDE, LEVEL)
    p.add_argument("--out", required=True, help="output mask .pgm")
    p.set_defaults(func=cmd_rasterize)

    p = sub.add_parser("refine", help="intersect labels with tissue")
    _add(p, GT)
    p.add_argument("--tissue", required=True, help="tissue mask .pgm")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_refine)

    p = sub.add_parser("tile", help="extract labeled tiles")
    _add(p, SEED, WORKERS, SLIDE, GT)
    p.add_argument("--size", type=int, default=256)
    p.add_argument("--stride", type=int, default=None)
    p.add_argument("--rule", choices=RULES, default=RULE_THRESHOLD75)
    p.add_argument("--tissue-filter", choices=TISSUE_METHODS, default=None)
    p.add_argument("--rebalance", action="store_true",
                   help="fold Mix tiles and balance Tumor/Normal counts")
    p.add_argument("--out", required=True, help="output manifest .jsonl")
    p.set_defaults(func=cmd_tile)

    p = sub.add_parser("eval", help="score a team against ground truth")
    p.add_argument("--seed", type=int, default=0,
                   help="unused; accepted so one --seed can go to every stage")
    _add(p, WORKERS)
    p.add_argument("--truth", required=True, help="directory of ground-truth masks")
    p.add_argument("--pred", required=True, help="directory of prediction masks")
    p.add_argument("--team", required=True)
    p.add_argument("--subtypes", default=None, help="subtypes.csv mapping slides to subtypes")
    p.add_argument("--out", required=True, help="output report .json")
    p.add_argument("--csv", default=None, help="optional per-slide scores .csv")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ensemble", help="fuse probability maps or masks")
    p.add_argument("--inputs", required=True, nargs="+")
    p.add_argument("--mode", choices=("mean", "vote"), default="mean")
    p.add_argument("--binarize", type=float, default=None,
                   help="with --mode mean, write a mask at this threshold")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ensemble)

    p = sub.add_parser("coteach", help="run the noisy-label co-teaching benchmark")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config", default=None, help="key=value training config file")
    p.add_argument("--seeds", type=int, default=10)
    p.set_defaults(func=cmd_coteach)

    p = sub.add_parser("compare", help="signed-rank group comparison")
    _add(p, REPORTS)
    p.add_argument("--groups", required=True, help="team=Group[,team=Group...]")
    p.add_argument("--mode", choices=MODES, default=MODE_AUTO)
    p.add_argument("--out", required=True, help="output comparison .json")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("leaderboard", help="rank team reports")
    _add(p, REPORTS)
    p.add_argument("--groups", default=None, help="team=Group[,team=Group...]")
    p.add_argument("--format", choices=FORMATS, default="text")
    p.add_argument("--out", default=None, help="output file (default: stdout)")
    p.set_defaults(func=cmd_leaderboard)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_usage(sys.stderr)
        return 2
    if "numpy" not in sys.modules:
        # the package's BLAS calls are tiny, and an idle OpenBLAS pool spins CPU
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    main_thread = threading.current_thread() is threading.main_thread()  # only it sets handlers
    previous = signal.signal(signal.SIGTERM, _terminate) if main_thread else None
    try:
        return args.func(args)
    except (SlidebenchError, OSError, MemoryError) as exc:
        print(f"slidebench: error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    except KeyboardInterrupt as exc:  # SIGINT, or SIGTERM through _terminate
        print(f"slidebench: error: {exc.args[0] if exc.args else 'interrupted'}", file=sys.stderr)
        return 143 if exc.args else 130
    finally:
        if main_thread:
            signal.signal(signal.SIGTERM, previous)


def _terminate(signum: int, frame) -> None:
    """SIGTERM unwinds the run as SIGINT does, so ``run_chunks`` kills and reaps its workers."""
    raise KeyboardInterrupt("terminated")


if __name__ == "__main__":
    sys.exit(main())
