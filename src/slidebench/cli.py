"""Command-line entry point for the whole toolkit.

Every subcommand is fully specified by its flags: same flags and inputs give
byte-identical outputs, regardless of --workers. Exit codes: 0 success,
1 data error (bad file contents, failed invariants), 2 usage error.
Diagnostics go to stderr; machine-readable output goes to files or stdout.
Each ``cmd_*`` imports its stage's functions itself, so a start runs only
the modules its subcommand calls: ``--version`` and ``--help`` need no numpy.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .errors import FORMATS, METHOD_OTSU, MODE_AUTO, MODES, RULE_THRESHOLD75, RULES, TISSUE_METHODS
from .errors import FormatError, SlidebenchError, ValidationError


def _parse_team(text: str, default_seed: int) -> tuple[str, CorruptionSpec]:
    from .synth import CorruptionSpec

    name, _, rest = text.partition(":")
    if not name:
        raise ValidationError(f"--team {text!r}: empty team name")
    kwargs: dict = {"seed": default_seed}
    if rest:
        for part in rest.split(","):
            key, sep, value = part.partition("=")
            key = key.strip()
            if not sep or key not in ("erode", "dilate", "flip_rate", "seed"):
                raise ValidationError(f"--team {text!r}: bad field {part!r}")
            try:
                kwargs[key] = float(value) if key == "flip_rate" else int(value)
            except ValueError as exc:
                raise ValidationError(f"--team {text!r}: bad value in {part!r}") from exc
    return name, CorruptionSpec(**kwargs)


def cmd_synth(args: argparse.Namespace) -> int:
    from .synth import CorruptionSpec, SynthConfig, generate_challenge

    cfg = SynthConfig(
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
            ("exact", CorruptionSpec(seed=args.seed)),
            ("flip2", CorruptionSpec(flip_rate=0.02, seed=args.seed)),
            ("flip5", CorruptionSpec(flip_rate=0.05, seed=args.seed)),
        ]
    summary = generate_challenge(cfg, teams, args.out, workers=args.workers)
    print(json.dumps(summary, indent=2))
    return 0


def cmd_tissue(args: argparse.Namespace) -> int:
    from .masks import tissue_mask, write_mask
    from .slide_io import read_pyramid

    pyramid = read_pyramid(args.slide)
    mask = tissue_mask(pyramid, args.level, args.method)
    write_mask(mask, args.out)
    return 0


def cmd_rasterize(args: argparse.Namespace) -> int:
    from .masks import rasterize, write_mask
    from .slide_io import parse_annotations, read_pyramid

    pyramid = read_pyramid(args.slide)
    aset = parse_annotations(args.annotations)
    if aset.slide_id != pyramid.slide_id:
        raise ValidationError(
            f"{args.annotations} annotates slide {aset.slide_id!r}, not {pyramid.slide_id!r}"
        )
    lvl = pyramid.level(args.level)
    mask = rasterize(aset, args.level, lvl.width, lvl.height)
    write_mask(mask, args.out)
    return 0


def cmd_refine(args: argparse.Namespace) -> int:
    from .masks import read_mask, refine_labels, write_mask

    gt = read_mask(args.gt)
    tissue = read_mask(args.tissue)
    write_mask(refine_labels(gt, tissue), args.out)
    return 0


def cmd_tile(args: argparse.Namespace) -> int:
    from .masks import read_mask
    from .slide_io import read_pyramid
    from .tiling import TilingConfig, emit_manifest, extract_tiles, rebalance_mix

    pyramid = read_pyramid(args.slide)
    gt = read_mask(args.gt)
    cfg = TilingConfig(
        tile_size=args.size,
        stride=args.stride,
        level=args.level,
        rule=args.rule,
        tissue_filter=args.tissue_filter,
    )
    records = extract_tiles(pyramid, gt, cfg, workers=args.workers)
    if args.rebalance:
        records = rebalance_mix(records, args.seed)
    emit_manifest(records, args.out)
    return 0


def _load_mask_dir(directory: str | Path) -> dict:
    from .masks import read_mask

    directory = Path(directory)
    if not directory.is_dir():
        raise FormatError(f"{directory}: not a directory")
    masks, paths = {}, {}
    for path in sorted(directory.glob("*.pgm")):
        mask = read_mask(path)
        if mask.slide_id in paths:
            raise FormatError(f"{paths[mask.slide_id]} and {path} both hold slide {mask.slide_id!r}")
        masks[mask.slide_id], paths[mask.slide_id] = mask, path
    if not masks:
        raise FormatError(f"{directory}: no .pgm masks found")
    return masks


def cmd_eval(args: argparse.Namespace) -> int:
    from .metrics import evaluate_team, write_report, write_scores_csv
    from .reports import read_subtypes

    gt = _load_mask_dir(args.truth)
    pred = _load_mask_dir(args.pred)
    subtypes = read_subtypes(args.subtypes) if args.subtypes else None
    report = evaluate_team(args.team, gt, pred, subtypes=subtypes, workers=args.workers)
    write_report(report, args.out)
    if args.csv:
        write_scores_csv(report, args.csv)
    return 0


def cmd_ensemble(args: argparse.Namespace) -> int:
    from .ensemble import binarize, fuse_mean, fuse_vote, read_probability_map
    from .ensemble import write_probability_map
    from .masks import read_mask, write_mask

    if args.mode == "vote" and args.binarize is not None:
        raise ValidationError("--binarize applies only to --mode mean")
    if args.mode == "mean":
        maps = [read_probability_map(p) for p in args.inputs]
        fused = fuse_mean(maps)
        if args.binarize is not None:
            write_mask(binarize(fused, args.binarize), args.out)
        else:
            write_probability_map(fused, args.out)
    else:
        masks = [read_mask(p) for p in args.inputs]
        write_mask(fuse_vote(masks), args.out)
    return 0


def cmd_coteach(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from .coteach import NOISE_BENCHMARK_CONFIG, make_noise_benchmark, noise_benchmark
    from .coteach import parse_config, train, write_history

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    base = parse_config(args.config) if args.config else NOISE_BENCHMARK_CONFIG
    results = [noise_benchmark(seed, replace(base, seed=seed)) for seed in range(args.seeds)]
    train_set, _, _ = make_noise_benchmark(0)
    _, _, history = train(train_set, base, use_agreement=False)
    write_history(history, out / "history.csv")
    wins = sum(r["coteach_accuracy"] >= r["single_accuracy"] for r in results)
    summary = {"runs": results, "coteach_at_least_single": wins, "seeds": args.seeds}
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    return 0


def _load_reports(paths: list[str]) -> list:
    from .reports import read_report

    expanded = []
    for p in paths:
        path = Path(p)
        if path.is_dir():
            expanded.extend(sorted(path.glob("*.json")))
        else:
            expanded.append(path)
    if not expanded:
        raise FormatError("no report files found")
    return [read_report(p) for p in expanded]


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
    from .leaderboard import group_compare

    reports = _load_reports(args.reports)
    grouping = _parse_groups(args.groups)
    result = group_compare(reports, grouping, mode=args.mode)
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    return 0


def cmd_leaderboard(args: argparse.Namespace) -> int:
    from .leaderboard import rank_teams, render_leaderboard

    reports = _load_reports(args.reports)
    grouping = _parse_groups(args.groups)
    entries = rank_teams(reports, grouping)
    document = render_leaderboard(entries, args.format)
    if args.out:
        Path(args.out).write_text(document)
    else:
        sys.stdout.write(document)
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
    _add(p, LEVEL)
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
    if argv is None:
        argv = sys.argv[1:]
    if not argv:
        parser.print_usage(sys.stderr)
        return 2
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.func(args)
    except (SlidebenchError, OSError) as exc:
        print(f"slidebench: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
