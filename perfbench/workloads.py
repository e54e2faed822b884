"""The benchmark's four workloads.

Each workload makes its inputs from the seed in ``setup``, does one timed
unit of work in ``run`` (a pass) and checks the pass's outputs in ``check``,
outside the timed region. Every call into slidebench goes through a module
attribute (``sb.read_pyramid``, ``coteach.train``), so the tracer's wrappers
see it. Why each workload exists and what it stresses:

- challenge: the ``scripts/full_pipeline.sh`` chain as CLI subprocesses at 2
  workers. Write-heavy; dominated by ``synth`` and 11 interpreter starts.
- large_slide: one slide whose RGB raster is larger than the host's
  last-level cache; tissue mask and tiling at 1 and 2 workers. Bandwidth
  bound; ``synth`` only in set-up.
- scoring: 36 masks read, fused and scored for 10 teams at 1 and 2
  workers. Read-heavy with many small calls; every ``confusion`` call at 2
  workers starts a process pool.
- noisy_labels: co-teaching on 10 seeds of 32x32 noisy tiles. The only user
  of ``coteach``; numpy per-call overhead dominates.
"""
from __future__ import annotations

import contextlib
import hashlib
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

import numpy as np

import slidebench as sb
from slidebench import coteach

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


class OpFailed(Exception):
    """An operation exited non-zero."""


class PassLog:
    """Operations, output checks and parallel-stage timings of one pass."""

    def __init__(self) -> None:
        self.ops: dict[str, bool] = {}
        self.checks: dict[str, bool] = {}
        self.stages: dict[str, float] = {}

    @contextlib.contextmanager
    def op(self, name: str):
        """An operation: it fails if it raises (the pass then stops) or a check on it fails."""
        self.ops[name] = False
        yield
        self.ops[name] = True

    @contextlib.contextmanager
    def stage(self, name: str):
        t0 = time.perf_counter()
        yield
        self.stages[name] = self.stages.get(name, 0.0) + time.perf_counter() - t0

    def check(self, name: str, ok: bool, ops: list[str]) -> None:
        """Record an output check; a failed check fails the operations it covers."""
        self.checks[name] = self.checks.get(name, True) and bool(ok)
        if not ok:
            for o in ops:
                self.ops[o] = False

    @property
    def failed(self) -> int:
        return sum(not ok for ok in self.ops.values())


def span(tracer, name: str):
    return tracer.span(name) if tracer else contextlib.nullcontext()


def digest_files(paths: list[Path], base: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(paths):
        h.update(str(p.relative_to(base)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def load_mask_dir(directory: Path) -> dict:
    return {m.slide_id: m for m in (sb.read_mask(p) for p in sorted(directory.glob("*.pgm")))}


def truth_counts(path: Path) -> dict[tuple[str, str], tuple[int, int, int, int]]:
    return {(r["slide_id"], r["team"]): (r["tp"], r["fp"], r["fn"], r["tn"])
            for r in sb.read_truth_table(path)}


def counts_match(report, truth: dict, n_slides: int) -> bool:
    return len(report.scores) == n_slides and all(
        (s.counts.tp, s.counts.fp, s.counts.fn, s.counts.tn) == truth[(s.slide_id, report.team)]
        for s in report.scores)


class Workload:
    name = ""
    checks: tuple[str, ...] = ()
    size = ""  # input size, for the printed summary
    workers = 2

    def __init__(self, work: Path, seed: int) -> None:
        self.work = work
        self.seed = seed
        self._first_digest: str | None = None

    def setup(self, tracer) -> None:
        raise NotImplementedError

    def run(self, log: PassLog, tracer) -> Any:
        raise NotImplementedError

    def check(self, out: Any, log: PassLog) -> None:
        raise NotImplementedError

    def same_as_first(self, log: PassLog, digest: str, ops: list[str]) -> None:
        """Each pass's outputs are byte-identical to the first pass's (traced or not)."""
        if self._first_digest is None:
            self._first_digest = digest
        log.check("same_as_first_pass", digest == self._first_digest, ops)


class Challenge(Workload):
    name = "challenge"
    checks = ("counts_match_truth_table", "dice_order", "manifest_round_trip",
              "same_as_first_pass")
    teams = ("exact", "flip2", "flip5")

    def __init__(self, work: Path, seed: int, tiny: bool) -> None:
        super().__init__(work, seed)
        self.slides, self.px, self.radius = (2, 256, (8, 20)) if tiny else (4, 2048, (60, 160))
        self.size = f"{self.slides} slides of {self.px}^2, 2 levels"

    def _cli(self, log: PassLog | None, op: str, args: list[str], tracer) -> bytes:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        name = "cli.startup" if args == ["--version"] else f"cli.{args[0]}"
        with log.op(op) if log else contextlib.nullcontext(), span(tracer, name):
            # set-up (no log) times a bare interpreter start, traced or not
            if tracer and log:
                env.update(tracer.child_env())
                cmd = [sys.executable, str(HERE / "clishim.py"), *args]
            else:
                cmd = [sys.executable, "-m", "slidebench", *args]
            proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            if proc.returncode != 0:
                raise OpFailed(f"{op}: exit {proc.returncode}: {proc.stderr.decode()[-500:]}")
        return proc.stdout

    def setup(self, tracer) -> None:
        """A cold interpreter start, which also warms the page cache for the passes."""
        out = self._cli(None, "startup", ["--version"], tracer)
        if not out.startswith(b"slidebench "):
            raise OpFailed(f"unexpected --version output {out!r}")

    def run(self, log: PassLog, tracer) -> Path:
        out = self.work / "pass"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        ch = out / "challenge"
        slide = str(ch / "slides" / "slide_000" / "manifest.json")
        common = ["--seed", str(self.seed), "--workers", str(self.workers)]
        summary = self._cli(log, "synth", [
            "synth", "--out", str(ch), "--slides", str(self.slides), "--size", str(self.px),
            "--levels", "2", "--radius", *map(str, self.radius), *common], tracer)
        (out / "challenge_summary.json").write_bytes(summary)
        self._cli(log, "tissue", ["tissue", "--slide", slide, "--method", "otsu",
                                  "--out", str(out / "tissue.pgm")], tracer)
        self._cli(log, "rasterize", ["rasterize", "--annotations",
                                     str(ch / "annotations" / "slide_000.xml"), "--slide", slide,
                                     "--out", str(out / "raster.pgm")], tracer)
        self._cli(log, "refine", ["refine", "--gt", str(out / "raster.pgm"), "--tissue",
                                  str(out / "tissue.pgm"), "--out", str(out / "refined.pgm")], tracer)
        self._cli(log, "tile", ["tile", "--slide", slide, "--gt", str(out / "refined.pgm"),
                                "--size", "128", "--tissue-filter", "gray200", *common,
                                "--out", str(out / "tiles.jsonl")], tracer)
        (out / "reports").mkdir()
        for team in self.teams:
            self._cli(log, f"eval:{team}", [
                "eval", "--truth", str(ch / "truth"), "--pred", str(ch / "predictions" / team),
                "--team", team, "--subtypes", str(ch / "subtypes.csv"),
                "--out", str(out / "reports" / f"{team}.json"),
                "--csv", str(out / "reports" / f"{team}.csv"), *common], tracer)
        self._cli(log, "compare", [
            "compare", "--reports", *(str(out / "reports" / f"{t}.json") for t in self.teams),
            "--groups", "exact=MultiModel,flip2=SingleModel,flip5=SingleModel",
            "--out", str(out / "comparison.json")], tracer)
        self._cli(log, "leaderboard:csv", ["leaderboard", "--reports", str(out / "reports"),
                                           "--format", "csv", "--out",
                                           str(out / "leaderboard.csv")], tracer)
        board = self._cli(log, "leaderboard:text", ["leaderboard", "--reports",
                                                    str(out / "reports"), "--format", "text"],
                          tracer)
        (out / "leaderboard.txt").write_bytes(board)
        return out

    def check(self, out: Path, log: PassLog) -> None:
        evals = [f"eval:{t}" for t in self.teams]
        truth = truth_counts(out / "challenge" / "truth_table.csv")
        reports = [sb.read_report(out / "reports" / f"{t}.json") for t in self.teams]
        log.check("counts_match_truth_table",
                  all(counts_match(r, truth, self.slides) for r in reports), evals)
        exact, flip2, flip5 = (r.mean("dice") for r in reports)
        log.check("dice_order", exact > flip2 > flip5, evals)
        records = sb.read_manifest(out / "tiles.jsonl")
        copy = self.work / "roundtrip.jsonl"
        sb.emit_manifest(records, copy)
        log.check("manifest_round_trip",
                  bool(records) and copy.read_bytes() == (out / "tiles.jsonl").read_bytes(), ["tile"])
        self.same_as_first(log, digest_files([p for p in out.rglob("*") if p.is_file()], out),
                           list(log.ops))


class LargeSlide(Workload):
    name = "large_slide"
    checks = ("w1_equals_w2", "tile_counts_match_block_sum", "same_as_first_pass")

    def __init__(self, work: Path, seed: int, tiny: bool) -> None:
        super().__init__(work, seed)
        self.px, self.tile, self.radius = (1024, 128, (50, 150)) if tiny else (6144, 512, (300, 800))
        self.size = f"1 slide of {self.px}^2 ({3 * self.px ** 2 / 1e6:.0f} MB RGB), {self.tile} px tiles"

    def setup(self, tracer) -> None:
        cfg = sb.SynthConfig(seed=self.seed, slides=1, level0_size=self.px, n_levels=1,
                             lesion_radius=self.radius)
        pyramid, _, truth, _ = sb.generate_slide(cfg, 0)
        sb.write_pyramid(pyramid, self.work / "slide")
        sb.write_mask(truth, self.work / "gt.pgm")

    def run(self, log: PassLog, tracer):
        with log.op("read_pyramid"):
            pyramid = sb.read_pyramid(self.work / "slide" / "manifest.json")
        with log.op("read_mask"):
            gt = sb.read_mask(self.work / "gt.pgm")
        with log.op("tissue_mask"):
            tissue = sb.tissue_mask(pyramid, 0, sb.METHOD_OTSU)
        cfg = sb.TilingConfig(tile_size=self.tile, tissue_filter=sb.METHOD_GRAY200)
        with log.op("extract_tiles:w1"), log.stage("w1"):
            r1 = sb.extract_tiles(pyramid, gt, cfg, workers=1)
        with log.op("extract_tiles:w2"), log.stage("w2"):
            r2 = sb.extract_tiles(pyramid, gt, cfg, workers=self.workers)
        with log.op("emit_manifest"):
            sb.emit_manifest(r1, self.work / "tiles.jsonl")
        return gt.data, tissue.data, r1, r2

    def check(self, out, log: PassLog) -> None:
        gt, tissue, r1, r2 = out
        log.check("w1_equals_w2", r1 == r2, ["extract_tiles:w1", "extract_tiles:w2"])
        t = self.tile
        n_y, n_x = gt.shape[0] // t, gt.shape[1] // t
        oracle = gt[: n_y * t, : n_x * t].reshape(n_y, t, n_x, t).sum(axis=(1, 3))
        ok = bool(r1) and all(
            r.x % t == 0 and r.y % t == 0 and r.total_pixels == t * t
            and r.tumor_pixels == oracle[r.y // t, r.x // t] for r in r1)
        log.check("tile_counts_match_block_sum", ok, ["extract_tiles:w1"])
        h = hashlib.sha256((self.work / "tiles.jsonl").read_bytes())
        h.update(np.packbits(tissue).tobytes())
        self.same_as_first(log, h.hexdigest(), ["tissue_mask", "emit_manifest"])


class Scoring(Workload):
    name = "scoring"
    checks = ("counts_match_truth_table", "mean_binarize_equals_vote", "w1_equals_w2",
              "compare_mode_exact", "same_as_first_pass")
    teams = (("exact", {}), ("flip1", {"flip_rate": 0.01}), ("flip2", {"flip_rate": 0.02}),
             ("flip3", {"flip_rate": 0.03}), ("flip5", {"flip_rate": 0.05}),
             ("flip8", {"flip_rate": 0.08}), ("erode2", {"erode": 2}), ("dilate2", {"dilate": 2}))
    fused = ("flip1", "flip3", "flip8")

    def __init__(self, work: Path, seed: int, tiny: bool) -> None:
        super().__init__(work, seed)
        self.slides, self.px, self.radius = (4, 256, (8, 20)) if tiny else (4, 2048, (60, 160))
        self.size = f"{self.slides} slides of {self.px}^2, {len(self.teams)} teams + 2 fused"

    def setup(self, tracer) -> None:
        cfg = sb.SynthConfig(seed=self.seed, slides=self.slides, level0_size=self.px,
                             n_levels=1, lesion_radius=self.radius)
        teams = [(name, sb.CorruptionSpec(seed=self.seed, **kw)) for name, kw in self.teams]
        sb.generate_challenge(cfg, teams, self.work / "challenge", workers=self.workers)

    def run(self, log: PassLog, tracer):
        ch = self.work / "challenge"
        with log.op("read_masks"):
            gt = load_mask_dir(ch / "truth")
            preds = {name: load_mask_dir(ch / "predictions" / name) for name, _ in self.teams}
            subtypes = sb.read_subtypes(ch / "subtypes.csv")
        with log.op("fuse_vote"):
            preds["vote"] = {sid: sb.fuse_vote([preds[t][sid] for t in self.fused]) for sid in gt}
        with log.op("fuse_mean"):
            preds["mean"] = {
                sid: sb.binarize(sb.fuse_mean([
                    sb.ProbabilityMap(sid, preds[t][sid].level,
                                      preds[t][sid].data.astype(np.float64))
                    for t in self.fused]), 0.5)
                for sid in gt}
        reports = {}
        for w in (1, self.workers):
            with log.stage(f"w{w}"):
                for team, masks in preds.items():
                    with log.op(f"evaluate_team:{team}:w{w}"):
                        reports[team, w] = sb.evaluate_team(team, gt, masks, subtypes=subtypes,
                                                            workers=w)
        ranked = [reports[team, 1] for team in preds]
        grouping = {team: "MultiModel" if team in ("vote", "mean") else "SingleModel"
                    for team in preds}
        (self.work / "reports").mkdir(exist_ok=True)
        with log.op("write_report"):
            for rep in ranked:
                sb.write_report(rep, self.work / "reports" / f"{rep.team}.json")
        with log.op("group_compare"):
            comparison = sb.group_compare(ranked, grouping, mode="exact")
        with log.op("rank_teams"):
            entries = sb.rank_teams(ranked, grouping)
        with log.op("render_leaderboard"):
            board = sb.render_leaderboard(entries, "text")
        return preds, reports, comparison, board

    def check(self, out, log: PassLog) -> None:
        preds, reports, comparison, board = out
        truth = truth_counts(self.work / "challenge" / "truth_table.csv")
        synthesized = [name for name, _ in self.teams]
        log.check("counts_match_truth_table",
                  all(counts_match(reports[t, w], truth, self.slides)
                      for t in synthesized for w in (1, self.workers)),
                  [f"evaluate_team:{t}:w{w}" for t in synthesized for w in (1, self.workers)])
        log.check("mean_binarize_equals_vote",
                  all(np.array_equal(preds["mean"][sid].data, preds["vote"][sid].data)
                      for sid in preds["vote"]), ["fuse_vote", "fuse_mean"])
        log.check("w1_equals_w2",
                  all(reports[t, 1].scores == reports[t, self.workers].scores for t in preds),
                  [f"evaluate_team:{t}:w{self.workers}" for t in preds])
        log.check("compare_mode_exact", comparison["mode"] == "exact", ["group_compare"])
        reports_dir = self.work / "reports"
        h = hashlib.sha256(digest_files(list(reports_dir.glob("*.json")), reports_dir).encode())
        h.update(repr(sorted(comparison.items())).encode() + board.encode())
        self.same_as_first(log, h.hexdigest(), ["write_report", "group_compare",
                                                "render_leaderboard"])


class NoisyLabels(Workload):
    name = "noisy_labels"
    checks = ("coteach_wins_8_of_10", "same_as_first_pass")
    workers = 1

    def __init__(self, work: Path, seed: int, tiny: bool) -> None:
        super().__init__(work, seed)
        self.seeds = range(10 * seed, 10 * seed + 10)
        self.size = f"10 noise seeds from {10 * seed}, 4 train + 2 test tiles of 32^2 each"

    def setup(self, tracer) -> None:
        """Make and validate every seed's noisy tiles, then warm the learners on the first.

        Making the tiles alone takes about 30 ms, too short to time steadily.
        """
        for s in self.seeds:
            train_set, test_set, _ = coteach.make_noise_benchmark(s)
            for batch in train_set + test_set:
                batch.validate()
        coteach.noise_benchmark(self.seeds[0])

    def run(self, log: PassLog, tracer):
        results = []
        for s in self.seeds:
            with log.op(f"noise_benchmark:{s}"):
                results.append(coteach.noise_benchmark(s))
        return results

    def check(self, out, log: PassLog) -> None:
        wins = sum(r["coteach_accuracy"] >= r["single_accuracy"] for r in out)
        log.check("coteach_wins_8_of_10", wins >= 8, list(log.ops))
        self.same_as_first(log, hashlib.sha256(repr(out).encode()).hexdigest(), list(log.ops))


WORKLOADS = {w.name: w for w in (Challenge, LargeSlide, Scoring, NoisyLabels)}
