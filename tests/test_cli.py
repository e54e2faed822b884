"""Exit codes, file outputs, and round trips of the command-line interface."""
import argparse
import errno
import hashlib
import itertools
import json
import os
import re
import resource
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from oracles import child_peak_rss, extract_tiles_reference, run_child, write_p6
from slidebench import coteach, netpbm
from slidebench import (
    ConfusionCounts,
    ProbabilityMap,
    SlideScore,
    TeamReport,
    build_pyramid,
    evaluate_team,
    read_manifest,
    read_mask,
    read_pyramid,
    read_report,
    read_subtypes,
    read_truth_table,
    score_slide,
    write_mask,
    write_probability_map,
    write_pyramid,
    write_report,
    write_scores_csv,
)
from slidebench.cli import build_parser, main
from slidebench.masks import METHOD_GRAY200, BinaryMask
from slidebench.tiling import TilingConfig

ROOT = Path(__file__).resolve().parents[1]


def _run(args: list[str], fork_log: Path | None = None, **kwargs) -> subprocess.CompletedProcess:
    """``run_child``; with ``fork_log``, each Python process it starts appends a line there
    per fork."""
    env = dict(os.environ)
    if fork_log:
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "tests" / "fork_probe"),
                                                          env.get("PYTHONPATH")]))
        env["SLIDEBENCH_TEST_FORK_LOG"] = str(fork_log)
    return run_child(args, env, **kwargs)


@pytest.fixture(scope="module")
def cli_tree(tmp_path_factory):
    """A challenge generated through the CLI itself, shared by this module."""
    out = tmp_path_factory.mktemp("cli_challenge")
    rc = main([
        "synth", "--out", str(out), "--slides", "3", "--size", "192",
        "--levels", "2", "--radius", "10", "25", "--seed", "7",
    ])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def report_dir(cli_tree, tmp_path_factory):
    out = tmp_path_factory.mktemp("reports")
    for team in ("exact", "flip2", "flip5"):
        rc = main([
            "eval", "--truth", str(cli_tree / "truth"),
            "--pred", str(cli_tree / "predictions" / team),
            "--team", team, "--subtypes", str(cli_tree / "subtypes.csv"),
            "--out", str(out / f"{team}.json"),
        ])
        assert rc == 0
    return out


def test_no_arguments_prints_usage(capsys):
    assert main([]) == 2
    assert "usage:" in capsys.readouterr().err


def test_unknown_command_is_usage_error(capsys, tmp_path):
    for args in (
        ["frobnicate"],
        # a subcommand takes no flag that it does not read
        ["coteach", "--out", str(tmp_path / "bench"), "--seed", "5"],
        ["tissue", "--slide", "x.json", "--out", "t.pgm", "--workers", "2"],
        ["leaderboard", "--reports", "r.json", "--seed", "1"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2, args
        assert "usage:" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["coteach", "--out", "bench", "--seed", "5"],
    ["tissue", "--slide", "x.json", "--out", "t.pgm", "--workers", "2"],
    ["leaderboard", "--reports", "r.json", "--seed", "1"],
])
def test_unknown_flag_shows_the_subcommand_usage(capsys, args):
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith(f"usage: slidebench {args[0]} ")
    assert [line for line in err if "error:" in line] == [
        f"slidebench {args[0]}: error: unrecognized arguments: {' '.join(args[-2:])}"]


def test_missing_required_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["tissue", "--slide", "x.json"])
    assert exc.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("slidebench ")


def test_version_is_the_project_version():
    version = re.search(r'^version = "(.+)"$', (ROOT / "pyproject.toml").read_text(), re.M)
    proc = _run([sys.executable, "-m", "slidebench", "--version"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"slidebench {version.group(1)}\n"


def test_synth_layout_and_summary(tmp_path, capsys):
    out = tmp_path / "mini"
    rc = main(["synth", "--out", str(out), "--slides", "1", "--size", "128",
               "--levels", "1", "--radius", "8", "16", "--seed", "3"])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["slides"] == ["slide_000"]
    assert summary["teams"] == ["exact", "flip2", "flip5"]
    assert (out / "truth_table.csv").is_file()


def test_synth_custom_teams(tmp_path, capsys):
    out = tmp_path / "teams"
    rc = main(["synth", "--out", str(out), "--slides", "1", "--size", "128",
               "--levels", "1", "--radius", "8", "16", "--seed", "3",
               "--team", "clean", "--team", "noisy:flip_rate=0.2,seed=4"])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["teams"] == ["clean", "noisy"]
    assert (out / "predictions" / "noisy" / "slide_000.pgm").is_file()


def test_bad_team_spec_is_data_error(tmp_path, capsys):
    rc = main(["synth", "--out", str(tmp_path / "x"), "--slides", "1",
               "--size", "128", "--levels", "1", "--radius", "8", "16",
               "--team", "bad:warp=2"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("slidebench: error:")


def test_tissue_rasterize_refine_recover_truth(cli_tree, tmp_path):
    slide = cli_tree / "slides" / "slide_000" / "manifest.json"
    truth = read_mask(cli_tree / "truth" / "slide_000.pgm")

    tis = tmp_path / "tissue.pgm"
    assert main(["tissue", "--slide", str(slide), "--method", "gray200",
                 "--out", str(tis)]) == 0
    ras = tmp_path / "raster.pgm"
    assert main(["rasterize", "--annotations",
                 str(cli_tree / "annotations" / "slide_000.xml"),
                 "--slide", str(slide), "--out", str(ras)]) == 0
    ref = tmp_path / "refined.pgm"
    assert main(["refine", "--gt", str(ras), "--tissue", str(tis),
                 "--out", str(ref)]) == 0

    assert np.array_equal(read_mask(ras).data, truth.data)
    assert np.array_equal(read_mask(ref).data, truth.data)
    assert np.all(truth.data <= read_mask(tis).data)


def test_tile_writes_manifest(cli_tree, tmp_path):
    manifest = tmp_path / "tiles.jsonl"
    rc = main(["tile", "--slide", str(cli_tree / "slides" / "slide_000" / "manifest.json"),
               "--gt", str(cli_tree / "truth" / "slide_000.pgm"),
               "--size", "48", "--out", str(manifest)])
    assert rc == 0
    records = read_manifest(manifest)
    assert len(records) == 16
    assert {r.label for r in records} <= {"Positive", "Negative", "Unused"}


def test_tile_labels_at_the_level_of_its_truth_mask(cli_tree, tmp_path):
    slide = cli_tree / "slides" / "slide_000" / "manifest.json"
    raster, manifest = tmp_path / "raster.pgm", tmp_path / "tiles.jsonl"
    assert main(["rasterize", "--annotations", str(cli_tree / "annotations" / "slide_000.xml"),
                 "--slide", str(slide), "--level", "1", "--out", str(raster)]) == 0
    assert main(["tile", "--slide", str(slide), "--gt", str(raster), "--size", "24",
                 "--stride", "16", "--tissue-filter", "gray200", "--out", str(manifest)]) == 0
    cfg = TilingConfig(tile_size=24, stride=16, tissue_filter=METHOD_GRAY200)
    expected = extract_tiles_reference(read_pyramid(slide), read_mask(raster), cfg)
    assert read_manifest(manifest) == expected
    assert expected and any(r.tumor_pixels for r in expected)
    assert all(json.loads(line)["level"] == 1 for line in manifest.read_text().splitlines())


def test_eval_matches_truth_table(cli_tree, report_dir):
    table = {(r["slide_id"], r["team"]): r for r in read_truth_table(cli_tree / "truth_table.csv")}
    report = read_report(report_dir / "flip2.json")
    assert report.team == "flip2"
    for score in report.scores:
        row = table[(score.slide_id, "flip2")]
        assert score.counts.tp == row["tp"]
        assert score.counts.fp == row["fp"]
    exact = read_report(report_dir / "exact.json")
    assert all(s.dice == 1.0 for s in exact.scores)


def test_eval_accepts_an_unused_seed(cli_tree, report_dir, tmp_path):
    out = tmp_path / "flip2.json"
    assert main(["eval", "--truth", str(cli_tree / "truth"),
                 "--pred", str(cli_tree / "predictions" / "flip2"), "--team", "flip2",
                 "--subtypes", str(cli_tree / "subtypes.csv"), "--out", str(out),
                 "--seed", "3"]) == 0
    assert out.read_bytes() == (report_dir / "flip2.json").read_bytes()


def test_leaderboard_csv_ranks_by_dice(cli_tree, report_dir, tmp_path):
    out = tmp_path / "board.csv"
    rc = main(["leaderboard", "--reports", str(report_dir), "--format", "csv",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "rank,team,group,mean_dice,std_dice,accuracy,fnr,fpr"
    ranked = [line.split(",")[1] for line in lines[1:]]
    assert ranked == ["exact", "flip2", "flip5"]
    assert lines[1].split(",")[3] == "1.0000"


def test_leaderboard_text_to_stdout(report_dir, capsys):
    rc = main(["leaderboard", "--reports", str(report_dir)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "exact" in text and "±" in text


def test_leaderboard_stdout_is_utf8_in_an_ascii_locale(report_dir, tmp_path):
    # Python's UTF-8 mode and locale coercion off: stdout's own encoding is ASCII
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
    args = [sys.executable, "-m", "slidebench", "leaderboard", "--reports", str(report_dir),
            "--format", "text"]
    board = tmp_path / "board.txt"
    written = run_child([*args, "--out", str(board)], env, text=False)
    assert written.returncode == 0, written.stderr
    proc = run_child(args, env, text=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == b""
    assert "±".encode() in proc.stdout
    assert proc.stdout == board.read_bytes()


def test_subtypes_csv_is_read_as_utf8_in_an_ascii_locale(tmp_path):
    # as above: without UTF-8 mode, open() would decode with the C locale's ASCII
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
    for kind in ("truth", "pred"):
        (tmp_path / kind).mkdir()
        write_mask(BinaryMask("slidé_9", 0, np.eye(4, dtype=bool)), tmp_path / kind / "s.pgm")
    (tmp_path / "subtypes.csv").write_bytes("slide_id,subtype\nslidé_9,SCC\n".encode())
    proc = run_child([sys.executable, "-m", "slidebench", "eval", "--truth",
                      str(tmp_path / "truth"), "--pred", str(tmp_path / "pred"), "--team", "t",
                      "--subtypes", str(tmp_path / "subtypes.csv"),
                      "--out", str(tmp_path / "r.json")], env, text=False)
    assert proc.returncode == 0, proc.stderr
    scores = json.loads((tmp_path / "r.json").read_text(encoding="utf-8"))["scores"]
    assert [(s["slide_id"], s["subtype"]) for s in scores] == [("slidé_9", "SCC")]


@pytest.mark.parametrize("workers", ["1", "2"])
def test_out_of_memory_is_one_line(tmp_path, workers):
    # a 1e8 x 1e8 level 0: numpy cannot allocate the first slide's truth mask
    out = tmp_path / "o"
    proc = _run([sys.executable, "-m", "slidebench", "synth", "--out", str(out), "--slides", "2",
                 "--size", "100000000", "--levels", "1", "--radius", "2", "4",
                 "--workers", workers])
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.splitlines() == [
        "slidebench: error: Unable to allocate 8.88 PiB for an array with shape "
        "(100000000, 100000000) and data type bool"]
    assert not out.exists()


def test_out_of_memory_without_a_message_is_named(tmp_path, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(coteach, "noise_benchmark", exhausted)
    assert main(["coteach", "--out", str(tmp_path / "co"), "--seeds", "1"]) == 1
    assert capsys.readouterr().err == "slidebench: error: out of memory\n"


def test_compare_writes_pinned_json(report_dir, tmp_path):
    out = tmp_path / "cmp.json"
    rc = main(["compare", "--reports", str(report_dir / "exact.json"),
               str(report_dir / "flip5.json"),
               "--groups", "exact=MultiModel,flip5=SingleModel",
               "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {"group_a", "group_b", "n", "w_statistic", "p_two_sided",
                            "zeros_discarded", "mode", "group_a_mean", "group_b_mean"}
    assert payload["n"] == 3
    assert 0.0 < payload["p_two_sided"] <= 1.0


def test_ensemble_mean_and_binarize(tmp_path):
    rng = np.random.default_rng(1)
    paths = []
    for i in range(2):
        pm = ProbabilityMap("s", 0, rng.random((8, 8)))
        path = tmp_path / f"p{i}.pgm"
        write_probability_map(pm, path)
        paths.append(str(path))
    fused = tmp_path / "fused.pgm"
    rc = main(["ensemble", "--inputs", *paths, "--mode", "mean",
               "--binarize", "0.5", "--out", str(fused)])
    assert rc == 0
    assert read_mask(fused).data.shape == (8, 8)


def test_ensemble_vote(tmp_path):
    rng = np.random.default_rng(2)
    paths = []
    for i in range(3):
        mask = BinaryMask("s", 0, rng.random((6, 6)) < 0.5)
        path = tmp_path / f"m{i}.pgm"
        write_mask(mask, path)
        paths.append(str(path))
    out = tmp_path / "vote.pgm"
    rc = main(["ensemble", "--inputs", *paths, "--mode", "vote", "--out", str(out)])
    assert rc == 0
    stack = np.array([read_mask(p).data for p in paths])
    assert np.array_equal(read_mask(out).data, stack.sum(axis=0) * 2 > 3)


def test_coteach_command_writes_artifacts(tmp_path):
    cfg = tmp_path / "train.cfg"
    cfg.write_text("eta=3.0\nt_max=8\nn_max=1\ntau=0.3\nramp_epochs=4\n")
    out = tmp_path / "bench"
    rc = main(["coteach", "--out", str(out), "--config", str(cfg), "--seeds", "1"])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["seeds"] == 1
    assert len(summary["runs"]) == 1
    run = summary["runs"][0]
    assert {"coteach_accuracy", "single_accuracy"} <= set(run)
    history = (out / "history.csv").read_text().splitlines()
    assert history[0] == "epoch,loss_f,loss_g,drop_rate,selected_fraction"
    assert len(history) == 9


def test_coteach_with_an_empty_config_runs_the_defaults(tmp_path):
    (tmp_path / "empty.cfg").write_text("")
    assert main(["coteach", "--out", str(tmp_path / "bare"), "--seeds", "1"]) == 0
    assert main(["coteach", "--out", str(tmp_path / "cfg"), "--seeds", "1",
                 "--config", str(tmp_path / "empty.cfg")]) == 0
    for name in ("summary.json", "history.csv"):
        assert (tmp_path / "cfg" / name).read_bytes() == (tmp_path / "bare" / name).read_bytes()
    assert len((tmp_path / "bare" / "history.csv").read_text().splitlines()) == 1 + 150


def test_coteach_trains_each_seed_once_and_writes_run_0s_history(tmp_path, monkeypatch):
    cfg = tmp_path / "train.cfg"
    cfg.write_text("eta=3.0\nt_max=8\nn_max=1\ntau=0.3\nramp_epochs=4\nseed=5\n")
    seeds, train = [], coteach.train
    monkeypatch.setattr(coteach, "train", lambda data, c: seeds.append(c.seed) or train(data, c))
    assert main(["coteach", "--out", str(tmp_path / "o"), "--config", str(cfg), "--seeds", "2"]) == 0
    assert seeds == [0, 1]
    run0 = coteach.noise_benchmark(0, replace(coteach.parse_config(cfg), seed=0))
    coteach.write_history(run0["history"], tmp_path / "run0.csv")
    assert (tmp_path / "o" / "history.csv").read_bytes() == (tmp_path / "run0.csv").read_bytes()


def test_missing_input_is_data_error(tmp_path, capsys):
    rc = main(["refine", "--gt", str(tmp_path / "no.pgm"),
               "--tissue", str(tmp_path / "no2.pgm"), "--out", str(tmp_path / "o.pgm")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("slidebench: error:")


def test_corrupt_report_is_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"not\": \"a report\"}")
    rc = main(["leaderboard", "--reports", str(bad)])
    assert rc == 1
    assert "slidebench: error:" in capsys.readouterr().err


def test_eval_error_in_pool_worker_is_one_line(tmp_path):
    (tmp_path / "truth").mkdir()
    (tmp_path / "pred").mkdir()
    for sid in ("slide_000", "slide_001"):
        write_mask(BinaryMask(sid, 1, np.zeros((4, 4), dtype=bool)),
                   tmp_path / "truth" / f"{sid}.pgm")
        write_mask(BinaryMask(sid, 0, np.zeros((8, 8), dtype=bool)),
                   tmp_path / "pred" / f"{sid}.pgm")
    proc = _run([sys.executable, "-m", "slidebench", "eval", "--truth", str(tmp_path / "truth"),
                 "--pred", str(tmp_path / "pred"), "--team", "t",
                 "--out", str(tmp_path / "r.json"), "--workers", "2"])
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith("slidebench: error:")
    assert "finer than ground truth" in lines[0]


def _eval_tree(root: Path, slides: int, side: int) -> list[str]:
    """``eval`` args of a team scored on ``slides`` random ``side``-square slides."""
    rng = np.random.default_rng(slides)
    for kind in ("truth", "pred"):
        (root / kind).mkdir(parents=True)
        for k in range(slides):
            write_mask(BinaryMask(f"slide_{k:03d}", 0, rng.random((side, side)) < 0.3),
                       root / kind / f"slide_{k:03d}.pgm")
    return ["eval", "--truth", str(root / "truth"), "--pred", str(root / "pred"), "--team", "t",
            "--out", str(root / "r.json")]


@pytest.mark.parametrize("workers", ["1", "2"])
def test_eval_peak_does_not_grow_with_the_slide_count(tmp_path, workers):
    # each process holds one truth and prediction pair at a time; 10 more pairs are 20 MiB
    peaks = [child_peak_rss([sys.executable, "-m", "slidebench",
                             *_eval_tree(tmp_path / str(n), n, 1024), "--workers", workers])
             for n in (2, 12)]
    assert peaks[1] - peaks[0] <= 3 << 20, peaks


def test_eval_equals_in_memory_evaluate_team_at_1_and_2_workers(cli_tree, tmp_path):
    def masks_of(directory):
        return {m.slide_id: m for m in map(read_mask, sorted(directory.glob("*.pgm")))}

    pred = cli_tree / "predictions" / "flip5"
    report = evaluate_team("flip5", masks_of(cli_tree / "truth"), masks_of(pred),
                           read_subtypes(cli_tree / "subtypes.csv"))
    write_report(report, tmp_path / "memory.json")
    write_scores_csv(report, tmp_path / "memory.csv")
    for workers in ("1", "2"):
        assert main(["eval", "--truth", str(cli_tree / "truth"), "--pred", str(pred),
                     "--team", "flip5", "--subtypes", str(cli_tree / "subtypes.csv"),
                     "--workers", workers, "--out", str(tmp_path / f"w{workers}.json"),
                     "--csv", str(tmp_path / f"w{workers}.csv")]) == 0
        for suffix in (".json", ".csv"):
            written = (tmp_path / f"w{workers}").with_suffix(suffix).read_bytes()
            assert written == (tmp_path / "memory").with_suffix(suffix).read_bytes()


def test_eval_reads_each_mask_payload_once(tmp_path, monkeypatch):
    reads, read_binary = [], netpbm._read_binary

    def counted(path, magic):
        reads.append(str(path))
        return read_binary(path, magic)

    monkeypatch.setattr(netpbm, "_read_binary", counted)
    assert main(_eval_tree(tmp_path, 3, 16)) == 0
    assert sorted(reads) == sorted(map(str, tmp_path.glob("*/*.pgm")))


def test_eval_of_a_bad_truth_and_a_bad_prediction_names_the_truth(tmp_path, capsys):
    args = _eval_tree(tmp_path, 2, 16)
    _truncate(tmp_path / "truth" / "slide_001.pgm")
    _truncate(tmp_path / "pred" / "slide_000.pgm")
    assert main(args) == 1
    assert capsys.readouterr().err == (f"slidebench: error: {tmp_path}/truth/slide_001.pgm: "
                                       "raster payload is 251 bytes, expected 256\n")


# starts a pooled synth, waits for its first slide, sends it the signal argv[2] names, and
# prints its exit code, its stderr lines and how many of its workers remain 1 s after it ends
_STOP_A_POOLED_RUN = """
import json, os, signal, subprocess, sys, time
out, signum = sys.argv[1], getattr(signal, sys.argv[2])
run = subprocess.Popen([sys.executable, "-m", "slidebench", "synth", "--out", out,
                        "--slides", "64", "--size", "1024", "--levels", "1", "--workers", "2"],
                       stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
while not os.path.exists(os.path.join(out, "truth", "slide_000.pgm")) and run.poll() is None:
    time.sleep(0.005)
with open(f"/proc/{run.pid}/task/{run.pid}/children") as fh:
    workers = fh.read().split()
run.send_signal(signum)
err = run.communicate()[1]
time.sleep(1)

def running(pid):
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False

print(json.dumps([run.returncode, err.splitlines(), len(workers),
                  sum(map(running, workers))]))
"""


@pytest.mark.skipif(not Path(f"/proc/{os.getpid()}/task/{os.getpid()}/children").exists(),
                    reason="needs /proc/<pid>/task/<tid>/children")
@pytest.mark.parametrize("signame, code, lines", [
    ("SIGINT", 130, ["slidebench: error: interrupted"]),
    ("SIGTERM", 143, ["slidebench: error: terminated"]),
    ("SIGKILL", -9, []),  # its worker stops at the end of its chunk
])
def test_a_stopped_pooled_run_prints_one_line_and_leaves_no_worker(tmp_path, signame, code,
                                                                   lines):
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("a pool needs 2 CPUs")
    proc = run_child([sys.executable, "-c", _STOP_A_POOLED_RUN, str(tmp_path / "c"), signame],
                     timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [code, lines, 1, 0]


def test_main_runs_off_the_main_thread(tmp_path, capsys):
    # only the main thread may set the SIGTERM handler; another thread runs without it
    codes = []
    thread = threading.Thread(target=lambda: codes.append(main(["leaderboard", "--reports",
                                                                str(tmp_path)])))
    thread.start()
    thread.join()
    assert codes == [1]
    assert capsys.readouterr().err == "slidebench: error: no report files found\n"


def _string_mask_level(tmp_path):
    path = tmp_path / "m.pgm"
    write_mask(BinaryMask("s", 0, np.zeros((4, 4), dtype=bool)), path)
    path.with_suffix(".json").write_text('{"slide_id": "s", "level": "0", "kind": "mask"}')
    return ["refine", "--gt", str(path), "--tissue", str(path), "--out", str(tmp_path / "o.pgm")]


def _string_manifest_n_levels(tmp_path):
    manifest = _slide(tmp_path)
    manifest.write_text('{"slide_id": "s", "n_levels": "1"}')
    return ["tissue", "--slide", str(manifest), "--out", str(tmp_path / "t.pgm")]


def _binary_mask_sidecar(tmp_path):
    args = _string_mask_level(tmp_path)
    (tmp_path / "m.json").write_bytes(b"\xff\xfe{")
    return args


def _binary_manifest(tmp_path):
    args = _string_manifest_n_levels(tmp_path)
    (tmp_path / "slide" / "manifest.json").write_bytes(b"\xff\xfe{")
    return args


def _string_report_dice(tmp_path):
    score = {"slide_id": "s", "subtype": "SCC", "dice": "0.5", "accuracy": 1.0,
             "fnr": 0.0, "fpr": 0.0}
    (tmp_path / "reports").mkdir()
    (tmp_path / "reports" / "t.json").write_text(json.dumps({"team": "t", "scores": [score]}))
    return ["leaderboard", "--reports", str(tmp_path / "reports")]


def _string_probability_level(tmp_path):
    path = tmp_path / "p.pgm"
    write_probability_map(ProbabilityMap("s", 0, np.zeros((4, 4))), path)
    meta = json.loads(path.with_suffix(".json").read_text())
    meta["level"] = "0"
    path.with_suffix(".json").write_text(json.dumps(meta))
    return ["ensemble", "--mode", "mean", "--inputs", str(path), str(path),
            "--out", str(tmp_path / "o.pgm")]


@pytest.mark.parametrize("make_args, field", [
    (_string_mask_level, "'level' is '0', expected int"),
    (_string_manifest_n_levels, "'n_levels' is '1', expected int"),
    (_binary_mask_sidecar, "cannot read mask sidecar"),
    (_binary_manifest, "cannot read manifest"),
    (_string_report_dice, "'dice' is '0.5', expected int or float"),
    (_string_probability_level, "'level' is '0', expected int"),
])
def test_malformed_json_field_is_one_line(tmp_path, make_args, field):
    proc = _run([sys.executable, "-m", "slidebench", *make_args(tmp_path)])
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith("slidebench: error:")
    assert field in lines[0]


def _files_of_at_most(size):
    """A ``preexec_fn`` that limits each file the child writes to ``size`` bytes."""
    hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]
    return lambda: resource.setrlimit(resource.RLIMIT_FSIZE, (size, hard))


def _run_with_failed_write(args, out, size):
    """Run the CLI on ``args`` with files of at most ``size`` bytes; check that it fails
    with the one line of a too-large write to ``out``."""
    proc = _run([sys.executable, "-m", "slidebench", *args], preexec_fn=_files_of_at_most(size))
    assert proc.returncode == 1
    too_large = f"[Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}"
    assert proc.stderr.splitlines() == [f"slidebench: error: {too_large}: '{out}'"]


def test_failed_raster_write_names_its_file(tmp_path):
    manifest = write_pyramid(build_pyramid("s", np.zeros((256, 256, 3), dtype=np.uint8), 1),
                             tmp_path / "slide")
    out = tmp_path / "t.pgm"
    # 1 KiB: the 256x256 mask's header fits, its rows do not
    _run_with_failed_write(["tissue", "--slide", str(manifest), "--method", "gray200",
                            "--out", str(out)], out, 1024)


# four reports on slides s0..s3; t1, t2 and t3 hold one multiset of Dice, permuted
_ORDER_FREE_DICE = {
    "t1": (0.1, 0.2, 0.2, 0.3),
    "t2": (0.2, 0.1, 0.3, 0.2),
    "t3": (0.3, 0.2, 0.2, 0.1),
    "b": (0.2, 0.2, 0.25, 0.2),
}
# (tp, fp) with fn = 0 that give each Dice above
_DICE_COUNTS = {0.1: (1, 18), 0.2: (1, 8), 0.3: (3, 14), 0.25: (1, 6)}
_ORDER_FREE_GROUPS = "t1=MultiModel,t2=MultiModel,t3=MultiModel,b=SingleModel"


def _order_free_reports(tmp_path) -> list[str]:
    paths = []
    for team, dices in _ORDER_FREE_DICE.items():
        scores = [score_slide(f"s{i}", ConfusionCounts(*_DICE_COUNTS[d], 0, 20))
                  for i, d in enumerate(dices)]
        assert [s.dice for s in scores] == list(dices)
        paths.append(str(tmp_path / f"{team}.json"))
        write_report(TeamReport(team, scores), paths[-1])
    return paths


@pytest.mark.parametrize("command", ["eval", "compare", "leaderboard"])
def test_failed_text_write_names_its_file(tmp_path, command):
    out = tmp_path / "out.txt"
    if command == "eval":
        for kind in ("truth", "pred"):
            (tmp_path / kind).mkdir()
            write_mask(BinaryMask("s", 0, np.eye(16, dtype=bool)),
                       tmp_path / kind / "s.pgm")
        args = ["eval", "--truth", str(tmp_path / "truth"), "--pred", str(tmp_path / "pred"),
                "--team", "t"]
    else:
        args = [command, "--reports", *_order_free_reports(tmp_path),
                "--groups", _ORDER_FREE_GROUPS]
    _run_with_failed_write([*args, "--out", str(out)], out, 100)


def test_compare_and_leaderboard_do_not_depend_on_report_order(tmp_path):
    paths = _order_free_reports(tmp_path)
    comparisons = set()
    for n, order in enumerate(itertools.permutations(paths)):
        out = tmp_path / f"compare{n}.json"
        assert main(["compare", "--reports", *order, "--groups", _ORDER_FREE_GROUPS,
                     "--mode", "exact", "--out", str(out)]) == 0
        comparisons.add(out.read_bytes())
    assert len(comparisons) == 1
    result = json.loads(comparisons.pop())
    assert (result["w_statistic"], result["p_two_sided"]) == (-10.0, 0.125)
    boards = set()
    for n, order in enumerate([paths, paths[::-1], paths[1:] + paths[:1], paths[2:] + paths[:2]]):
        out = tmp_path / f"board{n}.json"
        assert main(["leaderboard", "--reports", *order, "--format", "json",
                     "--out", str(out)]) == 0
        boards.add(out.read_bytes())
    assert len(boards) == 1
    means = {e["team"]: e["mean_dice"] for e in json.loads(boards.pop())}
    assert means["t1"] == means["t2"] == means["t3"] == 0.2


def _write(path: Path, data: bytes | str) -> None:
    path.write_bytes(data.encode() if isinstance(data, str) else data)


def _truncate(path: Path) -> None:
    path.write_bytes(path.read_bytes()[:-5])


def _slide(tmp_path) -> Path:
    """Manifest of a 16x16 one-level slide."""
    return write_pyramid(build_pyramid("s", np.zeros((16, 16, 3), dtype=np.uint8), 1),
                         tmp_path / "slide")


def _slide_case(mutate):
    """``tissue`` on a 16x16 one-level slide whose manifest is first passed to ``mutate``."""
    def make(tmp_path):
        manifest = _slide(tmp_path)
        mutate(manifest)
        return ["tissue", "--slide", str(manifest), "--out", str(tmp_path / "t.pgm")]
    return make


def _mask_case(mutate):
    """``refine`` on a 16x16 mask whose path is first passed to ``mutate``."""
    def make(tmp_path):
        path = tmp_path / "m.pgm"
        write_mask(BinaryMask("s", 0, np.zeros((16, 16), dtype=bool)), path)
        mutate(path)
        return ["refine", "--gt", str(path), "--tissue", str(path),
                "--out", str(tmp_path / "o.pgm")]
    return make


def _tile_gt_case(level, side=8, slide_id="s"):
    """``tile`` of the 16x16 one-level slide s against a ``side``-square truth of
    ``slide_id`` at ``level``."""
    def make(tmp_path):
        gt = tmp_path / "gt.pgm"
        write_mask(BinaryMask(slide_id, level, np.eye(side, dtype=bool)), gt)
        return ["tile", "--slide", str(_slide(tmp_path)), "--gt", str(gt), "--size", "4",
                "--out", str(tmp_path / "tiles.jsonl")]
    return make


def _xml_case(text, name="s"):
    """``rasterize`` of ``name``.xml holding ``text`` (no file if None) onto slide s."""
    def make(tmp_path):
        if text is not None:
            _write(tmp_path / f"{name}.xml", text)
        return ["rasterize", "--annotations", str(tmp_path / f"{name}.xml"),
                "--slide", str(_slide(tmp_path)), "--out", str(tmp_path / "r.pgm")]
    return make


def _edit_manifest(edit):
    """A ``_slide_case`` mutation: ``edit`` changes the manifest's JSON in place."""
    def mutate(manifest):
        meta = json.loads(manifest.read_text())
        edit(meta)
        manifest.write_text(json.dumps(meta))
    return mutate


def _second_level_of_full_size(manifest):
    _edit_manifest(lambda meta: meta.update(n_levels=2))(manifest)
    write_p6(manifest.parent / "level_01.ppm", np.zeros((16, 16, 3), dtype=np.uint8))


def _refine_other_slide(tmp_path):
    """``refine`` of slide_001 labels with slide_000 tissue of the same size."""
    for sid in ("slide_000", "slide_001"):
        write_mask(BinaryMask(sid, 0, np.ones((16, 16), dtype=bool)),
                   tmp_path / f"{sid}.pgm")
    return ["refine", "--gt", str(tmp_path / "slide_001.pgm"),
            "--tissue", str(tmp_path / "slide_000.pgm"), "--out", str(tmp_path / "o.pgm")]


def _report_case(data):
    def make(tmp_path):
        _write(tmp_path / "t.json", data)
        return ["leaderboard", "--reports", str(tmp_path / "t.json")]
    return make


def _report_json(repeat=1, **fields):
    """A report of team t scoring slide s ``repeat`` times, with ``fields`` set in the score."""
    score = {"slide_id": "s", "subtype": "Unknown", "dice": 1.0, "accuracy": 1.0, "fnr": 0.0,
             "fpr": 0.0, **fields}
    return json.dumps({"team": "t", "scores": [score] * repeat})


def _counted_report_json(**fields):
    """A report scoring slide s with counts (3, 1, 1, 5) and what they give, but for ``fields``."""
    return _report_json(**{"dice": 0.75, "accuracy": 0.8, "fnr": 0.25, "fpr": 1 / 6, "flags": [],
                           "tp": 3, "fp": 1, "fn": 1, "tn": 5, **fields})


def _subtypes_case(data):
    def make(tmp_path):
        for kind in ("truth", "pred"):
            (tmp_path / kind).mkdir()
            write_mask(BinaryMask("s", 0, np.zeros((4, 4), dtype=bool)),
                       tmp_path / kind / "s.pgm")
        _write(tmp_path / "subtypes.csv", data)
        return ["eval", "--truth", str(tmp_path / "truth"), "--pred", str(tmp_path / "pred"),
                "--team", "t", "--subtypes", str(tmp_path / "subtypes.csv"),
                "--out", str(tmp_path / "r.json")]
    return make


def _prediction_level_case(level):
    """``eval`` of a 16x16 level-0 truth against the same bits declared to be at ``level``."""
    def make(tmp_path):
        for kind, lvl in (("truth", 0), ("pred", level)):
            (tmp_path / kind).mkdir()
            mask = BinaryMask("s", lvl, np.eye(16, dtype=bool))
            write_mask(mask, tmp_path / kind / "s.pgm")
        return ["eval", "--truth", str(tmp_path / "truth"), "--pred", str(tmp_path / "pred"),
                "--team", "t", "--out", str(tmp_path / "r.json")]
    return make


def _duplicate_slide_case(tmp_path):
    """``eval`` of a perfect ``a.pgm`` and an empty ``b.pgm`` that both name slide s0."""
    truth = np.eye(16, dtype=bool)
    for kind in ("truth", "pred"):
        (tmp_path / kind).mkdir()
    write_mask(BinaryMask("s0", 0, truth), tmp_path / "truth" / "s0.pgm")
    for name, data in (("a", truth), ("b", np.zeros_like(truth))):
        write_mask(BinaryMask("s0", 0, data), tmp_path / "pred" / f"{name}.pgm")
    return ["eval", "--truth", str(tmp_path / "truth"), "--pred", str(tmp_path / "pred"),
            "--team", "t", "--out", str(tmp_path / "r.json")]


def test_two_masks_of_one_slide_are_named(tmp_path, capsys):
    assert main(_duplicate_slide_case(tmp_path)) == 1
    err = capsys.readouterr().err
    assert str(tmp_path / "pred" / "a.pgm") in err and str(tmp_path / "pred" / "b.pgm") in err
    assert not (tmp_path / "r.json").exists()


def _config_case(data):
    def make(tmp_path):
        _write(tmp_path / "train.cfg", data)
        return ["coteach", "--out", str(tmp_path / "bench"),
                "--config", str(tmp_path / "train.cfg")]
    return make


def _refine_of_a_probability_map(tmp_path):
    """``refine`` of labels that are a probability map, not a mask."""
    write_probability_map(ProbabilityMap("s", 0, np.zeros((4, 4))), tmp_path / "p.pgm")
    write_mask(BinaryMask("s", 0, np.zeros((4, 4), dtype=bool)), tmp_path / "m.pgm")
    return ["refine", "--gt", str(tmp_path / "p.pgm"), "--tissue", str(tmp_path / "m.pgm"),
            "--out", str(tmp_path / "o.pgm")]


def _eval_of_a_probability_map(tmp_path):
    """``eval`` of a mask truth against a prediction directory holding a probability map."""
    for kind in ("truth", "pred"):
        (tmp_path / kind).mkdir()
    write_mask(BinaryMask("s", 0, np.zeros((4, 4), dtype=bool)), tmp_path / "truth" / "s.pgm")
    write_probability_map(ProbabilityMap("s", 0, np.zeros((4, 4))), tmp_path / "pred" / "s.pgm")
    return ["eval", "--truth", str(tmp_path / "truth"), "--pred", str(tmp_path / "pred"),
            "--team", "t", "--out", str(tmp_path / "r.json")]


def _ensemble_mean_of_mask(tmp_path):
    path = tmp_path / "m.pgm"
    write_mask(BinaryMask("s", 0, np.zeros((4, 4), dtype=bool)), path)
    return ["ensemble", "--mode", "mean", "--inputs", str(path), str(path),
            "--out", str(tmp_path / "f.pgm")]


def _two_reports_case(command, *extra, repeat=False):
    """``command`` on reports of teams a and b, each scoring one slide; with ``repeat``,
    a's report is given twice."""
    def make(tmp_path):
        paths = []
        for team, dice in (("a", 0.9), ("b", 0.5)):
            paths.append(str(tmp_path / f"{team}.json"))
            write_report(TeamReport(team, [SlideScore("s", dice, dice, 0.0, 0.0)]), paths[-1])
        return [command, "--reports", *paths, *(paths[:1] if repeat else []), *extra]
    return make


def _slide_scored_twice_case(command, *extra):
    """``command`` on reports of teams a and b that each score slide s twice."""
    def make(tmp_path):
        paths = []
        for team, dice in (("a", 0.9), ("b", 0.5)):
            score = {"slide_id": "s", "subtype": "Unknown", "dice": dice, "accuracy": dice,
                     "fnr": 0.0, "fpr": 0.0}
            paths.append(str(tmp_path / f"{team}.json"))
            _write(Path(paths[-1]), json.dumps({"team": team, "scores": [score, score]}))
        return [command, "--reports", *paths, *extra]
    return make


def _compare_groups_case(groups):
    return _two_reports_case("compare", "--groups", groups, "--out", os.devnull)


_LEVEL = "level_00.ppm"
_TRIANGLE = ('<Annotation Name="a" Type="Polygon" PartOfGroup="t"><Coordinates>'
             '<Coordinate Order="0" X="1" Y="1"/><Coordinate Order="1" X="{x}" Y="1"/>'
             '<Coordinate Order="2" X="1" Y="9"/></Coordinates></Annotation>')
_POLYGON = f"<ASAP_Annotations><Annotations>{_TRIANGLE}</Annotations></ASAP_Annotations>"

# malformed inputs to every file reader the CLI reaches
MALFORMED_INPUTS = {
    "ppm_truncated": _slide_case(lambda m: _truncate(m.parent / _LEVEL)),
    "ppm_bad_magic": _slide_case(lambda m: _write(m.parent / _LEVEL, b"P3\n16 16\n255\n0 0 0\n")),
    "pgm_truncated": _mask_case(_truncate),
    "pgm_bad_magic": _mask_case(lambda p: _write(p, b"P6\n4 4\n255\n" + bytes(48))),
    "pgm_bad_maxval": _mask_case(lambda p: _write(p, b"P5\n4 4\n65535\n" + bytes(32))),
    "pgm_trailing_bytes": _mask_case(lambda p: _write(p, p.read_bytes() + b"\0")),
    "xml_missing": _xml_case(None, name="nope"),
    "xml_not_well_formed": _xml_case("<ASAP_Annotations><Annotations>"),
    "xml_wrong_root": _xml_case("<NotASAP></NotASAP>"),
    "xml_non_numeric_coordinate": _xml_case(_POLYGON.format(x="nine")),
    "xml_not_utf8": _xml_case(b"\xff\xfe<ASAP_Annotations/>"),
    "xml_unknown_encoding": _xml_case('<?xml version="1.0" encoding="utf-9"?><ASAP_Annotations/>'),
    "xml_of_another_slide": _xml_case(_POLYGON.format(x="9"), name="other"),
    "xml_non_finite_coordinate": _xml_case(_POLYGON.format(x="inf")),
    "xml_huge_coordinate": _xml_case(_POLYGON.format(x="-1e308")),
    "xml_two_vertices": _xml_case(_POLYGON.format(x="9").replace(
        '<Coordinate Order="2" X="1" Y="9"/>', "")),
    "xml_duplicate_name": _xml_case(_POLYGON.replace(_TRIANGLE, 2 * _TRIANGLE).format(x="9")),
    "report_not_json": _report_case('{"team": "t", '),
    "report_not_utf8": _report_case(b"\xff\xfe{}"),
    "report_top_level_list": _report_case("[1]"),
    "report_scores_not_list": _report_case('{"team": "t", "scores": 1}'),
    "report_score_not_object": _report_case('{"team": "t", "scores": [1]}'),
    "report_no_scores": _report_case('{"team": "t", "scores": []}'),
    "report_dice_out_of_range": _report_case(_report_json(dice=1.5)),
    "report_negative_count": _report_case(_report_json(tp=-1, fp=0, fn=0, tn=1)),
    "report_scores_one_slide_twice": _report_case(_report_json(repeat=2)),
    "report_dice_contradicts_counts": _report_case(_counted_report_json(dice=0.1)),
    "report_accuracy_contradicts_counts": _report_case(_counted_report_json(accuracy=0.9)),
    "report_fnr_contradicts_counts": _report_case(_counted_report_json(fnr=0.5)),
    "report_fpr_contradicts_counts": _report_case(_counted_report_json(fpr=0.16666666666666669)),
    "report_flags_contradict_counts": _report_case(_counted_report_json(flags=["empty_pair"])),
    "leaderboard_repeated_report": _two_reports_case("leaderboard", repeat=True),
    "compare_repeated_report": _two_reports_case(
        "compare", "--groups", "a=MultiModel,b=SingleModel", "--out", os.devnull, repeat=True),
    "leaderboard_slide_scored_twice": _slide_scored_twice_case("leaderboard"),
    "compare_slide_scored_twice": _slide_scored_twice_case(
        "compare", "--groups", "a=MultiModel,b=SingleModel", "--out", os.devnull),
    "leaderboard_groups_misspelled_team": _two_reports_case(
        "leaderboard", "--groups", "aa=MultiModel"),
    "leaderboard_groups_team_named_twice": _two_reports_case(
        "leaderboard", "--groups", "a=MultiModel,a=SingleModel"),
    "leaderboard_groups_empty_team": _two_reports_case("leaderboard", "--groups", "=MultiModel"),
    "compare_groups_empty_group": _compare_groups_case("a=MultiModel,b="),
    "compare_groups_team_named_twice": _compare_groups_case(
        "a=MultiModel,b=MultiModel,b=SingleModel"),
    "compare_groups_team_without_report": _compare_groups_case(
        "a=MultiModel,b=SingleModel,ghost=SingleModel"),
    "sidecar_missing": _mask_case(lambda p: p.with_suffix(".json").unlink()),
    "sidecar_not_json": _mask_case(lambda p: _write(p.with_suffix(".json"), "{")),
    "sidecar_not_object": _mask_case(lambda p: _write(p.with_suffix(".json"), "[]")),
    "sidecar_bad_role": _mask_case(lambda p: _write(
        p.with_suffix(".json"), '{"slide_id": "s", "level": 0, "role": "Nobody"}')),
    "sidecar_bad_kind": _mask_case(lambda p: _write(
        p.with_suffix(".json"), '{"slide_id": "s", "level": 0, "kind": "Nobody"}')),
    "sidecar_negative_level": _mask_case(lambda p: _write(
        p.with_suffix(".json"), '{"slide_id": "s", "level": -1, "kind": "mask"}')),
    "probability_sidecar_of_a_mask": _ensemble_mean_of_mask,
    "refine_gt_of_a_probability_map": _refine_of_a_probability_map,
    "eval_pred_of_a_probability_map": _eval_of_a_probability_map,
    "manifest_not_json": _slide_case(lambda m: _write(m, "{")),
    "manifest_missing": _slide_case(lambda m: m.unlink()),
    "manifest_missing_levels": _slide_case(lambda m: _write(m, '{"slide_id": "s"}')),
    "manifest_level_not_object": _slide_case(lambda m: _write(
        m, '{"slide_id": "s", "mpp_level0": null, "levels": [1]}')),
    "manifest_missing_level_file": _slide_case(lambda m: (m.parent / _LEVEL).unlink()),
    "manifest_n_levels_beyond_files": _slide_case(
        _edit_manifest(lambda meta: meta.update(n_levels=2))),
    "manifest_no_levels": _slide_case(_edit_manifest(lambda meta: meta.update(n_levels=0))),
    "manifest_levels_break_halving": _slide_case(_second_level_of_full_size),
    "subtypes_without_subtype_column": _subtypes_case("slide_id,kind\ns,SCC\n"),
    "subtypes_not_utf8": _subtypes_case(b"slide_id,subtype\ns,\xff\xfe\n"),
    "subtypes_short_row": _subtypes_case("slide_id,subtype\ns\n"),
    "subtypes_empty": _subtypes_case(""),
    "subtypes_unknown_subtype": _subtypes_case("slide_id,subtype\ns,XYZ\n"),
    "subtypes_repeated_slide": _subtypes_case("slide_id,subtype\ns,SCC\ns,ADC\n"),
    "prediction_level_too_coarse": _prediction_level_case(4),
    "prediction_level_far_too_coarse": _prediction_level_case(9),
    "two_masks_of_one_slide": _duplicate_slide_case,
    "refine_masks_of_two_slides": _refine_other_slide,
    "tile_gt_at_a_level_the_slide_lacks": _tile_gt_case(1),
    "tile_gt_of_the_wrong_shape": _tile_gt_case(0),
    "tile_gt_of_another_slide": _tile_gt_case(0, side=16, slide_id="other"),
    "config_not_utf8": _config_case(b"eta=\xff\xfe\n"),
    "config_unknown_key": _config_case("bogus=1\n"),
    "config_bad_value": _config_case("t_max=many\n"),
    "config_negative_seed": _config_case("seed=-1\n"),
    "config_repeated_key": _config_case("eta=1.0\neta=2.0\n"),
}


def _synth_flags(*flags):
    def make(tmp_path):
        return ["synth", "--out", str(tmp_path / "c"), "--slides", "1", "--size", "64",
                "--levels", "1", "--radius", "4", "8", *flags]
    return make


def _rebalance_negative_seed(tmp_path):
    gt = tmp_path / "gt.pgm"
    write_mask(BinaryMask("s", 0, np.eye(16, dtype=bool)), gt)
    return ["tile", "--slide", str(_slide(tmp_path)), "--gt", str(gt), "--size", "8",
            "--rule", "three_class", "--rebalance", "--seed", "-1",
            "--out", str(tmp_path / "tiles.jsonl")]


def _ensemble_vote_binarize(tmp_path):
    path = tmp_path / "m.pgm"
    write_mask(BinaryMask("s", 0, np.eye(4, dtype=bool)), path)
    return ["ensemble", "--mode", "vote", "--binarize", "0.5", "--inputs", str(path),
            "--out", str(tmp_path / "v.pgm")]


def _coteach_seeds(seeds):
    def make(tmp_path):
        return ["coteach", "--out", str(tmp_path / "bench"), "--seeds", seeds]
    return make


# flag values that every file is well-formed for, but that no run can use
MALFORMED_FLAGS = {
    "synth_negative_seed": _synth_flags("--seed", "-1"),
    "synth_negative_team_seed": _synth_flags("--team", "a:flip_rate=0.5,seed=-3"),
    "synth_team_repeated_field": _synth_flags("--team", "a:flip_rate=0.1,flip_rate=0.9"),
    "synth_team_outside_out": _synth_flags("--team", "../../escaped"),
    "synth_nan_ratio": _synth_flags("--ratio", "nan", "1", "1"),
    "synth_inf_ratio": _synth_flags("--ratio", "inf", "1", "1"),
    "synth_ratio_sum_overflows": _synth_flags("--ratio", "1e308", "1e308", "1"),
    "tile_rebalance_negative_seed": _rebalance_negative_seed,
    "ensemble_vote_with_binarize": _ensemble_vote_binarize,
    "coteach_negative_seeds": _coteach_seeds("-3"),
    "coteach_zero_seeds": _coteach_seeds("0"),
}


# the one stderr line of each case above, after "slidebench: error: "; {tmp} is tmp_path
ERROR_LINES = {
    "ppm_truncated": "{tmp}/slide/level_00.ppm: raster payload is 763 bytes, expected 768",
    "ppm_bad_magic": "{tmp}/slide/level_00.ppm: expected P6 magic, got b'P3'",
    "pgm_truncated": "{tmp}/m.pgm: raster payload is 251 bytes, expected 256",
    "pgm_bad_magic": "{tmp}/m.pgm: expected P5 magic, got b'P6'",
    "pgm_bad_maxval": "{tmp}/m.pgm: unsupported maxval 65535, expected 255",
    "pgm_trailing_bytes": "{tmp}/m.pgm: raster payload is 257 bytes, expected 256",
    "xml_missing": "[Errno 2] No such file or directory: '{tmp}/nope.xml'",
    "xml_not_well_formed": "{tmp}/s.xml: malformed XML: no element found: line 1, column 31",
    "xml_wrong_root": "{tmp}/s.xml: root element is 'NotASAP', expected 'ASAP_Annotations'",
    "xml_non_numeric_coordinate": "{tmp}/s.xml: annotation 'a' has a non-numeric coordinate",
    "xml_not_utf8": "{tmp}/s.xml: malformed XML: not well-formed (invalid token): line 1, column 1",
    "xml_unknown_encoding": "{tmp}/s.xml: malformed XML: unknown encoding: utf-9",
    "xml_of_another_slide": "{tmp}/other.xml annotates slide 'other', not 's'",
    "xml_non_finite_coordinate": "{tmp}/s.xml: annotation 'a' has a non-finite coordinate",
    "xml_huge_coordinate": "{tmp}/s.xml: annotation 'a' has a coordinate of magnitude >= 2**53",
    "xml_two_vertices": "{tmp}/s.xml: annotation 'a' has fewer than 3 vertices",
    "xml_duplicate_name": "{tmp}/s.xml: duplicate annotation name 'a'",
    "report_not_json": (
        "{tmp}/t.json: cannot read report: Expecting property name enclosed in double quotes: "
        "line 1 column 15 (char 14)"),
    "report_not_utf8": (
        "{tmp}/t.json: cannot read report: 'utf-8' codec can't decode byte 0xff in position 0: "
        "invalid start byte"),
    "report_top_level_list": "{tmp}/t.json: report is not a JSON object",
    "report_scores_not_list": "{tmp}/t.json: report field 'scores' is 1, expected list",
    "report_score_not_object": "{tmp}/t.json: report score is 1, expected a JSON object",
    "report_no_scores": "{tmp}/t.json: report has no scores",
    "report_dice_out_of_range": "{tmp}/t.json: s: dice=1.5 outside [0, 1]",
    "report_negative_count": "{tmp}/t.json: confusion count tp=-1 must be a non-negative int",
    "report_scores_one_slide_twice": "{tmp}/t.json: report for 't' scores slide 's' twice",
    "report_dice_contradicts_counts": "{tmp}/t.json: s: dice=0.1, but its counts give 0.75",
    "report_accuracy_contradicts_counts": (
        "{tmp}/t.json: s: accuracy=0.9, but its counts give 0.8"),
    "report_fnr_contradicts_counts": "{tmp}/t.json: s: fnr=0.5, but its counts give 0.25",
    "report_fpr_contradicts_counts": (
        "{tmp}/t.json: s: fpr=0.16666666666666669, but its counts give 0.16666666666666666"),
    "report_flags_contradict_counts": (
        "{tmp}/t.json: s: flags=('empty_pair',), but its counts give ()"),
    "leaderboard_repeated_report": "team 'a' appears in more than one report",
    "compare_repeated_report": "team 'a' appears in more than one report",
    "leaderboard_slide_scored_twice": "{tmp}/a.json: report for 'a' scores slide 's' twice",
    "compare_slide_scored_twice": "{tmp}/a.json: report for 'a' scores slide 's' twice",
    "leaderboard_groups_misspelled_team": "groups name teams with no report: aa",
    "leaderboard_groups_team_named_twice": "--groups: team 'a' is named twice",
    "leaderboard_groups_empty_team": "--groups: expected team=Group, got '=MultiModel'",
    "compare_groups_empty_group": "--groups: expected team=Group, got 'b='",
    "compare_groups_team_named_twice": "--groups: team 'b' is named twice",
    "compare_groups_team_without_report": "groups name teams with no report: ghost",
    "sidecar_missing": "{tmp}/m.pgm: missing sidecar {tmp}/m.json",
    "sidecar_not_json": (
        "{tmp}/m.json: cannot read mask sidecar: Expecting property name enclosed in double "
        "quotes: line 1 column 2 (char 1)"),
    "sidecar_not_object": "{tmp}/m.json: mask sidecar is not a JSON object",
    "sidecar_bad_role": "{tmp}/m.json: mask sidecar missing field 'kind'",
    "sidecar_bad_kind": "{tmp}/m.json: mask sidecar field 'kind' is 'Nobody', expected 'mask'",
    "sidecar_negative_level": "{tmp}/m.pgm: mask for s: negative level -1",
    "probability_sidecar_of_a_mask": (
        "{tmp}/m.json: probability sidecar field 'kind' is 'mask', expected 'probability'"),
    "refine_gt_of_a_probability_map": (
        "{tmp}/p.json: mask sidecar field 'kind' is 'probability', expected 'mask'"),
    "eval_pred_of_a_probability_map": (
        "{tmp}/pred/s.json: mask sidecar field 'kind' is 'probability', expected 'mask'"),
    "manifest_not_json": (
        "{tmp}/slide/manifest.json: cannot read manifest: Expecting property name enclosed in "
        "double quotes: line 1 column 2 (char 1)"),
    "manifest_missing": "[Errno 2] No such file or directory: '{tmp}/slide/manifest.json'",
    "manifest_missing_levels": "{tmp}/slide/manifest.json: manifest missing field 'n_levels'",
    "manifest_level_not_object": "{tmp}/slide/manifest.json: manifest missing field 'n_levels'",
    "manifest_missing_level_file": "[Errno 2] No such file or directory: '{tmp}/slide/level_00.ppm'",
    "manifest_n_levels_beyond_files": (
        "[Errno 2] No such file or directory: '{tmp}/slide/level_01.ppm'"),
    "manifest_no_levels": "{tmp}/slide/manifest.json: slide s: pyramid has no levels",
    "manifest_levels_break_halving": (
        "{tmp}/slide/manifest.json: slide s level 1: 16x16 violates the halving rule (expected "
        "8x8)"),
    "subtypes_without_subtype_column": "{tmp}/subtypes.csv: missing column(s) subtype",
    "subtypes_not_utf8": (
        "{tmp}/subtypes.csv: cannot read CSV: 'utf-8' codec can't decode byte 0xff in position "
        "19: invalid start byte"),
    "subtypes_short_row": "{tmp}/subtypes.csv: row 1 has fewer than 2 fields",
    "subtypes_empty": "{tmp}/subtypes.csv: missing column(s) slide_id, subtype",
    "subtypes_unknown_subtype": (
        "{tmp}/subtypes.csv: row 1 field 'subtype' is 'XYZ', expected one of SCC, SCLC, ADC, "
        "Unknown"),
    "subtypes_repeated_slide": "{tmp}/subtypes.csv: row 2 repeats slide_id 's'",
    "prediction_level_too_coarse": (
        "s: prediction is 16x16 at level 4, but the 16x16 level-0 ground truth is 1x1 there"),
    "prediction_level_far_too_coarse": (
        "s: prediction is 16x16 at level 9, but the 16x16 level-0 ground truth is 1x1 there"),
    "two_masks_of_one_slide": "{tmp}/pred/a.pgm and {tmp}/pred/b.pgm both hold slide 's0'",
    "refine_masks_of_two_slides": (
        "refine_labels: slide 'slide_000' does not match slide 'slide_001'"),
    "tile_gt_at_a_level_the_slide_lacks": "slide s has no level 1",
    "tile_gt_of_the_wrong_shape": "ground truth is 8x8, but level 0 of slide s is 16x16",
    "tile_gt_of_another_slide": "ground truth annotates slide 'other', not 's'",
    "config_not_utf8": (
        "{tmp}/train.cfg: cannot read config: 'utf-8' codec can't decode byte 0xff in position "
        "4: invalid start byte"),
    "config_unknown_key": "{tmp}/train.cfg:1: unknown key 'bogus'",
    "config_bad_value": "{tmp}/train.cfg:1: bad value for t_max: 'many'",
    "config_negative_seed": "{tmp}/train.cfg: seed must be >= 0, got -1",
    "config_repeated_key": "{tmp}/train.cfg:2: repeated key 'eta'",
    "synth_negative_seed": "seed must be >= 0, got -1",
    "synth_negative_team_seed": "seed must be >= 0, got -3",
    "synth_team_repeated_field": (
        "--team 'a:flip_rate=0.1,flip_rate=0.9': repeated field 'flip_rate'"),
    "synth_team_outside_out": "team names must be plain directory names, got ['../../escaped']",
    "synth_nan_ratio": "bad subtype ratio (nan, 1.0, 1.0)",
    "synth_inf_ratio": "bad subtype ratio (inf, 1.0, 1.0)",
    "synth_ratio_sum_overflows": "bad subtype ratio (1e+308, 1e+308, 1.0)",
    "tile_rebalance_negative_seed": "seed must be >= 0, got -1",
    "ensemble_vote_with_binarize": "--binarize applies only to --mode mean",
    "coteach_negative_seeds": "--seeds must be >= 1, got -3",
    "coteach_zero_seeds": "--seeds must be >= 1, got 0",
}


@pytest.mark.parametrize("case", [*MALFORMED_INPUTS, *MALFORMED_FLAGS])
def test_malformed_input_is_one_line(tmp_path, case):
    make_args = {**MALFORMED_INPUTS, **MALFORMED_FLAGS}[case]
    proc = _run([sys.executable, "-m", "slidebench", *make_args(tmp_path)])
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0] == "slidebench: error: " + ERROR_LINES[case].replace("{tmp}", str(tmp_path))


@pytest.mark.parametrize("side", ["truth", "pred"])
@pytest.mark.parametrize("case", [c for c in MALFORMED_INPUTS if c.startswith(("pgm_", "sidecar_"))])
def test_eval_checks_a_mask_up_front_as_refine_reads_it(tmp_path, capsys, case, side):
    MALFORMED_INPUTS[case](tmp_path)  # leaves the malformed tmp_path/m.pgm that refine reads
    good = tmp_path / "good"
    good.mkdir()
    write_mask(BinaryMask("s", 0, np.zeros((16, 16), dtype=bool)), good / "m.pgm")
    truth, pred = (tmp_path, good) if side == "truth" else (good, tmp_path)
    assert main(["eval", "--truth", str(truth), "--pred", str(pred), "--team", "t",
                 "--out", str(good / "r.json")]) == 1
    line = ERROR_LINES[case].replace("{tmp}", str(tmp_path))
    assert capsys.readouterr().err == f"slidebench: error: {line}\n"


@pytest.mark.parametrize("case", ["0", "-3", "bad_config"])
def test_coteach_without_seeds_creates_no_out(tmp_path, case):
    make_args = _config_case("bogus=1\n") if case == "bad_config" else _coteach_seeds(case)
    assert main(make_args(tmp_path)) == 1
    assert [p.name for p in tmp_path.iterdir()] == (["train.cfg"] if case == "bad_config" else [])


def test_tile_otsu_on_uniform_slide_is_one_line(tmp_path):
    gt = tmp_path / "gt.pgm"
    write_mask(BinaryMask("s", 0, np.zeros((16, 16), dtype=bool)), gt)
    proc = _run([sys.executable, "-m", "slidebench", "tile", "--slide", str(_slide(tmp_path)),
                 "--gt", str(gt), "--size", "8", "--tissue-filter", "otsu",
                 "--out", str(tmp_path / "tiles.jsonl")])
    assert proc.returncode == 1, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith("slidebench: error:")
    assert "single bin" in lines[0]


# the pipeline's reports, comparison and csv and text leaderboards at seed 11; a change
# here must be deliberate
_PINNED_REPORTS_SHA256 = "74420ebd0e19236c7e6bfe0253f8edc7601983764989ea6dff66c10bad632fe6"


def test_full_pipeline_script(tmp_path):
    script = ROOT / "scripts" / "full_pipeline.sh"
    trees, text_boards = {}, {}
    for workers in ("1", "2"):
        out = tmp_path / f"demo_w{workers}"
        fork_log = tmp_path / f"forks_w{workers}.log"
        fork_log.touch()
        proc = _run(["bash", str(script), str(out), "11", workers], fork_log=fork_log)
        assert proc.returncode == 0, proc.stderr
        board = proc.stdout.split("[6/6] leaderboard\n")[1]
        text_boards[workers] = board.split("pipeline complete")[0]
        # synth, tile and each eval fork a pool at 2 workers; nothing forks at 1
        forked = len(fork_log.read_text().splitlines())
        assert forked >= 5 if workers == "2" else forked == 0
        trees[workers] = {p.relative_to(out): p.read_bytes()
                          for p in sorted(out.rglob("*")) if p.is_file()}
    out = tmp_path / "demo_w1"
    assert len(read_manifest(out / "tiles.jsonl")) > 0
    comparison = json.loads((out / "comparison.json").read_text())
    assert comparison["n"] == 5
    board = (out / "leaderboard.csv").read_text().splitlines()
    assert [line.split(",")[1] for line in board[1:]] == ["exact", "flip2", "flip5"]

    # the summary echoes its own out path; everything else must match byte for byte
    summary = Path("challenge_summary.json")
    w1, w2 = trees["1"], trees["2"]
    assert sorted(w1) == sorted(w2)
    assert [p for p in w1 if p != summary and w1[p] != w2[p]] == []
    assert w1[summary].replace(b"demo_w1", b"demo_w2") == w2[summary]

    assert text_boards["1"] == text_boards["2"]
    pinned = [*sorted((out / "reports").glob("*.json")), *sorted((out / "reports").glob("*.csv")),
              out / "comparison.json", out / "leaderboard.csv"]
    blobs = [p.read_bytes() for p in pinned] + [text_boards["1"].encode()]
    digest = hashlib.sha256(b"".join(hashlib.sha256(b).digest() for b in blobs))
    assert digest.hexdigest() == _PINNED_REPORTS_SHA256


def _tie_colour_slide(root: Path) -> Path:
    """A 160x160 slide: every colour with 299r + 587g + 114b == 1000t + 500, and random ones."""
    rgb = np.stack(np.meshgrid(*[np.arange(256, dtype=np.uint8)] * 3, indexing="ij"), -1)
    rgb = rgb.reshape(-1, 3)
    ties = rgb[(rgb.astype(np.int64) @ np.array([299, 587, 114])) % 1000 == 500]
    rng = np.random.default_rng(3)
    noise = rng.integers(0, 256, (160 * 160 - len(ties), 3), dtype=np.uint8)
    pixels = rng.permutation(np.concatenate([ties, noise])).reshape(160, 160, 3)
    return write_pyramid(build_pyramid("ties", pixels, 2), root)


# the tissue masks and tile manifests of the slides below; a change here must be deliberate
_PINNED_TISSUE_TILE_SHA256 = "29fdf7f7a5da9d8713258daf26824c7becb2e08cacf4ec074a6e2cbe7eb13ef5"


@pytest.mark.parametrize("workers", ["1", "2"])
def test_tissue_and_tile_outputs_are_pinned(tmp_path, workers):
    # 300 px rows are blocks of 218 rows, so the level ends in a partial block
    assert main(["synth", "--out", str(tmp_path / "c"), "--slides", "1", "--size", "300",
                 "--levels", "2", "--radius", "10", "30", "--seed", "3", "--team", "exact"]) == 0
    synth = (tmp_path / "c" / "slides" / "slide_000" / "manifest.json",
             tmp_path / "c" / "truth" / "slide_000.pgm")
    gt = tmp_path / "ties.pgm"
    write_mask(BinaryMask("ties", 0, np.eye(160, dtype=bool)), gt)
    ties = (_tie_colour_slide(tmp_path / "t"), gt)
    outputs = []
    for name, (slide, truth) in {"synth": synth, "ties": ties}.items():
        for method in ("otsu", "gray200"):
            out = tmp_path / f"{name}_tissue_{method}.pgm"
            assert main(["tissue", "--slide", str(slide), "--method", method,
                         "--out", str(out)]) == 0
            outputs += [out, out.with_suffix(".json")]
            out = tmp_path / f"{name}_tiles_{method}.jsonl"
            assert main(["tile", "--slide", str(slide), "--gt", str(truth), "--size", "48",
                         "--stride", "40", "--tissue-filter", method, "--workers", workers,
                         "--out", str(out)]) == 0
            outputs.append(out)
    digest = hashlib.sha256(b"".join(hashlib.sha256(p.read_bytes()).digest() for p in outputs))
    assert digest.hexdigest() == _PINNED_TISSUE_TILE_SHA256


# every subcommand's flags as (flag, default, choices, nargs, required), in parser order
CLI_OPTIONS = {
    "synth": [
        ("--seed", 0, None, None, False),
        ("--workers", 1, None, None, False),
        ("--out", None, None, None, True),
        ("--slides", 5, None, None, False),
        ("--size", 2048, None, None, False),
        ("--levels", 3, None, None, False),
        ("--lesions", (2, 5), None, 2, False),
        ("--radius", (20.0, 60.0), None, 2, False),
        ("--ratio", (6.0, 3.0, 1.0), None, 3, False),
        ("--dilation", 0, None, None, False),
        ("--include-background", False, None, 0, False),
        ("--team", None, None, None, False),
    ],
    "tissue": [
        ("--slide", None, None, None, True),
        ("--level", 0, None, None, False),
        ("--method", "otsu", ("otsu", "gray200"), None, False),
        ("--out", None, None, None, True),
    ],
    "rasterize": [
        ("--annotations", None, None, None, True),
        ("--slide", None, None, None, True),
        ("--level", 0, None, None, False),
        ("--out", None, None, None, True),
    ],
    "refine": [
        ("--gt", None, None, None, True),
        ("--tissue", None, None, None, True),
        ("--out", None, None, None, True),
    ],
    "tile": [
        ("--seed", 0, None, None, False),
        ("--workers", 1, None, None, False),
        ("--slide", None, None, None, True),
        ("--gt", None, None, None, True),
        ("--size", 256, None, None, False),
        ("--stride", None, None, None, False),
        ("--rule", "threshold75", ("threshold75", "three_class", "big_patch_nine"), None, False),
        ("--tissue-filter", None, ("otsu", "gray200"), None, False),
        ("--rebalance", False, None, 0, False),
        ("--out", None, None, None, True),
    ],
    "eval": [
        ("--seed", 0, None, None, False),
        ("--workers", 1, None, None, False),
        ("--truth", None, None, None, True),
        ("--pred", None, None, None, True),
        ("--team", None, None, None, True),
        ("--subtypes", None, None, None, False),
        ("--out", None, None, None, True),
        ("--csv", None, None, None, False),
    ],
    "ensemble": [
        ("--inputs", None, None, "+", True),
        ("--mode", "mean", ("mean", "vote"), None, False),
        ("--binarize", None, None, None, False),
        ("--out", None, None, None, True),
    ],
    "coteach": [
        ("--out", None, None, None, True),
        ("--config", None, None, None, False),
        ("--seeds", 10, None, None, False),
    ],
    "compare": [
        ("--reports", None, None, "+", True),
        ("--groups", None, None, None, True),
        ("--mode", "auto", ("exact", "normal-approx", "auto"), None, False),
        ("--out", None, None, None, True),
    ],
    "leaderboard": [
        ("--reports", None, None, "+", True),
        ("--groups", None, None, None, False),
        ("--format", "text", ("csv", "json", "text"), None, False),
        ("--out", None, None, None, False),
    ],
}


def test_cli_option_surface_is_pinned():
    """A new, removed or changed flag must show up as an edit of ``CLI_OPTIONS``."""
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    surface = {
        name: [(a.option_strings[0], a.default, None if a.choices is None else tuple(a.choices),
                a.nargs, a.required)
               for a in sub._actions if not isinstance(a, argparse._HelpAction)]
        for name, sub in commands.choices.items()
    }
    assert surface == CLI_OPTIONS
