"""Self-test of the benchmark at tiny input sizes (about a minute).

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is emitted with its
unit on every workload, that timings are scaled by the run's
host-speed factor, that an op on a truncated ``frames.raw`` is counted
as failed, that the traced pass survives a wrapped function that no
longer exists and reports it as unmeasured, and that the benchmark
exits non-zero without a result when the program is absent.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import run
import tracing

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
# per-workload scale: frames stay large enough for non-degenerate regions
TINY = {"estimate_rgb_static": 0.1, "estimate_dense_hop": 0.5}
FAILURES: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {what}")
    if not ok:
        FAILURES.append(what)


def tiny_run(workload: str, trace: int, seconds: float = 0.0):
    args = run.parse_args(["--workload", workload, "--seed", "7",
                           "--seconds", str(seconds), "--trace", str(trace),
                           "--scale", str(TINY[workload])])
    return run.run(args)


def expect_metrics(result: dict, specs: list[dict], what: str) -> None:
    got = result["metrics"]
    missing = [s["name"] for s in specs if s["name"] not in got]
    wrong_unit = [s["name"] for s in specs if s["name"] in got and
                  got[s["name"]]["unit"] != s["unit"]]
    extra = sorted(set(got) - {s["name"] for s in specs})
    check(not missing and not wrong_unit and not extra,
          f"{what}: metrics and units match BENCHMARK.json "
          f"(missing {missing}, wrong unit {wrong_unit}, extra {extra})")


def test_metrics_emitted() -> None:
    for w in BENCHMARK["workloads"]:
        name = w["name"]
        result, diag = tiny_run(name, 0)
        check(result["correct"] and result["failed"] == 0,
              f"{name}: tiny untraced run is correct")
        expect_metrics(result, BENCHMARK["end_to_end"], f"{name} --trace 0")
        got, raw = result["metrics"], diag["unscaled"]
        scale = diag["host_scale"]
        check(scale > 0 and math.isclose(got["op_s_p50"]["value"],
                                         scale * raw["op_s_p50"]) and
              math.isclose(got["frames_per_s"]["value"] * scale,
                           raw["frames_per_s"]),
              f"{name}: timings scaled by host_scale {scale:.3f}")
        result, diag = tiny_run(name, 1)
        check(result["correct"], f"{name}: tiny traced run is correct")
        expect_metrics(result, BENCHMARK["per_layer"], f"{name} --trace 1")
        coverage = result["metrics"]["trace.coverage"]["value"]
        check(coverage >= 0.9, f"{name}: trace coverage {coverage:.3f} >= 0.9")
        check(diag["unmeasured"] == [], f"{name}: every target wrapped")


def test_truncated_frames_fail() -> None:
    original = run.setup

    def setup_then_truncate(*args, **kwargs):
        runner, setup_s, render_s = original(*args, **kwargs)
        frames = Path(runner.argv[1]) / "frames.raw"
        with open(frames, "r+b") as fh:
            fh.truncate(frames.stat().st_size - 7)
        return runner, setup_s, render_s

    run.setup = setup_then_truncate
    try:
        result, diag = tiny_run("estimate_rgb_static", 0)
    finally:
        run.setup = original
    ratio = result["metrics"]["op_ok_ratio"]["value"]
    check(result["failed"] == result["attempted"] >= 1 and ratio == 0.0
          and not result["correct"],
          f"truncated frames.raw: {result['failed']} of "
          f"{result['attempted']} ops failed, op_ok_ratio {ratio}")
    check(any("SizeMismatchError" in f for f in diag["failures"]),
          "truncated frames.raw: failure names SizeMismatchError")


def test_missing_target_unmeasured() -> None:
    saved = list(tracing.TARGETS)
    gone = ["frameio:FrameStream.next_frame_removed", "roi:no_such_function",
            "no_such_module:f"]
    tracing.TARGETS[:] = [t for t in saved if "next_frame" not in t[1]]
    tracing.TARGETS += [("frameio", gone[0], True, None),
                        ("roi", gone[1], True, None),
                        ("pulse", gone[2], False, None)]
    try:
        result, diag = tiny_run("estimate_rgb_static", 1)
    finally:
        tracing.TARGETS[:] = saved
    check(result["correct"], "missing target: traced run still correct")
    check(diag["unmeasured"] == gone,
          f"missing target: reported unmeasured {diag['unmeasured']}")
    expect_metrics(result, BENCHMARK["per_layer"], "missing target")
    check(result["metrics"]["frameio.frames_read"]["value"] == 0,
          "missing target: its metrics read 0")


def test_fails_without_program() -> None:
    bare = run.WORK_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in BENCHMARK["paths"]:
        shutil.copytree(run.ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = subprocess.run(
            BENCHMARK["command"] + ["--workload", "estimate_rgb_static",
                                    "--seed", "1", "--seconds", "1",
                                    "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          f"bare checkout: exit {proc.returncode} and no result printed")


def main() -> int:
    test_metrics_emitted()
    test_truncated_frames_fail()
    test_missing_target_unmeasured()
    test_fails_without_program()
    shutil.rmtree(run.WORK_DIR, ignore_errors=True)
    print(f"{len(FAILURES)} failed" if FAILURES else "all passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
