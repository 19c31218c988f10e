"""facepulse benchmark: one client, closed loop, ops back to back.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/`` in that checkout and driven in-process through
``facepulse.cli.main``, single thread.  The inputs of each workload (see
workloads.py) are rendered by ``facepulse.synth.render_session`` from the
seed into ``.perfbench_run/`` and removed again at the end.

Set-up, repeated ``SETUP_REPEATS`` times: render the session and its box
track, fsync them, run one untimed warm-up op.  ``setup_s`` is the import
time plus the median repeat.  Then ops run back to back for ``--seconds``
with ``gc.collect()`` before each; every op's outputs are checked
(finite, nothing skipped, session mean within 1 bpm of the rendered
truth, bytes equal to the warm-up op's).  An op that raises, exits
non-zero or fails the check counts as failed; the run goes on.  One more
untimed op under ``tracemalloc`` gives ``peak_heap_mb``.

Host-speed scaling: a shared host runs this single-threaded code up to
1.7x slower or faster in phases that last from seconds to many minutes,
longer than any run, so raw run-level times of the same code spread far
past the bounds.  A fixed calibration loop (``host_probe``, no program
code in it) therefore runs before each set-up repeat and each op, and
``setup_s``, ``frames_per_s`` and ``op_s_p50`` are reported at the
reference host speed: the raw figure times ``PROBE_REF_S`` / the run's
median probe.  A change to the program moves them as it moves the raw
times; the raw figures are in the diagnostics line under ``unscaled``.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics: it alternates untraced and traced ops, the traced ones with
wrappers at each layer boundary (see tracing.py).  The last stdout line
is the result object; the line before it holds diagnostics: the
host-speed probe before, during and after the run, the unscaled
timings, per-op times, the op-time
tail when the run holds 40 ops or more, and per-layer time shares.

Exit codes: 0 with a result; 2 without one (program not importable,
too little free memory to keep the inputs cached, warm-up op failed);
143 on SIGTERM, after removing the rendered inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import shutil
import signal
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

from tracing import LAYER_METRICS, Tracer, op_metrics

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench_run"
SETUP_REPEATS = 3
# host_probe work per pass, and its time at the reference host speed (the
# median on a 2-core x86-64 VM in a quiet phase)
PROBE_ITEMS = 800
PROBE_REF_S = 0.023
# the tail percentile must leave at least this many ops beyond it
TAIL_MIN_BEYOND = 10


class SetupError(Exception):
    """The benchmark cannot produce a trustworthy result."""


def import_program():
    """Import facepulse from this checkout's src/; returns (cli, seconds)."""
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    try:
        import facepulse.cli as cli
    except ImportError as exc:
        raise SetupError(f"cannot import facepulse from {ROOT / 'src'}: "
                         f"{exc}") from exc
    import_s = time.perf_counter() - t0
    origin = Path(cli.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise SetupError(f"facepulse was imported from {origin}, not from "
                         f"this checkout's src/")
    return cli, import_s


def mem_available_bytes() -> int:
    with open("/proc/meminfo") as fh:
        for line in fh:
            if line.startswith("MemAvailable:"):
                return int(line.split()[1]) * 1024
    raise SetupError("MemAvailable not found in /proc/meminfo")


def host_probe() -> float:
    """Seconds for one pass of a fixed calibration loop.

    The loop is made of what the ops spend their time on, and none of it
    is program code: small numpy arrays and FFTs, and Python-level work
    per item with text formatting.  On a shared host its time follows
    the host's speed phases closely enough to divide them out of the
    ops' times (see host_scale)."""
    import numpy as np
    t0 = time.perf_counter()
    x = np.sin(np.arange(PROBE_ITEMS + 300) * 0.1)
    taper = np.hanning(300)
    rows = []
    for k in range(PROBE_ITEMS):
        seg = x[k:k + 300]
        power = np.abs(np.fft.rfft((seg - seg.mean()) * taper, 512)) ** 2
        i = int(np.argmax(power[10:60]))
        rows.append(f"{k},{i},{power[i]:.4f}")
    "\n".join(rows)
    return time.perf_counter() - t0


def host_scale(probes: list[float]) -> float:
    """Factor that brings times measured during `probes` to the
    reference host speed, at which host_probe takes PROBE_REF_S."""
    return PROBE_REF_S / statistics.median(probes)


class Runner:
    """Runs and checks ops of one workload against rendered inputs."""

    def __init__(self, cli, workload, session_dir: Path, out: Path):
        self.cli = cli
        self.workload = workload
        self.argv = workload.argv(session_dir, out)
        self.out = out
        self.reference: dict[str, bytes] | None = None
        self.failures: list[str] = []
        self.hr_err_bpm = float("nan")

    def call(self) -> tuple[int, str]:
        """One op through the CLI; returns (exit code, captured stderr)."""
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            rc = self.cli.main(self.argv)
        return rc, stderr.getvalue()

    def prepare(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)
        gc.collect()

    def timed(self, call=None) -> tuple[float, bool]:
        """Run, time and check one op; returns (seconds, ok)."""
        self.prepare()
        t0 = time.perf_counter()
        try:
            rc, stderr = (call or self.call)()
        except Exception as exc:  # a failed op is counted, not fatal
            elapsed = time.perf_counter() - t0
            self.failures.append(f"raised {type(exc).__name__}: {exc}")
            return elapsed, False
        elapsed = time.perf_counter() - t0
        return elapsed, self.verify(rc, stderr)

    def verify(self, rc: int, stderr: str) -> bool:
        problems = [f"exit code {rc}: {stderr.strip()[-300:]}"] if rc else []
        if not problems:
            problems, hr_err_bpm = self.workload.check(self.out, stderr)
            outputs = {p.name: p.read_bytes() for p in self.out.iterdir()}
            if self.reference is None:
                self.reference = outputs
                self.hr_err_bpm = hr_err_bpm
            elif outputs != self.reference:
                problems.append("outputs differ from the warm-up op's bytes")
        self.failures += problems[:1]
        return not problems


def setup(cli, workload, import_s: float, run_dir: Path,
          probes: list[float]):
    """Render, fsync and warm up SETUP_REPEATS times, each after a host
    probe appended to `probes`; the last repeat's inputs stay for the
    timed ops.  Returns (runner, setup seconds per repeat, render seconds
    per repeat)."""
    setup_s, render_s = [], []
    runner = None
    for k in range(SETUP_REPEATS):
        shutil.rmtree(run_dir, ignore_errors=True)
        probes.append(host_probe())
        gc.collect()
        t0 = time.perf_counter()
        rendered = workload.render(run_dir / "session")
        runner = Runner(cli, workload, run_dir / "session", run_dir / "out")
        _, ok = runner.timed()
        setup_s.append(import_s + time.perf_counter() - t0)
        render_s.append(rendered)
        if not ok:
            raise SetupError(f"warm-up op failed: {runner.failures[-1]}")
    return runner, setup_s, render_s


def op_tail(times: list[float]) -> dict | None:
    """Highest of p90/p75 leaving at least TAIL_MIN_BEYOND ops beyond it."""
    for q in (90, 75):
        if len(times) * (100 - q) / 100 >= TAIL_MIN_BEYOND:
            value = statistics.quantiles(times, n=100, method="inclusive")
            return {"percentile": f"p{q}", "samples": len(times),
                    "value_s": value[q - 1]}
    return None


def heap_peak_mb(runner: Runner) -> float:
    """tracemalloc peak over one untimed op, in MB."""
    runner.prepare()
    tracemalloc.start()
    try:
        runner.call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 1e6


def measure(runner: Runner, seconds: float, tracer: Tracer | None,
            probes: list[float]):
    """Ops for `seconds`, each after a host probe appended to `probes`.
    With a tracer, ops alternate untraced / traced.  Returns (times and
    ok flags of untraced ops, traced op times, per-layer figures and
    layer self-time shares of traced ops)."""
    untraced, traced, layers, shares = [], [], [], []
    min_ops = 2 if tracer is None else 4
    start = time.perf_counter()
    while (len(untraced) + len(traced) < min_ops or
           time.perf_counter() - start < seconds):
        probes.append(host_probe())
        if tracer is None or len(untraced) == len(traced):
            untraced.append(runner.timed())
            continue
        tracer.install()
        tracer.reset()
        _, ok = runner.timed(lambda: tracer.run_span("op", runner.call))
        tracer.uninstall()
        op_s = tracer.get("op").total_s
        traced.append((op_s, ok))
        layers.append(op_metrics(tracer, "op", runner.workload.frame_bytes))
        shares.append({layer: self_s / op_s for layer, self_s
                       in tracer.layer_self_s().items()})
    return untraced, traced, layers, shares


def run(args) -> tuple[dict, dict]:
    cli, import_s = import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SetupError(f"unknown workload {args.workload!r}; choose from "
                         f"{sorted(workloads.WORKLOADS)}")
    workload = workloads.make(args.workload, args.seed, args.scale)
    need = 2 * workload.input_bytes
    avail = mem_available_bytes()
    if avail < need:
        raise SetupError(
            f"MemAvailable {avail / 1e9:.2f} GB is below twice the "
            f"{workload.input_bytes / 1e9:.2f} GB of inputs; the page cache "
            f"could not keep them warm")

    run_dir = WORK_DIR / f"{args.workload}-{os.getpid()}"
    tracer = Tracer() if args.trace else None
    probe_before = statistics.median(host_probe() for _ in range(3))
    probes: list[float] = []
    try:
        runner, setup_s, render_s = setup(cli, workload, import_s, run_dir,
                                          probes)
        untraced, traced, layers, shares = measure(runner, args.seconds,
                                                   tracer, probes)
        peak_mb = heap_peak_mb(runner) if tracer is None else None
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    probe_after = statistics.median(host_probe() for _ in range(3))
    scale = host_scale(probes)
    if tracer is not None:
        _write_spans(tracer, args)

    times = [t for t, _ in untraced]
    ok_times = [t for t, ok in untraced if ok]
    oks = [ok for _, ok in untraced + traced]
    failed = oks.count(False)
    diagnostics = {
        "workload": args.workload, "seed": args.seed,
        "frames_per_op": workload.frames_per_op,
        "input_bytes": workload.input_bytes,
        "import_s": import_s, "setup_repeats_s": setup_s,
        "host_probe_before_s": probe_before,
        "host_probe_after_s": probe_after,
        "host_probe_median_s": statistics.median(probes),
        "host_scale": scale,
        "op_times_s": times, "op_tail": op_tail(times),
        "hr_err_bpm": runner.hr_err_bpm,
        "failures": runner.failures[:5],
    }
    if tracer is None:
        frames_per_s = (workload.frames_per_op * len(ok_times) /
                        sum(ok_times) if ok_times else 0.0)
        diagnostics["unscaled"] = {
            "setup_s": statistics.median(setup_s),
            "frames_per_s": frames_per_s,
            "op_s_p50": statistics.median(times)}
        metrics = {
            "setup_s": (scale * statistics.median(setup_s), "s"),
            "frames_per_s": (frames_per_s / scale, "1/s"),
            "op_s_p50": (scale * statistics.median(times), "s"),
            "peak_heap_mb": (peak_mb, "MB"),
            "op_ok_ratio": (1.0 - failed / len(oks), "ratio"),
            "hr_err_bpm": (runner.hr_err_bpm, "bpm"),
        }
    else:
        traced_times = [t for t, _ in traced]
        figures = {name: statistics.median([lay[name] for lay in layers])
                   for name in layers[0]}
        figures["synth.render_s"] = statistics.median(render_s)
        figures["trace.overhead_s"] = (statistics.median(traced_times) -
                                       statistics.median(times))
        metrics = {name: (figures[name], spec[0])
                   for name, spec in LAYER_METRICS.items()}
        diagnostics["traced_op_times_s"] = traced_times
        diagnostics["layer_self_share"] = {
            layer: statistics.median([sh.get(layer, 0.0) for sh in shares])
            for layer in sorted({k for sh in shares for k in sh})}
        diagnostics["unmeasured"] = tracer.unmeasured
    result = {
        "correct": failed == 0,
        "attempted": len(oks),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return result, diagnostics


def _write_spans(tracer, args) -> None:
    """Keep the last traced op's span records in WORK_DIR."""
    WORK_DIR.mkdir(exist_ok=True)
    path = WORK_DIR / f"spans-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps([vars(s) for s in tracer.spans]) + "\n")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=1.0,
                   help="shrink the inputs (self-test only)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # on SIGTERM, unwind so the rendered inputs are removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        result, diagnostics = run(args)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"diagnostics": diagnostics}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
