"""cpslearn benchmark: one workload, one seed, a fixed measuring time.

Usage (from the repository root)::

    python3 perfbench/run.py --workload watertank_paper --seed 0 --seconds 30 --trace 0

It uses the library from ``src/`` of the tree it sits in, prints a machine
header, one line per metric (name, value, unit), and as its last line a JSON
object ``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0``
the metrics are the end-to-end ones of ``BENCHMARK.json``; with ``--trace 1``
alternate cycles run with spans around every layer call, and the metrics
are the per-layer ones. Spans are written to ``.perfbench_work/`` at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from clock import CALIBRATION_MS, COLD_CALIBRATION_MS, calibrate_cold_ms, calibrate_ms, cpu_ns

# One BLAS thread in this process and in every child it starts (they inherit
# the environment). Times are CPU times of all threads, and an idle OpenBLAS
# worker spins: with two workers a fresh interpreter burnt ~380 ms of CPU to
# import numpy and run the calibration kernel, with one ~170 ms, and the
# difference came and went with scheduling.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 3
IMPORT_PROBES = 5


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its rank.

    Below 20 samples every such percentile lies under the median; the
    maximum is reported instead, as p100.
    """
    ordered = sorted(values)
    k = len(ordered) - 10
    if k < len(ordered) / 2:
        return ordered[-1], 100.0
    return ordered[k - 1], 100.0 * k / len(ordered)


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def run_setup(workload, kernels: list) -> float:
    """Set the workload up SETUP_REPEATS times, keep the last; median CPU
    seconds at reference speed.

    The calibration kernel runs before the first set-up and after every
    set-up; each set-up is scaled by the kernels around it, as a step is in
    ``measure``. Kernel times go to ``kernels``.
    """
    cpu, wall, scaled = [], [], []
    kernels.append(calibrate_ms())
    for repeat in range(SETUP_REPEATS):
        if repeat:
            workload.teardown()
        start_wall, start_cpu = time.perf_counter(), cpu_ns()
        workload.setup()
        cpu.append((cpu_ns(workload.live_pids()) - start_cpu) / 1e9)
        wall.append(time.perf_counter() - start_wall)
        kernels.append(calibrate_ms())
        scaled.append(cpu[-1] * CALIBRATION_MS / ((kernels[-2] + kernels[-1]) / 2))
    print(f"# set-up CPU s: {', '.join(f'{t:.4f}' for t in cpu)}; wall s: {', '.join(f'{t:.4f}' for t in wall)}")
    return statistics.median(scaled)


def measure(workload, seconds: float, kernels: list, colds: list, tracer=None) -> list:
    """Repeat whole cycles until the time is up; with a tracer, trace every other cycle.

    Every step gets its scale to reference speed from the moments around it:
    an in-process step from the calibration kernel, run after every step and
    between the cases of an op (``op_scale``); a CLI step from the cold
    kernel, run right after it: ``COLD_CALIBRATION_MS`` over its time.
    Kernel times go to ``kernels`` and ``colds``.
    """
    steps, index = [], 0
    deadline = time.perf_counter() + seconds
    min_cycles = 2 if tracer is not None else 1
    while index < min_cycles or time.perf_counter() < deadline:
        for run in workload.cycle(index, tracer if index % 2 == 1 else None):
            before = kernels[-1]
            step = run()
            step.cycle = index
            if step.kind == "cli":
                colds.append(calibrate_cold_ms())
                step.scale = COLD_CALIBRATION_MS / colds[-1]
            kernels.extend(step.kernels_ms)
            kernels.append(calibrate_ms())
            if step.kind != "cli":
                step.scale = op_scale(step, before, kernels[-1])
            steps.append(step)
        index += 1
    return steps


def op_scale(step, before: float, after: float) -> float:
    """Reference speed over the speed of an in-process step.

    Each case is scaled by ``CALIBRATION_MS`` over the mean of the kernel
    times just before and just after it; the step's scale is the ratio of
    the summed scaled times to its CPU time.
    """
    points = [before, *step.kernels_ms, after]
    scales = [CALIBRATION_MS / ((a + b) / 2) for a, b in zip(points, points[1:])]
    if not step.cpu_ns:
        return scales[0]
    return sum(part * scale for part, scale in zip(step.parts_ns, scales)) / step.cpu_ns


def import_ms(env: dict) -> float:
    """CPU time of `import cpslearn.cli` in fresh interpreters, median."""
    code = "import time; t = time.process_time(); import cpslearn.cli; print((time.process_time() - t) * 1e3)"
    runs = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                             timeout=60, check=True)
        runs.append(float(out.stdout))
    return statistics.median(runs)


def per_cycle_rate(steps) -> float:
    """Median over whole cycles of observed rows per CPU second at reference speed."""
    rows, ms = {}, {}
    for step in steps:
        if step.rows and not step.traced:
            rows[step.cycle] = rows.get(step.cycle, 0) + step.rows
            ms[step.cycle] = ms.get(step.cycle, 0.0) + step.ref_ms
    return median(rows[c] / (ms[c] / 1e3) for c in rows)


def end_to_end(steps, setup_s: float) -> dict:
    """The bounded metrics; times are CPU times at reference speed."""
    plain = [s for s in steps if s.kind == "op" and not s.traced]
    cli = [s for s in steps if s.kind == "cli"]
    ops = [s.ref_ms for s in plain]
    tail_ms, tail_p = tail(ops)
    print(f"# op_cpu_ms_tail is p{tail_p:.1f} of n={len(ops)} operations; cli_cold_cpu_ms_p50 of n={len(cli)}")
    for label, clock in (("CPU", lambda s: s.ms), ("wall", lambda s: s.wall_ns / 1e6)):
        print(f"# unscaled {label} time, not bounded: op p50 {median(map(clock, plain)):.1f} ms, "
              f"tail {tail([clock(s) for s in plain])[0]:.1f} ms, cli p50 {median(map(clock, cli)):.1f} ms")
    return {
        "setup_s": (setup_s, "s"),
        "op_cpu_ms_p50": (median(ops), "ms"),
        "op_cpu_ms_tail": (tail_ms, "ms"),
        "rows_per_cpu_s": (per_cycle_rate(steps), "rows/s"),
        "cli_cold_cpu_ms_p50": (median(s.ref_ms for s in cli), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(steps, tracer, tracing, workload, env: dict) -> dict:
    metrics = tracing.layer_metrics(tracer.spans)
    up, down = tracer.remote_frame_bytes()
    if up:
        print(f"# remote frame bytes are computed from the JSON of the first op's payloads: up {up}, down {down}")
    metrics["remote.frame_bytes_up"] = (up, "bytes")
    metrics["remote.frame_bytes_down"] = (down, "bytes")

    plain = [s.ref_ms for s in steps if s.kind == "op" and not s.traced]
    traced = [s.ref_ms for s in steps if s.kind == "op" and s.traced]
    cli = median(s.ref_ms for s in steps if s.kind == "cli")
    in_process = median(plain) if workload.cli_runs_pipeline else metrics["config.validate.ms"][0]
    metrics["cli.import_ms"] = (import_ms(env), "ms")
    metrics["cli.startup_ms"] = (cli - in_process, "ms")
    metrics["trace.overhead_pct"] = ((median(traced) / median(plain) - 1.0) * 100.0, "%")
    walls = {op: s.wall_ns for op, s in enumerate((s for s in steps if s.kind == "op" and s.traced), start=1)}
    metrics["trace.unattributed_pct"] = (tracing.unattributed_pct(tracer.spans, walls), "%")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cpslearn" / "__init__.py").is_file():
        print(f"error: no cpslearn sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy

    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r} (known: {sorted(workloads.WORKLOADS)})",
              file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"# nproc={os.cpu_count()} cpu={cpu_model()!r} python={platform.python_version()} "
          f"numpy={numpy.__version__}")
    workdir = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    # A SIGTERM unwinds through `finally`, so the learner server is reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        kernels: list[float] = []
        setup_s = run_setup(workload, kernels)
        if workload.header:
            print("# " + " ".join(f"{k}={v}" for k, v in workload.header.items()))
        workload.warm_up()
        tracer = tracing.Tracer() if args.trace else None
        colds: list[float] = []
        steps = measure(workload, args.seconds, kernels, colds, tracer)
        print(f"# calibration kernel: median {median(kernels):.2f} ms CPU over {len(kernels)} runs "
              f"(reference {CALIBRATION_MS} ms); cold kernel: median {median(colds):.2f} ms CPU over "
              f"{len(colds)} runs (reference {COLD_CALIBRATION_MS} ms)")
        if args.trace:
            metrics = per_layer(steps, tracer, tracing, workload, workloads.cli_env())
            shares = tracing.layer_shares(tracer.spans)
            for layer, share in shares.items():
                print(f"# self-time share {layer}: {share:.1f}%")
            tracer.dump(WORK / f"trace-{args.workload}-s{args.seed}.json", {"layer_shares_pct": shares})
        else:
            metrics = end_to_end(steps, setup_s)
    finally:
        workload.teardown()
        shutil.rmtree(workdir, ignore_errors=True)

    errors = workload.setup_errors + [s.error for s in steps if s.error is not None]
    for error in errors[:5]:
        print(f"# FAILED: {error}", file=sys.stderr)
    attempted = len(steps) + len(workload.setup_errors)
    print(f"failed_ratio = {len(errors) / attempted:.4f} ratio ({len(errors)} of {attempted} attempted)")
    out = {}
    for entry in wanted:
        value, unit = metrics[entry["name"]]
        print(f"{entry['name']} = {value:.6g} {unit}")
        out[entry["name"]] = {"value": value, "unit": unit}
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": len(errors), "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
