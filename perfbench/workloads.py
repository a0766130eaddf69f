"""The benchmark's workloads: seeded inputs, references, timed steps, checks.

Every workload is a closed loop with one caller. Set-up builds the inputs
from the seed and computes reference outputs once through the library's
step-by-step API (``learn_offline`` / ``learn_incremental`` / ``evaluate``).
The measured loop then repeats a fixed cycle of steps: in-process pipeline
operations (``config.run_config`` + ``config.write_result``) and fresh
``cpslearn`` CLI subprocesses. A step is timed around the library call
only; its outputs are compared with the references afterwards, and any
exception or mismatch is a failed step, never a crash.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from cpslearn import (
    DatasetStream,
    IncrementalLinearLearner,
    IoSpec,
    LinearRegressionLearner,
    OdeEnvironment,
    OfflineEnvironment,
    RegressionTreeLearner,
    SlidingWindow,
    Standardize,
    TransformChain,
    WaterTankSystem,
    config,
    evaluate,
    learn_incremental,
    learn_offline,
    load_csv,
    remote,
)
from cpslearn.errors import PipelineError

import tracer as tracing
from clock import Stopwatch, calibrate_ms

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Exactly what the installed `cpslearn` console script runs.
CLI = [sys.executable, "-c", "import sys; from cpslearn.cli import main; sys.exit(main())"]
CLI_TIMEOUT_S = 120

LEARNERS = ("tree", "linear", "incremental_linear")
TANK_IO = IoSpec(["V_0", "x_0", "V_1", "x_1", "V_2"], ["x_2"])
PAPER_TANK = {"initial_level": 1.0, "area": 5.0, "outflow_coeff": 0.5, "inflow_gain": 2.0}
# Acceptance bounds of the paper's tree run (seed 0 tank).
PAPER_TREE_BOUNDS = {"mae": 0.06, "mse": 0.005}
LARGE_ROWS = 25_000
LARGE_METRICS = ["mae", "mse", "max_error", "r2"]
LARGE_TRANSFORMS = [
    {"kind": "sliding_window", "window_size": 3},
    {"kind": "standardize", "names": ["V_0", "V_1", "V_2"]},
]
LARGE_LEARNERS = {
    "tree": {"kind": "regression_tree", "max_depth": 5, "min_samples_leaf": 1},
    "incremental_linear": {
        "kind": "incremental_linear", "forgetting_factor": 1.0, "regularization": 1e-8, "batch_size": 32,
    },
    "linear": {"kind": "linear"},
}


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@dataclass
class Step:
    """Outcome of one timed step."""

    kind: str  # "op" (in-process) or "cli" (subprocess)
    wall_ns: int
    cpu_ns: int
    rows: int  # rows observed by the pipeline's environment
    traced: bool = False
    error: str | None = None
    cycle: int = 0
    scale: float = 1.0  # reference speed over the speed measured around the step
    parts_ns: list[int] = field(default_factory=list)  # CPU time of each case of an op
    kernels_ms: list[float] = field(default_factory=list)  # calibration kernels between the cases

    @property
    def ref_ms(self) -> float:
        """CPU time in milliseconds at reference speed."""
        return self.ms * self.scale

    @property
    def ms(self) -> float:
        """CPU time in milliseconds."""
        return self.cpu_ns / 1e6


@dataclass
class Case:
    """One pipeline run and the outputs it must reproduce byte for byte."""

    cfg: dict
    out: Path
    report: bytes
    model: bytes
    rows: int
    checks: list[Callable[[dict], str | None]] = field(default_factory=list)

    def clear(self) -> None:
        """Remove earlier outputs, so a run that writes nothing cannot pass."""
        for name in ("report.json", "model.fcm.json"):
            (self.out / name).unlink(missing_ok=True)

    def verify(self) -> str | None:
        """None if the outputs match the references, else what is wrong."""
        try:
            report = (self.out / "report.json").read_bytes()
            model = (self.out / "model.fcm.json").read_bytes()
        except OSError as exc:
            return f"{self.out}: {exc}"
        if report != self.report:
            return f"{self.out}: report.json differs from the reference"
        if model != self.model:
            return f"{self.out}: model.fcm.json differs from the reference"
        doc = json.loads(report)
        for check in self.checks:
            if (problem := check(doc)) is not None:
                return f"{self.out}: {problem}"
        return None


def within_paper_bounds(doc: dict) -> str | None:
    for name, bound in PAPER_TREE_BOUNDS.items():
        if not doc["metrics"][name] <= bound:
            return f"{name} {doc['metrics'][name]} exceeds the acceptance bound {bound}"
    return None


def reference_files(report, model, out: Path) -> tuple[bytes, bytes]:
    """Write a step-by-step result the way the pipeline does; return the bytes."""
    report_path, model_path = config.write_result(config.PipelineResult(report, model, 0), out)
    return report_path.read_bytes(), model_path.read_bytes()


def learn(spec: dict, train, io: IoSpec, session=None):
    """Fit through the step-by-step strategies, as the (fully explicit) learner spec says."""
    kind = spec["kind"]
    if kind == "regression_tree":
        learner = RegressionTreeLearner(spec["max_depth"], spec["min_samples_leaf"])
        return learn_offline(OfflineEnvironment.from_dataset(train), None, io, learner)
    if kind == "linear":
        return learn_offline(OfflineEnvironment.from_dataset(train), None, io, LinearRegressionLearner())
    if kind == "incremental_linear":
        learner = IncrementalLinearLearner(spec["forgetting_factor"], spec["regularization"])
        return learn_incremental(DatasetStream(train, spec["batch_size"]), None, io, learner)
    if kind == "remote":
        return learn_offline(OfflineEnvironment.from_dataset(train), None, io, session)
    raise ValueError(f"no reference for learner kind {kind!r}")


def prepared(observed, chain: TransformChain, fraction: float):
    """The documented pipeline order: fit the chain on all rows, apply, split."""
    chain.fit(observed)
    return chain.apply(observed).split(fraction)


def run_cases(cases: list[Case]) -> None:
    for case in cases:
        result = config.run_config(case.cfg)
        config.write_result(result, case.out)


def time_cases(cases: list[Case], tracer=None, pids=()) -> Step:
    """One in-process operation: every case's run_config + write_result.

    ``pids`` are processes that work for the operation (the learner server).
    Between two cases of an untraced operation the calibration kernel runs
    untimed; the step keeps each case's CPU time and the kernel times, so
    that each case can be scaled by the speed measured next to it.
    """
    for case in cases:
        case.clear()
    parts, kernels, wall, error = [], [], 0, None
    if tracer is None:
        try:
            for n, case in enumerate(cases):
                if n:
                    kernels.append(calibrate_ms())
                watch = Stopwatch(pids)
                try:
                    run_cases([case])
                finally:
                    part_wall, part_cpu = watch.stop()
                    wall += part_wall
                    parts.append(part_cpu)
        except Exception:  # a failing operation is counted, and the loop goes on
            error = traceback.format_exc(limit=3)
    else:
        patches = tracing.install(tracer)
        tracer.op += 1
        watch = Stopwatch(pids)
        root = tracer.begin("bench.op")
        try:
            run_cases(cases)
        except Exception:
            error = traceback.format_exc(limit=3)
        finally:
            tracer.end(root)
        wall, cpu = watch.stop()
        parts.append(cpu)
        tracing.uninstall(patches)
    for case in cases:
        if error is not None:
            break
        error = case.verify()
    return Step("op", wall, sum(parts), sum(c.rows for c in cases), tracer is not None, error,
                parts_ns=parts, kernels_ms=kernels)


def time_cli(args: list[str], cwd: Path, verify: Callable[[str], str | None], rows: int) -> Step:
    """One fresh `cpslearn` process, timed from spawn to exit."""
    watch = Stopwatch()
    try:
        proc = subprocess.run(
            CLI + args, cwd=cwd, env=cli_env(), capture_output=True, text=True, timeout=CLI_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return Step("cli", *watch.stop(), rows, error=f"cpslearn {args} timed out")
    wall, cpu = watch.stop()
    if proc.returncode != 0:
        return Step("cli", wall, cpu, rows, error=f"cpslearn {args} exited {proc.returncode}: {proc.stderr}")
    return Step("cli", wall, cpu, rows, error=verify(proc.stdout))


def tank_params(seed: int) -> dict:
    """Seed 0 is the paper's tank; other seeds perturb it by up to 20%."""
    if seed == 0:
        return dict(PAPER_TANK)
    rng = np.random.default_rng(seed)
    return {k: float(v * rng.uniform(0.8, 1.2)) for k, v in PAPER_TANK.items()}


def write_tank_csv(path: Path, seed: int, rows: int = LARGE_ROWS) -> None:
    """A seeded tank-like t,V,x log from the benchmark's own generator.

    Noisy clipped-sine inflow, explicit Euler level update and sensor noise:
    the shape of the paper's data without the library's RK4 simulator.
    """
    rng = np.random.default_rng(seed)
    area, coeff, gain = 5.0 * rng.uniform(0.8, 1.2), 0.5 * rng.uniform(0.8, 1.2), 2.0 * rng.uniform(0.8, 1.2)
    dt = 0.1
    t = np.arange(rows) * dt
    v = np.maximum(0.0, np.sin(2.0 * np.pi * t / 10.0 + rng.uniform(0.0, 2.0 * np.pi)) + rng.normal(0.0, 0.05, rows))
    level = np.empty(rows)
    level[0] = rng.uniform(0.5, 1.5)
    for i in range(rows - 1):
        level[i + 1] = max(0.0, level[i] + dt * (gain * v[i] - coeff * level[i] ** 0.5) / area)
    x = level + rng.normal(0.0, 1e-3, rows)
    lines = ["t,V,x\n"] + [f"{a!r},{b!r},{c!r}\n" for a, b, c in zip(t.tolist(), v.tolist(), x.tolist())]
    path.write_text("".join(lines), encoding="utf-8")


def large_config(csv_path: Path, learner: dict) -> dict:
    return {
        "schema_version": config.CONFIG_SCHEMA_VERSION,
        "seed": 0,
        "environment": {"kind": "csv", "path": str(csv_path)},
        "transforms": LARGE_TRANSFORMS,
        "io": {"inputs": list(TANK_IO.inputs), "outputs": list(TANK_IO.outputs)},
        "split_fraction": 0.8,
        "learner": learner,
        "metrics": LARGE_METRICS,
    }


def large_split(csv_path: Path):
    chain = TransformChain([SlidingWindow(3), Standardize(["V_0", "V_1", "V_2"])])
    return prepared(load_csv(csv_path), chain, 0.8)


def validate_ok(stdout: str) -> str | None:
    return None if stdout == '{"diagnostics": []}\n' else f"validate printed {stdout!r}"


class Workload:
    """Base: ``setup`` may run several times; ``cycle`` yields timed steps."""

    name = ""
    cli_runs_pipeline = False  # False: the CLI step is `cpslearn validate`

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.setup_errors: list[str] = []
        self.header: dict = {}

    def setup(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        """One untimed CLI run, so later runs find compiled bytecode."""
        step = self.cli_step(0)
        if step.error is not None:
            self.setup_errors.append(f"CLI warm-up: {step.error}")

    def cycle(self, index: int, tracer=None) -> list[Callable[[], Step]]:
        """The steps of cycle ``index``, not yet run; ``tracer`` traces its ops."""
        raise NotImplementedError

    def cli_step(self, index: int) -> Step:
        raise NotImplementedError

    def live_pids(self) -> list[int]:
        """Child processes that stay up and work for the operations."""
        return []

    def teardown(self) -> None:
        pass


class WatertankPaper(Workload):
    """The paper's scenario: 250 RK4 samples, window 3, 80/20 split."""

    name = "watertank_paper"
    cli_runs_pipeline = True

    def setup(self) -> None:
        params = tank_params(self.seed)
        self.cases = self._cases(params, "inproc")
        self.cli_cases = self.cases if params == PAPER_TANK else self._cases(PAPER_TANK, "cli")

    def _cases(self, params: dict, tag: str) -> dict[str, Case]:
        system = WaterTankSystem(
            level=params["initial_level"], area=params["area"],
            outflow_coeff=params["outflow_coeff"], inflow_gain=params["inflow_gain"],
        )
        observed = OdeEnvironment(system, sample_period=0.1, substep=1e-3).sample_trajectory(250)
        train, held_out = prepared(observed, TransformChain([SlidingWindow(3)]), 0.8)
        cases = {}
        for learner in LEARNERS:
            cfg = config.watertank_config(learner)
            cfg["environment"].update(params)
            model = learn(cfg["learner"], train, TANK_IO)
            report = evaluate(OfflineEnvironment.from_dataset(held_out), model, TANK_IO, cfg["metrics"])
            out = self.workdir / f"{tag}-{learner}"
            report_bytes, model_bytes = reference_files(report, model, self.workdir / f"ref-{tag}-{learner}")
            checks = [within_paper_bounds] if learner == "tree" and params == PAPER_TANK else []
            cases[learner] = Case(cfg, out, report_bytes, model_bytes, observed.row_count, checks)
        return cases

    def cycle(self, index: int, tracer=None) -> list[Callable[[], Step]]:
        ops = [partial(time_cases, [self.cases[learner]], tracer) for learner in LEARNERS]
        return ops + [partial(self.cli_step, index)]

    def cli_step(self, index: int) -> Step:
        learner = LEARNERS[index % len(LEARNERS)]
        case = self.cli_cases[learner]
        args = ["watertank", "--learner", learner, "--out", str(case.out)]
        case.clear()
        return time_cli(args, self.workdir, lambda _stdout: case.verify(), case.rows)


class OfflineLarge(Workload):
    """100x paper rows from a CSV; one op is the three-learner sweep."""

    name = "offline_large"

    def setup(self) -> None:
        csv_path = self.workdir / "tank.csv"
        write_tank_csv(csv_path, self.seed)
        train, held_out = large_split(csv_path)
        self.sweep, self.config_paths = [], []
        for learner, spec in LARGE_LEARNERS.items():
            cfg = large_config(csv_path, spec)
            model = learn(spec, train, TANK_IO)
            report = evaluate(OfflineEnvironment.from_dataset(held_out), model, TANK_IO, LARGE_METRICS)
            report_bytes, model_bytes = reference_files(report, model, self.workdir / f"ref-{learner}")
            self.sweep.append(Case(cfg, self.workdir / f"out-{learner}", report_bytes, model_bytes, LARGE_ROWS))
            path = self.workdir / f"{learner}.json"
            path.write_text(json.dumps(cfg), encoding="utf-8")
            self.config_paths.append(path)

    def cycle(self, index: int, tracer=None) -> list[Callable[[], Step]]:
        return [partial(time_cases, self.sweep, tracer), partial(self.cli_step, 2 * index),
                partial(self.cli_step, 2 * index + 1)]

    def cli_step(self, index: int) -> Step:
        path = self.config_paths[index % len(self.config_paths)]
        return time_cli(["validate", str(path)], self.workdir, validate_ok, 0)


class RemoteLoopback(Workload):
    """The offline_large CSV, learned by a `cpslearn serve-learner` process."""

    name = "remote_loopback"

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.server: subprocess.Popen | None = None

    def setup(self) -> None:
        self.setup_errors = []  # only the kept (last) set-up's checks count
        csv_path = self.workdir / "tank.csv"
        write_tank_csv(csv_path, self.seed)
        self.server, port = start_server(self.workdir)
        address = f"127.0.0.1:{port}"
        self.header = {"server_pid": self.server.pid, "server_port": port}
        train, held_out = large_split(csv_path)

        local = learn(LARGE_LEARNERS["linear"], train, TANK_IO)
        local_report = evaluate(OfflineEnvironment.from_dataset(held_out), local, TANK_IO, LARGE_METRICS)
        _, local_model_bytes = reference_files(local_report, local, self.workdir / "ref-local")
        with remote.connect(address) as session:
            handle = learn({"kind": "remote"}, train, TANK_IO, session)
            report = evaluate(OfflineEnvironment.from_dataset(held_out), handle, TANK_IO, LARGE_METRICS)
            inputs = held_out.select(TANK_IO.inputs)
            remote_pred = handle.predict(inputs).column(handle.output_column)
            model = handle.fetch()
        local_pred = local.predict(inputs).column(local.output_column)
        if not np.array_equal(remote_pred.view(np.int64), local_pred.view(np.int64)):
            self.setup_errors.append("remote predictions are not bit-identical to in-process fit_linear")
        report_bytes, model_bytes = reference_files(report, model, self.workdir / "ref-remote")
        if model_bytes != local_model_bytes:
            self.setup_errors.append("the fetched remote model differs from in-process fit_linear")
        local_metrics = local_report.to_dict()["metrics"]

        def same_metrics_as_local(doc: dict) -> str | None:
            if doc["metrics"] != local_metrics:
                return "remote metrics differ from in-process fit_linear on the same rows"
            return None

        cfg = large_config(csv_path, {"kind": "remote", "address": address})
        self.case = Case(cfg, self.workdir / "out-remote", report_bytes, local_model_bytes, LARGE_ROWS,
                         [same_metrics_as_local])
        self.config_path = self.workdir / "remote.json"
        self.config_path.write_text(json.dumps(cfg), encoding="utf-8")

    def cycle(self, index: int, tracer=None) -> list[Callable[[], Step]]:
        op = partial(time_cases, [self.case], tracer, self.live_pids())
        return [op, op, partial(self.cli_step, index)]

    def cli_step(self, index: int) -> Step:
        return time_cli(["validate", str(self.config_path)], self.workdir, validate_ok, 0)

    def live_pids(self) -> list[int]:
        return [self.server.pid] if self.server is not None else []

    def teardown(self) -> None:
        if self.server is not None:
            stop_server(self.server, self.header.get("server_port"))
            self.server = None


def start_server(cwd: Path, timeout_s: float = 60.0) -> tuple[subprocess.Popen, int]:
    """Start `cpslearn serve-learner` on an ephemeral port; return it and the port."""
    proc = subprocess.Popen(
        CLI + ["serve-learner", "--listen", "127.0.0.1:0"],
        cwd=cwd, env=cli_env(), stdout=subprocess.PIPE, text=True,
    )
    try:
        ready, _, _ = select.select([proc.stdout], [], [], timeout_s)
        line = proc.stdout.readline() if ready else ""
        if not line.startswith("serving"):
            raise RuntimeError(f"learner server did not start: {line!r}")
        return proc, int(line.rsplit(":", 1)[1])
    except BaseException:
        stop_server(proc, None)
        raise


def stop_server(proc: subprocess.Popen, port: int | None) -> None:
    """Ask the server on ``port`` to shut down, else kill it; always reap it."""
    if port is None:
        proc.kill()
    elif proc.poll() is None:
        try:
            with remote.connect(f"127.0.0.1:{port}", timeout=10.0) as session:
                session.shutdown_server()
        except (OSError, PipelineError):
            proc.kill()
    try:
        proc.wait(timeout=10.0)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    proc.stdout.close()


WORKLOADS = {w.name: w for w in (WatertankPaper, OfflineLarge, RemoteLoopback)}
