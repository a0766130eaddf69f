"""Command-line entry point.

Subcommands: ``run`` executes a config file, ``watertank`` runs the built-in
benchmark scenario, ``validate`` checks a config without executing it, and
``serve-learner`` starts the reference remote-learner server. Failures emit
one machine-readable JSON error record on stderr and a nonzero exit code.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import config as cfgmod
from . import remote
from .errors import PipelineError


def _error_record(exc: Exception) -> dict:
    record = {
        "error": type(exc).__name__,
        "module": type(exc).__module__,
        "message": str(exc),
    }
    if isinstance(exc, cfgmod.ConfigError):
        record["field"] = exc.field
    return record


def _emit_error(exc: Exception) -> int:
    print(json.dumps({"error": _error_record(exc)}, sort_keys=True), file=sys.stderr)
    return 1


def _run_and_write(cfg: dict, out_dir: str | None, seed: int | None) -> int:
    result = cfgmod.run_config(cfg, seed_override=seed)
    if out_dir is None:
        out_dir = cfg.get("output_dir", ".")
    report_path, model_path = cfgmod.write_result(result, out_dir)
    print(f"report: {report_path}")
    print(f"model:  {model_path}")
    for name, value in result.report.entries:
        print(f"  {name}: {value}")
    return 0


def _cmd_run(args) -> int:
    cfg = cfgmod.load_config(args.config)
    return _run_and_write(cfg, args.out, args.seed)


def _cmd_watertank(args) -> int:
    cfg = cfgmod.watertank_config(learner=args.learner, max_depth=args.max_depth)
    return _run_and_write(cfg, args.out, args.seed)


def _cmd_validate(args) -> int:
    cfg = cfgmod.load_config(args.config)
    diagnostics = cfgmod.validate_config(cfg)
    print(json.dumps({"diagnostics": diagnostics}, sort_keys=True))
    return 0 if not diagnostics else 1


def _cmd_serve_learner(args) -> int:
    host, port = remote.parse_address(args.listen)
    server = remote.LearnerServer(host=host, port=port, max_sessions=args.max_sessions)
    bound_host, bound_port = server.address
    print(f"serving linear learner on {bound_host}:{bound_port}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpslearn", description="Run declarative model-learning pipelines."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a pipeline config file")
    run.add_argument("config", help="path to a JSON pipeline config")
    run.add_argument("--out", default=None,
                     help="output directory (default: the config's output_dir, else '.')")
    run.add_argument("--seed", type=int, default=None, help="override the config seed")
    run.set_defaults(func=_cmd_run)

    tank = sub.add_parser("watertank", help="run the built-in water-tank scenario")
    tank.add_argument(
        "--learner",
        choices=["tree", "linear", "incremental_linear"],
        default="tree",
    )
    tank.add_argument("--max-depth", type=int, default=None, dest="max_depth")
    tank.add_argument("--out", default=None, help="output directory (default '.')")
    tank.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    tank.set_defaults(func=_cmd_watertank)

    val = sub.add_parser("validate", help="check a config without executing it")
    val.add_argument("config", help="path to a JSON pipeline config")
    val.set_defaults(func=_cmd_validate)

    srv = sub.add_parser("serve-learner", help="serve the reference linear learner over TCP")
    srv.add_argument("--listen", required=True, metavar="HOST:PORT")
    srv.add_argument("--max-sessions", type=int, default=8, dest="max_sessions")
    srv.set_defaults(func=_cmd_serve_learner)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (PipelineError, OSError, ValueError, MemoryError) as exc:
        return _emit_error(exc)


if __name__ == "__main__":
    sys.exit(main())
