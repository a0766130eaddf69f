"""Command-line entry point.

Subcommands: ``run`` executes a config file, ``watertank`` runs the built-in
benchmark scenario, ``validate`` checks a config without executing it, and
``serve-learner`` starts the reference remote-learner server. Failures, a
command line that does not parse included, emit one machine-readable JSON
error record on stderr and exit 1.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import config as cfgmod
from . import remote
from .errors import PipelineError


class UsageError(PipelineError):
    """The command line names an unknown flag or subcommand, misses an argument, or gives a bad value."""


class _Parser(argparse.ArgumentParser):
    """An argument parser that raises ``UsageError`` where argparse prints usage and exits 2."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


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


def _run_and_write(cfg: dict, out_dir: str | None) -> int:
    result = cfgmod.run_config(cfg)
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
    return _run_and_write(cfg, args.out)


def _cmd_watertank(args) -> int:
    return _run_and_write(cfgmod.watertank_config(args.learner), args.out)


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
    parser = _Parser(prog="cpslearn", description="Run declarative model-learning pipelines.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a pipeline config file")
    run.add_argument("config", help="path to a JSON pipeline config")
    run.add_argument("--out", default=None,
                     help="output directory (default: the config's output_dir, else '.')")
    run.set_defaults(func=_cmd_run)

    tank = sub.add_parser("watertank", help="run the built-in water-tank scenario")
    tank.add_argument("--learner", choices=list(cfgmod.WATERTANK_LEARNERS), default="tree")
    tank.add_argument("--out", default=None, help="output directory (default '.')")
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
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (PipelineError, OSError, ValueError, MemoryError) as exc:
        return _emit_error(exc)


if __name__ == "__main__":
    from cpslearn.cli import main  # the package's module, so a UsageError record names cpslearn.cli

    sys.exit(main())
