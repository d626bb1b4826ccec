"""Command-line entry point: ``bipbis <command> [flags]``.

Flags override values from an optional ``--config file.json``. Errors exit
nonzero after printing a single machine-parsable JSON line to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import BipbisError, ParameterError
from .experiments import (COMMANDS, TRIAL_COMMANDS, ExperimentConfig, command_params,
                          parse_decimal, run_experiment, sweep)


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise ParameterError, so they end
    in the one JSON error line instead of argparse's usage text and exit 2.
    Subparsers inherit the class."""

    def error(self, message: str):
        raise ParameterError(f"{self.prog}: {message}")


def _number_flag(kind: type):
    parse = lambda text: parse_decimal(text, kind)
    parse.__name__ = kind.__name__  # argparse's message reads "invalid int value"
    return parse


def _add_command(sub, command: str) -> argparse.ArgumentParser:
    """A subparser with one flag per parameter of ``command``."""
    p = sub.add_parser(command, help=COMMANDS[command].help)
    p.add_argument("--config", help="JSON file with parameters; flags override")
    for param in command_params(command):
        p.add_argument("--" + param.name.replace("_", "-"), dest=param.name,
                       type=param.kind if param.kind is str else _number_flag(param.kind),
                       help=param.help)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bipbis",
        description="Balanced independent sets in sparse random bipartite graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        _add_command(sub, command)
    p = sub.add_parser("sweep", help="grid sweep of a trial command (at most 2 parameters)")
    trial_sub = p.add_subparsers(dest="trial_command", required=True)
    for command in TRIAL_COMMANDS:
        _add_command(trial_sub, command).add_argument(
            "--grid", action="append", default=[],
            help="param=start:stop:step or param=v1,v2,... (repeatable, max 2)")
    return parser


# A range grid stops here; a step too small to move start, or an infinite
# stop, would otherwise never end.
_MAX_GRID_POINTS = 10_000


def _parse_grid_values(spec: str) -> tuple[str, list[float]]:
    if "=" not in spec:
        raise ParameterError(f"grid spec must look like name=...: got {spec!r}")
    name, body = spec.split("=", 1)
    name = name.strip()

    def number(text: str) -> float:
        try:
            return parse_decimal(text, float)
        except ValueError:
            raise ParameterError(f"grid value for {name!r} is not a number: {text!r}") from None

    if "," in body:
        values = [number(v) for v in body.split(",")]
    elif ":" in body:
        parts = body.split(":")
        if len(parts) != 3:
            raise ParameterError(f"range grid must be start:stop:step, got {body!r}")
        start, stop, step = (number(x) for x in parts)
        if not step > 0:
            raise ParameterError("grid step must be positive")
        values = []
        v = start
        while v <= stop + 1e-12:
            if len(values) == _MAX_GRID_POINTS:
                raise ParameterError(f"range grid for {name!r} has more than {_MAX_GRID_POINTS} points")
            values.append(round(v, 12))
            v += step
    else:
        values = [number(body)]
    return name, values


def _parse_grid(specs: list[str]) -> dict[str, list[float]]:
    grid: dict[str, list[float]] = {}
    for spec in specs:
        name, values = _parse_grid_values(spec)
        if name in grid:
            raise ParameterError(f"grid parameter {name!r} is given more than once")
        grid[name] = values
    return grid


def _refuse_repeated_keys(pairs: list) -> dict:
    """A JSON object as a dict; a plain json.load keeps a repeated key's last value."""
    obj: dict = {}
    for key, value in pairs:
        if key in obj:
            raise ParameterError(f"the key {key!r} appears more than once")
        obj[key] = value
    return obj


def _gather_params(args: argparse.Namespace) -> dict:
    params: dict = {}
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                loaded = json.load(fh, object_pairs_hook=_refuse_repeated_keys)
            except ValueError as exc:  # malformed JSON, text that is not UTF-8, a repeated key
                raise ParameterError(
                    f"config file {args.config} is not valid JSON: {exc}") from None
        if not isinstance(loaded, dict):
            raise ParameterError("config file must contain a JSON object")
        params.update(loaded)
    skip = {"command", "config", "grid", "trial_command"}
    for key, value in vars(args).items():
        if key in skip or value is None:
            continue
        params[key] = value
    return params


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        params = _gather_params(args)
        if args.command == "sweep":
            grid = _parse_grid(args.grid)
            record = sweep(ExperimentConfig(args.trial_command, params), grid)
            print(f"rows={len(record.rows)} cells={len(record.outputs['cells'])} "
                  f"csv={params.get('csv')} schema_version={record.schema_version}")
            return 0
        record = run_experiment(ExperimentConfig(args.command, params))
        if args.command in TRIAL_COMMANDS:
            print(f"rows={len(record.rows)} csv={params.get('csv')} "
                  f"schema_version={record.schema_version}")
        else:
            for key, value in record.outputs.items():
                print(f"{key}={value}")
        return 0
    except BipbisError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1
    except OSError as exc:
        print(json.dumps({"error": "IOError", "message": str(exc)}), file=sys.stderr)
        return 1
    except MemoryError as exc:  # raised here or re-raised from a pool worker
        print(json.dumps({"error": "MemoryError", "message": str(exc) or "out of memory"}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
