"""Experiment orchestration: parameter tables, seeded parallel trials, CSV.

Every trial command assigns trial i the stream ``base_stream + i`` of the base
seed, independent of how trials are partitioned across workers, so the data
columns of a CSV are identical for any worker count. The wall_time_ms column
is measured and therefore the one column that varies between reruns.
"""

from __future__ import annotations

import csv
import dataclasses
import itertools
import json
import math
import multiprocessing
import os
import tempfile
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

from . import __version__
from .analysis import (algorithmic_threshold, classify_phase, existence_threshold,
                       first_moment_exponent, PhasePoint)
from .errors import ParameterError
from .exact import max_gamma_balanced_is
from .graph import (_INT64_MAX, _check_vertex_count, read_graph_text,
                    sample_bipartite_graph, write_graph_text)
from .local import apply_local_pair, gamma_trim, random_threshold_pair
from .lowdeg import (linear_blocking_polynomial, norm_second_moment,
                     round_polynomial)
from .ogp import (OverlapChainParams, StabilityConfig, build_interpolation_path,
                  check_overlap_chain, detect_bad_steps, greedy_overlap_chain,
                  walk_rounded_subsets)
from .rng import AUX_STREAM_OFFSET, RandomSeed, check_trial_streams

CSV_SCHEMA_VERSION = 1

SCHEMAS = {
    "local": ("trial", "n", "d", "p", "gamma", "count_l", "count_r", "trimmed_size", "wall_time_ms"),
    "lowdeg": ("trial", "n", "d", "k_l", "k_r", "count_l", "count_r", "norm_sq", "failed"),
    "ogp": ("trial", "n", "d", "T", "bad_edge_count", "greedy_success", "conditions_passed"),
}

TRIAL_COMMANDS = tuple(SCHEMAS)

# the rule lives in rng; this name stays importable for existing callers
_AUX_STREAM_OFFSET = AUX_STREAM_OFFSET


@dataclass(frozen=True)
class ExperimentConfig:
    command: str
    params: dict

    def __post_init__(self):
        if self.command not in ALL_COMMANDS:
            raise ParameterError(f"unknown command {self.command!r}; expected one of {ALL_COMMANDS}")


@dataclass
class ExperimentRecord:
    """Everything needed to rerun an experiment bit-identically, plus results."""

    command: str
    params: dict
    headers: tuple[str, ...] | None
    rows: list[tuple]
    outputs: dict[str, Any]
    seed_ledger: dict[str, Any]
    wall_clock_s: float
    version: str = __version__
    schema_version: int = CSV_SCHEMA_VERSION

    def to_json(self) -> str:
        payload = dataclasses.asdict(self)
        payload["rows"] = [list(r) for r in self.rows]
        return json.dumps(payload, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# Parameters: one table row per parameter of each command
# ---------------------------------------------------------------------------


REQUIRED = object()  # the default of a parameter that has none


@dataclass(frozen=True)
class Param:
    """One parameter of a command: its ``--config`` key, and its flag with
    ``_`` spelt ``-``.

    ``kind`` is int, float or str (a file path). ``default`` is a value, None
    for an optional parameter, REQUIRED, or a function of the parameters
    resolved before it. ``check(name, value, resolved)`` raises
    ParameterError for a value out of range.
    """

    name: str
    kind: type
    default: Any
    check: Optional[Callable[[str, Any, dict], None]]
    help: str


def _must(ok: bool, message: str) -> None:
    if not ok:
        raise ParameterError(message)


def _at_least(minimum: int) -> Callable[[str, Any, dict], None]:
    return lambda name, v, p: _must(v >= minimum, f"{name} must be >= {minimum}, got {v}")


def _positive(name, v, p):
    _must(v > 0, f"{name} must be positive")


def _non_negative(name, v, p):
    _must(v >= 0, f"{name} must be non-negative")


def _at_most_n(name, v, p):
    _must(0 <= v <= p["n"], f"{name} must lie in [0, n], got {v}")


def _balance(name, v, p):
    _must(0.0 < v <= 0.5, f"gamma must lie in (0, 1/2], got {v}")


def _probability(name, v, p):
    _must(0.0 <= v <= 1.0, f"p must lie in [0, 1], got {v}")


def _trial_count(name, v, p):
    _at_least(1)(name, v, p)
    check_trial_streams(v)


def _vertex_count(name, v, p):
    _at_least(1)(name, v, p)
    _check_vertex_count(v)


def _degree(name, v, p):
    _must(0.0 < v < p["n"], f"d must satisfy 0 < d < n, got d={v}, n={p['n']}")


def _lowdeg_epsilon(name, v, p):
    _must(0.0 < v < 1.0, f"epsilon must lie in (0, 1), got {v}")
    _must(p["d"] > 1, "lowdeg requires d > 1")


def _ogp_epsilon(name, v, p):
    _positive(name, v, p)
    _must(p["d"] > 1, "ogp requires d > 1")


def _path_length(name, v, p):
    _at_least(1)(name, v, p)
    _must(v * p["n"] ** 2 <= _INT64_MAX, "the path length gamma_steps * n^2 must fit in int64")


def _phase_point(name, v, p):
    _must(p["x"] >= 0 and v >= 0, "phase coordinates must be non-negative")


def _exponent_point(name, v, p):
    _must(p["c"] > 0 and v > 1, "exponent requires c > 0 and d > 1")


def _output_file(name, v, p):
    # a destination that cannot be written fails here, before the run's work
    directory = os.path.dirname(os.path.abspath(v))
    _must(os.path.isdir(directory) and os.access(directory, os.W_OK | os.X_OK)
          and not os.path.isdir(v),
          f"{name} {v!r} cannot be written: its directory is missing or not writable, "
          f"or it is a directory")


_RUN_PARAMS = (
    Param("seed", int, 1, None, "base seed (default 1)"),
    Param("stream", int, 0, _non_negative, "base stream offset (default 0)"),
    Param("record", str, None, _output_file, "write the full experiment record as JSON here"),
)
# the run parameters that only a trial command takes
_TRIAL_RUN_PARAMS = (
    Param("workers", int, None, _at_least(1),
          "parallel workers (default: BIPBIS_WORKERS or cpu count)"),
    Param("csv", str, None, _output_file, "output CSV path"),
    Param("trials", int, 20, _trial_count, "number of trials (default 20)"),
)
_N = Param("n", int, REQUIRED, _vertex_count, "vertices per side")
_D = Param("d", float, REQUIRED, _degree, "average degree")
_GAMMA = Param("gamma", float, 0.5, _balance, "balance parameter (default 0.5)")

# The rows after the run parameters (and, for a trial command, workers, csv and
# trials), in the order they are checked. A sweep may grid any numeric one of them.
PARAMS: dict[str, tuple[Param, ...]] = {
    "sample": (_N, _D, Param("out", str, REQUIRED, _output_file, "output path for the graph text file")),
    "exact": (
        Param("graph", str, REQUIRED, None, "graph text file (header 'n m', then 'l r' lines)"),
        _GAMMA,
        Param("limit", int, 32, _at_least(1), "per-side capacity limit (default 32)"),
    ),
    "local": (_N, _D, Param("p", float, REQUIRED, _probability, "L-side inclusion threshold"),
              _GAMMA),
    "lowdeg": (
        _N, _D,
        Param("epsilon", float, REQUIRED, _lowdeg_epsilon, "density slack; sets k_l and k_r"),
        Param("k_l", int,
              lambda p: math.floor((1 - p["epsilon"]) * math.log(p["d"]) / p["d"] * p["n"]),
              _at_most_n, "chosen L vertices (default (1 - epsilon) log(d) / d * n)"),
        Param("k_r", int,
              lambda p: math.floor((1 - p["epsilon"]) * p["d"] ** (p["epsilon"] - 1) * p["n"]),
              _at_most_n, "R-side target size (default (1 - epsilon) d^(epsilon - 1) n)"),
        Param("eta", float, 0.0, _non_negative, "rounding error budget (default 0)"),
    ),
    "ogp": (
        _N, _D,
        Param("epsilon", float, REQUIRED, _ogp_epsilon, "overlap-chain slack; sets k_l and eta"),
        Param("K", int, 2, _at_least(2), "chain length target (default 2)"),
        Param("gamma_steps", int, 1, _path_length, "path length in units of n^2 (default 1)"),
        Param("c", float, 0.5, _positive, "badness threshold factor (default 0.5)"),
        Param("k_l", int, lambda p: max(1, math.floor(
            (1 - min(p["epsilon"], 0.999)) * math.log(p["d"]) / p["d"] * p["n"])),
              _at_most_n, "chosen L vertices (default (1 - epsilon) log(d) / d * n, at least 1)"),
        Param("eta", float, lambda p: p["epsilon"] / 16.0 * math.log(p["d"]) / p["d"],
              _non_negative, "rounding error budget (default epsilon / 16 * log(d) / d)"),
    ),
    "phase": (
        Param("x", float, REQUIRED, None, "L-side density in units of (log d)/d"),
        Param("y", float, REQUIRED, _phase_point, "R-side density in units of (log d)/d"),
    ),
    "thresholds": (Param("gamma", float, REQUIRED, _balance, "balance parameter"),),
    "exponent": (
        Param("c", float, REQUIRED, None, "density in units of (log d)/d"),
        Param("d", float, REQUIRED, _exponent_point, "average degree"),
        _GAMMA,
    ),
}

ALL_COMMANDS = tuple(PARAMS)


def command_params(command: str) -> tuple[Param, ...]:
    """Every parameter ``command`` takes, in the order they are resolved."""
    return _RUN_PARAMS + (_TRIAL_RUN_PARAMS if command in TRIAL_COMMANDS else ()) + PARAMS[command]


def _coerce(name: str, value, kind: type):
    """``kind(value)`` for a parameter, with a failure raised as ParameterError.
    An integer refuses a float with a fractional part rather than truncating
    it, a number refuses NaN and infinities, no parameter takes a boolean for
    a number, and a path is a nonempty string without NUL bytes."""
    if kind is str:
        if not (isinstance(value, str) and value and "\0" not in value):
            raise ParameterError(f"{name} must be a file path, got {value!r}")
        return value
    message = f"{name} must be {'an integer' if kind is int else 'a number'}, got {value!r}"
    if isinstance(value, bool):
        raise ParameterError(message)
    try:
        out = kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ParameterError(message) from None
    if kind is int and isinstance(value, float) and out != value:
        raise ParameterError(message)
    if kind is float and not math.isfinite(out):
        raise ParameterError(f"{name} must be finite, got {out}")
    return out


def resolve_params(command: str, raw: dict) -> dict:
    """Apply defaults, coerce types, and check every module precondition
    before any work starts. A key the command does not take is an error, so
    a misspelt or misplaced parameter is never silently dropped. A null value
    leaves only an optional parameter unset."""
    out: dict[str, Any] = {}
    for param in command_params(command):
        if param.name in raw:
            value = raw[param.name]
        else:
            value = param.default(out) if callable(param.default) else param.default
        if value is REQUIRED:
            raise ParameterError(f"missing required parameter {param.name!r}")
        if value is not None or param.default is not None:
            value = _coerce(param.name, value, param.kind)
            if param.check:
                param.check(param.name, value, out)
        out[param.name] = value
    unknown = [key for key in raw if key not in out]
    if unknown:
        raise ParameterError(f"{command} does not take the parameters {unknown}")
    return out


# ---------------------------------------------------------------------------
# Trial bodies (top-level so they pickle across worker processes)
# ---------------------------------------------------------------------------


def _local_trial(params: dict, trial: int) -> tuple:
    t0 = time.perf_counter()
    s = RandomSeed(params["seed"], params["stream"] + trial)
    graph = sample_bipartite_graph(params["n"], params["d"], s)
    pair = random_threshold_pair(params["p"])
    subset = apply_local_pair(graph, pair, s)
    trimmed = gamma_trim(subset, params["gamma"])
    ms = (time.perf_counter() - t0) * 1000.0
    return (trial, params["n"], params["d"], params["p"], params["gamma"],
            subset.count_l, subset.count_r, trimmed.size, round(ms, 3))


def _lowdeg_trial(params: dict, trial: int) -> tuple:
    s = RandomSeed(params["seed"], params["stream"] + trial)
    f = linear_blocking_polynomial(params["n"], params["k_l"], s)
    graph = sample_bipartite_graph(params["n"], params["d"], s)
    values = f.evaluate(graph)
    norm_sq = float(values @ values)
    outcome = round_polynomial(values, graph, params["eta"])
    count_l = 0 if outcome.failed else outcome.subset.count_l
    count_r = 0 if outcome.failed else outcome.subset.count_r
    return (trial, params["n"], params["d"], params["k_l"], params["k_r"],
            count_l, count_r, norm_sq, int(outcome.failed))


def _ogp_trial(params: dict, trial: int) -> tuple:
    s = RandomSeed(params["seed"], params["stream"] + trial)
    n, d = params["n"], params["d"]
    T = params["gamma_steps"] * n * n
    graph = sample_bipartite_graph(n, d, s)
    path = build_interpolation_path(graph, T, d, s)
    f = linear_blocking_polynomial(n, params["k_l"], s)
    config = StabilityConfig(c=params["c"], gamma_steps=params["gamma_steps"],
                             degree=1, norm_estimate=params["_norm_estimate"])
    bad = detect_bad_steps(f, path, config)
    chain_params = OverlapChainParams.for_scale(params["epsilon"], params["K"], n, d)
    result = greedy_overlap_chain(walk_rounded_subsets(f, path, params["eta"]), chain_params)
    bitmask = 0
    if result.success:
        report = check_overlap_chain(result.sets, result.timestamps, path, chain_params)
        bitmask = report.conditions_bitmask()
    return (trial, n, d, T, len(bad), int(result.success), bitmask)


_TRIAL_BODIES: dict[str, Callable[[dict, int], tuple]] = {
    "local": _local_trial,
    "lowdeg": _lowdeg_trial,
    "ogp": _ogp_trial,
}


def _trial_star(args):
    command, params, trial = args
    return _TRIAL_BODIES[command](params, trial)


def _resolve_workers(params: dict) -> int:
    if params.get("workers"):
        return int(params["workers"])
    if os.environ.get("BIPBIS_WORKERS"):
        workers = _coerce("BIPBIS_WORKERS", os.environ["BIPBIS_WORKERS"], int)
        _at_least(1)("BIPBIS_WORKERS", workers, params)
        return workers
    return os.cpu_count() or 1


def _run_trials(command: str, params: dict) -> list[tuple]:
    trials = params["trials"]
    workers = min(_resolve_workers(params), trials)
    jobs = [(command, params, t) for t in range(trials)]
    if workers <= 1:
        return [_trial_star(j) for j in jobs]
    with multiprocessing.Pool(workers) as pool:
        return pool.map(_trial_star, jobs)  # map preserves trial order


def _write_atomic(path: str, write: Callable[[Any], None]) -> None:
    """``write(fh)`` to a temporary file beside ``path``, then move it into
    place, so a failed write leaves no partial file at ``path``."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(prefix=".bipbis-", dir=directory)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _scalar_outputs(command: str, params: dict) -> dict[str, Any]:
    if command == "phase":
        region = classify_phase(PhasePoint(params["x"], params["y"]))
        return {"phase": region.value}
    if command == "thresholds":
        g = params["gamma"]
        ex, alg = existence_threshold(g), algorithmic_threshold(g)
        return {"existence": ex, "algorithmic": alg, "ratio": ex / alg}
    if command == "exponent":
        rep = first_moment_exponent(params["c"], params["d"], params["gamma"])
        return {"leading": rep.leading_coefficient, "exponent": rep.value,
                "sign": rep.sign.value}
    if command == "sample":
        graph = sample_bipartite_graph(params["n"], params["d"],
                                       RandomSeed(params["seed"], params["stream"]))
        write_graph_text(graph, params["out"])
        return {"n": graph.n, "m": graph.edge_count, "out": params["out"]}
    if command == "exact":
        graph = read_graph_text(params["graph"])
        size, witness = max_gamma_balanced_is(graph, params["gamma"], limit=params["limit"])
        return {
            "size": size,
            "witness_l": ",".join(str(i) for i in sorted(witness.in_l)),
            "witness_r": ",".join(str(i) for i in sorted(witness.in_r)),
        }
    raise ParameterError(f"unknown scalar command {command!r}")


# an ogp run estimates E||f||^2 once, over this many graphs
_NORM_TRIALS = 30


def _execute(command: str, params: dict, cell: int = 0) -> tuple[list[tuple], dict[str, Any]]:
    """The rows (in trial order) and outputs of one run on resolved
    parameters, or of cell ``cell`` of a sweep; a plain run is cell 0.

    With base stream b, cell i runs its trials on streams b + i*trials on. An
    ogp cell shares one norm estimate among its trials, echoed into the
    outputs, drawn from the reserved streams b + AUX_STREAM_OFFSET + 30*i on,
    so no two cells share one.
    """
    if command not in TRIAL_COMMANDS:
        return [], _scalar_outputs(command, params)
    outputs: dict[str, Any] = {}
    trial_params = {**params, "stream": params["stream"] + cell * params["trials"]}
    if command == "ogp":
        norm_stream = params["stream"] + AUX_STREAM_OFFSET + _NORM_TRIALS * cell
        mean, _ = norm_second_moment(
            lambda s: linear_blocking_polynomial(params["n"], params["k_l"], s),
            params["n"], params["d"], trials=_NORM_TRIALS,
            seed=RandomSeed(params["seed"], norm_stream))
        trial_params["_norm_estimate"] = mean
        outputs["norm_estimate"] = mean
    return _run_trials(command, trial_params), outputs


def _save(record: ExperimentRecord, params: dict) -> ExperimentRecord:
    """Write the CSV and the JSON record that ``params`` name, each atomically."""

    def write_csv(fh):
        writer = csv.writer(fh)
        writer.writerow(record.headers)
        writer.writerows(record.rows)

    if record.headers and params["csv"]:
        _write_atomic(params["csv"], write_csv)
    if params["record"]:
        _write_atomic(params["record"], lambda fh: fh.write(record.to_json()))
    return record


def run_experiment(config: ExperimentConfig) -> ExperimentRecord:
    """Validate, dispatch, gather rows in trial order, write CSV atomically."""
    t0 = time.perf_counter()
    params = resolve_params(config.command, config.params)
    rows, outputs = _execute(config.command, params)
    record = ExperimentRecord(
        command=config.command,
        params=params,
        headers=SCHEMAS.get(config.command),
        rows=rows,
        outputs=outputs,
        seed_ledger={
            "seed": params["seed"],
            "stream_base": params["stream"],
            "streams": [params["stream"] + t for t in range(params.get("trials", 0))],
        },
        wall_clock_s=time.perf_counter() - t0,
    )
    return _save(record, params)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def sweep(config: ExperimentConfig, grid: dict[str, list]) -> ExperimentRecord:
    """Cartesian product over at most two swept parameters; cell i runs on
    streams [stream + i*trials, stream + (i+1)*trials), and an ogp cell
    estimates its norm on a block of reserved streams of its own. Every cell
    is resolved before the first one runs."""
    command = config.command
    if command not in TRIAL_COMMANDS:
        raise ParameterError(f"sweep supports trial commands {TRIAL_COMMANDS}, got {command!r}")
    if not grid:
        raise ParameterError("sweep requires a non-empty parameter grid")
    if len(grid) > 2:
        raise ParameterError(f"sweep supports at most 2 swept parameters, got {len(grid)}")
    sweepable = sorted(p.name for p in PARAMS[command] if p.kind is not str)
    for name, values in grid.items():
        if name not in sweepable:
            raise ParameterError(
                f"{name!r} is not sweepable for {command}; choose from {sweepable}")
        if not values:
            raise ParameterError(f"grid for {name!r} is empty")
    t0 = time.perf_counter()
    # seed, stream, trials, csv and record are never swept, so the first cell
    # gives them, and the stream count is checked before the cells are built
    base = resolve_params(command, {**config.params, **{k: v[0] for k, v in grid.items()}})
    stream, trials = base["stream"], base["trials"]
    check_trial_streams(math.prod(map(len, grid.values())) * trials, "cells * trials")
    cells = [dict(zip(grid, values)) for values in itertools.product(*grid.values())]
    resolved = [resolve_params(command, {**config.params, **cell}) for cell in cells]
    rows: list[tuple] = []
    outputs = []
    for idx, (cell, params) in enumerate(zip(cells, resolved)):
        cell_rows, cell_outputs = _execute(command, params, idx)
        rows += cell_rows
        outputs.append({"cell": cell, "stream": stream + idx * trials, **cell_outputs})
    record = ExperimentRecord(
        command=command,
        params={**config.params, "grid": grid},
        headers=SCHEMAS[command],
        rows=rows,
        outputs={"cells": outputs},
        seed_ledger={"seed": base["seed"], "stream_base": stream, "cell_stride": trials},
        wall_clock_s=time.perf_counter() - t0,
    )
    return _save(record, base)
