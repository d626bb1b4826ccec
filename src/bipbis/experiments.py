"""Experiment orchestration: config validation, seeded parallel trials, CSV.

Every trial command assigns trial i the stream ``base_stream + i`` of the base
seed, independent of how trials are partitioned across workers, so the data
columns of a CSV are identical for any worker count. The wall_time_ms column
is measured and therefore the one column that varies between reruns.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import multiprocessing
import os
import tempfile
import time
from dataclasses import dataclass
from typing import Any, Callable

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
from .rng import AUX_STREAM_OFFSET, RandomSeed

CSV_SCHEMA_VERSION = 1

SCHEMAS = {
    "local": ("trial", "n", "d", "p", "gamma", "count_l", "count_r", "trimmed_size", "wall_time_ms"),
    "lowdeg": ("trial", "n", "d", "k_l", "k_r", "count_l", "count_r", "norm_sq", "failed"),
    "ogp": ("trial", "n", "d", "T", "bad_edge_count", "greedy_success", "conditions_passed"),
}

TRIAL_COMMANDS = tuple(SCHEMAS)
SCALAR_COMMANDS = ("sample", "exact", "phase", "thresholds", "exponent")
ALL_COMMANDS = TRIAL_COMMANDS + SCALAR_COMMANDS

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


def _coerce(key, value, kind):
    """``kind(value)`` for a parameter, with a failure raised as ParameterError.
    An integer parameter refuses a float with a fractional part rather than
    truncating it, and no parameter takes a boolean for a number."""
    message = f"{key} must be {'an integer' if kind is int else 'a number'}, got {value!r}"
    if isinstance(value, bool):
        raise ParameterError(message)
    try:
        out = kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ParameterError(message) from None
    if kind is int and isinstance(value, float) and out != value:
        raise ParameterError(message)
    return out


def _positive_int(params, key, default=None, minimum=1):
    v = params.get(key, default)
    if v is None:
        raise ParameterError(f"missing required parameter {key!r}")
    v = _coerce(key, v, int)
    if v < minimum:
        raise ParameterError(f"{key} must be >= {minimum}, got {v}")
    return v


def _real(params, key, default=None):
    v = params.get(key, default)
    if v is None:
        raise ParameterError(f"missing required parameter {key!r}")
    v = _coerce(key, v, float)
    if not math.isfinite(v):
        raise ParameterError(f"{key} must be finite, got {v}")
    return v


def _path(params, key):
    """A file path parameter: absent, or a nonempty string without NUL bytes."""
    v = params.get(key)
    if v is not None and not (isinstance(v, str) and v and "\0" not in v):
        raise ParameterError(f"{key} must be a file path, got {v!r}")
    return v


def resolve_params(command: str, raw: dict) -> dict:
    """Apply defaults, coerce types, and check every module precondition
    before any work starts. A key the command does not take is an error, so
    a misspelt or misplaced parameter is never silently dropped."""
    p = dict(raw)
    out: dict[str, Any] = {
        "seed": _coerce("seed", p.get("seed", 1), int),
        "stream": _coerce("stream", p.get("stream", 0), int),
        "workers": p.get("workers"),
        "csv": _path(p, "csv"),
        "record": _path(p, "record"),
    }
    if out["stream"] < 0:
        raise ParameterError("stream must be non-negative")
    if out["workers"] is not None:
        out["workers"] = _positive_int(out, "workers")

    if command in TRIAL_COMMANDS:
        out["trials"] = _positive_int(p, "trials", default=20)
        if out["trials"] >= AUX_STREAM_OFFSET:
            raise ParameterError(f"trials must be below {AUX_STREAM_OFFSET}")
        out["n"] = _positive_int(p, "n")
        _check_vertex_count(out["n"])
        out["d"] = _real(p, "d")
        if not (0.0 < out["d"] < out["n"]):
            raise ParameterError(f"d must satisfy 0 < d < n, got d={out['d']}, n={out['n']}")

    if command == "local":
        out["p"] = _real(p, "p")
        if not (0.0 <= out["p"] <= 1.0):
            raise ParameterError(f"p must lie in [0, 1], got {out['p']}")
        out["gamma"] = _real(p, "gamma", default=0.5)
        if not (0.0 < out["gamma"] <= 0.5):
            raise ParameterError(f"gamma must lie in (0, 1/2], got {out['gamma']}")
    elif command == "lowdeg":
        out["epsilon"] = _real(p, "epsilon")
        if not (0.0 < out["epsilon"] < 1.0):
            raise ParameterError(f"epsilon must lie in (0, 1), got {out['epsilon']}")
        if out["d"] <= 1:
            raise ParameterError("lowdeg requires d > 1")
        n, d, eps = out["n"], out["d"], out["epsilon"]
        out["k_l"] = _coerce("k_l", p.get("k_l", math.floor((1 - eps) * math.log(d) / d * n)), int)
        out["k_r"] = _coerce("k_r", p.get("k_r", math.floor((1 - eps) * d ** (eps - 1) * n)), int)
        for key in ("k_l", "k_r"):
            if not (0 <= out[key] <= n):
                raise ParameterError(f"{key} must lie in [0, n], got {out[key]}")
        out["eta"] = _real(p, "eta", default=0.0)
        if out["eta"] < 0:
            raise ParameterError("eta must be non-negative")
    elif command == "ogp":
        out["epsilon"] = _real(p, "epsilon")
        if not (0.0 < out["epsilon"]):
            raise ParameterError("epsilon must be positive")
        if out["d"] <= 1:
            raise ParameterError("ogp requires d > 1")
        out["K"] = _positive_int(p, "K", default=2, minimum=2)
        out["gamma_steps"] = _positive_int(p, "gamma_steps", default=1)
        if out["gamma_steps"] * out["n"] ** 2 > _INT64_MAX:
            raise ParameterError("the path length gamma_steps * n^2 must fit in int64")
        out["c"] = _real(p, "c", default=0.5)
        if out["c"] <= 0:
            raise ParameterError("c must be positive")
        n, d, eps = out["n"], out["d"], out["epsilon"]
        default_k_l = max(1, math.floor((1 - min(eps, 0.999)) * math.log(d) / d * n))
        out["k_l"] = _coerce("k_l", p.get("k_l", default_k_l), int)
        if not (0 <= out["k_l"] <= n):
            raise ParameterError(f"k_l must lie in [0, n], got {out['k_l']}")
        out["eta"] = _real(p, "eta", default=eps / 16.0 * math.log(d) / d)
        if out["eta"] < 0:
            raise ParameterError("eta must be non-negative")
    elif command == "sample":
        out["n"] = _positive_int(p, "n")
        _check_vertex_count(out["n"])
        out["d"] = _real(p, "d")
        if not (0.0 < out["d"] < out["n"]):
            raise ParameterError(f"d must satisfy 0 < d < n, got d={out['d']}, n={out['n']}")
        out["out"] = _path(p, "out")
        if not out["out"]:
            raise ParameterError("sample requires an output path (out)")
    elif command == "exact":
        out["graph"] = _path(p, "graph")
        if not out["graph"]:
            raise ParameterError("exact requires a graph file (graph)")
        out["gamma"] = _real(p, "gamma", default=0.5)
        if not (0.0 < out["gamma"] <= 0.5):
            raise ParameterError(f"gamma must lie in (0, 1/2], got {out['gamma']}")
        out["limit"] = _positive_int(p, "limit", default=32)
    elif command == "phase":
        out["x"] = _real(p, "x")
        out["y"] = _real(p, "y")
        if out["x"] < 0 or out["y"] < 0:
            raise ParameterError("phase coordinates must be non-negative")
    elif command == "thresholds":
        out["gamma"] = _real(p, "gamma")
        if not (0.0 < out["gamma"] <= 0.5):
            raise ParameterError(f"gamma must lie in (0, 1/2], got {out['gamma']}")
    elif command == "exponent":
        out["c"] = _real(p, "c")
        out["d"] = _real(p, "d")
        out["gamma"] = _real(p, "gamma", default=0.5)
        if out["c"] <= 0 or out["d"] <= 1:
            raise ParameterError("exponent requires c > 0 and d > 1")
        if not (0.0 < out["gamma"] <= 0.5):
            raise ParameterError(f"gamma must lie in (0, 1/2], got {out['gamma']}")
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
        return _positive_int(os.environ, "BIPBIS_WORKERS")
    return os.cpu_count() or 1


def _run_trials(command: str, params: dict) -> list[tuple]:
    trials = params["trials"]
    workers = min(_resolve_workers(params), trials)
    jobs = [(command, params, t) for t in range(trials)]
    if workers <= 1:
        return [_trial_star(j) for j in jobs]
    with multiprocessing.Pool(workers) as pool:
        return pool.map(_trial_star, jobs)  # map preserves trial order


def write_csv_atomic(path: str, headers: tuple[str, ...], rows: list[tuple]) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(prefix=".bipbis-", suffix=".csv", dir=directory)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(headers)
            writer.writerows(rows)
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


def run_experiment(config: ExperimentConfig) -> ExperimentRecord:
    """Validate, dispatch, gather rows in trial order, write CSV atomically."""
    t0 = time.perf_counter()
    params = resolve_params(config.command, config.params)
    headers = SCHEMAS.get(config.command)
    rows: list[tuple] = []
    outputs: dict[str, Any] = {}
    if config.command in TRIAL_COMMANDS:
        if config.command == "ogp":
            # one shared norm estimate on reserved streams, echoed into the record
            norm_seed = RandomSeed(params["seed"], params["stream"] + AUX_STREAM_OFFSET)
            mean, _ = norm_second_moment(
                lambda s: linear_blocking_polynomial(params["n"], params["k_l"], s),
                params["n"], params["d"], trials=30, seed=norm_seed)
            params["_norm_estimate"] = mean
            outputs["norm_estimate"] = mean
        rows = _run_trials(config.command, params)
        if params.get("csv"):
            write_csv_atomic(params["csv"], headers, rows)
    else:
        outputs = _scalar_outputs(config.command, params)
    record = ExperimentRecord(
        command=config.command,
        params={k: v for k, v in params.items() if not k.startswith("_")},
        headers=headers,
        rows=rows,
        outputs=outputs,
        seed_ledger={
            "seed": params.get("seed"),
            "stream_base": params.get("stream"),
            "streams": [params.get("stream", 0) + t for t in range(params.get("trials", 0))],
        },
        wall_clock_s=time.perf_counter() - t0,
    )
    if params.get("record"):
        with open(params["record"], "w", encoding="utf-8") as fh:
            fh.write(record.to_json())
    return record


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


_SWEEPABLE = {
    "local": {"n", "d", "p", "gamma"},
    "lowdeg": {"n", "d", "epsilon", "eta"},
    "ogp": {"n", "d", "epsilon", "K", "gamma_steps", "c"},
}


def sweep(config: ExperimentConfig, grid: dict[str, list]) -> ExperimentRecord:
    """Cartesian product over at most two swept parameters; cell i runs on
    streams [stream + i*trials, stream + (i+1)*trials)."""
    if config.command not in TRIAL_COMMANDS:
        raise ParameterError(f"sweep supports trial commands {TRIAL_COMMANDS}, got {config.command!r}")
    if not grid:
        raise ParameterError("sweep requires a non-empty parameter grid")
    if len(grid) > 2:
        raise ParameterError(f"sweep supports at most 2 swept parameters, got {len(grid)}")
    names = list(grid)
    for name, values in grid.items():
        if name not in _SWEEPABLE[config.command]:
            raise ParameterError(
                f"{name!r} is not sweepable for {config.command}; "
                f"choose from {sorted(_SWEEPABLE[config.command])}")
        if not values:
            raise ParameterError(f"grid for {name!r} is empty")
    cells = [()]
    for name in names:
        cells = [prev + (v,) for prev in cells for v in grid[name]]
    t0 = time.perf_counter()
    seed = _coerce("seed", config.params.get("seed", 1), int)
    stream_base = _coerce("stream", config.params.get("stream", 0), int)
    trials = _coerce("trials", config.params.get("trials", 20), int)
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    csv_path = _path(config.params, "csv")
    record_path = _path(config.params, "record")
    all_rows: list[tuple] = []
    sub_records = []
    for idx, cell in enumerate(cells):
        cell_params = dict(config.params)
        cell_params.update(dict(zip(names, cell)))
        cell_params["stream"] = stream_base + idx * trials
        cell_params["csv"] = None
        cell_params["record"] = None
        rec = run_experiment(ExperimentConfig(config.command, cell_params))
        all_rows.extend(rec.rows)
        sub_records.append({"cell": dict(zip(names, cell)), "stream": cell_params["stream"]})
    headers = SCHEMAS[config.command]
    if csv_path:
        write_csv_atomic(csv_path, headers, all_rows)
    record = ExperimentRecord(
        command=config.command,
        params={**config.params, "grid": grid},
        headers=headers,
        rows=all_rows,
        outputs={"cells": sub_records},
        seed_ledger={"seed": seed, "stream_base": stream_base, "cell_stride": trials},
        wall_clock_s=time.perf_counter() - t0,
    )
    if record_path:
        with open(record_path, "w", encoding="utf-8") as fh:
            fh.write(record.to_json())
    return record
