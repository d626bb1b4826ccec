"""Experiment orchestration: the command table, seeded parallel trials, CSV.

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
import os
import tempfile
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

from . import __version__
from .analysis import (algorithmic_threshold, check_exponent_point, classify_phase,
                       existence_threshold, first_moment_exponent, predicted_easy_point,
                       PhasePoint)
from .balance import check_gamma
from .errors import ParameterError
from .exact import DEFAULT_BB_LIMIT, max_gamma_balanced_is
from .graph import (_INT64_MAX, _check_vertex_count, _text_blocks, check_degree,
                    read_graph_text, sample_bipartite_graph)
from .local import apply_local_pair, check_threshold, gamma_trim, random_threshold_pair
from .lowdeg import (_check_subset_size, blocking_norm_estimate, check_eta,
                     linear_blocking_polynomial, round_polynomial)
from .ogp import (OverlapChainParams, StabilityConfig, build_interpolation_path,
                  check_overlap_chain, check_stability_params, detect_bad_steps,
                  greedy_chain_over_segments, walk_rounded_subsets)
from .rng import AUX_STREAM_OFFSET, RandomSeed, check_trial_count, check_trial_streams

CSV_SCHEMA_VERSION = 1

# the rule lives in rng; this name stays importable for existing callers
_AUX_STREAM_OFFSET = AUX_STREAM_OFFSET


@dataclass(frozen=True)
class ExperimentConfig:
    command: str
    params: dict

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ParameterError(f"unknown command {self.command!r}; expected one of {tuple(COMMANDS)}")


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
# Parameters: the rows of the command table
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


def _owner(check: Callable[[Any], Any]) -> Callable[[str, Any, dict], None]:
    """The row check of a rule on the value alone, which ``check`` owns."""
    return lambda name, v, p: check(v)


def _trial_count(name, v, p):
    check_trial_count(v)
    check_trial_streams(v)


def _subset_size(name, v, p):
    _check_subset_size(p["n"], v, name)


def _path_length(name, v, p):
    _must(v * p["n"] ** 2 <= _INT64_MAX, "the path length gamma_steps * n^2 must fit in int64")


def _distinct_files(name, v, p):
    # an output would overwrite the input or another output without a word;
    # each file parameter checks the ones resolved before it
    for other in ("graph", "record", "csv", "out"):
        _must(p.get(other) is None or os.path.realpath(p[other]) != os.path.realpath(v),
              f"{name} {v!r} names the same file as {other} {p.get(other)!r}")


def _output_file(name, v, p):
    # a destination that cannot be written fails here, before the run's work
    directory = os.path.dirname(os.path.abspath(v))
    _must(os.path.isdir(directory) and os.access(directory, os.W_OK | os.X_OK)
          and not os.path.isdir(v),
          f"{name} {v!r} cannot be written: its directory is missing or not writable, "
          f"or it is a directory")
    _distinct_files(name, v, p)


_RUN_PARAMS = (
    Param("seed", int, 1, _owner(RandomSeed), "base seed (default 1)"),
    Param("stream", int, 0, lambda name, v, p: RandomSeed(p["seed"], v),
          "base stream offset (default 0)"),
    Param("record", str, None, _output_file, "write the full experiment record as JSON here"),
)
# the run parameters that only a trial command takes
_TRIAL_RUN_PARAMS = (
    Param("workers", int, None, _at_least(1),
          "parallel workers, capped at the CPU count and the number of trials "
          "(default: BIPBIS_WORKERS or cpu count)"),
    Param("csv", str, None, _output_file, "output CSV path"),
    Param("trials", int, 20, _trial_count, "number of trials (default 20)"),
)
_N = Param("n", int, REQUIRED, _owner(_check_vertex_count), "vertices per side")
_D = Param("d", float, REQUIRED, lambda name, v, p: check_degree(p["n"], v), "average degree")
_GAMMA = Param("gamma", float, 0.5, _owner(check_gamma), "balance parameter (default 0.5)")


# ---------------------------------------------------------------------------
# Command bodies (top-level so they pickle across worker processes)
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
    result = greedy_chain_over_segments(walk_rounded_subsets(f, path, params["eta"]), chain_params)
    bitmask = 0
    if result.success:
        report = check_overlap_chain(result.sets, result.timestamps, path, chain_params)
        bitmask = report.conditions_bitmask()
    return (trial, n, d, T, len(bad), int(result.success), bitmask)


def _write_atomic(path: str, write: Callable[[Any], None]) -> None:
    """``write(fh)`` to a temporary file beside ``path``, then move it into
    place, so a failed write leaves no partial file at ``path``. The file
    gets the mode a plain ``open`` would give it, not mkstemp's 0o600."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(prefix=".bipbis-", dir=directory)
    try:
        umask = os.umask(0o022)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _sample(params: dict) -> dict[str, Any]:
    graph = sample_bipartite_graph(params["n"], params["d"],
                                   RandomSeed(params["seed"], params["stream"]))
    _write_atomic(params["out"], lambda fh: fh.writelines(_text_blocks(graph)))
    return {"n": graph.n, "m": graph.edge_count, "out": params["out"]}


def _exact(params: dict) -> dict[str, Any]:
    graph = read_graph_text(params["graph"])
    size, witness = max_gamma_balanced_is(graph, params["gamma"], limit=params["limit"])
    return {"size": size, "witness_l": ",".join(map(str, sorted(witness.in_l))),
            "witness_r": ",".join(map(str, sorted(witness.in_r)))}


def _phase(params: dict) -> dict[str, Any]:
    return {"phase": classify_phase(PhasePoint(params["x"], params["y"])).value}


def _thresholds(params: dict) -> dict[str, Any]:
    ex, alg = existence_threshold(params["gamma"]), algorithmic_threshold(params["gamma"])
    return {"existence": ex, "algorithmic": alg, "ratio": ex / alg}


def _exponent(params: dict) -> dict[str, Any]:
    rep = first_moment_exponent(params["c"], params["d"], params["gamma"])
    return {"leading": rep.leading_coefficient, "exponent": rep.value, "sign": rep.sign.value}


# ---------------------------------------------------------------------------
# Commands: one table entry per command
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Command:
    """One command: its line in ``bipbis -h``, its parameters and its body.

    ``params`` are the rows after the run parameters (and, for a trial
    command, workers, csv and trials), in the order they are checked; a sweep
    may grid any numeric one of them. A row calls the check of the library
    function that owns its rule; a rule that reads several parameters is
    checked at the last of them to be resolved. A trial command has a CSV
    header ``schema`` and ``run(params, trial) -> row``; any other command
    has ``run(params) -> outputs``.
    """

    help: str
    params: tuple[Param, ...]
    run: Callable[..., Any]
    schema: Optional[tuple[str, ...]] = None


COMMANDS: dict[str, Command] = {
    "sample": Command("sample a graph and write the text format", (
        _N, _D, Param("out", str, REQUIRED, _output_file, "output path for the graph text file"),
    ), _sample),
    "exact": Command("exact max gamma-balanced independent set of a graph file", (
        Param("graph", str, REQUIRED, _distinct_files,
              "graph text file (header 'n m', then 'l r' lines)"),
        _GAMMA,
        Param("limit", int, DEFAULT_BB_LIMIT, _at_least(1),
              f"per-side capacity limit (default {DEFAULT_BB_LIMIT}); whatever the limit, "
              "n is capped a few frames below Python's recursion limit, as the search "
              "recurses once per vertex"),
    ), _exact),
    "local": Command("run the 1-local algorithm over seeded trials", (
        _N, _D, Param("p", float, REQUIRED, _owner(check_threshold), "L-side inclusion threshold"),
        _GAMMA,
    ), _local_trial,
        ("trial", "n", "d", "p", "gamma", "count_l", "count_r", "trimmed_size", "wall_time_ms")),
    "lowdeg": Command("run the degree-1 polynomial with rounding over seeded trials", (
        _N, _D,
        Param("epsilon", float, REQUIRED, lambda name, v, p: predicted_easy_point(v, p["d"]),
              "density slack; sets k_l and k_r"),
        Param("k_l", int,
              lambda p: math.floor((1 - p["epsilon"]) * math.log(p["d"]) / p["d"] * p["n"]),
              _subset_size, "chosen L vertices (default (1 - epsilon) log(d) / d * n)"),
        Param("k_r", int,
              lambda p: math.floor((1 - p["epsilon"]) * p["d"] ** (p["epsilon"] - 1) * p["n"]),
              _subset_size, "R-side target size (default (1 - epsilon) d^(epsilon - 1) n)"),
        Param("eta", float, 0.0, _owner(check_eta), "rounding error budget (default 0)"),
    ), _lowdeg_trial, ("trial", "n", "d", "k_l", "k_r", "count_l", "count_r", "norm_sq", "failed")),
    "ogp": Command("interpolation-path stability and overlap-chain probe", (
        _N, _D,
        Param("epsilon", float, REQUIRED, None, "overlap-chain slack; sets k_l and eta"),
        Param("K", int, 2,
              lambda name, v, p: OverlapChainParams.for_scale(p["epsilon"], v, p["n"], p["d"]),
              "chain length target (default 2)"),
        Param("gamma_steps", int, 1, _path_length, "path length in units of n^2 (default 1)"),
        Param("c", float, 0.5, lambda name, v, p: check_stability_params(v, p["gamma_steps"]),
              "badness threshold factor (default 0.5)"),
        Param("k_l", int, lambda p: max(1, math.floor(
            (1 - min(p["epsilon"], 0.999)) * math.log(p["d"]) / p["d"] * p["n"])),
              _subset_size, "chosen L vertices (default (1 - epsilon) log(d) / d * n, at least 1)"),
        Param("eta", float, lambda p: p["epsilon"] / 16.0 * math.log(p["d"]) / p["d"],
              _owner(check_eta), "rounding error budget (default epsilon / 16 * log(d) / d)"),
    ), _ogp_trial,
        ("trial", "n", "d", "T", "bad_edge_count", "greedy_success", "conditions_passed")),
    "phase": Command("classify a phase-diagram point", (
        Param("x", float, REQUIRED, None, "L-side density in units of (log d)/d"),
        Param("y", float, REQUIRED, lambda name, v, p: PhasePoint(p["x"], v),
              "R-side density in units of (log d)/d"),
    ), _phase),
    "thresholds": Command("existence and algorithmic density thresholds", (
        Param("gamma", float, REQUIRED, _owner(check_gamma), "balance parameter"),
    ), _thresholds),
    "exponent": Command("first-moment exponent at density c*(log d)/d", (
        Param("c", float, REQUIRED, None, "density in units of (log d)/d"),
        Param("d", float, REQUIRED, lambda name, v, p: check_exponent_point(p["c"], v),
              "average degree"),
        _GAMMA,
    ), _exponent),
}

TRIAL_COMMANDS = tuple(command for command, entry in COMMANDS.items() if entry.schema)


def command_params(command: str) -> tuple[Param, ...]:
    """Every parameter ``command`` takes, in the order they are resolved."""
    return (_RUN_PARAMS + (_TRIAL_RUN_PARAMS if command in TRIAL_COMMANDS else ())
            + COMMANDS[command].params)


def parse_decimal(text: str, kind: type):
    """``kind(text)`` (int or float) of ASCII decimal text, else ValueError;
    every number given as text (flag, grid value, --config string,
    BIPBIS_WORKERS) passes here. int and float alone also take underscores,
    surrounding whitespace and other scripts' digits: " 1_0 ", "１０"."""
    if not text.isascii() or "_" in text or text != text.strip():
        raise ValueError(f"not an ASCII decimal: {text!r}")
    return kind(text)


def _coerce(name: str, value, kind: type):
    """``kind(value)`` for a parameter, with a failure raised as ParameterError.
    An integer refuses a float with a fractional part rather than truncating
    it, a number refuses NaN and infinities, no parameter takes a boolean for
    a number, text must be an ASCII decimal, and a path is a nonempty string
    without NUL bytes."""
    if kind is str:
        if not (isinstance(value, str) and value and "\0" not in value):
            raise ParameterError(f"{name} must be a file path, got {value!r}")
        return value
    message = f"{name} must be {'an integer' if kind is int else 'a number'}, got {value!r}"
    if isinstance(value, bool):
        raise ParameterError(message)
    try:
        out = parse_decimal(value, kind) if isinstance(value, str) else kind(value)
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


def _trial_star(args):
    command, params, trial = args
    return COMMANDS[command].run(params, trial)


def _execute(command: str, cells: list[dict]) -> tuple[list[tuple], list[dict[str, Any]]]:
    """The rows (in cell, then trial order) and one outputs dict per cell of
    a run on resolved parameters; a plain run is one cell, a sweep its cells.

    With base stream b, cell i runs its trials on streams b + i*trials on. An
    ogp cell shares one norm estimate among its trials, echoed into its
    outputs, on norm block i of the base seed (``RandomSeed.norm_block``),
    so no two cells share one. All cells' trials run on one pool of the
    workers asked for (``workers``, else BIPBIS_WORKERS), capped at the trial
    and CPU counts, and opened only when that is above one. Any count gives
    the same data, so the cap costs none.
    """
    if command not in TRIAL_COMMANDS:
        return [], [COMMANDS[command].run(params) for params in cells]
    workers = cells[0]["workers"]
    if not workers and os.environ.get("BIPBIS_WORKERS"):
        workers = _coerce("BIPBIS_WORKERS", os.environ["BIPBIS_WORKERS"], int)
        _at_least(1)("BIPBIS_WORKERS", workers, cells[0])
    jobs, outputs = [], []
    for i, params in enumerate(cells):
        cell = {**params, "stream": params["stream"] + i * params["trials"]}
        outputs.append({})
        if command == "ogp":
            norm_seed = RandomSeed(params["seed"], params["stream"]).norm_block(i)
            mean, _ = blocking_norm_estimate(params["n"], params["d"], params["k_l"], norm_seed)
            cell["_norm_estimate"] = outputs[i]["norm_estimate"] = mean
        jobs += [(command, cell, t) for t in range(params["trials"])]
    workers = min(workers or len(jobs), len(jobs), os.cpu_count() or 1)
    if workers <= 1:
        return [_trial_star(job) for job in jobs], outputs
    import multiprocessing  # here, not at the top: a one-process run never starts a pool

    with multiprocessing.Pool(workers) as pool:
        return pool.map(_trial_star, jobs), outputs  # map keeps the jobs' order


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
    rows, (outputs,) = _execute(config.command, [params])
    record = ExperimentRecord(
        command=config.command,
        params=params,
        headers=COMMANDS[config.command].schema,
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
    sweepable = sorted(p.name for p in COMMANDS[command].params if p.kind is not str)
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
    rows, outputs = _execute(command, resolved)
    record = ExperimentRecord(
        command=command,
        params={**config.params, "grid": grid},
        headers=COMMANDS[command].schema,
        rows=rows,
        outputs={"cells": [{"cell": cell, "stream": stream + i * trials, **cell_outputs}
                           for i, (cell, cell_outputs) in enumerate(zip(cells, outputs))]},
        seed_ledger={"seed": base["seed"], "stream_base": stream, "cell_stride": trials},
        wall_clock_s=time.perf_counter() - t0,
    )
    return _save(record, base)
