import contextlib
import csv
import io
import json
import os
import warnings
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipbis import experiments, linear_blocking_polynomial, stability_trial
from bipbis.cli import main
from bipbis.errors import ParameterError
from bipbis.experiments import (PARAMS, SCHEMAS, TRIAL_COMMANDS, ExperimentConfig,
                                command_params, sweep)
from bipbis.rng import AUX_STREAM_OFFSET, RandomSeed

FIXTURES = Path(__file__).parent / "fixtures"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def drop_timing(rows, headers):
    if "wall_time_ms" not in headers:
        return rows
    k = headers.index("wall_time_ms")
    return [r[:k] + r[k + 1:] for r in rows]


# ---------------------------------------------------------------------------
# scalar commands
# ---------------------------------------------------------------------------


def test_phase_command(capsys):
    code, out, _ = run_cli(capsys, "phase", "--x", "1.5", "--y", "1.5")
    assert code == 0
    assert out.strip() == "phase=HARD"


def test_thresholds_command(capsys):
    code, out, _ = run_cli(capsys, "thresholds", "--gamma", "0.5")
    assert code == 0
    lines = dict(ln.split("=") for ln in out.strip().splitlines())
    assert float(lines["existence"]) == 2.0
    assert float(lines["algorithmic"]) == 1.0
    assert float(lines["ratio"]) == 2.0


def test_exponent_command(capsys):
    code, out, _ = run_cli(capsys, "exponent", "--c", "2", "--d", "100", "--gamma", "0.5")
    assert code == 0
    lines = dict(ln.split("=") for ln in out.strip().splitlines())
    assert float(lines["leading"]) == 0.0
    assert lines["sign"] in ("negative", "zero", "positive")


def test_sample_then_exact_roundtrip(capsys, tmp_path):
    out_path = tmp_path / "g.txt"
    code, out, _ = run_cli(capsys, "sample", "--n", "6", "--d", "1.5",
                           "--seed", "11", "--out", str(out_path))
    assert code == 0 and out_path.exists()
    code, out, _ = run_cli(capsys, "exact", "--graph", str(out_path), "--gamma", "0.5")
    assert code == 0
    assert out.startswith("size=")


def test_exact_fixture_output(capsys):
    code, out, _ = run_cli(capsys, "exact", "--graph",
                           str(FIXTURES / "single_edge.txt"), "--gamma", "0.5")
    assert code == 0
    lines = dict(ln.split("=", 1) for ln in out.strip().splitlines())
    assert lines["size"] == "3"
    assert lines["witness_l"] == "1"
    assert lines["witness_r"] == "0,1"


# ---------------------------------------------------------------------------
# trial commands + CSV
# ---------------------------------------------------------------------------


LOCAL_ARGS = ("local", "--n", "200", "--d", "4", "--p", "0.2", "--gamma", "0.5",
              "--trials", "4", "--seed", "9")


def test_local_csv_schema_and_rows(capsys, tmp_path):
    out_csv = tmp_path / "local.csv"
    code, out, _ = run_cli(capsys, *LOCAL_ARGS, "--csv", str(out_csv))
    assert code == 0
    rows = read_rows(out_csv)
    assert tuple(rows[0]) == SCHEMAS["local"]  # golden header
    assert len(rows) == 1 + 4
    assert [r[0] for r in rows[1:]] == ["0", "1", "2", "3"]


def test_local_rerun_is_identical_outside_timing(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli(capsys, *LOCAL_ARGS, "--csv", str(a))
    run_cli(capsys, *LOCAL_ARGS, "--csv", str(b))
    headers = list(SCHEMAS["local"])
    assert drop_timing(read_rows(a), headers) == drop_timing(read_rows(b), headers)


def test_worker_count_does_not_change_data(capsys, tmp_path):
    a, b = tmp_path / "w1.csv", tmp_path / "w2.csv"
    run_cli(capsys, *LOCAL_ARGS, "--workers", "1", "--csv", str(a))
    run_cli(capsys, *LOCAL_ARGS, "--workers", "2", "--csv", str(b))
    headers = list(SCHEMAS["local"])
    assert drop_timing(read_rows(a), headers) == drop_timing(read_rows(b), headers)


def test_workers_env_override(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("BIPBIS_WORKERS", "1")
    out_csv = tmp_path / "env.csv"
    code, _, _ = run_cli(capsys, *LOCAL_ARGS, "--csv", str(out_csv))
    assert code == 0 and out_csv.exists()


def test_lowdeg_command_csv(capsys, tmp_path):
    out_csv = tmp_path / "lowdeg.csv"
    code, _, _ = run_cli(capsys, "lowdeg", "--n", "300", "--d", "8", "--epsilon", "0.5",
                         "--trials", "3", "--seed", "2", "--csv", str(out_csv))
    assert code == 0
    rows = read_rows(out_csv)
    assert tuple(rows[0]) == SCHEMAS["lowdeg"]
    assert all(r[-1] == "0" for r in rows[1:])  # the linear construction never fails


def test_ogp_command_csv(capsys, tmp_path):
    out_csv = tmp_path / "ogp.csv"
    code, _, _ = run_cli(capsys, "ogp", "--n", "8", "--d", "2", "--epsilon", "0.6",
                         "--K", "2", "--gamma-steps", "1", "--c", "0.5",
                         "--trials", "2", "--seed", "3", "--csv", str(out_csv))
    assert code == 0
    rows = read_rows(out_csv)
    assert tuple(rows[0]) == SCHEMAS["ogp"]
    assert all(r[3] == "64" for r in rows[1:])  # T = gamma_steps * n^2


# rows written by the code that rebuilt every path graph, before the forward walk
PINNED_OGP_ROWS = {
    ("--n", "20", "--gamma-steps", "2", "--K", "4", "--c", "0.05", "--seed", "7"): [
        "0,20,4.0,800,18,0,0", "1,20,4.0,800,25,1,5",
        "2,20,4.0,800,19,1,5", "3,20,4.0,800,22,0,0"],
    ("--n", "40", "--gamma-steps", "1", "--K", "5", "--c", "0.02", "--seed", "5"): [
        "0,40,4.0,1600,29,1,5", "1,40,4.0,1600,39,1,5",
        "2,40,4.0,1600,43,1,5", "3,40,4.0,1600,27,0,0"],
    ("--n", "60", "--gamma-steps", "1", "--K", "6", "--c", "0.01", "--seed", "3"): [
        "0,60,4.0,3600,51,0,0", "1,60,4.0,3600,59,1,5",
        "2,60,4.0,3600,51,0,0", "3,60,4.0,3600,59,0,0"],
}


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("args", list(PINNED_OGP_ROWS))
def test_ogp_rows_are_pinned(capsys, tmp_path, args, workers):
    out_csv = tmp_path / "ogp.csv"
    code, _, _ = run_cli(capsys, "ogp", "--d", "4", "--epsilon", "0.6", "--trials", "4",
                         "--workers", workers, *args, "--csv", str(out_csv))
    assert code == 0
    assert [",".join(r) for r in read_rows(out_csv)[1:]] == PINNED_OGP_ROWS[args]


def test_record_json(capsys, tmp_path):
    out_csv = tmp_path / "r.csv"
    rec_path = tmp_path / "r.json"
    code, _, _ = run_cli(capsys, *LOCAL_ARGS, "--csv", str(out_csv),
                         "--record", str(rec_path))
    assert code == 0
    record = json.loads(rec_path.read_text())
    assert record["command"] == "local"
    assert record["seed_ledger"]["seed"] == 9
    assert record["seed_ledger"]["streams"] == [0, 1, 2, 3]
    assert len(record["rows"]) == 4
    assert sorted(os.listdir(tmp_path)) == ["r.csv", "r.json"]  # no temporary file left


@pytest.mark.parametrize("argv, flag", [
    (("local", "--n", "100000", "--d", "10", "--p", "0.17", "--trials", "4", "--workers", "1"),
     "--csv"),
    (("local", "--n", "100000", "--d", "10", "--p", "0.17", "--trials", "4", "--workers", "1"),
     "--record"),
    (("sample", "--n", "6", "--d", "1.5"), "--out"),
    (("sweep", "local", "--grid", "p=0.1,0.2", "--n", "200", "--d", "4", "--trials", "2"),
     "--csv"),
])
@pytest.mark.parametrize("where", ["missing/x.out", "."])
def test_unwritable_outputs_fail_before_any_work(capsys, tmp_path, monkeypatch, argv, flag, where):
    def no_work(*args, **kwargs):
        raise AssertionError("the run started before its outputs were checked")

    monkeypatch.setattr(experiments, "_execute", no_work)
    destination = str(tmp_path / where)
    code, out, err = run_cli(capsys, *argv, flag, destination)
    assert code == 1 and out == ""
    assert repr(destination) in assert_one_error_line(err)
    assert os.listdir(tmp_path) == []


# ---------------------------------------------------------------------------
# config files and errors
# ---------------------------------------------------------------------------


def test_config_file_with_flag_override(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 100, "d": 3, "p": 0.9, "trials": 2, "seed": 5}))
    out_csv = tmp_path / "cfg.csv"
    code, _, _ = run_cli(capsys, "local", "--config", str(cfg),
                         "--p", "0.1", "--csv", str(out_csv))
    assert code == 0
    rows = read_rows(out_csv)
    assert rows[1][3] == "0.1"  # flag beat the config file


def test_invalid_parameters_fail_with_machine_parsable_line(capsys):
    code, _, err = run_cli(capsys, "local", "--n", "10", "--d", "20",
                           "--p", "0.1", "--trials", "2")
    assert code == 1
    payload = json.loads(err.strip())
    assert payload["error"] == "ParameterError"
    assert "d must satisfy" in payload["message"]
    assert "\n" not in err.strip()


def test_fractional_integer_parameters_are_refused(capsys, tmp_path):
    cfg = tmp_path / "c.json"
    for body in ({"n": 200.9, "d": 4, "p": 0.2, "trials": 1},
                 {"n": 200, "d": 4, "p": 0.2, "trials": 1.5},
                 {"n": 200, "d": 4, "p": 0.2, "trials": 1, "seed": 2.5}):
        cfg.write_text(json.dumps(body))
        code, _, err = run_cli(capsys, "local", "--config", str(cfg))
        assert code == 1
        assert "must be an integer" in assert_one_error_line(err)
    for spec in ("n=200.5", "gamma_steps=1.5"):
        code, _, err = run_cli(capsys, "sweep", "ogp", "--grid", spec, "--n", "8", "--d", "2",
                               "--epsilon", "0.6", "--trials", "1")
        assert code == 1
        assert "must be an integer" in assert_one_error_line(err)
    # an integral float from a grid still runs, at the integer value
    out_csv = tmp_path / "grid.csv"
    code, _, _ = run_cli(capsys, "sweep", "local", "--grid", "n=200.0", "--d", "4",
                         "--p", "0.2", "--trials", "1", "--csv", str(out_csv))
    assert code == 0
    assert read_rows(out_csv)[1][1] == "200"


def test_side_targets_are_range_checked_before_work(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"n": 200, "d": 4, "epsilon": 0.5, "k_r": -5, "trials": 1}))
    code, _, err = run_cli(capsys, "lowdeg", "--config", str(cfg))
    assert code == 1
    assert "k_r must lie in [0, n]" in assert_one_error_line(err)

    # ogp's k_l fails in validation, before the shared norm estimate starts
    def no_estimate(*args, **kwargs):
        raise AssertionError("the norm estimate ran before k_l was checked")

    monkeypatch.setattr(experiments, "norm_second_moment", no_estimate)
    for k_l in (-1, 9):
        cfg.write_text(json.dumps({"n": 8, "d": 2, "epsilon": 0.6, "k_l": k_l, "trials": 1}))
        code, _, err = run_cli(capsys, "ogp", "--config", str(cfg))
        assert code == 1
        assert "k_l must lie in [0, n]" in assert_one_error_line(err)


SCALAR = {"seed": 1, "stream": 0, "record": None}
RUN = {**SCALAR, "workers": None, "csv": None}
# (command, raw parameters, the full resolved dict), recorded from the code that
# resolved each command in its own branch; the first lowdeg and ogp cases are
# the calls of bench/tracing.py. Scalar commands take no workers or csv.
RESOLVED = [
    ("sample", {"n": 6, "d": 1.5, "out": "g.txt"},
     {**SCALAR, "n": 6, "d": 1.5, "out": "g.txt"}),
    ("sample", {"n": 10, "d": 2, "out": "x.txt", "seed": 3, "stream": 4, "record": "r.json"},
     {**SCALAR, "seed": 3, "stream": 4, "record": "r.json", "n": 10, "d": 2.0, "out": "x.txt"}),
    ("exact", {"graph": "g.txt"},
     {**SCALAR, "graph": "g.txt", "gamma": 0.5, "limit": 32}),
    ("exact", {"graph": "g.txt", "gamma": 0.25, "limit": 8.0, "seed": 2},
     {**SCALAR, "seed": 2, "graph": "g.txt", "gamma": 0.25, "limit": 8}),
    ("local", {"n": 100, "d": 3, "p": 0.2},
     {**RUN, "trials": 20, "n": 100, "d": 3.0, "p": 0.2, "gamma": 0.5}),
    ("local", {"n": 200.0, "d": 4.5, "p": 0, "gamma": 0.3, "trials": 3, "workers": 2,
               "seed": 9, "stream": 5, "csv": "a.csv", "record": "r.json"},
     {"seed": 9, "stream": 5, "workers": 2, "csv": "a.csv", "record": "r.json", "trials": 3,
      "n": 200, "d": 4.5, "p": 0.0, "gamma": 0.3}),
    ("lowdeg", {"n": 100000, "d": 10.0, "epsilon": 0.5, "eta": 0.0},
     {**RUN, "trials": 20, "n": 100000, "d": 10.0, "epsilon": 0.5, "k_l": 11512, "k_r": 15811,
      "eta": 0.0}),
    ("lowdeg", {"n": 300, "d": 8, "epsilon": 0.25, "trials": 3},
     {**RUN, "trials": 3, "n": 300, "d": 8.0, "epsilon": 0.25, "k_l": 58, "k_r": 47,
      "eta": 0.0}),
    ("lowdeg", {"n": 50, "d": 3, "epsilon": 0.5, "k_l": 3, "k_r": 2.0, "eta": 0.1, "workers": 1},
     {**RUN, "workers": 1, "trials": 20, "n": 50, "d": 3.0, "epsilon": 0.5, "k_l": 3, "k_r": 2,
      "eta": 0.1}),
    ("ogp", {"n": 60, "d": 4.0, "epsilon": 0.6, "K": 2, "gamma_steps": 1, "c": 0.5},
     {**RUN, "trials": 20, "n": 60, "d": 4.0, "epsilon": 0.6, "K": 2, "gamma_steps": 1,
      "c": 0.5, "k_l": 8, "eta": 0.012996509635498974}),
    ("ogp", {"n": 20, "d": 4, "epsilon": 1.5, "trials": 4, "seed": 7},
     {**RUN, "seed": 7, "trials": 4, "n": 20, "d": 4.0, "epsilon": 1.5, "K": 2,
      "gamma_steps": 1, "c": 0.5, "k_l": 1, "eta": 0.032491274088747434}),
    ("ogp", {"n": 40, "d": 2.5, "epsilon": 0.3, "K": 5, "gamma_steps": 2, "c": 0.02,
             "k_l": 3, "eta": 0.01},
     {**RUN, "trials": 20, "n": 40, "d": 2.5, "epsilon": 0.3, "K": 5, "gamma_steps": 2,
      "c": 0.02, "k_l": 3, "eta": 0.01}),
    ("phase", {"x": 1.5, "y": 0.5}, {**SCALAR, "x": 1.5, "y": 0.5}),
    ("phase", {"x": 0, "y": 2, "seed": 4}, {**SCALAR, "seed": 4, "x": 0.0, "y": 2.0}),
    ("thresholds", {"gamma": 0.5}, {**SCALAR, "gamma": 0.5}),
    ("thresholds", {"gamma": 0.2, "stream": 1}, {**SCALAR, "stream": 1, "gamma": 0.2}),
    ("exponent", {"c": 2, "d": 100}, {**SCALAR, "c": 2.0, "d": 100.0, "gamma": 0.5}),
    ("exponent", {"c": 0.5, "d": 3, "gamma": 0.25}, {**SCALAR, "c": 0.5, "d": 3.0, "gamma": 0.25}),
]


@pytest.mark.parametrize("command, raw, resolved", RESOLVED)
def test_resolved_parameters_are_pinned(command, raw, resolved):
    def typed(params):  # 3 == 3.0, so compare the types too
        return {key: (type(value), value) for key, value in params.items()}

    assert typed(experiments.resolve_params(command, raw)) == typed(resolved)


def test_every_parameter_is_a_flag(capsys, tmp_path):
    out_csv = tmp_path / "lowdeg.csv"
    code, _, _ = run_cli(capsys, "lowdeg", "--n", "50", "--d", "3", "--epsilon", "0.5",
                         "--k-l", "3", "--k-r", "2", "--trials", "1", "--csv", str(out_csv))
    assert code == 0
    assert read_rows(out_csv)[1][3:5] == ["3", "2"]
    rec = tmp_path / "ogp.json"
    code, _, _ = run_cli(capsys, "ogp", "--n", "8", "--d", "2", "--epsilon", "0.6", "--eta", "0.01",
                         "--trials", "1", "--record", str(rec))
    assert code == 0
    assert json.loads(rec.read_text())["params"]["eta"] == 0.01
    code, out, _ = run_cli(capsys, "sweep", "ogp", "--grid", "eta=0,0.01", "--n", "8", "--d", "2",
                           "--epsilon", "0.6", "--trials", "1")
    assert code == 0 and "cells=2" in out
    # a sweep offers only its trial command's flags
    code, out, err = run_cli(capsys, "sweep", "local", "--grid", "p=0.1", "--n", "4", "--d", "2",
                             "--trials", "1", "--K", "3")
    assert code == 1 and out == ""
    assert "unrecognized arguments: --K 3" in assert_one_error_line(err)


def test_flag_errors_fail_with_one_json_line(capsys):
    code, out, err = run_cli(capsys, "local", "--n", "abc", "--d", "4", "--p", "0.1",
                             "--trials", "1")
    assert code == 1 and out == ""
    assert "argument --n: invalid int value: 'abc'" in assert_one_error_line(err)
    code, out, err = run_cli(capsys, "local", "--n", "10", "--d", "4", "--p", "0.1",
                             "--trials", "1", "--bogus", "3")
    assert code == 1 and out == ""
    assert "unrecognized arguments: --bogus 3" in assert_one_error_line(err)
    code, _, err = run_cli(capsys)
    assert code == 1
    assert "required: command" in assert_one_error_line(err)


def test_help_still_exits_zero(capsys):
    for argv in (["--help"], ["local", "-h"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage: bipbis" in capsys.readouterr().out


def test_path_parameters_must_be_path_strings(capsys, tmp_path):
    cfg = tmp_path / "c.json"
    for key, value in (("record", 1), ("csv", 5), ("csv", ""), ("record", "a\0b"),
                       ("csv", ["x"])):
        cfg.write_text(json.dumps({"n": 4, "d": 2, "p": 0.1, "trials": 1, key: value}))
        code, out, err = run_cli(capsys, "local", "--config", str(cfg))
        assert code == 1 and out == ""
        assert f"{key} must be a file path" in assert_one_error_line(err)
    for command, body in (("sample", '{"out": 1, "n": 4, "d": 2}'), ("exact", '{"graph": 2}')):
        cfg.write_text(body)
        code, _, err = run_cli(capsys, command, "--config", str(cfg))
        assert code == 1
        assert "must be a file path" in assert_one_error_line(err)
    cfg.write_text('{"csv": 3}')
    code, _, err = run_cli(capsys, "sweep", "local", "--config", str(cfg), "--grid", "p=0.1",
                           "--n", "4", "--d", "2", "--trials", "1")
    assert code == 1
    assert "csv must be a file path" in assert_one_error_line(err)


def test_parameters_a_command_does_not_take_are_refused(capsys, tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"n": 3, "d": 1.5, "p": 0.3, "trials": 1, "bogus": 1, "k_r": 7,
                               "epsilon": "abc"}))
    out_csv = tmp_path / "local.csv"
    code, out, err = run_cli(capsys, "local", "--workers", "1", "--config", str(cfg),
                             "--csv", str(out_csv))
    assert code == 1 and out == "" and not out_csv.exists()
    assert "['bogus', 'k_r', 'epsilon']" in assert_one_error_line(err)
    cfg.write_text(json.dumps({"K": 3}))
    code, out, err = run_cli(capsys, "sweep", "local", "--config", str(cfg), "--grid", "p=0.1",
                             "--n", "4", "--d", "2", "--trials", "1", "--csv", str(out_csv))
    assert code == 1 and out == "" and not out_csv.exists()
    assert "local does not take the parameters ['K']" in assert_one_error_line(err)


def test_scalar_commands_refuse_workers_and_csv(capsys, tmp_path):
    out_csv = tmp_path / "x.csv"
    for flags in (["--csv", str(out_csv)], ["--workers", "3"]):
        code, out, err = run_cli(capsys, "phase", "--x", "1", "--y", "1", *flags)
        assert code == 1 and out == ""
        assert f"unrecognized arguments: {flags[0]}" in assert_one_error_line(err)
    cfg = tmp_path / "c.json"
    for key, value in (("csv", str(out_csv)), ("workers", 3)):
        cfg.write_text(json.dumps({"gamma": 0.5, key: value}))
        code, out, err = run_cli(capsys, "thresholds", "--config", str(cfg))
        assert code == 1 and out == ""
        assert f"thresholds does not take the parameters ['{key}']" in assert_one_error_line(err)
    assert not out_csv.exists()


def test_oversized_boolean_and_non_finite_parameters_are_refused(capsys, tmp_path):
    cfg = tmp_path / "c.json"
    for body, message in (('{"n": 1e308, "d": 2, "p": 0.1, "trials": 1}', "too large"),
                          ('{"n": true, "d": 0.5, "p": 0.1, "trials": 1}', "n must be an integer"),
                          ('{"n": 4, "d": 2, "p": false, "trials": 1}', "p must be a number")):
        cfg.write_text(body)
        code, _, err = run_cli(capsys, "local", "--config", str(cfg))
        assert code == 1
        assert message in assert_one_error_line(err)
    code, _, err = run_cli(capsys, "ogp", "--n", "4", "--d", "2", "--epsilon", "0.5",
                           "--gamma-steps", str(2**60), "--trials", "1")
    assert code == 1
    assert "gamma_steps * n^2 must fit in int64" in assert_one_error_line(err)
    for argv, message in ((["phase", "--x", "nan", "--y", "1"], "x must be finite"),
                          (["exponent", "--c", "2", "--d", "inf"], "d must be finite")):
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        assert message in assert_one_error_line(err)


def test_missing_graph_file_fails_cleanly(capsys, tmp_path):
    code, _, err = run_cli(capsys, "exact", "--graph", str(tmp_path / "nope.txt"))
    assert code == 1
    assert json.loads(err.strip())["error"] in ("IOError", "ParameterError")


def assert_one_error_line(err, kind="ParameterError"):
    assert len(err.splitlines()) == 1
    payload = json.loads(err)
    assert payload["error"] == kind
    return payload["message"]


def test_exact_rejects_duplicate_edge_lines(capsys, tmp_path):
    path = tmp_path / "dup.txt"
    path.write_text("3 2\n0 1\n0 1\n")
    code, _, err = run_cli(capsys, "exact", "--graph", str(path), "--gamma", "0.5")
    assert code == 1
    assert "duplicate edge" in assert_one_error_line(err)


def test_exact_rejects_non_integer_tokens(capsys, tmp_path):
    path = tmp_path / "tokens.txt"
    for text in ("2 1\nx y\n", "2 1\n-1 0\n", "2 1\n0 \u0661\n"):
        path.write_bytes(text.encode("utf-8"))
        code, _, err = run_cli(capsys, "exact", "--graph", str(path), "--gamma", "0.5")
        assert code == 1
        assert "not an unsigned decimal integer" in assert_one_error_line(err)


def test_malformed_config_fails_with_one_json_line(capsys, tmp_path):
    cfg = tmp_path / "bad.json"
    for body in (b"{bad", b'{"seed": "abc", "x": 1, "y": 1}', b'{"x": [1], "y": 1}',
                 b'{"x": "1e999999", "y": 1, "seed": 1e999}', b"\xff\xfe"):
        cfg.write_bytes(body)
        code, _, err = run_cli(capsys, "phase", "--config", str(cfg))
        assert code == 1
        assert_one_error_line(err)


def test_malformed_workers_variable_fails_with_one_json_line(capsys, monkeypatch):
    for value in ("two", "0", "-3"):
        monkeypatch.setenv("BIPBIS_WORKERS", value)
        code, _, err = run_cli(capsys, "local", "--n", "50", "--d", "2", "--p", "0.1",
                               "--trials", "1")
        assert code == 1
        assert "BIPBIS_WORKERS" in assert_one_error_line(err)


def test_capacity_error_surfaces(capsys, tmp_path):
    out_path = tmp_path / "big.txt"
    run_cli(capsys, "sample", "--n", "40", "--d", "2", "--out", str(out_path))
    code, _, err = run_cli(capsys, "exact", "--graph", str(out_path))
    assert code == 1
    assert json.loads(err.strip())["error"] == "CapacityError"


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def test_sweep_single_point_matches_plain_run(capsys, tmp_path):
    plain, swept = tmp_path / "plain.csv", tmp_path / "swept.csv"
    run_cli(capsys, *LOCAL_ARGS, "--csv", str(plain))
    code, _, _ = run_cli(capsys, "sweep", "local", "--grid", "p=0.2",
                         "--n", "200", "--d", "4", "--gamma", "0.5",
                         "--trials", "4", "--seed", "9", "--csv", str(swept))
    assert code == 0
    headers = list(SCHEMAS["local"])
    assert drop_timing(read_rows(plain), headers) == drop_timing(read_rows(swept), headers)


def test_sweep_grid_expansion_and_streams(capsys, tmp_path):
    out_csv = tmp_path / "grid.csv"
    code, out, _ = run_cli(capsys, "sweep", "local",
                           "--grid", "p=0.1:0.3:0.1", "--grid", "d=2,4",
                           "--n", "100", "--trials", "2", "--seed", "4",
                           "--csv", str(out_csv))
    assert code == 0
    rows = read_rows(out_csv)
    assert len(rows) == 1 + 3 * 2 * 2  # header + |p grid| * |d grid| * trials
    assert "cells=6" in out


def test_ogp_sweep_cells_estimate_the_norm_on_streams_of_their_own():
    raw = {"n": 8, "d": 2, "epsilon": 0.6, "trials": 2, "seed": 3, "stream": 5, "workers": 1}
    single = experiments.run_experiment(ExperimentConfig("ogp", raw))
    cells = sweep(ExperimentConfig("ogp", raw), {"c": [0.5, 1.0]}).outputs["cells"]
    assert [cell["stream"] for cell in cells] == [5, 7]
    assert cells[0]["norm_estimate"] == single.outputs["norm_estimate"]
    k_l = experiments.resolve_params("ogp", raw)["k_l"]
    block = RandomSeed(3, 5 + AUX_STREAM_OFFSET + 30)
    mean, _ = experiments.norm_second_moment(
        lambda s: linear_blocking_polynomial(8, k_l, s), 8, 2.0, trials=30, seed=block)
    assert cells[1]["norm_estimate"] == mean != cells[0]["norm_estimate"]


def test_sweep_empty_grid_fails(capsys):
    code, _, err = run_cli(capsys, "sweep", "local", "--n", "100", "--d", "2",
                           "--p", "0.1", "--trials", "2")
    assert code == 1
    assert json.loads(err.strip())["error"] == "ParameterError"


def test_sweep_rejects_three_grids(capsys):
    code, _, err = run_cli(capsys, "sweep", "local",
                           "--grid", "p=0.1,0.2", "--grid", "d=2,3",
                           "--grid", "n=50,60",
                           "--trials", "2")
    assert code == 1
    assert "at most 2" in json.loads(err.strip())["message"]


def test_sweep_rejects_non_numeric_grid_values(capsys):
    for spec in ("p=abc", "p=0.1,abc", "p=0.1:abc:0.1", "p=0.1,,0.2", "p=0.1,"):
        code, _, err = run_cli(capsys, "sweep", "local", "--grid", spec,
                               "--n", "100", "--d", "2", "--trials", "1")
        assert code == 1
        assert "not a number" in assert_one_error_line(err)


def test_sweep_rejects_unending_range_grids(capsys):
    for spec, message in (("p=0:inf:0.1", "more than 10000 points"),
                          ("p=0:1:1e-300", "more than 10000 points"),
                          ("p=0:1:nan", "step must be positive")):
        code, _, err = run_cli(capsys, "sweep", "local", "--grid", spec,
                               "--n", "100", "--d", "2", "--trials", "1")
        assert code == 1
        assert message in assert_one_error_line(err)


def test_sweep_rejects_repeated_grid_names(capsys):
    code, _, err = run_cli(capsys, "sweep", "local", "--grid", "p=0.1", "--grid", "p=0.2",
                           "--n", "200", "--d", "5", "--trials", "1")
    assert code == 1
    assert "more than once" in assert_one_error_line(err)


def test_sweep_checks_every_cell_before_it_runs_one(monkeypatch):
    def no_trial(params, trial):
        raise AssertionError("a trial ran before every cell was checked")

    monkeypatch.setitem(experiments._TRIAL_BODIES, "local", no_trial)
    config = ExperimentConfig("local", {"n": 100000, "p": 0.1, "trials": 3, "workers": 1})
    with pytest.raises(ParameterError, match="d must satisfy 0 < d < n"):
        sweep(config, {"d": [10.0, 2e5]})


def test_trial_streams_stay_below_the_auxiliary_streams(monkeypatch):
    # one rule for a run, a stability probe and all the cells of a sweep
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the stream count was checked")

    monkeypatch.setitem(experiments._TRIAL_BODIES, "ogp", no_work)
    monkeypatch.setattr(experiments, "norm_second_moment", no_work)
    raw = {"n": 4, "d": 2, "epsilon": 0.6, "workers": 1}
    with pytest.raises(ParameterError, match="trials must be below"):
        experiments.run_experiment(ExperimentConfig("ogp", {**raw, "trials": AUX_STREAM_OFFSET}))
    with pytest.raises(ParameterError, match="trials must be below"):
        stability_trial(lambda s: linear_blocking_polynomial(4, 1, s), 4, 2.0, 1, 0.5, 1,
                        trials=AUX_STREAM_OFFSET, seed=RandomSeed(1))
    # each cell alone is fine, but the last cell's trials would reach the first
    # cell's norm-estimate streams
    with pytest.raises(ParameterError, match="cells \\* trials must be below"):
        sweep(ExperimentConfig("ogp", {**raw, "trials": AUX_STREAM_OFFSET // 2}), {"c": [0.5, 1.0]})


def test_sweep_peak_sits_at_grid_point_nearest_optimal_threshold(capsys, tmp_path):
    # at d = 10 the balanced value min(p, e^{-10p}) peaks at p* ~ 0.1746, so
    # over the 0.05-step grid the measured trimmed density peaks at p = 0.15
    out_csv = tmp_path / "sweep.csv"
    code, _, _ = run_cli(capsys, "sweep", "local", "--grid", "p=0.05:0.30:0.05",
                         "--n", "20000", "--d", "10", "--gamma", "0.5",
                         "--trials", "4", "--seed", "12", "--csv", str(out_csv))
    assert code == 0
    rows = read_rows(out_csv)[1:]
    density_by_p = {}
    for r in rows:
        p, n, trimmed = float(r[3]), int(r[1]), int(r[7])
        density_by_p.setdefault(p, []).append(trimmed / (2 * n))
    means = {p: sum(v) / len(v) for p, v in density_by_p.items()}
    assert max(means, key=means.get) == 0.15


# ---------------------------------------------------------------------------
# the error contract under fuzzing
# ---------------------------------------------------------------------------

# Valid values stay tiny where they set the amount of work (n, trials, K,
# gamma_steps, workers), so that no draw runs long; the junk ranges over
# text, signs, fractions, non-finite and out-of-range numbers, each of which
# the library must refuse where it would size a run.
JUNK = ["", "abc", "-1", "0", "1.5", "nan", "inf", "-inf", "1e999", "1e-300", "0x10",
        "\u0661", "9" * 30]
PATHS = ["{tmp}/out.txt", "{tmp}", "{tmp}/missing/out.txt", "{tmp}/graph.txt",
         "{tmp}/config.json"]
FLAG_VALUES = {
    "--n": ["1", "2", "5"], "--d": ["0.5", "1.5", "3"], "--trials": ["1", "2"],
    "--workers": ["1"], "--p": ["0", "0.3", "1"], "--gamma": ["0.5", "0.3"],
    "--epsilon": ["0.2", "0.6"], "--eta": ["0", "0.2"], "--K": ["2", "3"],
    "--gamma-steps": ["1", "2"], "--c": ["0.5", "2"], "--x": ["0", "1.5"],
    "--y": ["0", "1.5"], "--seed": ["0", "7", str(2**64 - 1), str(2**64)],
    "--stream": ["0", "5"], "--limit": ["1", "8"], "--k-l": ["0", "1", "6"], "--k-r": ["0", "2", "6"],
    "--out": PATHS, "--csv": PATHS, "--record": PATHS, "--graph": PATHS, "--config": PATHS,
    "--grid": ["n=2,3", "p=0:1:0.5", "d=1.5", "K=2,3", "gamma_steps=1:2:1", "eta=0,nan",
               "n=2.5", "d=abc", "bogus=1", "p", "p=1:2", "p=0:1:0", "p=0:inf:1",
               "p=0:1:1e-300", "epsilon=0.1:0.2:nan", "n=1e999", "k_l=0,1", "p=0.1,,0.2",
               "p=0.1,"],
}


def flag_of(name):
    return "--" + name.replace("_", "-")


# every flag of each command, from the parameter table; a sweep is fuzzed with
# the flags of all trial commands, so that it meets flags its command lacks
COMMAND_FLAGS = {command: ["--config"] + [flag_of(p.name) for p in command_params(command)]
                 for command in PARAMS}
COMMAND_FLAGS["sweep"] = ["--grid"] + sorted({f for command in TRIAL_COMMANDS
                                              for f in COMMAND_FLAGS[command]})
# A valid run of each subcommand; the strategies add or override from here, so
# that junk meets code past the first check.
VALID_FLAGS = {
    "sample": ["--n", "3", "--d", "1.5", "--out", "{tmp}/out.txt"],
    "exact": ["--graph", "{tmp}/graph.txt"],
    "local": ["--n", "3", "--d", "1.5", "--p", "0.3", "--trials", "1"],
    "lowdeg": ["--n", "3", "--d", "1.5", "--epsilon", "0.5", "--trials", "1"],
    "ogp": ["--n", "3", "--d", "1.5", "--epsilon", "0.5", "--trials", "1"],
    "phase": ["--x", "1", "--y", "1"],
    "thresholds": ["--gamma", "0.5"],
    "exponent": ["--c", "2", "--d", "3"],
}
VALID_FLAGS["sweep"] = ["local", "--grid", "p=0.1,0.2"] + VALID_FLAGS["local"]
GOOD_GRAPH = b"3 2\n0 1\n2 0\n"


@st.composite
def flag_argvs(draw):
    """Real subcommands and flags, with values valid or junk, some flags
    repeated, unknown or missing their value."""
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS) + ["bogus"]))
    argv = [command] + VALID_FLAGS.get(command, [])
    if draw(st.integers(0, 3)) == 0:
        argv = argv[:draw(st.integers(0, len(argv)))]
    flags = COMMAND_FLAGS.get(command, ["--n", "--seed"])
    for flag in draw(st.lists(st.sampled_from(flags) | st.just("--bogus"), max_size=3)):
        argv.append(flag)
        argv.append(draw(st.sampled_from(FLAG_VALUES.get(flag, ["1"])) | st.sampled_from(JUNK)))
    return argv, {}


JSON_JUNK = [None, True, False, "abc", "1", "", [], {}, [1], {"a": 1}, -1, 0, 1.5, 1e308,
             10**30, float("nan"), float("inf"), float("-inf"), 1e-300, "a\0b"]
CONFIG_VALUES = {
    "n": [1, 3, 5.0], "d": [0.5, 1.5, 2], "trials": [1, 2], "p": [0, 0.3], "gamma": [0.5],
    "epsilon": [0.2, 0.6], "eta": [0, 0.1], "K": [2, 3], "gamma_steps": [1, 2], "c": [0.5],
    "k_l": [0, 1, 6], "k_r": [0, 2, 6], "x": [0, 1.5], "y": [1.5], "seed": [0, 3, 2**64],
    "stream": [0, 2], "limit": [2, 8], "workers": [1], "csv": PATHS, "record": PATHS,
    "out": PATHS, "graph": PATHS, "bogus": [1],
}
# every key of every command, from the parameter table, and one no command takes
CONFIG_KEYS = sorted({p.name for command in PARAMS for p in command_params(command)}) + ["bogus"]


def config_of(command, argv):
    """The --config body of a run given as flags, typed by the table."""
    params = {flag_of(p.name): p for p in command_params(command)}
    return {params[f].name: params[f].kind(v) for f, v in zip(argv[::2], argv[1::2])}


VALID_CONFIGS = {command: config_of(command, VALID_FLAGS[command]) for command in PARAMS}


def test_every_parameter_has_fuzz_pools():
    for command in PARAMS:
        for param in command_params(command):
            assert flag_of(param.name) in FLAG_VALUES, f"no FLAG_VALUES pool for {param.name}"
            assert param.name in CONFIG_VALUES, f"no CONFIG_VALUES pool for {param.name}"
    assert set(VALID_FLAGS) == set(PARAMS) | {"sweep"}


def valid_config(argv: list[str]) -> bytes:
    """A valid --config body for the command argv runs (a sweep runs its
    trial command). Every command refuses keys it does not take, so one body
    shared by all commands would end every run in that error."""
    if argv[:1] == ["sweep"]:
        argv = argv[1:]
    return json.dumps(VALID_CONFIGS.get(argv[0] if argv else "", {})).encode()


@st.composite
def config_argvs(draw):
    """A subcommand whose --config file holds bytes that are not JSON, JSON
    that is not an object, or an object with wrongly typed values."""
    command = draw(st.sampled_from(sorted(PARAMS)))
    kind = draw(st.sampled_from(["bytes", "json", "object", "object", "object"]))
    if kind == "bytes":
        body = draw(st.binary(max_size=40))
    elif kind == "json":
        body = json.dumps(draw(st.sampled_from(JSON_JUNK))).encode()
    else:
        payload = dict(VALID_CONFIGS[command])
        for key in draw(st.lists(st.sampled_from(CONFIG_KEYS), max_size=3)):
            payload[key] = draw(st.sampled_from(CONFIG_VALUES[key]) | st.sampled_from(JSON_JUNK))
        body = json.dumps(payload).encode()
    argv = [command, "--config", "{tmp}/fuzz.json"]
    if command in TRIAL_COMMANDS:
        argv += ["--workers", "1"]
    return argv, {"fuzz.json": body}


GRAPH_TOKENS = ["0", "1", "2", "3", "5", "00", "40", "9" * 20, "-1", "x", "1.0", "\u0661"]


@st.composite
def graph_argvs(draw):
    """`bipbis exact --graph` on raw bytes, or on text lines of tokens that
    are mostly near the format."""
    if draw(st.integers(0, 3)) == 0:
        body = draw(st.binary(max_size=60))
    else:
        n = draw(st.integers(0, 6))
        vertex = st.sampled_from([str(v) for v in range(n)] * 4 + [str(n)])
        lines = draw(st.lists(st.lists(vertex, min_size=2, max_size=2), max_size=8))
        lines.insert(0, [str(n), str(len(lines))])
        for _ in range(draw(st.integers(0, 2))):
            k = draw(st.integers(0, len(lines) - 1))
            lines[k] = draw(st.lists(st.sampled_from(GRAPH_TOKENS), max_size=3))
        sep = draw(st.sampled_from([" ", "\t"]))
        brk = draw(st.sampled_from(["\n", "\r\n", "\r"]))
        body = brk.join(sep.join(line) for line in lines).encode("utf-8")
    return ["exact", "--graph", "{tmp}/fuzz.txt", "--gamma", "0.5"], {"fuzz.txt": body}


@given(st.one_of(flag_argvs(), config_argvs(), graph_argvs()))
@settings(max_examples=400, derandomize=True, deadline=None, database=None)
def test_every_input_ends_in_success_or_one_json_error_line(tmp_path_factory, case):
    argv, files = case
    tmp = tmp_path_factory.mktemp("fuzz")
    (tmp / "graph.txt").write_bytes(GOOD_GRAPH)
    files = {"config.json": valid_config(argv), **files}
    for name, body in files.items():
        (tmp / name).write_bytes(body.replace(b"{tmp}", str(tmp).encode()))
    argv = [arg.replace("{tmp}", str(tmp)) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(tmp)  # junk values of path flags name files relative to here
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                mock.patch.dict(os.environ, {"BIPBIS_WORKERS": "1"}), warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning would be a second stderr line
            code = main(argv)
    finally:
        os.chdir(cwd)
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert code == 1
        lines = err.getvalue().splitlines()
        assert len(lines) == 1, lines
        payload = json.loads(lines[0])
        assert set(payload) == {"error", "message"}


# ---------------------------------------------------------------------------
# experiment scripts
# ---------------------------------------------------------------------------

import subprocess
import sys

SCRIPTS = Path(__file__).parent.parent / "scripts"


def test_threshold_sweep_script_runs():
    out = subprocess.run(
        [sys.executable, str(SCRIPTS / "local_threshold_sweep.py"),
         "--n", "2000", "--trials", "2"],
        capture_output=True, text=True, check=True)
    assert "peak at p" in out.stdout


def test_small_scale_phase_script_runs():
    out = subprocess.run(
        [sys.executable, str(SCRIPTS / "small_scale_phase.py"),
         "--trials", "3", "--n", "10", "--d", "8"],
        capture_output=True, text=True, check=True)
    assert "phase x" in out.stdout
