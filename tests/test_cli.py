"""Command-line surface: outputs, trace stream, and exit codes."""
import json

import pytest

import pdla.cli as cli
from pdla.errors import (MalformedDocument, NoFeasibleSolution, NotConverged,
                         PhaseRestartLimit)


def _lp_doc(boxed=False):
    return {"n": 2, "c": [1.0, 2.0], "boxed": boxed,
            "rows": [[[0, 1.0], [1, 1.0]]]}


SOLVER_KEYS = {"x", "objective", "alpha_history", "violations", "iterations",
               "phases", "dual"}


def _write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def test_solve_lp_outputs_json(tmp_path, capsys):
    inst = _write(tmp_path, "inst.json", _lp_doc())
    assert cli.main(["solve-lp", "--instance", inst]) == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out) == SOLVER_KEYS
    assert set(out["dual"]) == {"scale", "objective"}
    assert out["x"][0] + out["x"][1] >= 1.0 - 1e-7
    assert out["phases"] == len(out["alpha_history"])


def test_solve_lp_trace_goes_to_stderr(tmp_path, capsys):
    inst = _write(tmp_path, "inst.json", _lp_doc())
    adv = _write(tmp_path, "adv.json", {"lambda": 0.5, "x": [1.0, 0.0]})
    code = cli.main(["solve-lp", "--instance", inst, "--advice", adv,
                     "--lambda", "0.0", "--trace"])
    assert code == 0
    captured = capsys.readouterr()
    events = [json.loads(line) for line in captured.err.splitlines()]
    assert events and all("event" in e and "delta" in e for e in events)
    json.loads(captured.out)  # stdout stays pure JSON


def test_lambda_flag_requires_advice(tmp_path, capsys):
    inst = _write(tmp_path, "inst.json", _lp_doc())
    assert cli.main(["solve-lp", "--instance", inst, "--lambda", "0.5"]) == 4


def test_missing_file_is_bad_input(capsys):
    assert cli.main(["solve-lp", "--instance", "/nonexistent.json"]) == 4


def test_malformed_json_is_bad_input(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    assert cli.main(["solve-lp", "--instance", str(p)]) == 4


def test_empty_row_is_bad_input(tmp_path, capsys):
    doc = _lp_doc()
    doc["rows"] = [[]]
    inst = _write(tmp_path, "inst.json", doc)
    assert cli.main(["solve-lp", "--instance", inst]) == 4


def test_unknown_flag_maps_to_bad_input(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve-lp", "--instance", "x", "--nonsense"])
    assert exc.value.code == 4


def test_boxed_infeasible_exits_2(tmp_path, capsys):
    doc = {"n": 2, "c": [1.0, 1.0], "boxed": True,
           "rows": [[[0, 0.3], [1, 0.3]]]}
    inst = _write(tmp_path, "inst.json", doc)
    assert cli.main(["solve-lp", "--instance", inst]) == 2
    assert "infeasible" in capsys.readouterr().err


def test_error_mapping(monkeypatch, tmp_path, capsys):
    cases = [(NoFeasibleSolution("nope"), 2),
             (NotConverged("stuck"), 3),
             (PhaseRestartLimit("spin"), 3),
             (MalformedDocument("junk"), 4)]
    for err, code in cases:
        def boom(args, _e=err):
            raise _e
        monkeypatch.setattr(cli, "_cmd_offline", boom)
        parser = cli.build_parser()
        args = parser.parse_args(["offline", "--instance", "x"])
        assert args.func is boom
        assert cli.main(["offline", "--instance", "x"]) == code


def test_solve_sdp_diagonal(tmp_path, capsys):
    doc = {"n": 2, "d": 2, "c": [1.0, 1.0], "boxed": False,
           "A": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]],
           "B": [[[0.5, 0.0], [0.0, 0.5]]]}
    inst = _write(tmp_path, "sdp.json", doc)
    assert cli.main(["solve-sdp", "--instance", inst]) == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out) == SOLVER_KEYS
    assert set(out["dual"]) == {"scale", "objective"}
    assert out["x"][0] >= 0.5 - 1e-6 and out["x"][1] >= 0.5 - 1e-6


def test_set_cover_command(tmp_path, capsys):
    g = tmp_path / "graph.txt"
    g.write_text("# toy\n1 2\n2 3\n")
    assert cli.main(["set-cover", "--graph", str(g)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out) == SOLVER_KEYS
    assert all(0 <= v <= 1 + 1e-9 for v in out["x"])


def test_gst_command(tmp_path, capsys):
    doc = {"nodes": 2, "root": 0, "edges": [[0, 1, 5.0]], "groups": [[1]]}
    t = _write(tmp_path, "tree.json", doc)
    assert cli.main(["gst", "--tree", t]) == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out) == SOLVER_KEYS - {"dual"}
    assert out["objective"] == pytest.approx(5.0)


def test_experiment_command_writes_csv(tmp_path, capsys):
    cfgp = _write(tmp_path, "cfg.json",
                  {"n": 10, "trials": 2, "lambdas": [0.0, 1.0]})
    out = tmp_path / "rows.csv"
    code = cli.main(["experiment", "lambda-sweep", "--config", cfgp,
                     "--out", str(out)])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["rows"] == 4
    header = out.read_text().splitlines()[0]
    assert header.startswith("lambda,trial,step,")


def test_offline_command(tmp_path, capsys):
    inst = _write(tmp_path, "inst.json", _lp_doc())
    assert cli.main(["offline", "--instance", inst, "--eps", "1e-6"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["objective"] == pytest.approx(1.0, rel=1e-5)
    assert doc["gap"] <= 1e-5
