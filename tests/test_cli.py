"""Command-line surface: outputs, trace stream, and exit codes."""
import json

import pytest

import pdla.cli as cli
from pdla import covering_sdp
from pdla.errors import (MalformedDocument, NoFeasibleSolution, NotConverged,
                         PhaseRestartLimit)
from pdla.instances import parse_sdp_instance, validate_advice


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


@pytest.mark.parametrize("command", ["solve-lp", "offline"])
@pytest.mark.parametrize("row", [5, None], ids=["number", "null"])
def test_a_row_that_is_no_list_is_bad_input(tmp_path, capsys, command, row):
    # Each once escaped main as a TypeError, with exit 1.
    doc = {"n": 2, "c": [1.0, 1.0], "rows": [row]}
    inst = _write(tmp_path, "inst.json", doc)
    assert cli.main([command, "--instance", inst]) == 4
    assert "bad input:" in capsys.readouterr().err


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


def test_solve_sdp_prints_the_sdp_certificate(tmp_path, capsys):
    # The CLI reads one certificate path for LP and SDP states; its dual
    # is the SDP certificate's scale and objective, bit for bit.
    doc = {"n": 2, "d": 2, "c": [1.0, 3.0], "boxed": True,
           "A": [[[1.0, 0.0], [0.0, 0.5]], [[0.5, 0.0], [0.0, 1.0]]],
           "B": [[[0.3, 0.0], [0.0, 0.2]], [[0.6, 0.1], [0.1, 0.7]]]}
    inst = _write(tmp_path, "sdp.json", doc)
    adv = _write(tmp_path, "adv.json", {"lambda": 0.2, "x": [0.5, 0.25]})
    assert cli.main(["solve-sdp", "--instance", inst, "--advice", adv]) == 0
    out = json.loads(capsys.readouterr().out)
    st, _ = covering_sdp.run_sdp(
        parse_sdp_instance(json.dumps(doc)),
        advice=validate_advice([0.5, 0.25], 0.2, 2, True))
    cert = covering_sdp.dual_certificate(st)
    assert cert.scale > 0.0
    assert out["dual"] == {"scale": cert.scale, "objective": cert.objective}


@pytest.mark.parametrize("command, doc, unboxed", [
    ("solve-lp", {"n": 2, "c": [1.0, 100.0],
                  "rows": [[[0, 0.5], [1, 0.5]]]}, None),
    ("solve-sdp", {"n": 2, "d": 2, "c": [1.0, 0.1],
                   "A": [[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 0.0]]],
                   "B": [[[1.5, 0.0], [0.0, 0.5]]]}, [1.0, 4.0]),
], ids=["lp", "sdp"])
def test_boxed_flag_caps_the_solution(tmp_path, capsys, command, doc,
                                      unboxed):
    inst = _write(tmp_path, "inst.json", doc)
    assert cli.main([command, "--instance", inst]) == 0
    x = json.loads(capsys.readouterr().out)["x"]
    if unboxed is None:   # the cheap column alone covers the row
        assert x[0] == pytest.approx(2.45, abs=0.01) and x[0] > 2.0
    else:
        assert x == pytest.approx(unboxed)
    assert cli.main([command, "--instance", inst, "--boxed"]) == 0
    assert json.loads(capsys.readouterr().out)["x"] == pytest.approx([1, 1])


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


def test_gst_groups_override_that_is_not_a_list_of_lists_is_bad_input(
        tmp_path, capsys):
    doc = {"nodes": 2, "root": 0, "edges": [[0, 1, 5.0]], "groups": [[1]]}
    t = _write(tmp_path, "tree.json", doc)
    g = _write(tmp_path, "groups.json", [1, 2])
    assert cli.main(["gst", "--tree", t, "--groups", g]) == 4
    assert "bad input" in capsys.readouterr().err


@pytest.mark.parametrize("groups_in_doc", [False, True])
def test_gst_group_that_is_a_string_is_bad_input(tmp_path, capsys,
                                                 groups_in_doc):
    # A string group would otherwise be read digit by digit: "12" as [1, 2].
    doc = {"nodes": 3, "root": 0, "edges": [[0, 1, 1.0], [1, 2, 1.0]],
           "groups": ["12"] if groups_in_doc else [[1]]}
    argv = ["gst", "--tree", _write(tmp_path, "tree.json", doc)]
    if not groups_in_doc:
        argv += ["--groups", _write(tmp_path, "groups.json", ["12"])]
    assert cli.main(argv) == 4
    assert "bad input" in capsys.readouterr().err


@pytest.mark.parametrize("cfg", [{"n": "abc"}, {"lambdas": 0.5}])
def test_experiment_config_of_the_wrong_type_is_bad_input(tmp_path, capsys,
                                                          cfg):
    cfgp = _write(tmp_path, "cfg.json", cfg)
    assert cli.main(["experiment", "corruption", "--config", cfgp]) == 4
    assert "bad input" in capsys.readouterr().err


@pytest.mark.parametrize("kind,cfg", [
    ("corruption", {"n": 20.5}), ("corruption", {"trials": 1.5}),
    ("corruption", {"seed": 1.5}), ("corruption", {"seed": -1}),
    ("corruption", {"cost_scale": "10"}), ("corruption", {"eps_offline": "x"}),
    ("corruption", {"density": True}), ("corruption", {"lambdas": [True]}),
    ("corruption", {"corruption_rates": [False]}),
    ("corruption", {"full": "yes"}), ("corruption", {"trials": True}),
    ("corruption", {"out": 5}), ("drift", {"drift_steps": 2.5}),
    ("graphs", {"graph_paths": [0.5, 1.5]})])
def test_every_experiment_config_field_is_type_checked(tmp_path, capsys,
                                                       kind, cfg):
    # Each of these once ran (a bool read as a number, a string as true)
    # or died later with a traceback and exit 1.
    cfgp = _write(tmp_path, "cfg.json", cfg)
    assert cli.main(["experiment", kind, "--config", cfgp]) == 4
    assert "bad input" in capsys.readouterr().err


@pytest.mark.parametrize("change", [
    {"nodes": 3.9}, {"root": 0.5}, {"root": True},
    {"edges": [[0, 1.7, 1.0], [1, 2, 1.0]]}, {"groups": [[2.9]]},
    {"groups": [[True]]}, {"nodes": float("inf")},
], ids=["nodes", "root", "bool-root", "edge", "group", "bool-group",
        "inf-nodes"])
def test_gst_non_integral_vertex_is_bad_input(tmp_path, capsys, change):
    doc = {"nodes": 3, "root": 0, "edges": [[0, 1, 1.0], [1, 2, 1.0]],
           "groups": [[2]], **change}
    assert cli.main(["gst", "--tree", _write(tmp_path, "tree.json", doc)]) \
        == 4
    assert "bad input" in capsys.readouterr().err


_SDP_DOC = {"n": 1, "d": 1, "c": [1.0], "A": [[1.0]], "B": [[1.0]]}
_TREE_DOC = {"nodes": 2, "root": 0, "edges": [[0, 1, 5.0]], "groups": [[1]]}


@pytest.mark.parametrize("command, flag, doc, advice", [
    ("solve-lp", "--instance", {**_lp_doc(), "c": "ab"}, None),
    ("solve-lp", "--instance", {**_lp_doc(), "c": [True, 2.0]}, None),
    ("solve-sdp", "--instance", {**_SDP_DOC, "A": ["ab"]}, None),
    ("solve-sdp", "--instance", {**_SDP_DOC, "c": "ab"}, None),
    ("solve-sdp", "--instance", {**_SDP_DOC, "A": 5}, None),
    ("solve-sdp", "--instance", {**_SDP_DOC, "B": 5}, None),
    ("solve-lp", "--instance", _lp_doc(), {"lambda": 0.5, "x": "ab"}),
    ("solve-lp", "--instance", _lp_doc(), {"lambda": 0.5, "x": [1.0, True]}),
    ("solve-lp", "--instance", _lp_doc(), {"lambda": None, "x": [1.0, 0.0]}),
    ("solve-lp", "--instance", _lp_doc(), {"lambda": True, "x": [1.0, 0.0]}),
    ("solve-lp", "--instance", _lp_doc(), {"lambda": [0.5], "x": [1.0, 0.0]}),
    ("gst", "--tree", {**_TREE_DOC, "edges": [[0, 1, True]]}, None),
], ids=["lp-c-string", "lp-c-bool", "sdp-A-string", "sdp-c-string",
        "sdp-A-number", "sdp-B-number", "advice-x-string", "advice-x-bool",
        "advice-lambda-null", "advice-lambda-bool", "advice-lambda-list",
        "tree-cost-bool"])
def test_a_field_of_the_wrong_type_is_bad_input(tmp_path, capsys, command,
                                                flag, doc, advice):
    # Each once escaped main as a ValueError or TypeError, or read a
    # boolean as 1.0.
    argv = [command, flag, _write(tmp_path, "doc.json", doc)]
    if advice is not None:
        argv += ["--advice", _write(tmp_path, "adv.json", advice)]
    assert cli.main(argv) == 4
    assert "bad input" in capsys.readouterr().err


def test_experiment_config_of_another_kind_is_bad_input(tmp_path, capsys):
    # It once ran the subcommand's grid and ignored the config's kind.
    cfgp = _write(tmp_path, "cfg.json", {"kind": "LambdaSweep", "n": 10})
    assert cli.main(["experiment", "corruption", "--config", cfgp]) == 4
    assert "does not match" in capsys.readouterr().err


@pytest.mark.parametrize("cfg", [
    {"kind": "LambdaSweep", "n": 10, "trials": 1, "lambdas": [0.0]},
    {"n": 10, "trials": 1, "lambdas": [0.0]},
], ids=["matching-kind", "no-kind"])
def test_experiment_config_kind_may_match_or_be_absent(tmp_path, capsys, cfg):
    cfgp = _write(tmp_path, "cfg.json", cfg)
    out = str(tmp_path / "rows.csv")
    assert cli.main(["experiment", "lambda-sweep", "--config", cfgp,
                     "--out", out]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["kind"] == "LambdaSweep" and summary["rows"] == 1
