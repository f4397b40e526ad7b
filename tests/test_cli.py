import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from stochbellman import bellman, cli, hedging, treeio
from stochbellman.cli import main
from stochbellman.convexfn import Polyhedral, Quadratic, Sampled1D
from stochbellman.generators import random_tree, tracking_stage_problem
from stochbellman.tree import validate_tree

from helpers import binary_tree, random_stage_cost, same_fn


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_tracking(tmp_path):
    sp = tracking_stage_problem()
    path = tmp_path / "tracking.json"
    overrides = {nid: {"cost": treeio.fn_to_record(fn)}
                 for nid, fn in sp.node_costs.items()}
    treeio.save_tree(sp.tree, path, extra={"dims": sp.dims},
                     data_overrides=overrides)
    return path


def test_treeio_roundtrip(tmp_path):
    tree = binary_tree((0.123456789012345, 0.876543210987655))
    path = tmp_path / "t.json"
    treeio.save_tree(tree, path, data_overrides={"a": {"R": 1.5}})
    raw = path.read_text()
    assert "0.123456789012345" in raw  # >= 15 significant digits survive
    tree2, doc = treeio.load_tree(path)
    assert tree2.nodes["a"].data["R"] == 1.5
    assert tree2.prob("a") == pytest.approx(0.123456789012345, abs=1e-16)


def test_save_tree_writes_one_node_record_a_line(tmp_path):
    # ids, null parents, 17-digit probabilities, nested data and extra
    # top-level keys load back as they were given
    tree = binary_tree((0.12345678901234568, 0.8765432109876543))
    data = {"r": {"tag": "root", "none": None},
            "a": {"R": 1.5, "D": {"G": [[-1.0, 2.5e-17]], "g": [-2.0]}},
            "b": {"cost": treeio.fn_to_record(Quadratic([[2.0]], [0.1], 0.3, [[1.0]], [0.7]))}}
    extra = {"dims": [1, 1], "x0": [0.1, 1e-300], "note": {"k": [1, None, "s"]}}
    path = tmp_path / "t.json"
    treeio.save_tree(tree, path, extra=extra, data_overrides=data)
    lines = path.read_text().splitlines()
    assert len(lines) == len(tree.nodes) + 2
    assert [json.loads(line.rstrip(","))["id"] for line in lines[1:-1]] == list(tree.nodes)
    tree2, doc = treeio.load_tree(path)
    assert doc == json.loads(json.dumps(treeio.dump_tree(tree, extra, data)))
    assert doc["nodes"][0]["parent"] is None
    for nid, node in tree.nodes.items():
        back = tree2.nodes[nid]
        assert (back.parent, back.prob, back.stage) == (node.parent, node.prob, node.stage)
        assert back.data == data[nid]


def _old_layout(path):
    """A tree file as the earlier writer laid it out: json.dump with
    indent=1, the node array after `schema` and `horizon`."""
    doc = json.loads(path.read_text())
    first = {key: doc.pop(key) for key in ("schema", "horizon", "nodes")}
    return json.dumps({**first, **doc}, indent=1) + "\n"


def test_every_command_reads_both_tree_file_layouts_alike(tmp_path, capsys):
    lp = tmp_path / "lp.json"
    treeio.save_tree(binary_tree(), lp, extra={"d": 1}, data_overrides={
        "r": {"T": [[0.0]], "W": [[1.0]], "b": [0.0], "c": [1.0]},
        "a": {"T": [[0.0], [1.0]], "W": [[1.0], [0.0]], "b": [3.0, 0.0], "c": [0.5]},
        "b": {"T": [[0.0], [1.0]], "W": [[1.0], [0.0]], "b": [1.0, 0.0], "c": [0.5]}})
    inputs = {"lp": lp}
    for kind in ("lagrange", "lq", "market", "reward"):
        inputs[kind] = tmp_path / f"{kind}.json"
        run(capsys, "gen", "--kind", kind, "--seed", "3", "--out", str(inputs[kind]))
    for kind, command in (("lagrange", "solve"), ("lagrange", "oracle"), ("lagrange", "check"),
                          ("reward", "stop"), ("lq", "control"), ("lp", "lagrange"),
                          ("market", "hedge")):
        new = inputs[kind]
        old = tmp_path / f"old-{kind}.json"
        old.write_text(_old_layout(new))
        assert len(new.read_bytes()) < len(old.read_bytes())
        outs = [run(capsys, command, "--input", str(p), "--format", "structured")
                for p in (new, old)]
        assert outs[0][0] == 0 and outs[0] == outs[1], (command, outs)


@pytest.mark.parametrize("command, message", [
    ("hedge", "node 'n0' has no price entry `s`"),
    ("stop", "reward `R` at 'n0' is not a number"),
])
def test_wrong_kind_of_tree_file_exits_2(tmp_path, capsys, command, message):
    # the lq file has no prices, and its rewards `R` are matrices
    path = tmp_path / "lq.json"
    run(capsys, "gen", "--kind", "lq", "--seed", "3", "--out", str(path))
    code, out, err = run(capsys, command, "--input", str(path))
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_fn_record_roundtrip():
    fns = [Quadratic([[2.0, 0.0], [0.0, 1.0]], [1.0, -1.0], 0.5,
                     [[1.0, 1.0]], [2.0]),
           Polyhedral([[1.0], [-1.0]], [0.0, 0.5], [[1.0]], [3.0]),
           Sampled1D([0.0, 1.0, 2.0], [0.0, 1.0, 4.0])]
    for fn in fns:
        rec = treeio.fn_to_record(fn)
        back = treeio.fn_from_record(json.loads(json.dumps(rec)))
        probe = np.zeros(fn.dim) + 0.5
        assert back.eval(probe) == pytest.approx(fn.eval(probe), abs=1e-15)


@pytest.mark.parametrize("kind", ["plain", "rows", "split", "empty", "poly"])
def test_problem_load_keeps_the_bits_of_the_record_constructor(tmp_path, kind):
    # a stage's quadratic cost records are built by one stacked constructor
    # call where their arrays stack; every cost keeps the bits of
    # fn_from_record, with row counts that differ and kinds that mix
    rng = np.random.default_rng(len(kind))
    tree, dims = random_tree(rng, 3, 3), [2, 1, 2, 1]
    recs = {nid: treeio.fn_to_record(random_stage_cost(rng, dims[t - 1] if t else 0, dims[t],
                                                       kind))
            for t in range(4) for nid in tree.stage_nodes[t]}
    path = tmp_path / "p.json"
    treeio.save_tree(tree, path, extra={"dims": dims},
                     data_overrides={nid: {"cost": rec} for nid, rec in recs.items()})
    _, problem = cli._load_problem(path)
    assert list(problem.node_costs) == list(tree.nodes)
    for nid, rec in recs.items():
        want = treeio.fn_from_record(json.loads(json.dumps(rec)))
        assert same_fn(problem.node_costs[nid], want)


def test_problem_load_names_the_node_of_a_form_that_is_not_psd(tmp_path, capsys):
    path = write_tracking(tmp_path)
    doc = json.loads(path.read_text())
    rec = next(node for node in doc["nodes"] if node["id"] == "b")["data"]["cost"]
    rec["Q"] = (-np.asarray(rec["Q"])).tolist()
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "solve", "--input", str(path))
    assert code == 2 and out == "" and "quadratic form not PSD at node 'b'" in err


def test_solve_reports_value_and_policy(tmp_path, capsys):
    path = write_tracking(tmp_path)
    code, out, err = run(capsys, "solve", "--input", str(path),
                         "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["value"] == pytest.approx(1.0, abs=1e-10)
    assert doc["policy"]["r"] == [pytest.approx(1.0, abs=1e-8)]
    assert doc["residual_max"] <= 1e-10
    assert len(doc["per_stage_values"]) == 2


def test_solve_sweeps_the_problem_once(tmp_path, capsys, monkeypatch):
    # one sweep of the problem, whose solution also serves the feasibility
    # probe of the assumption report, and one of its recession problem
    calls = []

    def counted(*args, _orig=bellman.backward_sweep, **kwargs):
        calls.append(args)
        return _orig(*args, **kwargs)

    monkeypatch.setattr(bellman, "backward_sweep", counted)
    code, out, err = run(capsys, "solve", "--input", str(write_tracking(tmp_path)),
                         "--format", "structured")
    assert code == 0
    assert json.loads(out)["assumption_report"]["feasibility"] == "PASS"
    assert len(calls) == 2


def test_oracle_reports_small_delta(tmp_path, capsys):
    path = write_tracking(tmp_path)
    code, out, err = run(capsys, "oracle", "--input", str(path))
    assert code == 0
    fields = dict(line.split(": ", 1) for line in out.strip().splitlines())
    assert abs(float(fields["delta"])) <= 1e-8


def test_structured_output_deterministic(tmp_path, capsys):
    path = write_tracking(tmp_path)
    _, out1, _ = run(capsys, "solve", "--input", str(path), "--format", "structured")
    _, out2, _ = run(capsys, "solve", "--input", str(path), "--format", "structured")
    assert out1 == out2


def test_csv_policy_columns(tmp_path, capsys):
    path = write_tracking(tmp_path)
    code, out, _ = run(capsys, "solve", "--input", str(path), "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "node_id,stage,x_0,residual"
    assert len(lines) == 4  # header + 3 nodes


def test_malformed_probability_exits_2(tmp_path, capsys):
    bad = {"schema": 1, "dims": [1, 0], "nodes": [
        {"id": "r", "parent": None, "prob": 1.0, "stage": 0, "data": {}},
        {"id": "a", "parent": "r", "prob": 0.5, "stage": 1, "data": {}},
        {"id": "b", "parent": "r", "prob": 0.6, "stage": 1, "data": {}},
    ]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, out, err = run(capsys, "solve", "--input", str(path))
    assert code == 2
    assert "r" in err  # offending parent node named


@pytest.mark.parametrize("node, key, value, message", [
    (3, "B", None, "node 'n3' has no `B` entry"),
    (0, "R", None, "node 'n0' has no `R` entry"),
    (4, "Q", np.eye(3).tolist(), "Q at 'n4' is not 2x2"),
    (5, "W", [0.0, 1.0, 2.0], "W at 'n5' is not length 2"),
    (2, "A", [[1.0, 0.0], [0.0]], "A at 'n2' is not a numeric array"),
])
def test_control_malformed_node_exits_2(tmp_path, capsys, node, key, value, message):
    path = tmp_path / "lq.json"
    run(capsys, "gen", "--kind", "lq", "--seed", "5", "--out", str(path))
    doc = json.loads(path.read_text())
    data = doc["nodes"][node]["data"]
    if value is None:
        del data[key]
    else:
        data[key] = value
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "control", "--input", str(path))
    assert code == 2
    assert message in err


def _node(doc, nid):
    return next(rec for rec in doc["nodes"] if rec["id"] == nid)


def _set(target, key, value):
    target[key] = value


# (input file, command, edit of the file's document, extra arguments, the
# node or key the one error line names); `{grid}` is a grid loss file that
# has knots and no values
EXIT_2 = {
    "no dims": ("problem", "solve", lambda doc: doc.pop("dims"), [], "`dims`"),
    "dims not a list": ("problem", "check", lambda doc: _set(doc, "dims", 3), [], "`dims`"),
    "no cost": ("problem", "oracle", lambda doc: _node(doc, "a")["data"].pop("cost"), [],
                "node 'a' has no `cost`"),
    "no Q": ("problem", "solve", lambda doc: _node(doc, "b")["data"]["cost"].pop("Q"), [],
             "no `Q` at node 'b'"),
    "Q not numeric": ("problem", "solve", lambda doc: _set(
        _node(doc, "a")["data"]["cost"], "Q", [["x"]]), [], "`Q` of a quadratic record is not a "
        "numeric array at node 'a'"),
    "c not numeric": ("problem", "solve", lambda doc: _set(
        _node(doc, "b")["data"]["cost"], "c", "x"), [], "`c` of a quadratic record is not a "
        "numeric array at node 'b'"),
    "no pieces": ("problem", "check", lambda doc: _set(
        _node(doc, "a")["data"], "cost", {"kind": "polyhedral"}), [], "no `pieces` at node 'a'"),
    "no stage": ("problem", "solve", lambda doc: _node(doc, "b").pop("stage"), [],
                 "node 'b' has no numeric `stage`"),
    "prob not numeric": ("problem", "solve", lambda doc: _set(_node(doc, "a"), "prob", "half"),
                         [], "node 'a' has no numeric `prob`"),
    "nodes not a list": ("problem", "solve", lambda doc: _set(doc, "nodes", 5), [], "`nodes`"),
    "no R": ("reward", "stop", lambda doc: _node(doc, "n1")["data"].pop("R"), [],
             "node 'n1' has no reward entry `R`"),
    "x0 not numeric": ("lq", "control", lambda doc: _set(doc, "x0", "up"), [], "`x0`"),
    "x0 wrong shape": ("lq", "control", lambda doc: _set(doc, "x0", [0.5]), [], "`x0`"),
    "no LP entry": ("lp", "lagrange", lambda doc: _node(doc, "a")["data"].pop("W"), [],
                    "node 'a' is missing LP entries"),
    "d not an integer": ("lp", "lagrange", lambda doc: _set(doc, "d", "x"), [], "`d`"),
    "T not numeric": ("lp", "lagrange", lambda doc: _set(_node(doc, "b")["data"], "T", [["x"]]),
                      [], "T at 'b'"),
    "cone not numeric": ("lp", "lagrange", lambda doc: _set(_node(doc, "a")["data"], "C", "x"),
                         [], "cone C at 'a'"),
    "cone too wide": ("lp", "lagrange", lambda doc: _set(
        _node(doc, "b")["data"], "C", {"rows": [[1.0, 2.0]]}), [], "cone C at 'b'"),
    "cone generators not numeric": ("lp", "lagrange", lambda doc: _set(
        _node(doc, "r")["data"], "C", {"generators": [["x"]]}), [], "cone generators at 'r'"),
    "T taller than b": ("lp", "lagrange", lambda doc: _set(
        _node(doc, "a")["data"], "T", [[0.0], [1.0]]), [], "T at 'a' has shape (2, 1)"),
    "D without G": ("market", "hedge", lambda doc: _set(
        _node(doc, "n0")["data"], "D", {"g": [0.0]}), [], "`D` at 'n0' need `G` and `g`"),
    "D rows not numeric": ("market", "hedge", lambda doc: _set(
        _node(doc, "n0")["data"], "D", {"G": "x", "g": [0.0]}), [], "`G` at 'n0'"),
    "claim not numeric": ("market", "hedge", lambda doc: _set(
        _node(doc, "n3")["data"], "c", "x"), [], "`c` at 'n3'"),
    "unknown loss": ("market", "hedge", None, ["--loss", "cubic"], "'cubic'"),
    "grid without values": ("market", "hedge", None, ["--loss", "grid:{grid}"], "`values`"),
    "unknown gen kind": (None, "gen", None, ["--kind", "maze", "--out", "{grid}.out"], "'maze'"),
}

# domain rows without one right-hand side each: a cost record of the
# tracking problem's node, refused by solve, oracle and check alike
BAD_ROWS = {
    "C without d": ("a", {"kind": "polyhedral", "pieces": [[[1.0], 0.0]], "C": [[1.0]]}),
    "d one short": ("a", {"kind": "polyhedral", "pieces": [[[1.0], 0.0]],
                          "C": [[1.0], [-1.0]], "d": [1.0]}),
    "A without b": ("b", {"kind": "quadratic", "Q": [[2.0]], "q": [0.0], "A": [[1.0]]}),
    "b one short": ("b", {"kind": "quadratic", "Q": [[2.0]], "q": [0.0],
                          "A": [[1.0], [2.0]], "b": [1.0]}),
}
EXIT_2.update({f"{case}, {command}": (
    "problem", command, lambda doc, nid=nid, rec=rec: _set(_node(doc, nid)["data"], "cost", rec),
    [], f"block shapes disagree at node '{nid}'")
    for case, (nid, rec) in BAD_ROWS.items() for command in ("solve", "oracle", "check")})


@pytest.mark.parametrize("case", list(EXIT_2))
def test_malformed_input_exits_2_with_one_error_line(tmp_path, capsys, case):
    # each case exits 2 with nothing on stdout and one `error:` line on
    # stderr that names the node or the key, never a traceback
    base, command, edit, extra, names = EXIT_2[case]
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"knots": [0.0, 1.0]}))
    argv = [command] + [a.format(grid=grid) for a in extra]
    if base is not None:
        path = tmp_path / f"{base}.json"
        if base == "problem":
            write_tracking(tmp_path).rename(path)
        elif base == "lp":
            treeio.save_tree(binary_tree(), path, extra={"d": 1}, data_overrides={
                nid: {"T": [[0.0]], "W": [[1.0]], "b": [0.0], "c": [1.0]} for nid in "rab"})
        else:
            run(capsys, "gen", "--kind", base, "--seed", "3", "--out", str(path))
        if edit is not None:
            doc = json.loads(path.read_text())
            edit(doc)
            path.write_text(json.dumps(doc))
        argv += ["--input", str(path)]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and names in err, err


def test_unbounded_exits_3(tmp_path, capsys):
    tree = binary_tree()
    costs = {"r": Quadratic([[0.0]], [1.0]),
             "a": Quadratic(np.zeros((1, 1)), np.zeros(1)),
             "b": Quadratic(np.zeros((1, 1)), np.zeros(1))}
    overrides = {nid: {"cost": treeio.fn_to_record(fn)} for nid, fn in costs.items()}
    path = tmp_path / "unb.json"
    treeio.save_tree(tree, path, extra={"dims": [1, 0]}, data_overrides=overrides)
    code, out, err = run(capsys, "solve", "--input", str(path))
    assert code == 3
    assert "r" in err  # offending node reported


def test_gen_then_solve_all_kinds(tmp_path, capsys):
    for kind, command in (("lagrange", "oracle"), ("lq", "control"),
                          ("market", "hedge"), ("reward", "stop")):
        out_path = tmp_path / f"{kind}.json"
        code, _, _ = run(capsys, "gen", "--kind", kind, "--seed", "3",
                         "--out", str(out_path))
        assert code == 0
        code, out, err = run(capsys, command, "--input", str(out_path))
        assert code == 0, (kind, err)


def test_gen_deterministic(tmp_path, capsys):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "gen", "--kind", "lagrange", "--seed", "9", "--out", str(p1))
    run(capsys, "gen", "--kind", "lagrange", "--seed", "9", "--out", str(p2))
    assert p1.read_text() == p2.read_text()


def test_hedge_exp_flags(tmp_path, capsys):
    out_path = tmp_path / "m.json"
    run(capsys, "gen", "--kind", "market", "--seed", "5", "--out", str(out_path))
    code, out, _ = run(capsys, "hedge", "--input", str(out_path),
                       "--loss", "exp", "--rho", "2.0", "--wealth", "0.3",
                       "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    assert doc["na"] == "PASS"
    assert doc["value"] > 0


@pytest.mark.parametrize("loss", ["quad", "exp", "grid"])
def test_hedge_runs_the_no_arbitrage_lp_once(tmp_path, capsys, monkeypatch, loss):
    # the quad and grid losses report the verdict solve_alm computed
    calls = []

    def counted(*args, _orig=hedging.na_check, **kwargs):
        calls.append(args)
        return _orig(*args, **kwargs)

    for module in (cli, hedging):
        monkeypatch.setattr(module, "na_check", counted)
    path, grid = tmp_path / "m.json", tmp_path / "loss.json"
    run(capsys, "gen", "--kind", "market", "--seed", "5", "--out", str(path))
    grid.write_text(json.dumps({"knots": [-50.0, 0.0, 50.0], "values": [0.0, 0.0, 50.0]}))
    code, out, err = run(capsys, "hedge", "--input", str(path), "--format", "structured",
                         "--loss", f"grid:{grid}" if loss == "grid" else loss)
    assert code == 0, err
    assert json.loads(out)["na"] == "PASS" and len(calls) == 1


def test_hedge_exp_binding_floor(tmp_path, capsys):
    # a root floor of 2 shares rules out the start U = 0 and binds: the
    # unconstrained root position is about 1.27 at rho = 2
    path = tmp_path / "m.json"
    run(capsys, "gen", "--kind", "market", "--seed", "9", "--out", str(path))
    doc = json.loads(path.read_text())
    root = next(node for node in doc["nodes"] if node["parent"] is None)
    root["data"]["D"] = {"G": [[-1.0]], "g": [-2.0]}
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "hedge", "--input", str(path), "--loss", "exp",
                       "--rho", "2.0", "--format", "structured")
    assert code == 0
    control = json.loads(out)["controls"][root["id"]][0]
    assert control / root["data"]["s"][0] == pytest.approx(2.0, abs=1e-9)


def test_check_subcommand(tmp_path, capsys):
    path = write_tracking(tmp_path)
    code, out, _ = run(capsys, "check", "--input", str(path))
    assert code == 0
    assert "PASS" in out


def test_lagrange_subcommand(tmp_path, capsys):
    tree = binary_tree()
    data = {
        "r": {"T": [[0.0]], "W": [[1.0]], "b": [0.0], "c": [1.0]},
        "a": {"T": [[0.0], [1.0]], "W": [[1.0], [0.0]], "b": [3.0, 0.0], "c": [0.5]},
        "b": {"T": [[0.0], [1.0]], "W": [[1.0], [0.0]], "b": [1.0, 0.0], "c": [0.5]},
    }
    path = tmp_path / "lp.json"
    treeio.save_tree(tree, path, extra={"d": 1}, data_overrides=data)
    code, out, _ = run(capsys, "lagrange", "--input", str(path),
                       "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    assert "value" in doc and "policy" in doc


def test_mixed_backend_sum_exits_2(tmp_path, capsys):
    # the root sums a strictly convex quadratic child value with a
    # polyhedral one, which no single backend represents
    costs = {"r": Quadratic(np.zeros((1, 1)), np.zeros(1)),
             "a": Quadratic(2.0 * np.eye(2), np.zeros(2)),          # x^2 + u^2
             "b": Polyhedral([[1.0, 1.0], [-1.0, -1.0]], [0.0, 0.0])}  # |x + u|
    overrides = {nid: {"cost": treeio.fn_to_record(fn)} for nid, fn in costs.items()}
    path = tmp_path / "mixed.json"
    treeio.save_tree(binary_tree(), path, extra={"dims": [1, 1]}, data_overrides=overrides)
    for command in ("solve", "oracle", "check"):
        code, out, err = run(capsys, command, "--input", str(path))
        assert code == 2, (command, err)
        assert "(node r)" in err, (command, err)


@pytest.mark.parametrize("root, node", [("quadratic", "a"), ("sampled1d", "r")])
def test_knot_table_costs_exit_2_naming_the_node(tmp_path, capsys, root, node):
    # a knot table is no sweep backend: under a quadratic root its children
    # are refused, and so is an all-table file, at its first table node
    table = Sampled1D([0.0, 1.0, 2.0], [0.0, 1.0, 4.0])
    costs = {"r": Quadratic([[2.0]], [0.0]) if root == "quadratic" else table,
             "a": table, "b": table}
    overrides = {nid: {"cost": treeio.fn_to_record(fn)} for nid, fn in costs.items()}
    path = tmp_path / "tables.json"
    treeio.save_tree(binary_tree(), path, extra={"dims": [1, 0]}, data_overrides=overrides)
    for command in ("solve", "oracle", "check"):
        code, out, err = run(capsys, command, "--input", str(path))
        assert (code, out) == (2, ""), (command, err)
        assert err.startswith("error: ") and err.count("\n") == 1, (command, err)
        assert err.endswith(f"(node {node})\n"), (command, err)


def test_solver_error_of_a_minimization_names_the_node(tmp_path, capsys):
    # 202 pieces, 101 slopes of each sign: projecting the epigraph pairs
    # 101 x 101 rows, past the Fourier-Motzkin row cap
    slopes = np.linspace(1.0, 50.0, 101)
    cost = Polyhedral(np.concatenate([slopes, -slopes])[:, None], -np.concatenate([slopes] * 2))
    path = tmp_path / "big.json"
    treeio.save_tree(validate_tree([{"id": "r", "parent": None, "prob": 1.0, "stage": 0}]),
                     path, extra={"dims": [1]},
                     data_overrides={"r": {"cost": treeio.fn_to_record(cost)}})
    code, out, err = run(capsys, "solve", "--input", str(path))
    assert (code, out) == (3, "")
    assert err.startswith("solver error: projection exceeded") and err.endswith("(node r)\n")


def test_stop_output_independent_of_hash_seed(tmp_path, capsys):
    path = tmp_path / "rw.json"
    run(capsys, "gen", "--kind", "reward", "--seed", "3", "--out", str(path))
    src = str(Path(__file__).resolve().parents[1] / "src")
    outs = set()
    for hash_seed in range(8):
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from stochbellman.cli import main; sys.exit(main())",
             "stop", "--input", str(path), "--format", "structured"],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outs.add(proc.stdout)
    assert len(outs) == 1


def test_module_entry_point(tmp_path, capsys):
    # `python -m stochbellman` from a source checkout: same output and exit
    # codes as the in-process entry point
    path = tmp_path / "mk.json"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))

    def module(*argv):
        return subprocess.run([sys.executable, "-m", "stochbellman", *argv],
                              env=env, capture_output=True, text=True, timeout=120)

    proc = module("gen", "--kind", "market", "--seed", "9", "--out", str(path))
    assert proc.returncode == 0, proc.stderr
    proc = module("hedge", "--input", str(path), "--format", "structured")
    assert proc.returncode == 0, proc.stderr
    code, out, _ = run(capsys, "hedge", "--input", str(path), "--format", "structured")
    assert code == 0 and proc.stdout == out
    assert module("hedge", "--input", str(tmp_path / "missing.json")).returncode == 2


def test_bench_tracer_keeps_the_forward_pass_spans():
    # perfbench/tracer.py finds its span boundaries through the names that
    # `cli` imports at module level; importing these inside the subcommands
    # instead, or moving a reported span's function, would silently zero
    # its per-layer metric
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    found = set(tracer.Tracer().boundaries())
    assert {"control.riccati_policy", "control.verify_oc_policy", "control.solve_oc",
            "bellman.extract_policy", "lagrange.lagrange_policy"} <= found
    assert set(tracer.TIMED) | set(tracer.COUNTED) <= found
