"""Batch front door: ingestion, dispatch, seeded generators, reports.

Exit codes: 0 success, 2 validation failure (malformed input), 3 solver
failure (unbounded objective, one-sided recession cone, infeasibility,
arbitrage refusal).  Structured output is versioned JSON (schema: 1) and
is bit-identical across repeated runs with the same config and seed.
"""

import argparse
import json
import sys

import numpy as np

from . import treeio
from .bellman import (StageProblem, check_assumptions, extract_policy,
                      optimum_value, solve_be)
from .control import (ControlSystem, lq_costs, riccati, riccati_policy,
                      solve_oc, verify_oc_policy)
from .convexfn import Quadratic, Sampled1D
from .errors import SolverError, StochBellmanError, ValidationError
from .extensive import solve_extensive
from .generators import (binomial_market, lq_instance,
                         markov_reward_tree, quadratic_lagrange_instance)
from .hedging import MarketModel, exp_utility, na_check, solve_alm
from .lagrange import lp_recursion
from .stopping import markov_check, optimal_stop, snell
from .tree import AdaptedProcess, is_markov
from .bellman import build_flat


def _emit(args, report, policy_rows=None):
    if args.format == "structured":
        print(json.dumps({"schema": 1, **report}, sort_keys=True))
    elif args.format == "csv":
        rows = policy_rows or []
        width = max((len(r["x"]) for r in rows), default=0)
        head = ",".join(f"x_{i}" for i in range(width))
        print(f"node_id,stage,{head},residual" if width else "node_id,stage,residual")
        for row in rows:
            comps = [repr(v) for v in row["x"]] + [""] * (width - len(row["x"]))
            cells = [row["node_id"], str(row["stage"])] + comps + [repr(row["residual"])]
            print(",".join(cells))
    else:
        for key, val in report.items():
            print(f"{key}: {val}")


def _policy_rows(tree, policy):
    rows = []
    for t in range(tree.T + 1):
        for nid in tree.stage_nodes[t]:
            rows.append({"node_id": nid, "stage": t,
                         "x": [float(v) for v in np.atleast_1d(policy.decisions[nid])],
                         "residual": float(policy.residuals.get(nid, 0.0))})
    return rows


def _load_problem(path):
    tree, doc = treeio.load_tree(path)
    dims = doc.get("dims")
    if dims is None:
        raise ValidationError("tree file is missing top-level `dims`")
    costs = dict.fromkeys(tree.nodes)  # in tree order, built a stage at a time
    for nid, node in tree.nodes.items():
        if "cost" not in node.data:
            raise ValidationError(f"node {nid!r} has no `cost` record")
    for nodes in tree.stage_nodes:
        costs.update(zip(nodes, treeio.fns_from_records(
            [tree.nodes[nid].data["cost"] for nid in nodes], nodes)))
    return tree, StageProblem(tree, dims, "stage_additive", node_costs=costs)


def cmd_solve(args):
    tree, problem = _load_problem(args.input)
    sol = solve_be(problem)
    policy = extract_policy(sol)
    assum = check_assumptions(problem, solution=sol)
    report = {
        "value": sol.value,
        "per_stage_values": [optimum_value(sol, t) for t in range(tree.T + 1)],
        "policy": {nid: [float(v) for v in policy.decisions[nid]] for nid in tree.nodes},
        "residual_max": policy.residual_max,
        "assumption_report": assum.summary(),
    }
    _emit(args, report, _policy_rows(tree, policy))
    return 0


def cmd_oracle(args):
    tree, problem = _load_problem(args.input)
    sol = solve_be(problem)
    fp = build_flat(problem)
    ext_value, _, info = solve_extensive(fp)
    delta = abs(sol.value - ext_value)
    report = {"dp_value": sol.value, "extensive_value": ext_value,
              "delta": delta, "within_tol": delta <= args.tol, "compare": info}
    _emit(args, report)
    return 0


def cmd_check(args):
    tree, problem = _load_problem(args.input)
    rep = check_assumptions(problem)
    _emit(args, {"assumption_report": rep.summary()})
    return 0


def cmd_stop(args):
    tree, _ = treeio.load_tree(args.input)
    values = {}
    for nid, node in tree.nodes.items():
        if "R" not in node.data:
            raise ValidationError(f"node {nid!r} has no reward entry `R`")
        try:
            values[nid] = float(node.data["R"])
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"reward `R` at {nid!r} is not a number") from exc
    R = AdaptedProcess(tree, values)
    S = snell(R)
    rule, value = optimal_stop(R, S)
    report = {"value": value, "stop_set": sorted(rule.stop_nodes)}
    if is_markov(R):
        tables = markov_check(R)
        report["psi"] = [{repr(k): v for k, v in tab.items()} for tab in tables]
    _emit(args, report)
    return 0


def _side(value, key, nid):
    """Row count of a square weight matrix entry."""
    try:
        return len(np.atleast_2d(np.asarray(value, dtype=float)))
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{key} at {nid!r} is not a numeric array") from exc


def cmd_control(args):
    tree, doc = treeio.load_tree(args.input)
    A, B, W, Qm, Rm = {}, {}, {}, {}, {}
    for nid, node in tree.nodes.items():
        d = node.data
        keys = ("Q", "R", "A", "B", "W") if tree.stage(nid) >= 1 else ("Q", "R")
        for key in keys:
            if key not in d:
                raise ValidationError(f"node {nid!r} has no `{key}` entry")
        Qm[nid] = d["Q"]
        Rm[nid] = d["R"]
        if tree.stage(nid) >= 1:
            A[nid] = d["A"]
            B[nid] = d["B"]
            W[nid] = d["W"]
    N = _side(Qm[tree.root], "Q", tree.root)
    M = _side(Rm[tree.root], "R", tree.root)
    # ControlSystem checks the shapes of A, B and W and riccati those of Q
    # and R; an error names the node
    sys_ = ControlSystem(tree, N, M, A, B, W)
    rd = riccati(sys_, Qm, Rm)
    try:
        x0 = np.asarray(doc.get("x0", [0.0] * N), dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError("`x0` is not a numeric array") from exc
    if x0.shape != (N,):
        raise ValidationError(f"`x0` has shape {x0.shape}, expected ({N},)")
    sol = solve_oc(sys_, lq_costs(sys_, Qm, Rm))
    X, U = riccati_policy(sys_, rd, x0)
    tables = rd.per_stage_tables(tree)
    report = {
        "riccati_value": rd.value(tree, x0),
        "recursion_value": sol.value(x0),
        "feedback_optimal": verify_oc_policy(sys_, sol, X, U),
        "note": rd.note,
        "K_root": np.asarray(rd.K[tree.root]).tolist(),
        "gain_root": np.asarray(rd.Lam[tree.root]).tolist(),
    }
    if tables is not None:
        report["K_stages"] = [k.tolist() for k in tables[0]]
        report["gain_stages"] = [g.tolist() for g in tables[1]]
    _emit(args, report)
    return 0


def cmd_lagrange(args):
    tree, doc = treeio.load_tree(args.input)
    d = int(doc.get("d", 1))
    data = {}
    for nid, node in tree.nodes.items():
        entry = {k: node.data[k] for k in ("T", "W", "b", "c") if k in node.data}
        if len(entry) != 4:
            raise ValidationError(f"node {nid!r} is missing LP entries")
        if "C" in node.data:
            entry["C"] = node.data["C"]
        data[nid] = entry
    vv = lp_recursion(tree, d, data)
    from .lagrange import lagrange_policy
    policy = lagrange_policy(vv)
    report = {"value": vv.value,
              "policy": {nid: [float(v) for v in policy.decisions[nid]] for nid in tree.nodes},
              "residual_max": policy.residual_max}
    _emit(args, report, _policy_rows(tree, policy))
    return 0


def _load_market(path):
    tree, doc = treeio.load_tree(path)
    prices = {}
    D = {}
    c = {}
    for nid, node in tree.nodes.items():
        if "s" not in node.data:
            raise ValidationError(f"node {nid!r} has no price entry `s`")
        prices[nid] = np.atleast_1d(np.asarray(node.data["s"], dtype=float))
        if "D" in node.data:
            rows = node.data["D"]
            D[nid] = (rows["G"], rows["g"])
        if tree.stage(nid) == tree.T and "c" in node.data:
            c[nid] = float(node.data["c"])
    return MarketModel(tree, AdaptedProcess(tree, prices), D=D or None, c=c)


def cmd_hedge(args):
    market = _load_market(args.input)
    verdict = na_check(market)
    report = {"na": "PASS" if verdict.passed else "FAIL",
              "arbitrage_gain": verdict.optimum}
    if not verdict.passed:
        report["arbitrage_direction"] = {
            nid: [float(v) for v in vec] for nid, vec in verdict.direction.items()}
    if args.loss == "exp":
        res = exp_utility(market, rho=args.rho)
        report["value"] = float(res.value(market.tree, args.wealth))
        report["controls"] = {nid: [float(v) for v in res.controls[nid]]
                              for nid in market.tree.nodes}
    else:
        if args.loss == "quad":
            loss = Quadratic([[2.0]], [0.0])
        elif args.loss.startswith("grid:"):
            with open(args.loss[5:]) as fh:
                spec = json.load(fh)
            loss = Sampled1D(spec["knots"], spec["values"])
        else:
            raise ValidationError(f"unknown loss {args.loss!r}")
        res = solve_alm(market, loss, wealth=args.wealth,
                        refuse_arbitrage=not args.force)
        report["value"] = res.value
        report["controls"] = {nid: [float(v) for v in res.controls[nid]]
                              for nid in market.tree.nodes}
    _emit(args, report)
    return 0


def _gen_lagrange(seed, path):
    inst = quadratic_lagrange_instance(seed)
    sp = inst.as_stage_problem()
    overrides = {nid: {"cost": treeio.fn_to_record(fn)}
                 for nid, fn in sp.node_costs.items()}
    treeio.save_tree(inst.tree, path, extra={"dims": sp.dims},
                     data_overrides=overrides)


def _gen_lq(seed, path):
    sys_, Qm, Rm = lq_instance(seed)
    overrides = {}
    for nid in sys_.tree.nodes:
        entry = {"Q": np.asarray(Qm[nid]).tolist(), "R": np.asarray(Rm[nid]).tolist()}
        if sys_.tree.stage(nid) >= 1:
            entry.update({"A": sys_.A[nid].tolist(), "B": sys_.B[nid].tolist(),
                          "W": sys_.W[nid].tolist()})
        overrides[nid] = entry
    treeio.save_tree(sys_.tree, path, extra={"x0": [0.5] * sys_.N},
                     data_overrides=overrides)


def _gen_market(seed, path):
    market = binomial_market(seed)
    overrides = {}
    for nid in market.tree.nodes:
        entry = {"s": market.price(nid).tolist()}
        if market.tree.stage(nid) == market.tree.T:
            entry["c"] = market.c[nid]
        overrides[nid] = entry
    treeio.save_tree(market.tree, path, data_overrides=overrides)


def _gen_reward(seed, path):
    tree, R = markov_reward_tree(seed)
    overrides = {nid: {"R": float(R[nid])} for nid in tree.nodes}
    treeio.save_tree(tree, path, data_overrides=overrides)


def cmd_gen(args):
    out = args.out or f"{args.kind}-{args.seed}.json"
    gens = {"lagrange": _gen_lagrange, "lq": _gen_lq,
            "market": _gen_market, "reward": _gen_reward}
    if args.kind not in gens:
        raise ValidationError(f"unknown kind {args.kind!r}")
    gens[args.kind](args.seed, out)
    _emit(args, {"written": out, "kind": args.kind, "seed": args.seed})
    return 0


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "csv", "structured"), default="text")
    common.add_argument("--tol", type=float, default=1e-8)
    common.add_argument("--seed", type=int, default=0)
    ap = argparse.ArgumentParser(prog="stochbellman",
                                 description="convex multistage solvers on scenario trees")
    sub = ap.add_subparsers(dest="command", required=True)

    for name, fn, needs_input in (
            ("solve", cmd_solve, True), ("oracle", cmd_oracle, True),
            ("check", cmd_check, True), ("stop", cmd_stop, True),
            ("control", cmd_control, True), ("lagrange", cmd_lagrange, True),
            ("hedge", cmd_hedge, True), ("gen", cmd_gen, False)):
        p = sub.add_parser(name, parents=[common])
        p.set_defaults(func=fn)
        if needs_input:
            p.add_argument("--input", required=True)
    hedge = sub.choices["hedge"]
    hedge.add_argument("--rho", type=float, default=1.0)
    hedge.add_argument("--loss", default="quad")
    hedge.add_argument("--wealth", type=float, default=0.0)
    hedge.add_argument("--force", action="store_true")
    gen = sub.choices["gen"]
    gen.add_argument("--kind", required=True)
    gen.add_argument("--out", default=None)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except StochBellmanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
