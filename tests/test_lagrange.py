import numpy as np
import pytest

from stochbellman import convexfn, lagrange
from stochbellman.bellman import build_flat, optimum_value, solve_be
from stochbellman.control import as_stage_problem, lq_costs, solve_oc
from stochbellman.convexfn import Polyhedral, Quadratic
from stochbellman.errors import Infeasible, NotPerp, UnboundedBelow
from stochbellman.extensive import solve_extensive
from stochbellman.generators import quadratic_lagrange_instance
from stochbellman.lagrange import (LagrangeInstance, check_lagrange_bounds,
                                   lagrange_policy, lp_recursion,
                                   solve_lagrange)
from stochbellman.tree import AdaptedProcess, validate_tree

import helpers
from helpers import (binary_tree, chain_tree, ref_polyhedral_cone_checks,
                     same_bits, same_fn, two_stage_binary)


def test_frozen_decisions_instance():
    # later stages forbid movement, so the plan is the initial point and the
    # value is (sum of expected cost coefficients) times x0 over the box
    tree = binary_tree()

    def K(c, frozen=True):
        rows = [[1.0, 0.0], [-1.0, 0.0]]
        rhs = [2.0, 2.0]
        if frozen:
            rows = [[0.0, 1.0], [0.0, -1.0]] + rows
            rhs = [0.0, 0.0] + rhs
        return Polyhedral([[c, 0.0]], [0.0], rows, rhs)

    inst = LagrangeInstance(tree, 1, {"r": K(1.0, frozen=False),
                                      "a": K(2.0), "b": K(-1.0)})
    vv = solve_lagrange(inst)
    # total coefficient 1 + .5*2 + .5*(-1) = 1.5 > 0: park at x0 = -2
    assert vv.value == pytest.approx(-3.0, abs=1e-9)
    pol = lagrange_policy(vv)
    assert pol.decisions["r"][0] == pytest.approx(-2.0, abs=1e-9)
    assert pol.decisions["a"][0] == pytest.approx(-2.0, abs=1e-9)


def test_telescoping_instance_everything_optimal():
    tree = binary_tree()
    y = {0: 2.0, 1: -3.0, 2: 0.0}

    def Ktel(t):
        return Quadratic(np.zeros((2, 2)), np.array([y[t + 1] - y[t], y[t]]))

    inst = LagrangeInstance(tree, 1, {"r": Ktel(0), "a": Ktel(1), "b": Ktel(1)})
    vv = solve_lagrange(inst)
    assert vv.value == pytest.approx(0.0, abs=1e-12)
    # any adapted plan evaluates to zero in the flat program
    fp = build_flat(inst.as_stage_problem())
    rng = np.random.default_rng(0)
    for _ in range(10):
        z = rng.standard_normal(fp.nvars)
        assert fp.eval(z) == pytest.approx(0.0, abs=1e-10)


def test_quadratic_tracking_vs_extensive(rng):
    for seed in range(5):
        inst = quadratic_lagrange_instance(seed, T=3, d=2)
        vv = solve_lagrange(inst)
        ext, _, _ = solve_extensive(build_flat(inst.as_stage_problem()))
        assert vv.value == pytest.approx(ext, abs=1e-8)


def test_thousand_node_sweep_matches_the_flat_kkt_oracle():
    # scale check on a 1023-node tree: the stage-stacked sweep against one
    # flat KKT solve of the whole problem
    inst = quadratic_lagrange_instance(7, T=9)
    assert len(inst.tree.nodes) == 1023
    vv = solve_lagrange(inst)
    assert vv.value == pytest.approx(optimum_value(vv.solution, 9), abs=1e-8)


def test_lp_single_stage_kink():
    tree = validate_tree([{"id": "r", "parent": None, "prob": 1.0, "stage": 0}])
    data = {"r": {"T": [[0.0]], "W": [[1.0]], "b": [2.0], "c": [1.0]}}
    vv = lp_recursion(tree, 1, data)
    assert vv.value == pytest.approx(2.0, abs=1e-9)
    # the root value function of the incoming point is flat at the kink:
    # evaluating the pre-min function at x_{-1}=0 pins the feasible ray x>=2
    pol = lagrange_policy(vv)
    assert pol.decisions["r"][0] == pytest.approx(2.0, abs=1e-9)


def test_lp_two_stage_vs_extensive():
    tree = binary_tree()
    # order x0 >= 0 at unit cost; each branch requires x1 >= demand with its
    # own recourse cost; increments are free in one direction only
    data = {
        "r": {"T": [[0.0]], "W": [[1.0]], "b": [0.0], "c": [1.0]},
        "a": {"T": [[0.0], [1.0]], "W": [[1.0], [0.0]], "b": [3.0, 0.0], "c": [0.5]},
        "b": {"T": [[0.0], [1.0]], "W": [[1.0], [0.0]], "b": [1.0, 0.0], "c": [0.5]},
    }
    vv = lp_recursion(tree, 1, data)
    ext, _, _ = solve_extensive(build_flat(vv.instance.as_stage_problem()))
    assert vv.value == pytest.approx(ext, abs=1e-9)
    # hand value: x0 = 1 serves branch b for free increment; branch a tops
    # up to 3: cost 1*1 + .5(.5*3 + .5*1) = 1 + 1 = 2... verified extensively
    assert vv.value == pytest.approx(ext, abs=1e-9)


def test_lp_infeasible_reports_node():
    tree = validate_tree([{"id": "r", "parent": None, "prob": 1.0, "stage": 0}])
    data = {"r": {"T": [[0.0], [0.0]], "W": [[1.0], [-1.0]], "b": [2.0, -1.0],
                  "c": [1.0]}}
    with pytest.raises(Infeasible) as err:
        lp_recursion(tree, 1, data)
    assert err.value.node == "r"


def test_lp_unbounded_free_ray():
    tree = validate_tree([{"id": "r", "parent": None, "prob": 1.0, "stage": 0}])
    data = {"r": {"T": [[0.0]], "W": [[-1.0]], "b": [-5.0], "c": [1.0]}}
    # x <= 5 with cost x: push x to -inf
    with pytest.raises(UnboundedBelow):
        lp_recursion(tree, 1, data)


def test_cone_generator_form():
    tree = validate_tree([{"id": "r", "parent": None, "prob": 1.0, "stage": 0}])
    data = {"r": {"T": [[0.0]], "W": [[1.0]], "b": [2.0], "c": [1.0],
                  "C": {"generators": [[1.0]]}}}
    vv = lp_recursion(tree, 1, data)
    assert vv.value == pytest.approx(2.0, abs=1e-9)


def test_bounds_strictly_convex_passes():
    inst = quadratic_lagrange_instance(13, T=2, d=1)
    rep = check_lagrange_bounds(inst)
    assert rep.lower_bound_ok and rep.linearity_ok
    sol = solve_lagrange(inst)
    for nid in inst.tree.nodes:
        assert sol.solution.records[nid]["N"].shape[1] == 0


def test_bounds_telescoping_certificates_zero():
    tree = binary_tree()
    y = {0: 1.5, 1: -0.5, 2: 0.0}

    def Ktel(t):
        return Quadratic(np.zeros((2, 2)), np.array([y[t + 1] - y[t], y[t]]))

    inst = LagrangeInstance(tree, 1, {"r": Ktel(0), "a": Ktel(1), "b": Ktel(1)})
    yproc = AdaptedProcess(tree, {"r": np.array([y[0]]), "a": np.array([y[1]]),
                                  "b": np.array([y[1]])})
    rep = check_lagrange_bounds(inst, v=None, y=yproc)
    assert rep.lower_bound_ok and rep.linearity_ok
    for rows in rep.certificates.values():
        for m in rows.values():
            assert m == pytest.approx(0.0, abs=1e-9)


def test_bounds_free_ray_fails_linearity():
    tree = validate_tree([{"id": "r", "parent": None, "prob": 1.0, "stage": 0}])
    # K(x, dx) = indicator(x >= 0): one-sided recession ray
    K = Polyhedral([[0.0, 0.0]], [0.0], [[-1.0, 0.0]], [0.0])
    inst = LagrangeInstance(tree, 1, {"r": K})
    rep = check_lagrange_bounds(inst)
    assert not rep.linearity_ok


def test_bounds_requires_perp():
    inst = quadratic_lagrange_instance(17, T=1, d=1)
    bad = AdaptedProcess(inst.tree, {inst.tree.root: np.array([1.0])})
    with pytest.raises(NotPerp):
        check_lagrange_bounds(inst, v=bad)


def test_control_encoded_as_lagrange_matches():
    # the control problem is the Lagrange special case on pairs (X, U)
    from stochbellman.generators import lq_instance
    sys_, Qm, Rm = lq_instance(23, T=2, N=1, M=1, noisy=False)
    costs = lq_costs(sys_, Qm, Rm)
    x0 = np.array([0.6])
    sp = as_stage_problem(sys_, costs, x0=x0)
    via_control = solve_oc(sys_, costs).value(x0)
    via_lagrange_form = solve_be(sp).value
    assert via_control == pytest.approx(via_lagrange_form, abs=1e-8)


def test_iid_tree_deterministic_value_functions():
    # identical branch data below every stage-1 node: V_t constant across
    # same-stage nodes (checked at probe points)
    tree = validate_tree([
        {"id": "r", "parent": None, "prob": 1.0, "stage": 0},
        {"id": "u", "parent": "r", "prob": 0.5, "stage": 1},
        {"id": "d", "parent": "r", "prob": 0.5, "stage": 1},
        {"id": "uu", "parent": "u", "prob": 0.3, "stage": 2},
        {"id": "ud", "parent": "u", "prob": 0.7, "stage": 2},
        {"id": "du", "parent": "d", "prob": 0.3, "stage": 2},
        {"id": "dd", "parent": "d", "prob": 0.7, "stage": 2},
    ])

    def K(shift):
        return Quadratic(np.diag([2.0, 1.0]), np.array([shift, 0.0]))

    costs = {"r": K(0.0), "u": K(1.0), "d": K(1.0),
             "uu": K(0.5), "ud": K(-0.5), "du": K(0.5), "dd": K(-0.5)}
    inst = LagrangeInstance(tree, 1, costs)
    vv = solve_lagrange(inst)
    # continuation tables V_t at same-stage nodes coincide (iid subtrees)
    nodes = tree.stage_nodes[1]
    ref = vv.V(nodes[0])
    for nid in nodes[1:]:
        for x in (-1.0, 0.0, 1.0):
            assert vv.V(nid).eval([x]) == pytest.approx(ref.eval([x]), abs=1e-10)
    for leaf in tree.leaves():
        assert vv.V(leaf) is None  # V at the horizon is identically zero


def test_lp_value_function_kink():
    # stage-1 constraints x1 >= b and x1 >= x0: the continuation value of
    # the incoming point is c * max(b, x0), kinked at b
    tree = chain_tree(1)
    b = 1.5
    data = {
        "n0": {"T": [[0.0]], "W": [[0.0]], "b": [0.0], "c": [-1.0]},
        "n1": {"T": [[0.0], [1.0]], "W": [[1.0], [0.0]], "b": [b, 0.0], "c": [2.0]},
    }
    vv = lp_recursion(tree, 1, data)
    assert vv.value == pytest.approx(b, abs=1e-9)
    tilde = vv.post("n1")  # function of x0
    for x0 in (-1.0, 0.0, 1.0, 1.4):
        assert tilde.eval([x0]) == pytest.approx(2.0 * b, abs=1e-9)
    for x0 in (1.6, 2.5, 4.0):
        assert tilde.eval([x0]) == pytest.approx(2.0 * x0, abs=1e-9)


def _boxed_inventory(tree):
    """Two products per node: demand floors, capacity 4, joint capacity 3
    and ramp limits |dx| <= 1.25 (4 at the root), as T dx + W x - b >= 0."""
    eye, zero, ones = np.eye(2), np.zeros((2, 2)), np.ones((1, 2))
    W = np.vstack([eye, -eye, -ones, zero, zero])
    Tm = np.vstack([zero, zero, np.zeros((1, 2)), eye, -eye])
    data = {}
    for i, nid in enumerate(tree.nodes):
        r = 4.0 if tree.stage(nid) == 0 else 1.25
        dem = [1.0 + 0.02 * i, 0.8 - 0.01 * i]
        b = np.concatenate([dem, [-4.0, -4.0, -3.0], -r * np.ones(4)])
        data[nid] = {"T": Tm, "W": W, "b": b, "c": [0.3 + 0.05 * i, 0.9 - 0.05 * i]}
    return data


def test_boxed_inventory_lp_solves_no_cone_lp(monkeypatch):
    # capacity and ramp rows box every own block, so the only LPs are the
    # per-node emptiness checks; the cone check that solves its LP at every
    # node gives the same value functions bit for bit
    tree = two_stage_binary()
    data = _boxed_inventory(tree)
    calls = {"ref": 0, "convexfn": 0, "lagrange": 0}

    def counted(name, solve):
        def run(*args):
            calls[name] += 1
            return solve(*args)
        return run

    monkeypatch.setattr(helpers, "solve_lp", counted("ref", helpers.solve_lp))
    monkeypatch.setattr(convexfn, "_polyhedral_cone_checks", ref_polyhedral_cone_checks)
    want = lp_recursion(tree, 2, data)
    monkeypatch.undo()
    for name, module in (("convexfn", convexfn), ("lagrange", lagrange)):
        monkeypatch.setattr(module, "solve_lp", counted(name, module.solve_lp))
    got = lp_recursion(tree, 2, data)
    assert calls == {"ref": 7, "convexfn": 0, "lagrange": 7}
    assert same_bits(got.value, want.value)
    for nid in tree.nodes:
        assert same_fn(got.post(nid), want.post(nid))
        assert same_bits(got.solution.records[nid]["N"], want.solution.records[nid]["N"])
