import numpy as np
import pytest

from stochbellman import convexfn, lagrange, polyhedra
from stochbellman.bellman import BellmanSolution, build_flat, optimum_value, solve_be
from stochbellman.control import as_stage_problem, lq_costs, solve_oc
from stochbellman.convexfn import Inf, Polyhedral, Quadratic
from stochbellman.errors import (Infeasible, NotPerp, StochBellmanError,
                                 UnboundedBelow)
from stochbellman.extensive import solve_extensive
from stochbellman.generators import quadratic_lagrange_instance, random_tree
from stochbellman.lagrange import (LagrangeInstance, check_lagrange_bounds,
                                   lagrange_policy, lp_costs, lp_recursion,
                                   solve_lagrange)
from stochbellman.tree import AdaptedProcess, PerpProcess, validate_tree

import helpers
from helpers import (binary_tree, chain_tree, lp_active, same_bits, same_fn,
                     two_stage_binary)


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
    assert vv.value == pytest.approx(optimum_value(vv, 9), abs=1e-8)


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
    ext, _, _ = solve_extensive(build_flat(vv.problem))
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
        assert sol.records[nid]["N"].shape[1] == 0


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


def _diag_cost(a, b, q1, q2, c):
    """K(x, dx) = 1/2 (a x^2 + b dx^2) + q1 x + q2 dx + c on R^2."""
    return Quadratic([[a, 0.0], [0.0, b]], [q1, q2], c)


def _diag_conjugate(a, b, q1, q2, c, v):
    """K*(v) by hand: the sum of the two 1-D conjugates, Inf where a zero
    curvature meets a dual coordinate off its slope."""
    out = -c
    for curv, slope, vi in ((a, q1, v[0]), (b, q2, v[1])):
        if curv:
            out += (vi - slope) ** 2 / (2.0 * curv)
        elif vi != slope:
            return Inf
    return out


# perp family on two_stage_binary: v_0 at stage 0 (the root's own entry,
# zero as E_0 v_0 = v_0 forces) and v_1 at stage 2 (children's entries with
# conditional mean zero); y is an adapted R^1 process
_PERP = {0: (0, {"r": [0.0]}),
         1: (2, {"uu": [3.0], "ud": [-3.0], "du": [0.5], "dd": [-0.5]})}
_Y = {"r": 0.25, "u": 1.0, "d": -0.5, "uu": 2.0, "ud": 0.0, "du": -1.0, "dd": 0.75}


def _pinned_certificates(tree, coefs, eps):
    """Certificates m(n, k, lambda) = K_n*(lambda p + y_k - y_n, y_n) by
    hand, with p from _PERP (per node at stage t, per child at stage t + 1)
    and y_k = 0 at a leaf."""
    p_child = {k: v[0] for k, v in _PERP[1][1].items()}
    out = {}
    for nid in tree.nodes:
        kids = tree.children[nid] or [None]
        out[nid] = {(k, lam): _diag_conjugate(
            *coefs[nid], (lam * p_child.get(k, 0.0) + (_Y[k] if k else 0.0) - _Y[nid], _Y[nid]))
            for k in kids for lam in (1.0 - eps, 1.0 + eps)}
    return out


def test_bounds_perp_family_certificates_by_hand():
    # entries at stage t (the root) and at stage t + 1 (the stage-1 nodes'
    # children) with an adapted y: every certificate is the hand conjugate
    tree = helpers.two_stage_binary()
    coefs = {"r": (2.0, 1.0, 0.5, -1.0, 0.25), "u": (1.0, 4.0, -0.5, 0.0, 1.0),
             "d": (0.5, 2.0, 1.0, 0.5, -0.5), "uu": (1.0, 1.0, 0.0, 0.0, 0.0),
             "ud": (3.0, 0.5, 0.25, -0.25, 2.0), "du": (2.0, 2.0, -1.0, 1.0, 0.0),
             "dd": (1.0, 0.25, 0.5, 0.5, -1.0)}
    inst = LagrangeInstance(tree, 1, {nid: _diag_cost(*c) for nid, c in coefs.items()})
    y = AdaptedProcess(tree, {nid: np.array([val]) for nid, val in _Y.items()})
    rep = check_lagrange_bounds(inst, v=PerpProcess(tree, _PERP), y=y)
    want = _pinned_certificates(tree, coefs, 0.1)
    assert list(rep.certificates) == list(tree.nodes)
    for nid, rows in rep.certificates.items():
        assert list(rows) == list(want[nid])
        for key, m in rows.items():
            assert m == pytest.approx(want[nid][key], rel=1e-12, abs=1e-12)
    assert rep.lower_bound_ok and rep.linearity_ok


def test_bounds_unbounded_dual_fails_the_lower_bound():
    # K = 1/2 dx^2 + x at r and u: K*(v) is finite only where v_1 = 1.  At
    # r (p = 0) that holds for child u (y_u - y_r = 1 at lambda 0.9 and
    # 1.1 alike) and fails for child d; at u (p = +-3) it fails for both
    tree = helpers.two_stage_binary()
    coefs = {nid: (1.0, 1.0, 0.0, 0.0, 0.0) for nid in tree.nodes}
    coefs["r"] = coefs["u"] = (0.0, 1.0, 1.0, 0.0, 0.0)
    y = dict(_Y, r=0.0)
    inst = LagrangeInstance(tree, 1, {nid: _diag_cost(*c) for nid, c in coefs.items()})
    rep = check_lagrange_bounds(inst, v=PerpProcess(tree, _PERP),
                                y=AdaptedProcess(tree, {k: np.array([v]) for k, v in y.items()}))
    assert not rep.lower_bound_ok
    r, u = rep.certificates["r"], rep.certificates["u"]
    assert r[("u", 0.9)] == r[("u", 1.1)] == pytest.approx(0.0, abs=1e-12)
    assert r[("d", 0.9)] == r[("d", 1.1)] == Inf
    assert set(u.values()) == {Inf}
    assert all(m < Inf for nid in ("d", "uu", "ud", "du", "dd")
               for m in rep.certificates[nid].values())


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
    ref = vv.records[nodes[0]]["tail"]
    for nid in nodes[1:]:
        for x in (-1.0, 0.0, 1.0):
            assert vv.records[nid]["tail"].eval([x]) == pytest.approx(ref.eval([x]), abs=1e-10)
    for leaf in tree.leaves():
        assert vv.records[leaf]["tail"] is None  # V at the horizon is identically zero


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
    tilde = vv.records["n1"]["post"]  # function of x0
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
    # capacity and ramp rows box every own block, so the sweep solves no LP,
    # and a sweep that succeeds runs no emptiness check; the cone check that
    # solves its LP at every node gives the same value functions bit for bit
    tree = two_stage_binary()
    data = _boxed_inventory(tree)
    calls = {"ref": 0, "convexfn": 0, "lagrange": 0}

    def counted(name, solve):
        def run(*args):
            calls[name] += 1
            return solve(*args)
        return run

    monkeypatch.setattr(helpers, "solve_lp", counted("ref", helpers.solve_lp))
    monkeypatch.setattr(convexfn, "_cone_bases", helpers.ref_cone_bases)
    want = lp_recursion(tree, 2, data)
    monkeypatch.undo()
    for name, module in (("convexfn", convexfn), ("lagrange", lagrange)):
        monkeypatch.setattr(module, "solve_lp", counted(name, module.solve_lp))
    got = lp_recursion(tree, 2, data)
    assert calls == {"ref": 7, "convexfn": 0, "lagrange": 0}
    assert same_bits(got.value, want.value)
    for nid in tree.nodes:
        assert same_fn(got.records[nid]["post"], want.records[nid]["post"])
        assert same_bits(got.records[nid]["N"], want.records[nid]["N"])


def _empty_at(data, nid):
    data[nid] = dict(data[nid], b=np.concatenate([[5.0], data[nid]["b"][1:]]))  # floor 5 > cap 4


def _unbounded_at(data, nid):
    # demand floors only, and negative costs: the stock runs off to +inf
    data[nid] = {"T": np.zeros((2, 2)), "W": np.eye(2), "b": [1.0, 0.8], "c": [-1.0, -1.0]}


@pytest.mark.parametrize("empty, unbounded", [
    (["u"], []), (["u", "dd"], []), (["u"], ["dd"]), (["dd"], []), ([], ["dd"])])
def test_failing_lp_raises_what_the_emptiness_check_first_raised(empty, unbounded):
    # the emptiness check runs only after the sweep fails, and then raises
    # what checking every node before the sweep raised: the first empty
    # node in stage order, or else the sweep's own error
    tree = two_stage_binary()
    data = _boxed_inventory(tree)
    for nid in empty:
        _empty_at(data, nid)
    for nid in unbounded:
        _unbounded_at(data, nid)
    with pytest.raises(StochBellmanError) as want:
        helpers.ref_lp_recursion(tree, 2, data)
    with pytest.raises(StochBellmanError) as got:
        lp_recursion(tree, 2, data)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)
    assert got.value.node == want.value.node == (empty or unbounded)[0]


@pytest.mark.parametrize("empty", [[], ["u"], ["dd"], ["u", "dd"]])
def test_solve_lagrange_names_the_first_empty_stage_constraint(empty):
    # solve_lagrange is the one solve path: on an instance of polyhedral
    # costs it returns the sweep's solution, and on a failing sweep names
    # the first empty node in stage order, as checking every node before
    # the sweep did
    tree = two_stage_binary()
    data = _boxed_inventory(tree)
    for nid in empty:
        _empty_at(data, nid)
    instance = LagrangeInstance(tree, 2, lp_costs(tree, 2, data))
    if not empty:
        sol = solve_lagrange(instance)
        assert type(sol) is type(lp_recursion(tree, 2, data)) is BellmanSolution
        assert same_bits(sol.value, helpers.ref_lp_recursion(tree, 2, data).value)
        return
    with pytest.raises(Infeasible) as want:
        helpers.ref_lp_recursion(tree, 2, data)
    with pytest.raises(Infeasible) as got:
        solve_lagrange(instance)
    assert str(got.value) == str(want.value)
    assert got.value.node == want.value.node == empty[0]


def test_inventory_lp_sweep_and_policy_solve_no_lp(monkeypatch):
    # the boxed inventory's sweep makes no cone LP and, with no emptiness
    # LP after a sweep that succeeds and decisions by back-substitution
    # through the Fourier-Motzkin systems, neither sweep nor policy calls
    # solve_lp; the value has the bits of the sweep with every emptiness LP
    # before it, and the decisions are the frozen LP selector's
    tree = random_tree(np.random.default_rng(0), 3, fixed=True)
    data = _boxed_inventory(tree)
    pivots = []
    for module in (convexfn, lagrange, helpers):
        monkeypatch.setattr(module, "solve_lp", helpers.ref_lp(False, pivots))
    want = helpers.ref_lp_recursion(tree, 2, data)
    want_decisions = helpers.ref_lp_decisions(want)
    monkeypatch.undo()
    assert len(pivots) == 2 * len(tree.nodes)
    calls = []
    for module in (convexfn, lagrange):
        monkeypatch.setattr(module, "solve_lp",
                            lambda *a, _solve=module.solve_lp: calls.append(a) or _solve(*a))
    got = lp_recursion(tree, 2, data)
    policy = lagrange_policy(got)
    assert calls == []
    assert same_bits(got.value, want.value)
    for nid in tree.nodes:
        assert policy.decisions[nid] == pytest.approx(want_decisions[nid], abs=1e-12)


def test_box_pruning_at_every_size_keeps_the_values_and_the_active_pieces(monkeypatch):
    # the box-domination test once ran only on members with more than 32
    # pieces; run at every size it gives the inventory's value and decisions
    # bit for bit, no value function stores more pieces, the stored total
    # falls, and every piece strictly the largest somewhere is kept
    tree = random_tree(np.random.default_rng(0), 5, fixed=True)
    data = _boxed_inventory(tree)
    monkeypatch.setattr(polyhedra, "_prune_index", helpers.ref_gated_prune_index)
    want = lp_recursion(tree, 2, data)
    want_decisions = lagrange_policy(want).decisions
    monkeypatch.undo()
    got = lp_recursion(tree, 2, data)
    decisions = lagrange_policy(got).decisions
    assert same_bits(got.value, want.value)
    assert list(decisions) == list(want_decisions)
    for nid, x in want_decisions.items():
        assert same_bits(decisions[nid], x)
    for nid in tree.nodes:
        f, g = want.records[nid]["post"], got.records[nid]["post"]
        assert same_bits(g.C, f.C) and same_bits(g.d, f.d)
        assert g.pieces_b.size <= f.pieces_b.size
        kept = {(a.tobytes(), b.tobytes()) for a, b in zip(g.pieces_a, g.pieces_b)}
        active = lp_active(f.pieces_a, f.pieces_b, f.C, f.d)
        for a, b in zip(f.pieces_a[active], f.pieces_b[active]):
            assert (a.tobytes(), b.tobytes()) in kept
    stored = [sum(sol.records[nid]["post"].pieces_b.size for nid in tree.nodes)
              for sol in (got, want)]
    assert stored[0] < stored[1]
