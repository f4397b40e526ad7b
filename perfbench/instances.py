"""Seeded workload inputs and their oracle references.

Run as a child of the benchmark, so the benchmark process itself never
holds numpy or a solved instance:

    python3 perfbench/instances.py setup <workload> <seed> <horizon> <dir>
    python3 perfbench/instances.py reference <workload> <dir>

`setup` generates the workload's inputs from the seed and writes them into
<dir>; the benchmark times the whole child, interpreter start and imports
included.  `reference` prints the oracle value for the files in <dir>,
computed by an independent path of the library: the program under test only
ever sees the written files.
"""

import json
import sys
from pathlib import Path

import numpy as np

from stochbellman import treeio
from stochbellman.bellman import StageProblem, build_flat
from stochbellman.control import ControlSystem, riccati
from stochbellman.extensive import solve_extensive
from stochbellman.generators import lq_instance, quadratic_lagrange_instance, random_tree
from stochbellman.lagrange import LagrangeInstance, lp_costs
from stochbellman.simplex import solve_lp

def write_quadratic(seed, T, path):
    """`gen --kind lagrange` at horizon T (the CLI has no horizon flag)."""
    inst = quadratic_lagrange_instance(seed, T=T, d=2)
    sp = inst.as_stage_problem()
    overrides = {nid: {"cost": treeio.fn_to_record(fn)}
                 for nid, fn in sp.node_costs.items()}
    treeio.save_tree(inst.tree, path, extra={"dims": sp.dims},
                     data_overrides=overrides)


def write_lq(seed, T, path):
    """`gen --kind lq` at horizon T."""
    sys_, Qm, Rm = lq_instance(seed, T=T)
    overrides = {}
    for nid in sys_.tree.nodes:
        entry = {"Q": np.asarray(Qm[nid]).tolist(), "R": np.asarray(Rm[nid]).tolist()}
        if sys_.tree.stage(nid) >= 1:
            entry.update({"A": sys_.A[nid].tolist(), "B": sys_.B[nid].tolist(),
                          "W": sys_.W[nid].tolist()})
        overrides[nid] = entry
    treeio.save_tree(sys_.tree, path, extra={"x0": [0.5] * sys_.N},
                     data_overrides=overrides)


def inventory_lp(seed, T, cap=4.0, joint=3.0, ramp=1.25):
    """Feasible two-product inventory LP on a binary tree.

    Per node: holding cost c.x, demand floor x >= dem, per-product
    capacity x <= cap, joint capacity x_1 + x_2 <= joint, and ramp limits
    |dx| <= ramp.  Rows are written as T dx + W x - b >= 0 (the CLI's
    default cone).  The root ramp is cap, so x_0 reaches the floor from
    x_{-1} = 0, and floors stay within 0.1 of (1.0, 0.8), so every stage is
    feasible from every reachable point.  The seed draws the branch
    probabilities, the floors and the costs.  The floors vary little on
    purpose: wide floor draws make the number of value-function pieces,
    and with it the run time, vary several-fold from seed to seed.  With
    these constants value functions reach 30-60 pieces at T=6 and the
    simplex is the largest single cost of the sweep (about half).  The
    piece count is sensitive to them: 120-180 for ramp 1.2 (the run time
    then varies by a third between seeds), over 400 for ramp 1.1 or joint
    3.2 (ten times slower), 16 for ramp 1.5.
    """
    d = 2
    rng = np.random.default_rng(seed)
    tree = random_tree(rng, T, 2, fixed=True)
    eye, zero, ones = np.eye(d), np.zeros((d, d)), np.ones((1, d))
    W = np.vstack([eye, -eye, -ones, zero, zero])
    Tm = np.vstack([zero, zero, np.zeros((1, d)), eye, -eye])
    data = {}
    for nid in tree.nodes:
        dem = np.array([1.0, 0.8]) + rng.uniform(-0.05, 0.05, d)
        r = cap if tree.stage(nid) == 0 else ramp
        b = np.concatenate([dem, -cap * np.ones(d), [-joint], -r * np.ones(2 * d)])
        data[nid] = {"T": Tm.tolist(), "W": W.tolist(), "b": b.tolist(),
                     "c": rng.uniform(0.2, 1.0, d).tolist()}
    return tree, d, data


def write_inventory_lp(seed, T, path):
    tree, d, data = inventory_lp(seed, T)
    treeio.save_tree(tree, path, extra={"d": d}, data_overrides=data)


SLOPES = (-0.8, -0.3, 0.4, 1.0, 1.8, 2.6)


def pwl_loss(seed, inner=2.0, outer=12.0, guard_slope=10.0):
    """Convex piecewise-linear loss of the shortfall, on [-outer, outer].

    Six slopes within 0.05 of SLOPES on [-inner, inner], minimum inside,
    and guard segments of slope -/+guard_slope out to -/+outer.  The knot
    range covers every shortfall the CLI's wealth grid can reach here
    (|c - X| < 11 for wealth 0.2 and claims below 2.7), so every grid point
    is feasible; the steep guards keep the optimal shortfalls inside
    [-inner, inner], where the wealth stays inside the grid, so the
    unconstrained epigraph LP is the exact reference.
    """
    rng = np.random.default_rng([seed, 1])
    slopes = np.asarray(SLOPES) + rng.uniform(-0.05, 0.05, len(SLOPES))
    knots = np.concatenate([[-outer], np.linspace(-inner, inner, 7), [outer]])
    slopes = np.concatenate([[-guard_slope], slopes, [guard_slope]])
    values = np.concatenate([[0.0], np.cumsum(slopes * np.diff(knots))])
    return knots, values - values.min()


def write_market(seed, T, path, loss_path, down=0.7, up=1.4):
    """Binomial market with a call claim struck at 1, and its loss.

    Like `generators.binomial_market`, but each branch's price factors stay
    within 0.02 of (down, up), and the loss slopes within 0.05 of SLOPES.
    The golden-section searches take more steps the smaller the returns
    are: with the generator's wide factor draws (0.4-0.95, 1.05-1.9) and
    loss slopes, the number of loss evaluations at T=1 ranged 140-216
    thousand over seeds 1-8, against 166-196 thousand over seeds 1-10 here.
    """
    rng = np.random.default_rng(seed)
    tree = random_tree(rng, T, 2, fixed=True)
    price = {tree.root: 1.0}
    for t in range(T):
        for nid in tree.stage_nodes[t]:
            for kid, factor in zip(tree.children[nid], (down, up)):
                price[kid] = price[nid] * (factor + rng.uniform(-0.02, 0.02))
    overrides = {}
    for nid in tree.nodes:
        entry = {"s": [price[nid]]}
        if tree.stage(nid) == T:
            entry["c"] = max(price[nid] - 1.0, 0.0)
        overrides[nid] = entry
    treeio.save_tree(tree, path, data_overrides=overrides)
    knots, values = pwl_loss(seed)
    with open(loss_path, "w") as fh:
        json.dump({"knots": knots.tolist(), "values": values.tolist()}, fh)
        fh.write("\n")


# --- oracle references -----------------------------------------------------

def flat_quadratic_value(path):
    """Flat KKT solve of the whole problem (extensive.solve_extensive)."""
    tree, doc = treeio.load_tree(path)
    costs = {nid: treeio.fn_from_record(node.data["cost"])
             for nid, node in tree.nodes.items()}
    problem = StageProblem(tree, doc["dims"], "stage_additive", node_costs=costs)
    return solve_extensive(build_flat(problem))[0]


def riccati_reference(path):
    """Riccati value at x0, the oracle for the symbolic recursion."""
    tree, doc = treeio.load_tree(path)
    A, B, W, Qm, Rm = {}, {}, {}, {}, {}
    for nid, node in tree.nodes.items():
        Qm[nid], Rm[nid] = node.data["Q"], node.data["R"]
        if tree.stage(nid) >= 1:
            A[nid] = np.asarray(node.data["A"], dtype=float)
            B[nid] = np.asarray(node.data["B"], dtype=float)
            W[nid] = np.asarray(node.data["W"], dtype=float)
    N = len(np.atleast_2d(Qm[tree.root]))
    M = len(np.atleast_2d(Rm[tree.root]))
    rd = riccati(ControlSystem(tree, N, M, A, B, W), Qm, Rm)
    return rd.value(tree, doc["x0"])


def flat_lp_value(path):
    """Dense simplex on the flat epigraph LP of the inventory problem."""
    tree, doc = treeio.load_tree(path)
    d = int(doc["d"])
    data = {nid: node.data for nid, node in tree.nodes.items()}
    problem = LagrangeInstance(tree, d, lp_costs(tree, d, data)).as_stage_problem()
    return solve_extensive(build_flat(problem))[0]


def hedge_lp_value(path, loss_path, wealth):
    """Exact epigraph LP of min E[loss(c - X_T)] over cash positions.

    Variables: one cash position U per interior node (one asset) and one
    epigraph level per leaf; X_leaf = wealth + sum of r_k U_parent(k) along
    the path.  Each loss segment i gives tau >= a_i (c - X) + b_i, and the
    knot range bounds c - X.
    """
    tree, _ = treeio.load_tree(path)
    with open(loss_path) as fh:
        spec = json.load(fh)
    knots = np.asarray(spec["knots"], dtype=float)
    vals = np.asarray(spec["values"], dtype=float)
    slopes = np.diff(vals) / np.diff(knots)
    offsets = vals[:-1] - slopes * knots[:-1]
    price = {nid: float(np.ravel(node.data["s"])[0]) for nid, node in tree.nodes.items()}
    inner = [nid for t in range(tree.T) for nid in tree.stage_nodes[t]]
    col = {nid: i for i, nid in enumerate(inner)}
    leaves = tree.leaves()
    n = len(inner) + len(leaves)
    cost = np.zeros(n)
    A_ub, b_ub = [], []
    for j, leaf in enumerate(leaves):
        tau = len(inner) + j
        cost[tau] = float(tree.prob(leaf))
        gain = np.zeros(n)  # X_leaf = wealth + gain . z
        path_ = tree.path(leaf)
        for par, kid in zip(path_, path_[1:]):
            gain[col[par]] += (price[kid] - price[par]) / price[par]
        claim = float(tree.nodes[leaf].data["c"])
        short = claim - wealth  # c - X = short - gain . z
        for a, b in zip(slopes, offsets):
            row = -a * gain
            row[tau] = -1.0
            A_ub.append(row)
            b_ub.append(-(a * short + b))
        A_ub.append(-gain)
        b_ub.append(knots[-1] - short)
        A_ub.append(gain)
        b_ub.append(short - knots[0])
    res = solve_lp(cost, A_ub, b_ub)
    if res.status != "optimal":
        raise RuntimeError(f"hedge reference LP came back {res.status}")
    return float(res.value)


WRITERS = {
    "quad-solve": lambda seed, T, wd: write_quadratic(seed, T, wd / "problem.json"),
    "lq-control": lambda seed, T, wd: write_lq(seed, T, wd / "lq.json"),
    "lp-inventory": lambda seed, T, wd: write_inventory_lp(seed, T, wd / "lp.json"),
    "hedge-grid": lambda seed, T, wd: write_market(seed, T, wd / "market.json",
                                                   wd / "loss.json"),
}

REFERENCES = {
    "quad-solve": lambda wd: flat_quadratic_value(wd / "problem.json"),
    "lq-control": lambda wd: riccati_reference(wd / "lq.json"),
    "lp-inventory": lambda wd: flat_lp_value(wd / "lp.json"),
    "hedge-grid": lambda wd: hedge_lp_value(wd / "market.json", wd / "loss.json", 0.2),
}


def main(argv):
    if argv[:1] == ["setup"] and len(argv) == 5:
        WRITERS[argv[1]](int(argv[2]), int(argv[3]), Path(argv[4]))
        return 0
    if argv[:1] == ["reference"] and len(argv) == 3:
        print(json.dumps(REFERENCES[argv[1]](Path(argv[2]))))
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
