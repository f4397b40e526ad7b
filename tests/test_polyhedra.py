import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochbellman.convexfn import _prune_pieces
from stochbellman.errors import RowBlowup
from stochbellman.polyhedra import (cone_from_generators, eliminate_one,
                                    fm_project, is_infeasible_marker,
                                    normalize_rows, prune_rows)

from helpers import (ref_eliminate_one, ref_normalize_rows, ref_prune_pieces,
                     ref_prune_rows, same_bits)


def _contains(G, h, z, tol=1e-9):
    if G.shape[0] == 0:
        return True
    return np.all(G @ z <= h + tol)


def test_project_simple():
    # {x + u <= 1, -u <= 0} -> {x <= 1}
    G, h = fm_project(np.array([[1.0, 1.0], [0.0, -1.0]]), np.array([1.0, 0.0]), 1)
    assert _contains(G, h, np.array([0.9]))
    assert not _contains(G, h, np.array([1.1]))


def test_project_vertex_oracle():
    # {u >= x, u >= -x, u <= 2}: projection is [-2, 2], checked against the
    # vertices of the 2-D polygon
    G0 = np.array([[1.0, -1.0], [-1.0, -1.0], [0.0, 1.0]])
    h0 = np.array([0.0, 0.0, 2.0])
    G, h = fm_project(G0, h0, 1)
    verts = [(-2.0, 2.0), (2.0, 2.0), (0.0, 0.0)]
    xs = sorted(v[0] for v in verts)
    for x in np.linspace(xs[0], xs[-1], 21):
        assert _contains(G, h, np.array([x]))
    assert not _contains(G, h, np.array([2.2]))
    assert not _contains(G, h, np.array([-2.2]))


def test_project_empty_system():
    G, h = fm_project(np.zeros((0, 3)), np.zeros(0), 2)
    assert G.shape[0] == 0


def test_infeasible_marker_survives():
    # x <= -1 and -x <= 0 has empty projection onto nothing: eliminating x
    # must leave the contradiction 0 <= negative
    G, h = fm_project(np.array([[1.0], [-1.0]]), np.array([-1.0, 0.0]), 1)
    assert is_infeasible_marker(G, h)


def test_row_blowup_guard(rng):
    G = rng.standard_normal((60, 3))
    h = rng.standard_normal(60)
    with pytest.raises(RowBlowup):
        fm_project(G, h, 2, row_cap=50)


def test_cone_from_generators_quadrant():
    G, h = cone_from_generators([[1.0, 0.0], [0.0, 1.0]])
    assert _contains(G, h, np.array([2.0, 3.0]))
    assert not _contains(G, h, np.array([-1.0, 1.0]))
    assert np.all(h <= 1e-12)


def test_cone_from_generators_ray():
    G, h = cone_from_generators([[1.0, 2.0]])
    assert _contains(G, h, np.array([0.5, 1.0]))
    assert not _contains(G, h, np.array([1.0, 1.0]))
    assert not _contains(G, h, np.array([-0.5, -1.0]))


def _messy_rows(rng, m, d):
    """Rows with repeated and scaled normals, normals that differ by 1e-13,
    -0.0 entries, ties on h, and zero rows with h of either sign."""
    base = rng.integers(-2, 3, (max(m // 2, 1), d)).astype(float)
    G = base[rng.integers(0, base.shape[0], m)] * rng.choice([1.0, 0.5, 2.0, 3.0], (m, 1))
    G += (rng.random((m, d)) < 0.1) * rng.choice([1e-13, -1e-13, 3e-13], (m, d))
    G[(G == 0.0) & (rng.random((m, d)) < 0.5)] = -0.0
    zero = rng.random(m) < 0.15
    G[zero] = rng.choice([0.0, -0.0, 1e-13], (int(zero.sum()), d))
    h = rng.integers(-2, 3, m) * rng.choice([1.0, 1.0 / 3.0], m)
    h[zero] = rng.choice([-1.0, -1e-13, 0.0, 2.0], int(zero.sum()))
    return G, h


@settings(max_examples=150, deadline=None, derandomize=True)
@given(m=st.integers(0, 40), d=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_row_pruning_matches_the_loop_version(m, d, seed):
    # same rows, same order, same bits as the dict-of-rounded-tuples loops
    rng = np.random.default_rng(seed)
    G, h = _messy_rows(rng, m, d)
    for new, ref in ((normalize_rows, ref_normalize_rows), (prune_rows, ref_prune_rows)):
        got, want = new(G, h), ref(G, h)
        assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])
    j = int(rng.integers(0, d))
    cap = int(rng.choice([10000, m]))
    try:
        want = ref_eliminate_one(G, h, j, row_cap=cap)
    except RowBlowup:
        with pytest.raises(RowBlowup):
            eliminate_one(G, h, j, row_cap=cap)
        return
    got = eliminate_one(G, h, j, row_cap=cap)
    assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_heavily_duplicated_rows_match_the_loop_version(seed):
    # 600-900 rows drawn from five normals at four scales, with -0.0
    # entries, 1e-13 perturbations and many ties on h
    rng = np.random.default_rng(seed)
    m, d = int(rng.integers(600, 900)), 3
    base = rng.integers(-2, 3, (5, d)).astype(float)
    G = base[rng.integers(0, 5, m)] * rng.choice([1.0, 0.5, 2.0, 3.0], (m, 1))
    G += (rng.random((m, d)) < 0.05) * rng.choice([1e-13, -1e-13], (m, d))
    G[(G == 0.0) & (rng.random((m, d)) < 0.5)] = -0.0
    h = rng.integers(-2, 3, m) * rng.choice([1.0, 1.0 / 3.0], m)
    got, want = prune_rows(G, h), ref_prune_rows(G, h)
    assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])
    assert got[0].shape[0] <= 20
    C, dd = np.vstack([np.eye(d), -np.eye(d)]), np.full(2 * d, 2.0)
    got, want = _prune_pieces(G, h, C, dd), ref_prune_pieces(G, h, C, dd)
    assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(k=st.integers(1, 60), d=st.integers(1, 3), box=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_piece_pruning_matches_the_loop_version(k, d, box, seed):
    # duplicate gradients keep the highest offset, the first among ties;
    # above 32 pieces a bounded box runs the domination test
    rng = np.random.default_rng(seed)
    pa, pb = _messy_rows(rng, k, d)
    if box:
        C, dd = np.vstack([np.eye(d), -np.eye(d)]), rng.integers(1, 4, 2 * d).astype(float)
    else:
        C, dd = np.zeros((0, d)), np.zeros(0)
    got, want = _prune_pieces(pa, pb, C, dd), ref_prune_pieces(pa, pb, C, dd)
    assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])
    # _polyhedral_partial_min passes lists of rows
    got = _prune_pieces(list(pa), list(pb), C, dd)
    assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])
