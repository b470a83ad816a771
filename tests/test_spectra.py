import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from digraphon import (
    IsolationError,
    NumericalError,
    Spectrum,
    bidirected_crossing_pair,
    bidirected_double_cover,
    cluster_multiplicities,
    collapse,
    cycle_digraph,
    digraph_spectrum,
    eigenvalues,
    empty_digraph,
    hausdorff_distance,
    multiplicity_match,
    normalized_spectrum,
    op_norm_2to2,
    oneway_double_cover,
    random_regular_graph,
    sample_w_random,
    singular_moment_bound,
    spectrum_from_csv,
    spectrum_to_csv,
    step_from_digraph,
    step_spectrum,
)
from digraphon import spectra
from digraphon.digraph import _w_random_draw
from digraphon.stepkernel import StepDigraphon, StepKernel, uniform_measures


def sorted_vals(vals):
    return np.asarray(sorted(vals, key=lambda z: (z.real, z.imag)))


# ---------------------------------------------------------------------------
# eigenvalues


def test_eigenvalues_directed_triangle_cube_roots():
    vals = eigenvalues(cycle_digraph(3).adj.astype(float))
    expected = sorted_vals([1, np.exp(2j * np.pi / 3), np.exp(-2j * np.pi / 3)])
    assert np.allclose(sorted_vals(vals), expected, atol=1e-10)
    assert abs(vals.sum()) < 1e-10
    assert abs((vals**3).sum() - 3) < 1e-10


def test_eigenvalues_diagonal_and_nilpotent():
    assert np.allclose(sorted_vals(eigenvalues(np.diag([2.0, -1.0]))), [-1.0, 2.0])
    assert np.allclose(eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]])), [0.0, 0.0])


def test_eigenvalues_validates_input():
    with pytest.raises(ValueError):
        eigenvalues(np.ones((2, 3)))
    with pytest.raises(ValueError):
        eigenvalues(np.array([[np.nan]]))


def test_eigenvalues_exact_conjugate_closure():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(2, 20))
        vals = eigenvalues(rng.uniform(-1, 1, (n, n)))
        conj_set = sorted_vals(np.conj(vals))
        assert np.array_equal(sorted_vals(vals), conj_set)


def frozen_pair_conjugates(vals):
    """The earlier conjugate pairing: match the two half-planes in sorted order, average each pair."""
    reals = [v for v in vals if v.imag == 0.0]
    pos = sorted((v for v in vals if v.imag > 0.0), key=lambda z: (z.real, z.imag))
    neg = sorted((v for v in vals if v.imag < 0.0), key=lambda z: (z.real, -z.imag))
    out = [complex(v.real, 0.0) for v in reals]
    for p, q in zip(pos, neg):
        re = 0.5 * (p.real + q.real)
        im = 0.5 * (p.imag - q.imag)
        out.append(complex(re, im))
        out.append(complex(re, -im))
    for extra in pos[len(neg):] + neg[len(pos):]:
        out.append(complex(extra.real, 0.0))
    out.sort(key=lambda z: (z.real, z.imag))
    return np.asarray(out, dtype=np.complex128)


def test_eigenvalues_bytes_equal_the_frozen_conjugate_pairing():
    rng = np.random.default_rng(4)
    for n in [*range(1, 25), 60, 150]:
        shift = np.roll(np.eye(n), 1, axis=1)
        nilpotent = np.triu(np.ones((n, n)), 1)
        zero_one = (rng.random((n, n)) < 0.3).astype(float)
        np.fill_diagonal(zero_one, 0.0)
        for m in (shift, nilpotent, zero_one, np.zeros((n, n)),
                  np.triu(rng.integers(-3, 4, (n, n))), rng.integers(-5, 6, (n, n))):
            expected = frozen_pair_conjugates(np.linalg.eigvals(np.asarray(m, dtype=float)))
            assert eigenvalues(m).tobytes() == expected.tobytes()


def test_eigenvalues_real_eigenvalues_have_positive_zero_imaginary_parts(monkeypatch):
    vals = np.array([complex(2.0, -0.0), complex(-1.0, -0.0), complex(0.5, 0.0)])
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: vals)
    out = eigenvalues(np.diag([2.0, -1.0, 0.5]))
    assert out.tobytes() == frozen_pair_conjugates(vals).tobytes()
    assert not np.signbit(out.imag).any()


def test_eigenvalues_rejects_a_list_not_closed_under_conjugation(monkeypatch):
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: np.array([1j, 1j, -2j]))
    with pytest.raises(NumericalError, match="conjugation"):
        eigenvalues(np.zeros((3, 3)))


def test_eigenvalues_trace_identities_sweep():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        n = int(rng.integers(1, 65))
        m = rng.uniform(-1, 1, (n, n))
        vals = eigenvalues(m)
        scale = max(1.0, float(np.max(np.abs(m))))
        assert abs(vals.sum() - np.trace(m)) <= 1e-8 * n * scale
        m2 = m @ m
        assert abs((vals**2).sum() - np.trace(m2)) <= 1e-8 * (n * scale) ** 2


def test_eigenvalues_power_traces_to_fifth():
    rng = np.random.default_rng(2)
    for _ in range(30):
        n = int(rng.integers(2, 30))
        m = rng.uniform(-1, 1, (n, n))
        vals = eigenvalues(m)
        p = np.eye(n)
        for ell in range(1, 6):
            p = p @ m
            assert abs((vals**ell).sum() - np.trace(p)) <= 1e-8 * (n * 1.0) ** ell


def test_eigenvalues_scale_equivariance():
    rng = np.random.default_rng(3)
    m = rng.uniform(-1, 1, (12, 12))
    base = sorted_vals(eigenvalues(m))
    for c in (2.0, -1.0):
        scaled = sorted_vals(eigenvalues(c * m))
        assert np.allclose(sorted_vals(c * base), scaled, atol=1e-8)


def test_symmetric_eigenvalues_validates_input():
    m = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]])
    flipped = m.copy()
    flipped[0, 2] = -2.0
    for bad in (np.ones((2, 3)), np.zeros((0, 0)), np.array([[np.nan]]),
                np.array([[0.0, np.inf], [np.inf, 0.0]]), flipped):
        with pytest.raises(ValueError):
            spectra._symmetric_eigenvalues(bad)


def test_symmetric_eigenvalues_sorted_with_positive_zero_imaginary_parts():
    vals = spectra._symmetric_eigenvalues(np.array([[0.0, 2.0], [2.0, -3.0]]))
    assert vals.dtype == np.complex128
    assert np.array_equal(vals, np.sort_complex(vals))
    assert np.array_equal(vals.real, [-4.0, 1.0])
    assert not np.signbit(vals.imag).any() and not vals.imag.any()


def test_symmetric_eigenvalues_match_the_general_solver():
    rng = np.random.default_rng(16)
    for n in range(1, 201):
        zero_one = np.triu(rng.random((n, n)) < 0.4).astype(float)
        floats = np.triu(rng.uniform(-3, 3, (n, n)))
        for upper in (zero_one, floats):
            m = upper + np.triu(upper, 1).T
            sym = spectra._symmetric_eigenvalues(m)
            assert np.array_equal(sym, np.sort_complex(sym))
            assert not np.signbit(sym.imag).any()
            err = np.max(np.abs(sym - eigenvalues(m)))
            assert err <= 1e-12 * n * float(np.max(np.abs(m)))


# Bipartite step digraphons with the block sides of a 2-colouring: the
# crossing surrogate, three blocks with zero same-colour blocks, and
# unequal measures.
BIPARTITE_KERNELS = [
    (StepDigraphon([[0.0, 0.25], [0.25, 0.0]], [0.5, 0.5]), [False, True]),
    (StepDigraphon([[0.0, 0.3, 0.0], [0.2, 0.0, 0.4], [0.0, 0.5, 0.0]], [0.3, 0.3, 0.4]),
     [False, True, False]),
    (StepDigraphon([[0.0, 0.6], [0.3, 0.0]], [0.2, 0.8]), [False, True]),
]


def assert_sorted_conjugate_closed_without_negative_zeros(vals):
    assert vals.dtype == np.complex128
    assert np.array_equal(vals, np.sort_complex(vals))
    assert np.array_equal(vals, np.sort_complex(vals.conj()))
    assert not np.signbit(vals.real[vals.real == 0]).any()
    assert not np.signbit(vals.imag[vals.imag == 0]).any()


@pytest.mark.parametrize("w,block_side", BIPARTITE_KERNELS)
def test_bipartite_eigenvalues_agree_with_the_general_solver(w, block_side):
    limit = step_spectrum(w)
    epsilon = 0.05  # isolates the limit points of all three kernels
    for n in (50, 100, 200):
        for seed in range(20):
            g, labels = _w_random_draw(w, n, seed)
            vals = spectra._bipartite_eigenvalues(g.adj, np.asarray(block_side)[labels])
            assert_sorted_conjugate_closed_without_negative_zeros(vals)
            assert vals.size == n
            fast = spectra._adjacency_spectrum(vals, n, n, None)
            full = normalized_spectrum(g)
            assert hausdorff_distance(fast.point_set(), full.point_set()) <= 1e-10
            for v, _ in limit.points:
                assert (multiplicity_match(limit, fast, v, epsilon)
                        == multiplicity_match(limit, full, v, epsilon))


def test_bipartite_eigenvalues_edge_cases():
    # one vertex, and an empty smaller side: the zero matrix
    assert spectra._bipartite_eigenvalues(np.zeros((1, 1)), [True]).tobytes() == bytes(16)
    assert spectra._bipartite_eigenvalues(np.zeros((3, 3)), [False] * 3).tobytes() == bytes(48)
    # unequal sides: p = 2, q = 5 and B C nonsingular give exactly q - p zeros
    rng = np.random.default_rng(5)
    for _ in range(20):
        m = np.zeros((7, 7))
        side = rng.permutation([True] * 2 + [False] * 5)
        m[np.ix_(side, ~side)] = rng.random((2, 5)) < 0.5
        m[np.ix_(~side, side)] = rng.random((5, 2)) < 0.5
        bc = m[np.ix_(side, ~side)] @ m[np.ix_(~side, side)]
        if abs(np.linalg.det(bc)) < 0.5:
            continue
        vals = spectra._bipartite_eigenvalues(m, side)
        assert_sorted_conjugate_closed_without_negative_zeros(vals)
        assert np.count_nonzero(vals == 0) == 3
        # dgeev splits a double eigenvalue of B C by about sqrt(u)
        assert hausdorff_distance(vals, eigenvalues(m)) <= 1e-6


def test_bipartite_eigenvalues_keep_an_integer_adjacency_as_it_stands():
    # the int8 sample is checked as it stands and only B and C become float64:
    # the same bytes as from its float64 copy, with no n x n float64 array
    w, block_side = BIPARTITE_KERNELS[0]
    n = 400
    for seed in range(3):
        g, labels = _w_random_draw(w, n, seed)
        side = np.asarray(block_side)[labels]
        want = spectra._bipartite_eigenvalues(g.adj.astype(np.float64), side)
        tracemalloc.start()
        try:
            got = spectra._bipartite_eigenvalues(g.adj, side)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.adj.dtype == np.int8 and got.tobytes() == want.tobytes()
        assert peak < 8 * n * n
    cycle = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=np.int8)
    for m in (cycle, cycle.astype(bool), cycle.astype(np.uint64)):
        with pytest.raises(ValueError, match="one side"):
            spectra._bipartite_eigenvalues(m, [False, True, False])
    pair = np.array([[0, -128], [127, 0]], dtype=np.int8)  # int8 extremes: B C = [[-128 * 127]]
    assert spectra._bipartite_eigenvalues(pair, [True, False]).tolist() == [
        -np.sqrt(128.0 * 127.0) * 1j, np.sqrt(128.0 * 127.0) * 1j]


def test_bipartite_eigenvalues_rejects_a_wrong_side_mask():
    m = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])  # a directed 3-cycle
    for side in ([False, True, False], [True, True, False], [False] * 3):
        with pytest.raises(ValueError, match="one side"):
            spectra._bipartite_eigenvalues(m, side)
    with pytest.raises(ValueError, match="one side"):
        spectra._bipartite_eigenvalues(np.eye(2), [False, True])  # self-loops
    with pytest.raises(ValueError, match="mask"):
        spectra._bipartite_eigenvalues(np.zeros((2, 2)), [True])


def test_bipartite_eigenvalues_map_negative_zeros_to_positive_zeros():
    # B C = [[-4]] has the roots +-2i; negating 0 + 2i gives a real part of -0.0
    m = np.array([[0.0, 2.0], [-2.0, 0.0]])
    vals = spectra._bipartite_eigenvalues(m, [True, False])
    assert vals.tolist() == [-2j, 2j]
    assert_sorted_conjugate_closed_without_negative_zeros(vals)
    # a positive real root: -(2 + 0i) has imaginary part -0.0
    vals = spectra._bipartite_eigenvalues(np.array([[0.0, 1.0], [4.0, 0.0]]), [True, False])
    assert vals.tolist() == [-2, 2]
    assert_sorted_conjugate_closed_without_negative_zeros(vals)


# At n = 10-30 the sampled crossing surrogate has defective zero eigenvalues,
# and neither solver lands on sympy's exact zeros there. Over 20 seeds at each
# n in 10, 15, 20, 25, 30, the z eigenvalues returned for an exact zero of
# multiplicity z reached 1.6e-4 from 0 with dgeev (n = 20, z = 8) and 1.2e-4
# with the half-size product (n = 25, z = 9), on the unnormalized adjacency.
# So small samples are not held to an agreement bound here.


# ---------------------------------------------------------------------------
# clustering


def test_cluster_forced_merge():
    spec = cluster_multiplicities([1.0, 1.0 + 1e-12, 2.0], tol=1e-8)
    assert spec.points == ((pytest.approx(1.0), 2), (2.0, 1))


def test_cluster_all_identical():
    spec = cluster_multiplicities([0.5j] * 7, tol=1e-8)
    assert spec.points == ((0.5j, 7),)


def test_cluster_preserves_first_moment():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(1, 40))
        pts = rng.normal(size=n) + 1j * rng.normal(size=n)
        tol = 0.3
        spec = cluster_multiplicities(pts, tol)
        flattened = sum(v * m for v, m in spec.points)
        assert abs(flattened - pts.sum()) <= n * tol
        vals = [v for v, _ in spec.points]
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                assert abs(vals[i] - vals[j]) > tol


def test_cluster_rejects_bad_tol():
    with pytest.raises(ValueError):
        cluster_multiplicities([1.0], tol=0.0)


def dense_cluster_multiplicities(points, tol, rounds):
    """The clustering as first written: a dense n x n distance matrix per merge
    round and one masked sum per cluster. Appends its merge-round count."""
    pts = np.asarray(points, dtype=np.complex128).ravel()
    centroids = pts.copy()
    weights = np.ones(pts.size, dtype=np.int64)
    count = 0
    while centroids.size > 1:
        d = np.abs(centroids[:, None] - centroids[None, :])
        np.fill_diagonal(d, np.inf)
        close = d <= tol
        if not close.any():
            break
        count += 1
        parent = np.arange(centroids.size)

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i, j in zip(*np.nonzero(close)):
            if i < j:
                ri, rj = find(int(i)), find(int(j))
                if ri != rj:
                    parent[rj] = ri
        roots = np.asarray([find(int(i)) for i in range(centroids.size)])
        new_centroids, new_weights = [], []
        for r in np.unique(roots):
            members = roots == r
            wsum = int(weights[members].sum())
            new_centroids.append(complex((centroids[members] * weights[members]).sum() / wsum))
            new_weights.append(wsum)
        centroids = np.asarray(new_centroids, dtype=np.complex128)
        weights = np.asarray(new_weights, dtype=np.int64)
    rounds.append(count)
    order = np.lexsort((centroids.imag, centroids.real))
    return Spectrum(tuple((complex(centroids[i]), int(weights[i])) for i in order))


def spectrum_bits(spec):
    vals = np.asarray([v for v, _ in spec.points], dtype=np.complex128)
    return vals.view(np.uint64).tolist(), [m for _, m in spec.points]


def staged_points(rng, tol, sites):
    """Clusters that merge over two rounds, exact duplicates and lone points.

    Two points 0.98 tol apart merge first; their mean then lies within tol of
    a third point that was more than tol from both. Duplicates merge in the
    first round and stay weighted singletons while other clusters merge.
    """
    pts = []
    for _ in range(sites):
        c = complex(*rng.uniform(-1.0, 1.0, 2))
        kind = rng.integers(3)
        if kind == 0:
            jitter = tol * 1e-3 * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
            pts += list(c + tol * np.array([0.49j, -0.49j, 0.95]) + jitter)
        elif kind == 1:
            pts += [c] * int(rng.integers(2, 5))
        else:
            pts.append(c)
    return pts


def test_cluster_matches_dense_clustering_bytes():
    rng = np.random.default_rng(12)
    rounds = []
    for _ in range(60):
        tol = float(10.0 ** rng.uniform(-6, -3))
        pts = staged_points(rng, tol, int(rng.integers(1, 30)))
        want = dense_cluster_multiplicities(pts, tol, rounds)
        assert spectrum_bits(cluster_multiplicities(pts, tol)) == spectrum_bits(want)
    assert rounds.count(2) >= 30
    w = StepDigraphon([[0.0, 0.25], [0.25, 0.0]], uniform_measures(2))
    for n, seed in ((60, 1), (150, 2), (300, 3)):
        vals = eigenvalues(sample_w_random(w, n, seed).adj.astype(float)) / n
        for tol in (1e-7, 1e-3, 2e-2):
            want = dense_cluster_multiplicities(vals, tol, rounds)
            assert spectrum_bits(cluster_multiplicities(vals, tol)) == spectrum_bits(want)
    # one axis crowded: imaginary spectra of a one-way double cover
    a = random_regular_graph(40, 20, 6)
    for cover in (bidirected_double_cover(a), oneway_double_cover(a)):
        vals = eigenvalues(cover.adj.astype(float)) / cover.n
        for tol in (1e-7, 1e-2):
            want = dense_cluster_multiplicities(vals, tol, rounds)
            assert spectrum_bits(cluster_multiplicities(vals, tol)) == spectrum_bits(want)
    # random clouds at tol 1: about 0.3% of them merge over two or more rounds
    rng = np.random.default_rng(23)
    rounds = []
    for _ in range(4000):
        n = int(rng.integers(4, 14))
        pts = rng.uniform(-1.3, 1.3, n) + 1j * rng.uniform(-1.3, 1.3, n)
        want = dense_cluster_multiplicities(pts, 1.0, rounds)
        assert spectrum_bits(cluster_multiplicities(pts, 1.0)) == spectrum_bits(want)
    assert sum(r >= 2 for r in rounds) >= 10
    # extreme tolerances, non-finite inputs and one large coincident cluster
    tiny = [0.0, 5e-324, 1e-323, 2e-323, 5e-324j, -5e-324, 1e-323 + 1e-323j,
            1.5e-323 + 1.5e-323j, 1.0]
    huge = [1.7e308, -1.7e308, 1e308, 1e308j, -1e308 - 1e308j, 1.7e308 - 1.7e308j,
            -1.7e308 + 1.7e308j, 0.0, 3.0, np.inf]
    cases = [(tiny, 5e-324), (huge, 5e-324), (tiny, 1e308), (huge, 1e308),
             ([np.nan] * 3, 1e-8), ([np.inf, -np.inf, complex(np.inf, np.nan)], 1e308),
             ([complex(np.nan, 1.0), complex(1.0, np.inf), np.inf, np.inf], 1.0),
             (staged_points(rng, 1e-3, 20), 5e-324), (staged_points(rng, 1e-3, 20), 1e308),
             ([0.3 + 0.1j] * 2000, 1e-7)]
    with np.errstate(all="ignore"):
        for pts, tol in cases:
            want = dense_cluster_multiplicities(pts, tol, rounds)
            assert spectrum_bits(cluster_multiplicities(pts, tol)) == spectrum_bits(want)


_coordinates = st.one_of(
    st.integers(-8, 8).map(lambda k: k / 8),  # a grid: ties, chains and exact distances
    st.floats(-2.0, 2.0),
    st.floats(allow_nan=True, allow_infinity=True),
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.builds(complex, _coordinates, _coordinates), max_size=40),
       st.one_of(st.sampled_from([5e-324, 1e-12, 0.125, 0.25, 1.0, 1e308]),
                 st.floats(5e-324, 1e308)))
def test_cluster_matches_dense_clustering_bytes_on_generated_points(points, tol):
    with np.errstate(all="ignore"):
        want = dense_cluster_multiplicities(points, tol, [])
        got = cluster_multiplicities(points, tol)
    assert spectrum_bits(got) == spectrum_bits(want)


def test_cluster_component_order_moves_a_last_bit_of_a_later_merge():
    """A merge round numbers its clusters by their smallest member, the union-find
    of the dense reference by its root. Here the first round chains a ring of 12
    points into one cluster whose root is not its smallest member, so the second
    round, which merges it with two inner points, adds the three in another
    order: the mass is the same and the centroid moves by one unit in the last
    place."""
    ring = 1.9 * np.exp(1j * np.pi * np.arange(12) / 6)
    base = np.concatenate([ring, [0.6, -0.6]]) + (0.7 + 0.3j)
    pts = base[[13, 9, 11, 7, 6, 12, 8, 1, 2, 0, 3, 10, 4, 5]]
    rounds = []
    (want, mass), = dense_cluster_multiplicities(pts, 1.0, rounds).points
    (got, got_mass), = cluster_multiplicities(pts, 1.0).points
    assert rounds == [2] and got_mass == mass == 14
    assert got.imag == want.imag and got.real == np.nextafter(want.real, 0)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_cluster_zero_signs_and_non_finite_points():
    pts = [complex(-0.0, -0.0), complex(-0.0, 1.0), complex(np.inf, 0.0), complex(np.nan, 0.0),
           complex(np.inf, 0.0), 2.0, 2.0]
    want = dense_cluster_multiplicities(pts, 1e-8, [])
    assert spectrum_bits(cluster_multiplicities(pts, 1e-8)) == spectrum_bits(want)


# ---------------------------------------------------------------------------
# digraph and kernel spectra


def test_normalized_spectrum_directed_square():
    spec = normalized_spectrum(cycle_digraph(4))
    vals = sorted((v for v, m in spec.points), key=lambda z: (z.real, z.imag))
    assert np.allclose(vals, [-0.25, -0.25j, 0.25j, 0.25], atol=1e-10)
    assert all(m == 1 for _, m in spec.points)


def test_digraph_spectrum_empty():
    spec = digraph_spectrum(empty_digraph(6))
    assert spec.points == ((0j, 6),)
    assert spec.includes_zero_spectral_point


def test_digraph_spectrum_total_multiplicity():
    rng = np.random.default_rng(5)
    w = StepDigraphon(np.array([[0.0, 0.4], [0.3, 0.1]]), [0.6, 0.4])
    g = sample_w_random(w, 23, seed=9)
    assert digraph_spectrum(g).total_multiplicity == 23


def test_double_cover_spectrum_symmetry():
    a = random_regular_graph(10, 3, seed=1)
    spec = digraph_spectrum(bidirected_double_cover(a))
    vals = spec.point_set(include_zero=False)
    flipped = sorted_vals(-vals)
    assert np.allclose(sorted_vals(vals), flipped, atol=1e-8)


def test_step_spectrum_crossing_kernel():
    spec = step_spectrum(collapse(bidirected_crossing_pair()))
    assert spec.includes_zero_spectral_point
    assert len(spec.points) == 2
    assert spec.points[0] == (pytest.approx(-0.25), 1)
    assert spec.points[1] == (pytest.approx(0.25), 1)


def test_step_spectrum_constant_block():
    spec = step_spectrum(StepDigraphon([[0.3]], [1.0]))
    assert spec.points == ((pytest.approx(0.3), 1),)
    assert spec.includes_zero_spectral_point


def test_step_spectrum_matches_normalized_digraph_spectrum():
    rng = np.random.default_rng(6)
    w = StepDigraphon(np.array([[0.0, 0.5], [0.5, 0.0]]), uniform_measures(2))
    for seed in range(5):
        g = sample_w_random(w, int(rng.integers(5, 25)), seed)
        ns = normalized_spectrum(g)
        ss = step_spectrum(step_from_digraph(g))
        for v, m in ss.points:
            assert ns.multiplicity_at(v, tol=1e-7) == m


def test_step_spectrum_bounded_by_operator_norm():
    rng = np.random.default_rng(7)
    for _ in range(20):
        k = int(rng.integers(1, 7))
        vals = rng.uniform(-1, 1, (k, k))
        m = rng.random(k) + 0.1
        w = StepKernel(vals, m / m.sum(), bound=1.0)
        radius = max((abs(v) for v, _ in step_spectrum(w).points), default=0.0)
        assert radius <= op_norm_2to2(w) + 1e-6


def test_normalized_spectrum_in_unit_disk():
    rng = np.random.default_rng(8)
    w = StepDigraphon(np.array([[0.2, 0.3], [0.4, 0.1]]), [0.5, 0.5])
    for seed in range(5):
        g = sample_w_random(w, 40, seed)
        assert all(abs(v) <= 1.0 + 1e-9 for v, _ in normalized_spectrum(g).points)


# ---------------------------------------------------------------------------
# hausdorff distance


def test_hausdorff_equal_sets():
    pts = np.array([0.1 + 0.2j, -1.0, 3.0j])
    assert hausdorff_distance(pts, pts) == 0.0


def test_hausdorff_zero_vs_crossing_spectrum():
    assert hausdorff_distance([0.0], [0.0, 0.25, -0.25]) == pytest.approx(0.25, abs=0)


def test_hausdorff_symmetry_and_triangle():
    rng = np.random.default_rng(9)

    def random_points():
        n = int(rng.integers(1, 8))
        return rng.normal(size=n) + 1j * rng.normal(size=n)

    for _ in range(30):
        x, y, z = random_points(), random_points(), random_points()
        dxy = hausdorff_distance(x, y)
        assert dxy == hausdorff_distance(y, x)
        assert dxy <= hausdorff_distance(x, z) + hausdorff_distance(z, y) + 1e-12


def test_hausdorff_rejects_empty():
    with pytest.raises(ValueError):
        hausdorff_distance([], [1.0])


# ---------------------------------------------------------------------------
# multiplicity ledgers


def test_multiplicity_match_identical():
    limit = step_spectrum(collapse(bidirected_crossing_pair()))
    ledger = multiplicity_match(limit, limit, 0.25, epsilon=0.05)
    assert ledger.matched_mass == ledger.expected == 1
    assert ledger.matched


def test_multiplicity_match_missing_point():
    limit = step_spectrum(collapse(bidirected_crossing_pair()))
    observed = Spectrum(((1.0 + 0j, 1),))
    ledger = multiplicity_match(limit, observed, 0.25, epsilon=0.05)
    assert ledger.matched_mass == 0 and not ledger.matched


def test_multiplicity_match_isolation_violation():
    limit = Spectrum(((0.25 + 0j, 1), (0.3 + 0j, 1)))
    with pytest.raises(IsolationError):
        multiplicity_match(limit, limit, 0.25, epsilon=0.05)


def test_multiplicity_match_zero_point_violates_isolation():
    limit = Spectrum(((0.25 + 0j, 1),), includes_zero_spectral_point=True)
    with pytest.raises(IsolationError):
        multiplicity_match(limit, limit, 0.25, epsilon=0.2)


def test_multiplicity_match_epsilon_must_be_small():
    limit = Spectrum(((0.25 + 0j, 1),))
    with pytest.raises(ValueError):
        multiplicity_match(limit, limit, 0.25, epsilon=0.3)
    with pytest.raises(ValueError):
        multiplicity_match(limit, limit, 0.9, epsilon=0.05)
    with pytest.raises(ValueError, match="epsilon must be positive"):
        multiplicity_match(limit, limit, 0.25, epsilon=float("nan"))


# ---------------------------------------------------------------------------
# singular moment bound


def test_singular_moment_bound_simple_cases():
    assert singular_moment_bound(empty_digraph(4))
    for ell in (2, 3, 5, 8):
        assert singular_moment_bound(cycle_digraph(ell))


def test_singular_moment_bound_random_samples():
    rng = np.random.default_rng(10)
    w = StepDigraphon(np.array([[0.1, 0.4], [0.4, 0.1]]), [0.5, 0.5])
    for seed in range(10):
        g = sample_w_random(w, int(rng.integers(5, 40)), seed)
        assert singular_moment_bound(g)


# ---------------------------------------------------------------------------
# serialization


def test_spectrum_csv_round_trip_with_zero_flag():
    spec = step_spectrum(collapse(bidirected_crossing_pair()))
    text = spectrum_to_csv(spec)
    lines = text.strip().splitlines()
    assert lines[0] == "re,im,mult"
    assert lines[-1] == "0,0,0"
    back = spectrum_from_csv(text)
    assert back.includes_zero_spectral_point
    assert back.points == spec.points


def test_spectrum_csv_without_zero_flag():
    spec = Spectrum(((1.5 + 0j, 2),))
    back = spectrum_from_csv(spectrum_to_csv(spec))
    assert not back.includes_zero_spectral_point
    assert back.points == spec.points


def test_spectrum_csv_rejects_bad_header():
    with pytest.raises(ValueError):
        spectrum_from_csv("a,b,c\n1,0,1\n")


@pytest.mark.parametrize("row", ["0.5,0,0", "0,0.5,0", "nan,0,1", "1,inf,1"])
def test_spectrum_csv_rejects_a_nonzero_flag_row_and_non_finite_values(row):
    with pytest.raises(ValueError):
        spectrum_from_csv(f"re,im,mult\n{row}\n")


def test_overlapping_blas_pins_restore_once_the_last_exits():
    fns = spectra._openblas_threads()
    if fns is None:
        pytest.skip("numpy's bundled OpenBLAS not found")
    get, set_ = fns
    before = get()
    set_(2)
    try:
        # two callers on different threads: the first to enter leaves first
        first, second = spectra.one_blas_thread(), spectra.one_blas_thread()
        first.__enter__()
        second.__enter__()
        first.__exit__(None, None, None)
        assert get() == 1
        second.__exit__(None, None, None)
        assert get() == 2
    finally:
        set_(before)
