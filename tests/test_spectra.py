import numpy as np
import pytest

from digraphon import (
    IsolationError,
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
