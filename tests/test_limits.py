import math

import numpy as np
import pytest

from digraphon import (
    IsolationError,
    NumericalError,
    StepDigraphon,
    StepKernel,
    bidirected_crossing_pair,
    collapse,
    convergence_experiment,
    convergence_report_to_csv,
    convergence_report_to_json,
    cut_metric,
    cycle_density_via_spectrum,
    double_cover_example,
    double_cover_report_to_csv,
    double_cover_report_to_json,
    step_sequence_convergence,
    trace_checks_to_csv,
    uniform_measures,
    verify_trace_formula,
)
from digraphon import limits, spectra
from digraphon.digraph import bidirected_double_cover, oneway_double_cover, random_regular_graph


def crossing_kernel():
    return collapse(bidirected_crossing_pair())


def random_digraphon(rng, k):
    x = rng.random((k, k))
    np.fill_diagonal(x, rng.random(k) * 0.5)
    scale = np.maximum(x + x.T, 1.0)
    m = rng.random(k) + 0.1
    return StepDigraphon(x / scale, m / m.sum())


# ---------------------------------------------------------------------------
# trace identity


def test_cycle_density_crossing_kernel():
    w = crossing_kernel()
    assert cycle_density_via_spectrum(w, 4) == pytest.approx(2**-7, abs=1e-12)
    assert cycle_density_via_spectrum(w, 3) == pytest.approx(0.0, abs=1e-12)


def test_cycle_density_constant_kernel():
    w = StepDigraphon([[0.5]], [1.0])
    assert cycle_density_via_spectrum(w, 3) == pytest.approx(1 / 8, abs=1e-12)


def test_cycle_density_length_two_warns():
    w = crossing_kernel()
    with pytest.warns(UserWarning):
        val = cycle_density_via_spectrum(w, 2)
    assert val == pytest.approx(2 * 0.25**2, abs=1e-12)


def test_cycle_density_rejects_length_one():
    with pytest.raises(ValueError):
        cycle_density_via_spectrum(crossing_kernel(), 1)


def test_verify_trace_formula_random_digraphons():
    rng = np.random.default_rng(0)
    for _ in range(10):
        w = random_digraphon(rng, int(rng.integers(1, 7)))
        for report in verify_trace_formula(w, 6):
            assert report.abs_error < 1e-8


def test_verify_trace_formula_directed_cycle_blocks():
    vals = np.zeros((3, 3))
    for i in range(3):
        vals[i, (i + 1) % 3] = 1.0
    w = StepDigraphon(vals, uniform_measures(3))
    reports = {r.ell: r for r in verify_trace_formula(w, 6)}
    assert reports[3].lhs == pytest.approx(1 / 9, abs=1e-12)
    assert reports[4].lhs == pytest.approx(0.0, abs=1e-12)
    assert reports[6].lhs == pytest.approx(1 / 243, abs=1e-12)
    assert all(r.abs_error < 1e-10 for r in reports.values())


def test_verify_trace_formula_zero_kernel():
    w = StepKernel(np.zeros((2, 2)), [0.5, 0.5])
    assert all(r.lhs == 0.0 and r.rhs == 0.0 for r in verify_trace_formula(w, 5))


def test_verify_trace_formula_requires_three():
    with pytest.raises(ValueError):
        verify_trace_formula(crossing_kernel(), 2)


# ---------------------------------------------------------------------------
# sampled convergence


def test_convergence_experiment_degenerate_zero_kernel():
    w = StepDigraphon(np.zeros((1, 1)), [1.0])
    report = convergence_experiment(w, [5, 10], 3, epsilon=0.1, seed=0)
    assert all(row.hausdorff == 0.0 for row in report.rows)
    assert all(row.observed.points == ((0j, row.n),) for row in report.rows)


def test_convergence_experiment_rows_sorted_and_deterministic():
    w = StepDigraphon(np.array([[0.0, 0.25], [0.25, 0.0]]), [0.5, 0.5])
    a = convergence_experiment(w, [10, 20, 30], 2, epsilon=0.05, seed=3)
    b = convergence_experiment(w, [10, 20, 30], 2, epsilon=0.05, seed=3)
    assert [r.n for r in a.rows] == [10, 10, 20, 20, 30, 30]
    for ra, rb in zip(a.rows, b.rows):
        assert ra.seed == rb.seed and ra.hausdorff == rb.hausdorff
    c = convergence_experiment(w, [10, 20, 30], 2, epsilon=0.05, seed=4)
    assert any(ra.hausdorff != rc.hausdorff for ra, rc in zip(a.rows, c.rows))


def test_convergence_experiment_parallel_matches_serial():
    w = StepDigraphon(np.array([[0.0, 0.25], [0.25, 0.0]]), [0.5, 0.5])
    serial = convergence_experiment(w, [10, 20], 3, epsilon=0.05, seed=5, workers=1)
    threaded = convergence_experiment(w, [10, 20], 3, epsilon=0.05, seed=5, workers=4)
    for rs, rt in zip(serial.rows, threaded.rows):
        assert rs.seed == rt.seed and rs.hausdorff == rt.hausdorff


def test_convergence_experiment_ledger_mass_bounded():
    w = StepDigraphon(np.array([[0.0, 0.25], [0.25, 0.0]]), [0.5, 0.5])
    report = convergence_experiment(w, [8, 16], 4, epsilon=0.05, seed=6)
    for row in report.rows:
        assert sum(l.matched_mass for l in row.ledgers) <= row.n


def test_convergence_experiment_validates_sizes():
    w = StepDigraphon(np.zeros((1, 1)), [1.0])
    with pytest.raises(ValueError):
        convergence_experiment(w, [10, 10], 2, epsilon=0.1, seed=0)
    with pytest.raises(ValueError):
        convergence_experiment(w, [], 2, epsilon=0.1, seed=0)
    with pytest.raises(TypeError):
        convergence_experiment(StepKernel([[0.5]], [1.0]), [5], 1, epsilon=0.1, seed=0)


def test_convergence_half_constant_medians_decrease():
    w = StepDigraphon(np.array([[0.5]]), [1.0], bound=1.0)
    report = convergence_experiment(w, [20, 80], 5, epsilon=0.2, seed=12)
    med = report.median_hausdorff_by_n()
    assert med[80] < med[20]


def test_convergence_crossing_digraphon_ledgers():
    # the crossing kernel is itself a digraphon; at n = 400 the mass near
    # each limit eigenvalue +-1/4 is 1 for a clear majority of seeds
    w = StepDigraphon(np.array([[0.0, 0.5], [0.5, 0.0]]), [0.5, 0.5])
    report = convergence_experiment(w, [400], 10, epsilon=0.05, seed=13)
    for idx in range(2):
        matched = sum(row.ledgers[idx].matched for row in report.rows)
        assert matched >= 8


def test_convergence_experiment_nu_gaps_optional():
    w = StepDigraphon(np.array([[0.0, 0.25], [0.25, 0.0]]), [0.5, 0.5])
    report = convergence_experiment(w, [12], 1, epsilon=0.05, seed=7, nu_gaps=True)
    (row,) = report.rows
    assert row.nu_gaps is not None
    g1, g2 = row.nu_gaps
    assert g1 >= 0.0 and g2 >= 0.0


def test_convergence_experiment_pins_and_restores_blas_threads(monkeypatch):
    fns = spectra._openblas_threads()
    if fns is None:
        pytest.skip("numpy's bundled OpenBLAS not found")
    get, set_ = fns
    seen = []
    spectrum = limits.normalized_spectrum

    def recording_spectrum(g):
        seen.append(get())
        return spectrum(g)

    monkeypatch.setattr(limits, "normalized_spectrum", recording_spectrum)
    w = StepDigraphon(np.array([[0.0, 0.25], [0.25, 0.0]]), [0.5, 0.5])
    before = get()
    set_(2)
    try:
        convergence_experiment(w, [20, 40], 2, epsilon=0.05, seed=3, workers=2)
        assert seen == [1] * 4 and get() == 2
        # 0 lies within 2 * epsilon of the limit points +-1/8
        with pytest.raises(IsolationError):
            convergence_experiment(w, [20], 1, epsilon=0.1, seed=3, workers=2)
        assert get() == 2
    finally:
        set_(before)


# ---------------------------------------------------------------------------
# deterministic sequences


def _safe_epsilon(w):
    # largest epsilon that isolates every nonzero limit eigenvalue
    from digraphon import step_spectrum

    pts = [v for v, _ in step_spectrum(w).points] + [0j]
    gaps = [abs(u - v) for i, u in enumerate(pts) for v in pts[i + 1:]]
    radius = min(abs(v) for v in pts if v != 0)
    return min(0.4 * min(gaps), 0.9 * radius)


def test_step_sequence_constant_sequence_is_exactly_zero():
    rng = np.random.default_rng(1)
    w = random_digraphon(rng, 4)
    report = step_sequence_convergence([w, w, w], w, epsilon=_safe_epsilon(w))
    for row in report.rows:
        assert row.hausdorff == 0.0
        assert row.nu_gaps == (0.0, 0.0)
        assert all(l.matched for l in row.ledgers)


def test_step_sequence_perturbation_decreases():
    rng = np.random.default_rng(2)
    w = StepDigraphon(rng.random((5, 5)) * 0.4, uniform_measures(5), bound=1.0)
    noise = rng.uniform(-0.5, 0.5, (5, 5))
    members = [
        StepKernel(w.values + 2.0**-i * noise, w.measures, bound=1.0)
        for i in range(1, 13)
    ]
    eps = _safe_epsilon(w)
    report = step_sequence_convergence(members, w, epsilon=eps)
    h = [row.hausdorff for row in report.rows]
    assert h[-1] < h[0]
    assert h[-1] < 1e-3
    for i, row in enumerate(report.rows, start=1):
        bound = 2 * math.sqrt(cut_metric(members[i - 1], w)) + 1e-9
        assert row.nu_gaps[0] <= bound and row.nu_gaps[1] <= bound


# ---------------------------------------------------------------------------
# double covers


def test_double_cover_example_small_degrees():
    report = double_cover_example([3, 5], seed=0)
    assert [row.degree for row in report.rows] == [3, 5]
    for row in report.rows:
        assert row.spectrum_match_bidirected < 1e-8
        assert row.spectrum_match_oneway < 1e-8
        assert row.cycle_density_bidirected[2] == 0.25
        assert row.cycle_density_oneway[2] == 0.0
        assert row.cycle_density_bidirected[3] == 0.0
        assert row.cycle_density_oneway[3] == 0.0
        assert row.hausdorff_bidirected >= 0.0


def test_double_cover_example_deterministic():
    a = double_cover_example([4], seed=9)
    b = double_cover_example([4], seed=9)
    assert a.rows[0].seed == b.rows[0].seed
    assert a.rows[0].cycle_density_bidirected == b.rows[0].cycle_density_bidirected


def test_double_cover_example_solves_each_matrix_once(monkeypatch):
    solved = []
    eigenvalues = limits.eigenvalues

    def counting_eigenvalues(m):
        solved.append(m.shape[0])
        return eigenvalues(m)

    monkeypatch.setattr(limits, "eigenvalues", counting_eigenvalues)
    report = double_cover_example([4, 6], seed=9)
    assert solved == [8, 16, 16, 12, 24, 24]
    targets = [0.25, -0.25, 0.0]
    for row, d in zip(report.rows, (4, 6)):
        a = random_regular_graph(2 * d, d, row.seed)
        for cover, dist in ((bidirected_double_cover(a), row.hausdorff_bidirected),
                            (oneway_double_cover(a), row.hausdorff_oneway)):
            # the same bits as clustering a fresh solve of the cover
            assert dist == spectra.hausdorff_distance(
                spectra.normalized_spectrum(cover).point_set(), targets)


def test_double_cover_example_rejects_tiny_degree():
    with pytest.raises(ValueError):
        double_cover_example([1], seed=0)


def test_double_cover_example_absurd_tolerance_raises():
    with pytest.raises(NumericalError):
        double_cover_example([4], seed=0, spectral_tol=1e-30)


# ---------------------------------------------------------------------------
# report serialization


def test_convergence_report_serialization_shapes():
    w = StepDigraphon(np.array([[0.0, 0.25], [0.25, 0.0]]), [0.5, 0.5])
    report = convergence_experiment(w, [10, 20], 2, epsilon=0.05, seed=8)
    obj = convergence_report_to_json(report)
    assert len(obj["rows"]) == 4
    assert set(obj["median_hausdorff_by_n"]) == {"10", "20"}
    csv_text = convergence_report_to_csv(report)
    header = [ln for ln in csv_text.splitlines() if not ln.startswith("#")][0]
    assert header.split(",")[:3] == ["n", "seed", "hausdorff"]
    assert len(csv_text.strip().splitlines()) >= 5


def test_trace_checks_csv():
    text = trace_checks_to_csv(verify_trace_formula(crossing_kernel(), 5))
    lines = text.strip().splitlines()
    assert lines[0] == "ell,lhs,rhs,abs_error"
    assert len(lines) == 4


def test_double_cover_report_serialization():
    report = double_cover_example([3], seed=1)
    obj = double_cover_report_to_json(report)
    assert obj["rows"][0]["degree"] == 3
    text = double_cover_report_to_csv(report)
    assert text.splitlines()[0].startswith("degree,seed,")
