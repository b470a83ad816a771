import concurrent.futures
import json
import math
import multiprocessing
import os

import numpy as np
import pytest

from digraphon import (
    BudgetError,
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
from digraphon.digraph import (
    bidirected_double_cover,
    oneway_double_cover,
    random_regular_graph,
    sample_w_random,
)


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


def test_verify_trace_formula_solves_the_spectrum_once(monkeypatch):
    rng = np.random.default_rng(5)
    w = random_digraphon(rng, 4)
    calls = []
    solve = limits.step_spectrum

    def counted(kernel, *args):
        calls.append(kernel)
        return solve(kernel, *args)

    monkeypatch.setattr(limits, "step_spectrum", counted)
    reports = verify_trace_formula(w, 8)
    assert calls == [w]
    for report in reports:
        assert report.rhs == cycle_density_via_spectrum(w, report.ell)
    assert [r.ell for r in reports] == [3, 4, 5, 6, 7, 8]


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
    forked = convergence_experiment(w, [10, 20], 3, epsilon=0.05, seed=5, workers=4)
    for rs, rt in zip(serial.rows, forked.rows):
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
    for workers in (0, -3):
        with pytest.raises(ValueError, match="workers must be at least 1"):
            convergence_experiment(w, [5], 1, epsilon=0.1, seed=0, workers=workers)


def test_double_cover_example_budgets_its_largest_degree_first(monkeypatch):
    # With 1 MB of physical memory degree 3 fits (33 B per n^2 of the 12-vertex
    # covers) and degree 100 does not (5.3 MB at n = 400): it is refused
    # before the regular graph of the first degree is drawn.
    fake = {"SC_PHYS_PAGES": 250, "SC_PAGE_SIZE": 4000}
    real = os.sysconf
    monkeypatch.setattr(os, "sysconf", lambda name: fake.get(name) or real(name))
    assert len(double_cover_example([3], seed=1).rows) == 1

    def never(*args):
        raise AssertionError("drew a graph before the budget check")

    monkeypatch.setattr(limits, "random_regular_graph", never)
    with pytest.raises(BudgetError, match="double covers at degree 100"):
        double_cover_example([3, 100], seed=1)


def test_convergence_experiment_budgets_concurrent_cells(monkeypatch):
    # With 5 MB of physical memory one n = 400 cell fits (20 B/n^2, the
    # sampler's own 3 B/n^2 too, and the 0.57 MB of its report); two
    # concurrent cells, or one with nu-gaps (70 B/n^2), are rejected before
    # anything is sampled.
    fake = {"SC_PHYS_PAGES": 1250, "SC_PAGE_SIZE": 4000}
    real = os.sysconf
    monkeypatch.setattr(os, "sysconf", lambda name: fake.get(name) or real(name))
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # two cells may run at once
    w = StepDigraphon(np.array([[0.0, 0.25], [0.25, 0.0]]), [0.5, 0.5])
    assert len(convergence_experiment(w, [400], 1, epsilon=0.05, seed=1, workers=2).rows) == 1

    def never(*args):
        raise AssertionError("sampled before the budget check")

    monkeypatch.setattr(limits, "_w_random_draw", never)
    for kwargs in ({"workers": 2}, {"nu_gaps": True}):
        with pytest.raises(BudgetError, match="physical memory"):
            convergence_experiment(w, [10, 400], 1, epsilon=0.05, seed=1, **kwargs)
    # a billion n = 2 cells fit one at a time, but their report would not
    with pytest.raises(BudgetError, match="1000000000 converge cell"):
        convergence_experiment(w, [2], 10**9, epsilon=0.05, seed=1)


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


class Observations:
    """A list that forked worker processes append to as well: each append is
    one JSON line in a file, which the caller reads back."""

    def __init__(self, path):
        self.path = path
        self.clear()

    def append(self, value) -> None:
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(value) + "\n")

    def read(self) -> list:
        return [json.loads(line) for line in self.path.read_text(encoding="utf-8").splitlines()]

    def clear(self) -> None:
        self.path.write_text("", encoding="utf-8")


@pytest.fixture
def observations(tmp_path):
    return Observations(tmp_path / "observations.jsonl")


def test_convergence_experiment_pins_and_restores_blas_threads(monkeypatch, observations):
    fns = spectra._openblas_threads()
    if fns is None:
        pytest.skip("numpy's bundled OpenBLAS not found")
    get, set_ = fns
    solve = limits._bipartite_eigenvalues  # the crossing kernel's blocks 2-colour

    def recording_solve(m, side):
        observations.append(get())
        return solve(m, side)

    monkeypatch.setattr(limits, "_bipartite_eigenvalues", recording_solve)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    w = StepDigraphon(np.array([[0.0, 0.25], [0.25, 0.0]]), [0.5, 0.5])
    before = get()
    set_(2)
    try:
        for workers in (1, 2):  # in this process, then on two forked workers
            observations.clear()
            convergence_experiment(w, [20, 40], 2, epsilon=0.05, seed=3, workers=workers)
            assert observations.read() == [1] * 4 and get() == 2
        # 0 lies within 2 * epsilon of the limit points +-1/8
        with pytest.raises(IsolationError):
            convergence_experiment(w, [20], 1, epsilon=0.1, seed=3, workers=2)
        assert get() == 2
    finally:
        set_(before)


@pytest.mark.parametrize("values,sides", [
    ([[0.0, 0.25], [0.25, 0.0]], [False, True]),
    ([[0.0, 0.3, 0.0], [0.2, 0.0, 0.4], [0.0, 0.5, 0.0]], [False, True, False]),
    ([[0.0, 0.0, 0.2], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]], [False, False, True]),  # one W(x, y) > 0
    ([[0.0, 0.0], [0.0, 0.0]], [False, False]),
    ([[0.1, 0.2], [0.2, 0.0]], None),  # a nonzero diagonal block
    ([[0.0, 0.3, 0.0], [0.0, 0.0, 0.3], [0.3, 0.0, 0.0]], None),  # an odd cycle of blocks
])
def test_block_sides_two_colour_the_support_of_w(values, sides):
    got = limits._block_sides(np.array(values))
    assert got is None if sides is None else got.tolist() == sides


def dfs_block_sides(values):
    """The 2-colouring as first written: a stack-based search from each uncoloured
    block in turn, the search's first block on side False."""
    joined = (values + values.T) != 0
    side = np.full(values.shape[0], -1)
    for root in range(side.size):
        if side[root] >= 0:
            continue
        side[root] = 0
        stack = [root]
        while stack:
            b = stack.pop()
            for c in np.flatnonzero(joined[b]):
                if side[c] == side[b]:
                    return None
                if side[c] < 0:
                    side[c] = 1 - side[b]
                    stack.append(c)
    return side == 1


def test_block_sides_match_the_depth_first_colouring():
    # which side is True picks the small side of a sample's block product, and
    # with it the bytes of its spectrum
    rng = np.random.default_rng(8)
    kinds = {"none": 0, "sides": 0}
    for _ in range(2400):
        k = int(rng.integers(1, 9))
        values = rng.random((k, k)) * (rng.random((k, k)) < rng.random())
        if rng.random() < 0.6:  # zero within the sides of a random split
            side = rng.random(k) < 0.5
            values[np.ix_(side, side)] = 0.0
            values[np.ix_(~side, ~side)] = 0.0
        if rng.random() < 0.2:  # a loop on one block
            b = rng.integers(k)
            values[b, b] = 0.5
        isolated = rng.random(k) < 0.3
        values[isolated] = 0.0
        values[:, isolated] = 0.0
        want, got = dfs_block_sides(values), limits._block_sides(values)
        assert (got is None) == (want is None)
        if want is not None:
            assert got.dtype == bool and got.tolist() == want.tolist()
        kinds["none" if want is None else "sides"] += 1
    assert min(kinds.values()) >= 500


def counting(monkeypatch, module, name, sizes):
    """Append the size of every matrix module.name solves to sizes (Observations,
    so that solves in worker processes count too)."""
    solve = getattr(module, name)

    def counted(m, *args):
        sizes.append(m.shape[0])
        return solve(m, *args)

    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("workers", [1, 2])
def test_convergence_experiment_solves_bipartite_samples_on_the_half_size_product(
        monkeypatch, tmp_path, workers):
    general = Observations(tmp_path / "general.jsonl")
    bipartite = Observations(tmp_path / "bipartite.jsonl")
    counting(monkeypatch, spectra, "eigenvalues", general)
    counting(monkeypatch, limits, "_bipartite_eigenvalues", bipartite)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    crossing = StepDigraphon(np.array([[0.0, 0.25], [0.25, 0.0]]), [0.5, 0.5])
    report = convergence_experiment(crossing, [50, 100], 2, epsilon=0.05, seed=3,
                                    workers=workers)
    # the limit, then each cell
    assert general.read() == [2] and sorted(bipartite.read()) == [50, 50, 100, 100]
    for row in report.rows:
        g = sample_w_random(crossing, row.n, row.seed)
        full = spectra.normalized_spectrum(g)
        assert spectra.hausdorff_distance(row.observed.point_set(), full.point_set()) <= 1e-10


@pytest.mark.parametrize("workers", [1, 2])
def test_convergence_experiment_falls_back_to_dgeev_when_blocks_do_not_two_colour(
        monkeypatch, tmp_path, workers):
    general = Observations(tmp_path / "general.jsonl")
    bipartite = Observations(tmp_path / "bipartite.jsonl")
    counting(monkeypatch, spectra, "eigenvalues", general)
    counting(monkeypatch, limits, "_bipartite_eigenvalues", bipartite)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    cycle = StepDigraphon(np.array([[0.0, 0.6, 0.0], [0.0, 0.0, 0.6], [0.6, 0.0, 0.0]]),
                          uniform_measures(3))
    report = convergence_experiment(cycle, [10, 20], 2, epsilon=0.05, seed=3, workers=workers)
    sizes = general.read()
    assert sizes[0] == 3 and sorted(sizes[1:]) == [10, 10, 20, 20] and bipartite.read() == []
    for row in report.rows:
        full = spectra.normalized_spectrum(sample_w_random(cycle, row.n, row.seed))
        assert row.observed.points == full.points


def test_convergence_cells_compute_under_the_callers_errstate(monkeypatch, observations):
    solve = limits._bipartite_eigenvalues

    def recording_solve(m, side):
        observations.append(np.geterr())
        return solve(m, side)

    monkeypatch.setattr(limits, "_bipartite_eigenvalues", recording_solve)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    w = StepDigraphon(np.array([[0.0, 0.25], [0.25, 0.0]]), [0.5, 0.5])
    with np.errstate(over="raise", invalid="raise"):
        caller = np.geterr()
        convergence_experiment(w, [10, 20], 2, epsilon=0.05, seed=3, workers=2)
    assert caller["over"] == "raise" and observations.read() == [caller] * 4
    observations.clear()
    convergence_experiment(w, [10], 2, epsilon=0.05, seed=3, workers=2)
    seen = observations.read()
    assert seen == [np.geterr()] * 2 and seen[0]["over"] != "raise"


def recording_pools(monkeypatch, cpus):
    """The process count each convergence_experiment maps its cells on (1: the
    calling process), and the max_workers of each process pool it starts, on
    cpus CPUs."""
    pools, forked = [], []
    map_cells = limits._map_cells

    def recording_map(processes, run_cell, cells):
        pools.append(processes)
        return map_cells(processes, run_cell, cells)

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            forked.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(limits, "_map_cells", recording_map)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    return pools, forked


def test_convergence_pool_starts_no_more_processes_than_cells(monkeypatch):
    pools, forked = recording_pools(monkeypatch, 64)
    w = StepDigraphon(np.array([[0.0, 0.25], [0.25, 0.0]]), [0.5, 0.5])
    reports = []
    for workers in (1, 2, 64):
        reports.append(convergence_report_to_json(convergence_experiment(
            w, [10, 20], 2, epsilon=0.05, seed=3, workers=workers)))
        assert multiprocessing.active_children() == []
    assert pools == [1, 2, 4]  # four cells
    assert forked == [2, 4]  # one cell at a time runs in this process and forks nothing
    assert reports[0] == reports[1] == reports[2]


def test_convergence_pool_starts_no_more_processes_than_cpus(monkeypatch):
    pools, forked = recording_pools(monkeypatch, 2)
    w = StepDigraphon(np.array([[0.0, 0.25], [0.25, 0.0]]), [0.5, 0.5])
    report = convergence_experiment(w, [10, 20], 4, epsilon=0.05, seed=3, workers=10**5)
    assert len(report.rows) == 8 and pools == [2] and forked == [2]


def test_convergence_report_bytes_do_not_depend_on_workers_or_blas_threads(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    fns = spectra._openblas_threads()
    kernels = [  # the half-size bipartite route, then the whole adjacency
        StepDigraphon(np.array([[0.0, 0.25], [0.25, 0.0]]), [0.5, 0.5]),
        StepDigraphon(np.array([[0.0, 0.6, 0.0], [0.0, 0.0, 0.6], [0.6, 0.0, 0.0]]),
                      uniform_measures(3)),
    ]
    texts = {0: set(), 1: set()}
    before = fns[0]() if fns else None
    try:
        for blas in (1, 2) if fns else (None,):
            if fns:
                fns[1](blas)
            for workers in (1, 2, 64):
                for i, w in enumerate(kernels):
                    report = convergence_experiment(w, [100, 300], 2, epsilon=0.05, seed=11,
                                                    workers=workers)
                    texts[i].add(json.dumps(convergence_report_to_json(report), sort_keys=True))
                    assert fns is None or fns[0]() == blas
    finally:
        if fns:
            fns[1](before)
    assert [len(t) for t in texts.values()] == [1, 1]


def _fail_in_cells(monkeypatch, fail):
    """Make every cell's eigensolve call fail() instead."""
    monkeypatch.setattr(limits, "_bipartite_eigenvalues", lambda m, side: fail())
    monkeypatch.setattr(os, "cpu_count", lambda: 2)


def test_worker_errors_reach_the_caller_and_leave_no_process(monkeypatch):
    def fail():
        raise NumericalError("eigenvalue sum deviates from the trace by 1.000e+00")

    _fail_in_cells(monkeypatch, fail)
    w = StepDigraphon(np.array([[0.0, 0.25], [0.25, 0.0]]), [0.5, 0.5])
    for workers in (1, 2):
        with pytest.raises(NumericalError) as info:
            convergence_experiment(w, [10, 20], 3, epsilon=0.05, seed=3, workers=workers)
        assert type(info.value) is NumericalError
        assert str(info.value) == "eigenvalue sum deviates from the trace by 1.000e+00"
        assert multiprocessing.active_children() == []


def test_worker_floating_point_errors_follow_the_callers_errstate(monkeypatch):
    _fail_in_cells(monkeypatch, lambda: np.float64(1e308) * np.float64(10.0))
    w = StepDigraphon(np.array([[0.0, 0.25], [0.25, 0.0]]), [0.5, 0.5])
    messages = set()
    for workers in (1, 2):
        with np.errstate(over="raise"), pytest.raises(FloatingPointError) as info:
            convergence_experiment(w, [10, 20], 3, epsilon=0.05, seed=3, workers=workers)
        assert type(info.value) is FloatingPointError
        messages.add(str(info.value))
        assert multiprocessing.active_children() == []
    assert len(messages) == 1 and "overflow" in messages.pop()


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
    solved = {"eigenvalues": [], "_symmetric_eigenvalues": []}
    for name, sizes in solved.items():
        def counting(m, solve=getattr(limits, name), sizes=sizes):
            sizes.append(m.shape[0])
            return solve(m)

        monkeypatch.setattr(limits, name, counting)
    report = double_cover_example([4, 6], seed=9)
    # A and the bidirected cover on the symmetric solver, the one-way cover on dgeev
    assert solved == {"eigenvalues": [16, 24], "_symmetric_eigenvalues": [8, 16, 12, 24]}
    targets = [0.25, -0.25, 0.0]
    for row, d in zip(report.rows, (4, 6)):
        a = random_regular_graph(2 * d, d, row.seed)
        bi, one = bidirected_double_cover(a), oneway_double_cover(a)
        fresh_bi = spectra._adjacency_spectrum(
            spectra._symmetric_eigenvalues(bi.adj.astype(float)), bi.n, bi.n, None)
        # the same bits as clustering a fresh solve of the cover on the same solver
        for spec, dist in ((fresh_bi, row.hausdorff_bidirected),
                           (spectra.normalized_spectrum(one), row.hausdorff_oneway)):
            assert dist == spectra.hausdorff_distance(spec.point_set(), targets)


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
