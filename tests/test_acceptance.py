"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run `pytest tests/test_acceptance.py -v -s` to see the lines as they print.
Statistical criteria use fixed master seeds and median-over-seeds thresholds;
digraphs generated along the way are re-checked against the squared-eigenvalue
moment bound at the end.
"""
import math
import time

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from digraphon import (
    Digraph,
    StepDigraphon,
    StepKernel,
    bidirected_crossing_pair,
    bidirected_double_cover,
    collapse,
    compose_step,
    convergence_experiment,
    cut_metric,
    cut_norm,
    cycle_digraph,
    double_cover_example,
    eigenvalues,
    hom_count,
    hom_density_pair,
    oneway_crossing_pair,
    oneway_double_cover,
    op_norm_2to2,
    random_regular_graph,
    sample_w_random,
    singular_moment_bound,
    step_sequence_convergence,
    step_spectrum,
    trace_power,
    uniform_measures,
    verify_trace_formula,
)
from digraphon import spectra

# Digraphs produced by criteria 1, 4 and 5, re-checked by criterion 9.
_GENERATED: list[Digraph] = []
_SURROGATE = StepDigraphon(np.array([[0.0, 0.25], [0.25, 0.0]]), [0.5, 0.5])
_CONVERGENCE_ROWS: list[tuple[int, int]] = []  # (n, seed) cells of criterion 5


def _report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    suffix = f" [{detail}]" if detail else ""
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}{suffix}")
    assert ok, f"criterion {num} failed: {desc}{suffix}"


def _random_digraphon(rng: np.random.Generator, k: int) -> StepDigraphon:
    x = rng.random((k, k))
    np.fill_diagonal(x, rng.random(k) * 0.5)
    scale = np.maximum(x + x.T, 1.0)
    m = rng.random(k) + 0.1
    return StepDigraphon(x / scale, m / m.sum())


def test_criterion_1_discrete_trace_identity():
    # 200 random digraphs, n <= 60: the exact count of closed ell-walks equals
    # the homomorphism count of the ell-cycle, and matches the eigenvalue
    # power sum within 1e-6 * n^ell.
    start = time.time()
    rng = np.random.default_rng(101)
    exact_ok = True
    spectral_ok = True
    for _ in range(200):
        w = _random_digraphon(rng, int(rng.integers(1, 5)))
        n = int(rng.integers(5, 61))
        g = sample_w_random(w, n, int(rng.integers(2**32)))
        _GENERATED.append(g)
        vals = eigenvalues(g.adj.astype(float))
        for ell in (3, 4, 5):
            walks = trace_power(g, ell)
            exact_ok &= hom_count(cycle_digraph(ell), g) == walks
            spectral_ok &= abs((vals**ell).sum() - walks) <= 1e-6 * n**ell
    elapsed = time.time() - start
    _report(
        1,
        "discrete trace identity on 200 random digraphs, ell in {3,4,5}",
        exact_ok and spectral_ok and elapsed < 60,
        f"exact={exact_ok}, spectral={spectral_ok}, {elapsed:.1f}s",
    )


def test_criterion_2_step_kernel_trace_identity():
    # 100 random step digraphons, k <= 8: block-map density vs eigenvalue
    # power sum agree to 1e-8 for ell = 3..8.
    start = time.time()
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(100):
        w = _random_digraphon(rng, int(rng.integers(1, 9)))
        worst = max(worst, max(r.abs_error for r in verify_trace_formula(w, 8)))
    elapsed = time.time() - start
    _report(
        2,
        "cycle density equals spectrum power sum on 100 step digraphons, ell in {3..8}",
        worst < 1e-8 and elapsed < 60,
        f"worst abs_error={worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_crossing_kernel_numbers():
    # The two-block crossing pairs: spectrum {1/4, -1/4, 0}, cycle densities
    # 4^-ell + (-4)^-ell, and length-2 densities 1/4 vs 0 exactly.
    pair_bi = bidirected_crossing_pair()
    pair_one = oneway_crossing_pair()
    spec = step_spectrum(collapse(pair_bi))
    spec_ok = (
        spec.includes_zero_spectral_point
        and len(spec.points) == 2
        and abs(spec.points[0][0] + 0.25) < 1e-12
        and abs(spec.points[1][0] - 0.25) < 1e-12
        and spec.points[0][1] == spec.points[1][1] == 1
    )
    dens_ok = True
    for ell in range(3, 9):
        target = 4.0**-ell + (-4.0) ** -ell
        for pair in (pair_bi, pair_one):
            dens_ok &= abs(hom_density_pair(cycle_digraph(ell), pair) - target) < 1e-10
    c2 = cycle_digraph(2)
    c2_ok = (
        hom_density_pair(c2, pair_bi) == 0.25
        and hom_density_pair(c2, pair_one) == 0.0
    )
    _report(
        3,
        "crossing-pair spectrum and cycle densities reproduced",
        spec_ok and dens_ok and c2_ok,
        f"spectrum={spec_ok}, densities={dens_ok}, length-2={c2_ok}",
    )


def test_criterion_4_double_cover_structures():
    # Degrees 20, 50, 100: spectra match the block identities within 1e-5 * d,
    # length-2 densities are exact, and t(C4) at degree 100 is near 2^-7.
    start = time.time()
    report = double_cover_example([20, 50, 100], seed=404)
    spec_ok = all(
        max(r.spectrum_match_bidirected, r.spectrum_match_oneway) <= 1e-5 * r.degree
        for r in report.rows
    )
    c2_ok = all(
        r.cycle_density_bidirected[2] == 0.25 and r.cycle_density_oneway[2] == 0.0
        for r in report.rows
    )
    big = report.rows[-1]
    c4_ok = (
        abs(big.cycle_density_bidirected[4] - 2**-7) < 1e-2
        and abs(big.cycle_density_oneway[4] - 2**-7) < 1e-2
    )
    for row in report.rows:
        a = random_regular_graph(2 * row.degree, row.degree, row.seed)
        _GENERATED.append(bidirected_double_cover(a))
        _GENERATED.append(oneway_double_cover(a))
    elapsed = time.time() - start
    _report(
        4,
        "double covers of regular graphs: spectra and cycle densities",
        spec_ok and c2_ok and c4_ok and elapsed < 300,
        f"spectra={spec_ok}, c2 exact={c2_ok}, c4 near 2^-7={c4_ok}, {elapsed:.1f}s",
    )


def test_criterion_5_sampled_spectral_convergence():
    # Crossing-surrogate digraphon, sizes 50..800, 20 seeds per size: median
    # Hausdorff distance shrinks below 0.08 and multiplicity ledgers at the
    # two limit eigenvalues match for at least 80% of seeds at n = 800.
    start = time.time()
    report = convergence_experiment(
        _SURROGATE, [50, 100, 200, 400, 800], 20, epsilon=0.05, seed=17
    )
    med = report.median_hausdorff_by_n()
    medians_ok = med[800] < med[50] and med[800] < 0.08
    rows800 = [r for r in report.rows if r.n == 800]
    fractions = []
    for idx in range(len(report.limit_spectrum.points)):
        fractions.append(sum(r.ledgers[idx].matched for r in rows800) / len(rows800))
    ledgers_ok = all(f >= 0.8 for f in fractions)
    _CONVERGENCE_ROWS.extend((r.n, r.seed) for r in report.rows)
    elapsed = time.time() - start
    _report(
        5,
        "sampled normalized spectra converge to the limit spectrum",
        medians_ok and ledgers_ok and elapsed < 600,
        f"median@50={med[50]:.3f}, median@800={med[800]:.3f}, "
        f"ledger fractions={fractions}, {elapsed:.1f}s",
    )


def test_criterion_6_composition_cut_norm_bound():
    # 1000 random kernel pairs with sup bound <= 1: the composed operator
    # norm never exceeds 2 * sqrt(cut norm of the left factor).
    start = time.time()
    rng = np.random.default_rng(606)
    violations = 0
    for _ in range(1000):
        k = int(rng.integers(1, 9))
        m = rng.random(k) + 0.1
        m = m / m.sum()
        v = StepKernel(rng.uniform(-1, 1, (k, k)), m, bound=1.0)
        u = StepKernel(rng.uniform(-1, 1, (k, k)), m, bound=1.0)
        lhs = op_norm_2to2(compose_step(v, u))
        if lhs > 2 * math.sqrt(cut_norm(v)) + 1e-9:
            violations += 1
    elapsed = time.time() - start
    _report(
        6,
        "composition norm bounded by 2 sqrt(cut norm) on 1000 random pairs",
        violations == 0 and elapsed < 60,
        f"violations={violations}, {elapsed:.1f}s",
    )


def test_criterion_7_deterministic_kernel_sequence():
    # Wn = W + 2^-n * noise, k = 6, n = 1..20: Hausdorff distances and both
    # composition-norm gaps fall below 1e-4 by n = 20 and the gaps stay below
    # 2 sqrt(cut metric) throughout.
    rng = np.random.default_rng(707)
    w = StepDigraphon(rng.random((6, 6)) * 0.4, uniform_measures(6), bound=1.0)
    noise = rng.uniform(-0.5, 0.5, (6, 6))
    members = [
        StepKernel(w.values + 2.0**-n * noise, w.measures, bound=1.0)
        for n in range(1, 21)
    ]
    pts = [v for v, _ in step_spectrum(w).points] + [0j]
    gaps = [abs(u - v) for i, u in enumerate(pts) for v in pts[i + 1:]]
    radius = min(abs(v) for v in pts if v != 0)
    epsilon = min(0.4 * min(gaps), 0.9 * radius)
    report = step_sequence_convergence(members, w, epsilon=epsilon)
    last = report.rows[-1]
    final_ok = last.hausdorff < 1e-4 and max(last.nu_gaps) < 1e-4
    decreasing_ok = last.hausdorff < report.rows[0].hausdorff
    bound_ok = True
    for row, member in zip(report.rows, members):
        limit_bound = 2 * math.sqrt(cut_metric(member, w)) + 1e-9
        bound_ok &= row.nu_gaps[0] <= limit_bound and row.nu_gaps[1] <= limit_bound
    _report(
        7,
        "perturbed kernel sequence: distances and nu-gaps below 1e-4 by step 20",
        final_ok and decreasing_ok and bound_ok,
        f"final hausdorff={last.hausdorff:.2e}, final gaps={tuple(f'{g:.2e}' for g in last.nu_gaps)}, "
        f"bounded={bound_ok}",
    )


def _char_poly_coeffs(m: np.ndarray) -> np.ndarray:
    # Faddeev-LeVerrier recursion for the monic characteristic polynomial
    n = m.shape[0]
    coeffs = [1.0]
    mk = np.eye(n)
    for k in range(1, n + 1):
        am = m @ mk
        c = -np.trace(am) / k
        coeffs.append(float(c))
        mk = am + c * np.eye(n)
    return np.asarray(coeffs)


def _polynomial_roots(coeffs: np.ndarray, iters: int = 300) -> np.ndarray:
    # Durand-Kerner simultaneous iteration from a non-symmetric circle
    n = len(coeffs) - 1
    if n == 0:
        return np.zeros(0, dtype=complex)
    radius = 1.0 + max(abs(c) for c in coeffs[1:])
    roots = radius * np.exp(1j * (2 * np.pi * np.arange(n) / n + 0.4))
    poly = np.asarray(coeffs, dtype=complex)
    for _ in range(iters):
        vals = np.polyval(poly, roots)
        diffs = roots[:, None] - roots[None, :]
        np.fill_diagonal(diffs, 1.0)
        step = vals / diffs.prod(axis=1)
        roots = roots - step
        if np.max(np.abs(step)) < 1e-13:
            break
    return roots


def test_criterion_8_eigensolver_oracle_equivalence():
    # 500 random matrices, n <= 12: eigenvalues agree with the roots of the
    # independently computed characteristic polynomial after optimal matching.
    start = time.time()
    rng = np.random.default_rng(808)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(1, 13))
        m = rng.uniform(-1, 1, (n, n))
        observed = eigenvalues(m)
        roots = _polynomial_roots(_char_poly_coeffs(m))
        cost = np.abs(observed[:, None] - roots[None, :])
        r, c = linear_sum_assignment(cost)
        worst = max(worst, float(cost[r, c].max()))
    elapsed = time.time() - start
    _report(
        8,
        "eigenvalues match characteristic-polynomial roots on 500 matrices",
        worst < 1e-6 and elapsed < 60,
        f"worst matched error={worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_9_squared_moment_bound_everywhere():
    # Every digraph generated by criteria 1, 4 and 5 satisfies
    # sum of mult * |lambda|^2 <= n^2.
    digraphs = list(_GENERATED)
    for n, seed in _CONVERGENCE_ROWS:
        digraphs.append(sample_w_random(_SURROGATE, n, seed))
    if not digraphs:  # standalone invocation: draw a fresh batch
        rng = np.random.default_rng(909)
        for _ in range(20):
            w = _random_digraphon(rng, int(rng.integers(1, 4)))
            digraphs.append(sample_w_random(w, int(rng.integers(5, 50)), int(rng.integers(2**32))))
    # about 100 dense solves up to n = 800, on one BLAS thread as in the experiments
    with spectra.one_blas_thread():
        violations = sum(0 if singular_moment_bound(g) else 1 for g in digraphs)
    _report(
        9,
        "squared-eigenvalue moment bound holds on every generated digraph",
        violations == 0,
        f"checked={len(digraphs)}, violations={violations}",
    )
