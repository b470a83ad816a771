"""Executable convergence checks: trace identities, spectral convergence, covers.

Everything here composes the densities, kernels and spectra modules into
experiment-shaped routines whose outputs are plain report dataclasses, ready
to serialize. Statistical routines take explicit seeds and derive one child
seed per cell, so reports are reproducible cell-by-cell.
"""
from __future__ import annotations

import statistics
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .digraph import (
    Digraph,
    UndirectedRegularGraph,
    bidirected_double_cover,
    cycle_digraph,
    oneway_double_cover,
    random_regular_graph,
    sample_w_random,
    trace_power,
)
from .errors import NumericalError
from .seeding import child_seed
from .spectra import (
    MultiplicityLedger,
    Spectrum,
    _adjacency_spectrum,
    check_isolation,
    eigenvalues,
    hausdorff_distance,
    multiplicity_match,
    normalized_spectrum,
    one_blas_thread,
    step_spectrum,
)
from .stepkernel import (
    StepDigraphon,
    StepKernel,
    common_refinement,
    hom_density_step,
    nu_convergence_gaps,
)


@dataclass(frozen=True)
class TraceCheckReport:
    """One cycle length: density by block enumeration vs eigenvalue power sum."""

    ell: int
    lhs: float
    rhs: float
    abs_error: float


@dataclass(frozen=True, eq=False)
class ConvergenceRow:
    """One experiment cell: sample size, child seed, and spectral diagnostics."""

    n: int
    seed: int | None
    observed: Spectrum
    hausdorff: float
    ledgers: tuple[MultiplicityLedger, ...]
    nu_gaps: tuple[float, float] | None = None


@dataclass(frozen=True, eq=False)
class ConvergenceReport:
    limit_spectrum: Spectrum
    rows: tuple[ConvergenceRow, ...]

    def median_hausdorff_by_n(self) -> dict[int, float]:
        by_n: dict[int, list[float]] = {}
        for row in self.rows:
            by_n.setdefault(row.n, []).append(row.hausdorff)
        return {n: float(statistics.median(v)) for n, v in sorted(by_n.items())}


@dataclass(frozen=True, eq=False)
class DoubleCoverRow:
    """Diagnostics for the two double covers of one random regular graph."""

    degree: int
    seed: int
    spectrum_match_bidirected: float
    spectrum_match_oneway: float
    cycle_density_bidirected: dict[int, float]
    cycle_density_oneway: dict[int, float]
    hausdorff_bidirected: float
    hausdorff_oneway: float


@dataclass(frozen=True, eq=False)
class DoubleCoverReport:
    rows: tuple[DoubleCoverRow, ...]
    limit_points: tuple[complex, ...]


# ---------------------------------------------------------------------------
# trace identity


def cycle_density_via_spectrum(w: StepKernel, ell: int, imag_tol: float = 1e-8) -> float:
    """Cycle density of length ell from the spectrum: sum of mult * lam^ell.

    The identity with the block-enumeration density holds for ell >= 3;
    ell = 2 is accepted for kernel-level comparisons but flagged, because on
    digraph sequences the length-2 channel counts antiparallel pairs and is
    not governed by W1 + W2 alone.
    """
    if ell < 2:
        raise ValueError("cycle length must be at least 2")
    if ell == 2:
        warnings.warn(
            "cycle length 2 is outside the ell >= 3 range of the spectral identity; "
            "interpret the value as a kernel-level quantity only",
            UserWarning,
            stacklevel=2,
        )
    total = step_spectrum(w).power_sum(ell)
    if abs(total.imag) > imag_tol:
        raise NumericalError(
            f"imaginary residue {total.imag:.3e} of the power sum exceeds {imag_tol:.1e}"
        )
    return float(total.real)


def verify_trace_formula(w: StepKernel, ell_max: int) -> list[TraceCheckReport]:
    """Compare both routes to t(C_ell, W) for ell = 3..ell_max.

    The left side enumerates block maps (exact finite sum), the right side
    sums mult * lam^ell over the nonzero spectrum; the two are computed
    independently of each other.
    """
    if ell_max < 3:
        raise ValueError("ell_max must be at least 3")
    reports = []
    for ell in range(3, ell_max + 1):
        lhs = hom_density_step(cycle_digraph(ell), w)
        rhs = cycle_density_via_spectrum(w, ell)
        reports.append(TraceCheckReport(ell, lhs, rhs, abs(lhs - rhs)))
    return reports


# ---------------------------------------------------------------------------
# sampled convergence


def _limit_point_set(limit: Spectrum, sample_size: int) -> np.ndarray:
    # The zero spectral point joins the target set only once the sample is
    # large enough that pigeonhole forces a small observed eigenvalue
    # (more vertices than total nonzero multiplicity).
    include_zero = sample_size > limit.total_multiplicity
    return limit.point_set(include_zero=include_zero)


@one_blas_thread()
def convergence_experiment(
    w: StepDigraphon,
    sizes: tuple[int, ...] | list[int],
    seeds_per_size: int,
    epsilon: float,
    seed: int,
    nu_gaps: bool = False,
    workers: int = 1,
) -> ConvergenceReport:
    """Sample W-random digraphs at increasing sizes and track spectral distance.

    For each (size, repeat) cell a child seed is derived, a digraph sampled,
    and the row records the normalized spectrum, its Hausdorff distance to the
    limit spectrum, and one multiplicity ledger per nonzero limit eigenvalue
    at the given epsilon. Cells are independent; workers > 1 threads them.
    Every eigensolve runs on one BLAS thread, so the parallelism is the
    pool's alone and the report's bytes do not depend on either thread count.
    """
    if not isinstance(w, StepDigraphon):
        raise TypeError("convergence_experiment requires a StepDigraphon")
    sizes = [int(n) for n in sizes]
    if not sizes or any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("sizes must be non-empty and strictly increasing")
    if sizes[0] < 1:
        raise ValueError("sizes must be positive")
    if seeds_per_size < 1:
        raise ValueError("seeds_per_size must be at least 1")
    limit = step_spectrum(w)
    for v, _ in limit.points:
        check_isolation(limit, v, epsilon)

    cells = [
        (i, j, n, child_seed(seed, i, j))
        for i, n in enumerate(sizes)
        for j in range(seeds_per_size)
    ]

    def run_cell(cell) -> ConvergenceRow:
        _, _, n, cell_seed = cell
        g = sample_w_random(w, n, cell_seed)
        observed = normalized_spectrum(g)
        h = hausdorff_distance(observed.point_set(), _limit_point_set(limit, n))
        ledgers = tuple(
            multiplicity_match(limit, observed, v, epsilon) for v, _ in limit.points
        )
        gaps = None
        if nu_gaps:
            from .stepkernel import step_from_digraph

            rn, rw = common_refinement(step_from_digraph(g), w)
            gaps = nu_convergence_gaps(rn, rw)
        return ConvergenceRow(n, cell_seed, observed, h, ledgers, gaps)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = tuple(pool.map(run_cell, cells))
    else:
        rows = tuple(run_cell(c) for c in cells)
    return ConvergenceReport(limit, rows)


def step_sequence_convergence(
    ws: list[StepKernel], w: StepKernel, epsilon: float
) -> ConvergenceReport:
    """Deterministic spectral convergence along a sequence of step kernels.

    Each row holds the Hausdorff distance between the nonzero spectra (with
    the zero spectral point included on both sides), multiplicity ledgers at
    the nonzero limit eigenvalues, and the two composition-norm gaps
    (||(Wn - W) W||, ||(Wn - W) Wn||). Row index is 1-based; seed is None.
    """
    if not ws:
        raise ValueError("sequence must be non-empty")
    limit = step_spectrum(w)
    for v, _ in limit.points:
        check_isolation(limit, v, epsilon)
    rows = []
    for i, wn in enumerate(ws):
        observed = step_spectrum(wn)
        h = hausdorff_distance(
            observed.point_set(include_zero=True), limit.point_set(include_zero=True)
        )
        ledgers = tuple(
            multiplicity_match(limit, observed, v, epsilon) for v, _ in limit.points
        )
        rn, rw = common_refinement(wn, w)
        gaps = nu_convergence_gaps(rn, rw)
        rows.append(ConvergenceRow(i + 1, None, observed, h, ledgers, gaps))
    return ConvergenceReport(limit, tuple(rows))


# ---------------------------------------------------------------------------
# regular-graph double covers


def _match_multisets(observed: np.ndarray, expected: np.ndarray) -> float:
    """Largest pointwise error of the optimal matching between two multisets."""
    cost = np.abs(observed[:, None] - expected[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


@one_blas_thread()
def double_cover_example(
    degrees: tuple[int, ...] | list[int],
    seed: int,
    ells: tuple[int, ...] = (2, 3, 4),
    spectral_tol: float | None = None,
) -> DoubleCoverReport:
    """Spectra and cycle densities of the two double covers of regular graphs.

    For each degree d a random d-regular graph A on 2d vertices is drawn. The
    bidirected cover has spectrum {+lam, -lam} over Sp(A); the one-way cover
    has {+d, -d} plus {+i lam, -i lam} over the eigenvalues whose eigenvectors
    are orthogonal to the all-ones vector. Both identities are verified by
    optimal matching (a NumericalError reports a violation), and the rows
    record cycle densities and the Hausdorff distance of the normalized
    spectra to {1/4, -1/4, 0}. Eigensolves run on one BLAS thread.
    """
    degrees = [int(d) for d in degrees]
    if any(d < 2 for d in degrees):
        raise ValueError("degrees must be at least 2")
    targets = np.array([0.25, -0.25, 0.0], dtype=np.complex128)
    rows = []
    for idx, d in enumerate(degrees):
        cell_seed = child_seed(seed, idx)
        a = random_regular_graph(2 * d, d, cell_seed)
        h_bi = bidirected_double_cover(a)
        h_one = oneway_double_cover(a)
        tol = spectral_tol if spectral_tol is not None else 1e-5 * d

        eig_a = eigenvalues(a.adj.astype(np.float64))
        if float(np.max(np.abs(eig_a.imag))) > tol:
            raise NumericalError("symmetric adjacency produced non-real eigenvalues")
        lam = np.sort(eig_a.real)[::-1]
        if abs(lam[0] - d) > tol:
            raise NumericalError(
                f"top eigenvalue {lam[0]:.6f} of a {d}-regular graph is not {d}"
            )

        expected_bi = np.concatenate([lam, -lam]).astype(np.complex128)
        eig_bi = eigenvalues(h_bi.adj.astype(np.float64))
        err_bi = _match_multisets(eig_bi, expected_bi)

        rest = lam[1:]
        expected_one = np.concatenate(
            [[d, -d], 1j * rest, -1j * rest]
        ).astype(np.complex128)
        eig_one = eigenvalues(h_one.adj.astype(np.float64))
        err_one = _match_multisets(eig_one, expected_one)

        if err_bi > tol or err_one > tol:
            raise NumericalError(
                f"double-cover spectra deviate from the block identities "
                f"(errors {err_bi:.3e}, {err_one:.3e} at degree {d})"
            )

        # t(C_ell, H) = Tr(A^ell) / n^ell: the cycle's homomorphism count, exactly
        dens_bi = {ell: trace_power(h_bi, ell) / h_bi.n**ell for ell in ells}
        dens_one = {ell: trace_power(h_one, ell) / h_one.n**ell for ell in ells}
        # the normalized spectra reuse the eigenvalues solved above
        h_bi_dist = hausdorff_distance(
            _adjacency_spectrum(eig_bi, h_bi.n, h_bi.n, None).point_set(), targets)
        h_one_dist = hausdorff_distance(
            _adjacency_spectrum(eig_one, h_one.n, h_one.n, None).point_set(), targets)
        rows.append(
            DoubleCoverRow(
                degree=d,
                seed=cell_seed,
                spectrum_match_bidirected=err_bi,
                spectrum_match_oneway=err_one,
                cycle_density_bidirected=dens_bi,
                cycle_density_oneway=dens_one,
                hausdorff_bidirected=h_bi_dist,
                hausdorff_oneway=h_one_dist,
            )
        )
    return DoubleCoverReport(tuple(rows), tuple(complex(t) for t in targets))


# ---------------------------------------------------------------------------
# report serialization


def _spectrum_obj(spec: Spectrum) -> dict:
    return {
        "points": [{"re": v.real, "im": v.imag, "mult": m} for v, m in spec.points],
        "includes_zero_spectral_point": spec.includes_zero_spectral_point,
    }


def _ledger_obj(ledger: MultiplicityLedger) -> dict:
    return {
        "target_re": ledger.target.real,
        "target_im": ledger.target.imag,
        "epsilon": ledger.epsilon,
        "matched_mass": ledger.matched_mass,
        "expected": ledger.expected,
    }


def convergence_report_to_json(report: ConvergenceReport) -> dict:
    return {
        "limit_spectrum": _spectrum_obj(report.limit_spectrum),
        "median_hausdorff_by_n": {
            str(n): v for n, v in report.median_hausdorff_by_n().items()
        },
        "rows": [
            {
                "n": row.n,
                "seed": row.seed,
                "hausdorff": row.hausdorff,
                "observed": _spectrum_obj(row.observed),
                "ledgers": [_ledger_obj(l) for l in row.ledgers],
                "nu_gaps": list(row.nu_gaps) if row.nu_gaps is not None else None,
            }
            for row in report.rows
        ],
    }


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def convergence_report_to_csv(report: ConvergenceReport) -> str:
    """Flat rows: n, seed, hausdorff, then matched/expected per limit point."""
    lines = []
    for i, (v, _) in enumerate(report.limit_spectrum.points):
        lines.append(f"# lambda{i} = {_fmt(v.real)}{v.imag:+.17g}j")
    header = ["n", "seed", "hausdorff"]
    for i in range(len(report.limit_spectrum.points)):
        header += [f"lambda{i}_matched", f"lambda{i}_expected"]
    if report.rows and report.rows[0].nu_gaps is not None:
        header += ["nu_gap_limit", "nu_gap_self"]
    lines.append(",".join(header))
    for row in report.rows:
        cells = [str(row.n), "" if row.seed is None else str(row.seed), _fmt(row.hausdorff)]
        for ledger in row.ledgers:
            cells += [str(ledger.matched_mass), str(ledger.expected)]
        if row.nu_gaps is not None:
            cells += [_fmt(row.nu_gaps[0]), _fmt(row.nu_gaps[1])]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def trace_checks_to_csv(reports: list[TraceCheckReport]) -> str:
    lines = ["ell,lhs,rhs,abs_error"]
    lines.extend(
        f"{r.ell},{_fmt(r.lhs)},{_fmt(r.rhs)},{_fmt(r.abs_error)}" for r in reports
    )
    return "\n".join(lines) + "\n"


def double_cover_report_to_json(report: DoubleCoverReport) -> dict:
    return {
        "limit_points": [{"re": t.real, "im": t.imag} for t in report.limit_points],
        "rows": [
            {
                "degree": row.degree,
                "seed": row.seed,
                "spectrum_match_bidirected": row.spectrum_match_bidirected,
                "spectrum_match_oneway": row.spectrum_match_oneway,
                "cycle_density_bidirected": {
                    str(k): v for k, v in sorted(row.cycle_density_bidirected.items())
                },
                "cycle_density_oneway": {
                    str(k): v for k, v in sorted(row.cycle_density_oneway.items())
                },
                "hausdorff_bidirected": row.hausdorff_bidirected,
                "hausdorff_oneway": row.hausdorff_oneway,
            }
            for row in report.rows
        ],
    }


def double_cover_report_to_csv(report: DoubleCoverReport) -> str:
    ells = sorted(report.rows[0].cycle_density_bidirected) if report.rows else []
    header = ["degree", "seed", "spectrum_match_bidirected", "spectrum_match_oneway"]
    header += [f"t_c{ell}_bidirected" for ell in ells]
    header += [f"t_c{ell}_oneway" for ell in ells]
    header += ["hausdorff_bidirected", "hausdorff_oneway"]
    lines = [",".join(header)]
    for row in report.rows:
        cells = [
            str(row.degree),
            str(row.seed),
            _fmt(row.spectrum_match_bidirected),
            _fmt(row.spectrum_match_oneway),
        ]
        cells += [_fmt(row.cycle_density_bidirected[ell]) for ell in ells]
        cells += [_fmt(row.cycle_density_oneway[ell]) for ell in ells]
        cells += [_fmt(row.hausdorff_bidirected), _fmt(row.hausdorff_oneway)]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
