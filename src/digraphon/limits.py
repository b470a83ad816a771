"""Executable convergence checks: trace identities, spectral convergence, covers.

Everything here composes the digraph, stepkernel and spectra modules into
experiment-shaped routines whose outputs are plain report dataclasses, ready
to serialize. Statistical routines take explicit seeds and derive one child
seed per cell, so reports are reproducible cell-by-cell.
"""
from __future__ import annotations

import concurrent.futures
import os
import statistics
import warnings
from dataclasses import asdict, astuple, dataclass, fields
from functools import partial

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.sparse.csgraph import connected_components

from .digraph import (
    Digraph,
    _require_memory,
    _w_random_draw,
    bidirected_double_cover,
    cycle_digraph,
    oneway_double_cover,
    random_regular_graph,
    trace_power,
)
from .errors import NumericalError
from .seeding import child_seed
from .spectra import (
    MultiplicityLedger,
    Spectrum,
    _adjacency_spectrum,
    _bipartite_eigenvalues,
    _csv_text,
    _symmetric_eigenvalues,
    check_isolation,
    eigenvalues,
    hausdorff_distance,
    multiplicity_match,
    normalized_spectrum,
    one_blas_thread,
    spectrum_to_json,
    step_spectrum,
)
from .stepkernel import (
    StepDigraphon,
    StepKernel,
    common_refinement,
    hom_density_step,
    nu_convergence_gaps,
    step_from_digraph,
)

# Resident bytes per n^2 that one converge cell adds at its peak (ru_maxrss
# growth, seeds 1-3, n = 1600 and 2400): 9.0 and 8.1 on the half-size
# bipartite route (crossing surrogate; only B and C leave the int8
# adjacency as float64), 19.2 and 18.5 on the whole adjacency (a 3-cycle of
# blocks). The n x n step kernels and products of nu-gaps raise it to 62.0
# and 60.8 (bipartite), 68.2 and 59.8 (whole adjacency). Each worker process
# holds one cell, so a run holds as many cells as it has workers.
_CELL_BYTES_PER_N2 = 20
_NU_GAPS_CELL_BYTES_PER_N2 = 70
# Resident bytes per n^2 of one double-cover degree d (n = 4d cover vertices):
# 31.2 at n = 1600, 32.0 at n = 2400 (26.3 traced), from the float64 matrices
# of trace_power and the eigensolves; the regular graph takes under 5.
_COVER_BYTES_PER_N2 = 33
# Resident bytes the report of a converge run holds per reported eigenvalue
# (its Spectrum point, JSON dict and text: 1.30-1.33 K at n = 200) and per
# cell (row, cell tuple, pool future and ledgers: 6.5 K in all at n = 1).
_REPORT_BYTES_PER_EIGENVALUE = 1400
_REPORT_BYTES_PER_CELL = 5400
_IMAG_TOL = 1e-8  # largest imaginary residue of a spectral power sum taken as rounding
_COVER_CYCLES = (2, 3, 4)  # cycle lengths whose densities a double-cover row records


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


def cycle_density_via_spectrum(w: StepKernel, ell: int) -> float:
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
    return _real_power_sum(step_spectrum(w), ell)


def _real_power_sum(spectrum: Spectrum, ell: int) -> float:
    """The real part of spectrum.power_sum(ell); NumericalError when its
    imaginary part exceeds _IMAG_TOL, the size of rounding."""
    total = spectrum.power_sum(ell)
    if abs(total.imag) > _IMAG_TOL:
        raise NumericalError(
            f"imaginary residue {total.imag:.3e} of the power sum exceeds {_IMAG_TOL:.1e}"
        )
    return float(total.real)


def verify_trace_formula(w: StepKernel, ell_max: int) -> list[TraceCheckReport]:
    """Compare both routes to t(C_ell, W) for ell = 3..ell_max.

    The left side enumerates block maps (exact finite sum), the right side
    sums mult * lam^ell over the nonzero spectrum; the two are computed
    independently of each other. The spectrum is solved once for all lengths.
    """
    if ell_max < 3:
        raise ValueError("ell_max must be at least 3")
    spectrum = step_spectrum(w)
    reports = []
    for ell in range(3, ell_max + 1):
        lhs = hom_density_step(cycle_digraph(ell), w)
        rhs = _real_power_sum(spectrum, ell)
        reports.append(TraceCheckReport(ell, lhs, rhs, abs(lhs - rhs)))
    return reports


# ---------------------------------------------------------------------------
# sampled convergence


def _isolated_limit(w: StepKernel, epsilon: float) -> Spectrum:
    """The nonzero spectrum of w, each of whose points epsilon must isolate."""
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    limit = step_spectrum(w)
    for v, _ in limit.points:
        check_isolation(limit, v, epsilon)
    return limit


def _row(w: StepKernel, limit: Spectrum, epsilon: float, n: int, seed: int | None,
         observed: Spectrum, limit_zero: bool, wn: StepKernel | None) -> ConvergenceRow:
    """The row of observed against w's limit spectrum: the Hausdorff distance
    of their point sets (0 in the limit's only when limit_zero), a ledger per
    limit point, and the nu-gaps of wn against w unless wn is None."""
    h = hausdorff_distance(observed.point_set(), limit.point_set(limit_zero))
    ledgers = tuple(multiplicity_match(limit, observed, v, epsilon) for v, _ in limit.points)
    gaps = None
    if wn is not None:
        rn, rw = common_refinement(wn, w)
        del wn  # a sample's n x n kernel: free it before the gaps' products
        gaps = nu_convergence_gaps(rn, rw)
    return ConvergenceRow(n, seed, observed, h, ledgers, gaps)


def _block_sides(values: np.ndarray) -> np.ndarray | None:
    """A side (False or True) per block such that W vanishes between blocks of
    one side in both directions, or None when the blocks do not 2-colour.

    Block b is node b of the bipartite double cover [[0, J], [J, 0]] of the
    support J of W + W^T, and its copy b + k lies in the same component iff
    an odd walk joins b to itself. Components are numbered by their lowest
    node, so every component's lowest block gets False.
    """
    k = values.shape[0]
    cover = np.kron([[0, 1], [1, 0]], (values + values.T) != 0)
    _, labels = connected_components(cover, directed=False)
    if (labels[:k] == labels[k:]).any():
        return None
    return labels[:k] > labels[k:]


def _converge_cell(w: StepDigraphon, limit: Spectrum, epsilon: float, nu_gaps: bool,
                   sides: np.ndarray | None, errstate: dict,
                   cell: tuple[int, int]) -> ConvergenceRow:
    """The row of one (n, seed) cell of convergence_experiment, computed under
    the numpy errstate given: a W-random draw of n vertices, solved from the
    half-size block product when sides 2-colour w's blocks, else whole."""
    n, cell_seed = cell
    with np.errstate(**errstate):
        g, labels = _w_random_draw(w, n, cell_seed)
        if sides is None:
            observed = normalized_spectrum(g)
        else:
            vals = _bipartite_eigenvalues(g.adj, sides[labels])
            observed = _adjacency_spectrum(vals, n, n, None)
        # The limit's zero point joins once pigeonhole forces a small
        # observed eigenvalue (more vertices than nonzero limit mass).
        return _row(w, limit, epsilon, n, cell_seed, observed, n > limit.total_multiplicity,
                    step_from_digraph(g) if nu_gaps else None)


_worker_cell = None  # in a forked worker process: the cell function of its pool


def _start_worker(run_cell) -> None:
    global _worker_cell
    _worker_cell = run_cell


def _run_worker_cell(cell):
    return _worker_cell(cell)


def _map_cells(processes: int, run_cell, cells: list) -> list[ConvergenceRow]:
    """run_cell over cells, in order: in this process when processes is 1, else
    on that many worker processes. Each worker gets run_cell through fork, not
    pickle, so only the cells go out and only the rows come back. No worker
    outlives the call, and cells not yet started are dropped on an error."""
    if processes == 1:
        return list(map(run_cell, cells))
    # loaded here, so that runs which fork nothing do not pay for the import
    import multiprocessing

    pool = concurrent.futures.ProcessPoolExecutor(
        processes, mp_context=multiprocessing.get_context("fork"),
        initializer=_start_worker, initargs=(run_cell,))
    try:
        return list(pool.map(_run_worker_cell, cells))
    finally:
        pool.shutdown(cancel_futures=True)


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
    at the given epsilon. When the blocks of w split into two sides with W
    zero within each side, every sample is bipartite along the sides of its
    vertices' block labels and is solved from the half-size product of its
    two off-diagonal blocks (spectra._bipartite_eigenvalues); otherwise from
    its whole adjacency. Cells run on workers (>= 1) processes, but no more
    than CPUs or cells, each under the caller's numpy floating-point error
    handling; with one, they run in the calling process. The processes are
    forked (POSIX only), so that they inherit w and the limit without
    re-importing numpy. They are processes because numpy's eigvals holds the
    interpreter lock for a whole solve (a pure-Python thread spinning beside
    400 x 400 solves runs at about a tenth of its speed beside sleep or an
    svd), so threads would solve one cell at a time. Every eigensolve runs on
    one BLAS thread, a pin the workers inherit, so the parallelism is the
    pool's alone and the report's bytes depend on neither count.
    Before any sampling or fork, a BudgetError rejects runs whose concurrent
    cells at the largest n, together with the report of every cell, would
    not fit in physical memory. A worker that dies (an out-of-memory kill, a
    signal) raises BrokenProcessPool.
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
    if workers < 1:
        raise ValueError("workers must be at least 1")
    limit = _isolated_limit(w, epsilon)
    n = sizes[-1]
    count = len(sizes) * seeds_per_size
    concurrent = min(workers, count, os.cpu_count() or 1)
    per_n2 = _NU_GAPS_CELL_BYTES_PER_N2 if nu_gaps else _CELL_BYTES_PER_N2
    report = seeds_per_size * (sum(sizes) * _REPORT_BYTES_PER_EIGENVALUE
                               + len(sizes) * _REPORT_BYTES_PER_CELL)
    _require_memory(concurrent * per_n2 * n * n + report,
                    f"{count} converge cell(s), {concurrent} at a time at n={n}")
    cells = [(n, child_seed(seed, i, j))
             for i, n in enumerate(sizes) for j in range(seeds_per_size)]
    run_cell = partial(_converge_cell, w, limit, epsilon, nu_gaps, _block_sides(w.values),
                       np.geterr())
    return ConvergenceReport(limit, tuple(_map_cells(concurrent, run_cell, cells)))


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
    limit = _isolated_limit(w, epsilon)
    return ConvergenceReport(limit, tuple(
        _row(w, limit, epsilon, i, None, step_spectrum(wn), True, wn)
        for i, wn in enumerate(ws, start=1)))


# ---------------------------------------------------------------------------
# regular-graph double covers


def _match_multisets(observed: np.ndarray, expected: np.ndarray) -> float:
    """Largest pointwise error of the optimal matching between two multisets."""
    cost = np.abs(observed[:, None] - expected[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def _cover_diagnostics(h: Digraph, solve, expected: np.ndarray,
                       targets: np.ndarray) -> tuple[float, dict[int, float], float]:
    """Of one cover h: the match error of solve(adjacency) against the expected
    eigenvalues, the cycle densities, and the Hausdorff distance of the
    normalized spectrum (from the same eigenvalues) to targets."""
    eig = solve(h.adj.astype(np.float64))
    # t(C_ell, H) = Tr(A^ell) / n^ell: the cycle's homomorphism count, exactly
    densities = {ell: trace_power(h, ell) / h.n**ell for ell in _COVER_CYCLES}
    dist = hausdorff_distance(_adjacency_spectrum(eig, h.n, h.n, None).point_set(), targets)
    return _match_multisets(eig, expected), densities, dist


@one_blas_thread()
def double_cover_example(
    degrees: tuple[int, ...] | list[int],
    seed: int,
    spectral_tol: float | None = None,
) -> DoubleCoverReport:
    """Spectra and cycle densities of the two double covers of regular graphs.

    For each degree d a random d-regular graph A on 2d vertices is drawn. The
    bidirected cover has spectrum {+lam, -lam} over Sp(A); the one-way cover
    has {+d, -d} plus {+i lam, -i lam} over the eigenvalues whose eigenvectors
    are orthogonal to the all-ones vector. Both identities are verified by
    optimal matching (a NumericalError reports a violation), and the rows
    record the cycle densities of lengths 2, 3 and 4 and the Hausdorff
    distance of the normalized spectra to {1/4, -1/4, 0}. A and the bidirected
    cover are symmetric and go to the symmetric solver; the one-way cover goes
    to dgeev. Eigensolves run on one BLAS thread. A BudgetError rejects a
    largest degree that would not fit in physical memory before any draw.
    """
    degrees = [int(d) for d in degrees]
    if not degrees or any(d < 2 for d in degrees):
        raise ValueError("degrees must be non-empty and at least 2")
    if spectral_tol is not None and not 0 < spectral_tol < np.inf:
        raise ValueError("spectral_tol must be positive and finite")
    n = 4 * max(degrees)
    _require_memory(_COVER_BYTES_PER_N2 * n * n, f"the double covers at degree {max(degrees)}")
    targets = np.array([0.25, -0.25, 0.0], dtype=np.complex128)
    rows = []
    for idx, d in enumerate(degrees):
        cell_seed = child_seed(seed, idx)
        a = random_regular_graph(2 * d, d, cell_seed)
        tol = spectral_tol if spectral_tol is not None else 1e-5 * d

        lam = _symmetric_eigenvalues(a.adj.astype(np.float64)).real[::-1]
        if abs(lam[0] - d) > tol:
            raise NumericalError(
                f"top eigenvalue {lam[0]:.6f} of a {d}-regular graph is not {d}"
            )
        bi = _cover_diagnostics(bidirected_double_cover(a), _symmetric_eigenvalues,
                                np.concatenate([lam, -lam]), targets)
        rest = lam[1:]
        one = _cover_diagnostics(oneway_double_cover(a), eigenvalues,
                                 np.concatenate([[d, -d], 1j * rest, -1j * rest]), targets)
        if bi[0] > tol or one[0] > tol:
            raise NumericalError(
                f"double-cover spectra deviate from the block identities "
                f"(errors {bi[0]:.3e}, {one[0]:.3e} at degree {d})"
            )
        # each diagnostic is a DoubleCoverRow field pair: bidirected, then one-way
        rows.append(DoubleCoverRow(d, cell_seed, *(x for pair in zip(bi, one) for x in pair)))
    return DoubleCoverReport(tuple(rows), tuple(complex(t) for t in targets))


# ---------------------------------------------------------------------------
# report serialization


def _ledger_obj(ledger: MultiplicityLedger) -> dict:
    obj = asdict(ledger)
    target = obj.pop("target")
    return {"target_re": target.real, "target_im": target.imag, **obj}


# JSON of the row fields that are not JSON values as they stand
_ROW_JSON = {
    "observed": spectrum_to_json,
    "ledgers": lambda ledgers: [_ledger_obj(l) for l in ledgers],
    "nu_gaps": lambda gaps: None if gaps is None else list(gaps),
}


def convergence_report_to_json(report: ConvergenceReport) -> dict:
    """The limit spectrum, the median Hausdorff distance per n, and each row
    under the field names of ConvergenceRow."""
    return {
        "limit_spectrum": spectrum_to_json(report.limit_spectrum),
        "median_hausdorff_by_n": {
            str(n): v for n, v in report.median_hausdorff_by_n().items()
        },
        "rows": [
            {f.name: _ROW_JSON.get(f.name, lambda v: v)(getattr(row, f.name))
             for f in fields(ConvergenceRow)}
            for row in report.rows
        ],
    }


def convergence_report_to_csv(report: ConvergenceReport) -> str:
    """Flat rows: n, seed, hausdorff, then matched/expected per limit point."""
    points = report.limit_spectrum.points
    header = ["n", "seed", "hausdorff",
              *(f"lambda{i}_{c}" for i in range(len(points)) for c in ("matched", "expected"))]
    if report.rows and report.rows[0].nu_gaps is not None:
        header += ["nu_gap_limit", "nu_gap_self"]
    rows = ((row.n, row.seed, row.hausdorff,
             *(c for ledger in row.ledgers for c in (ledger.matched_mass, ledger.expected)),
             *(row.nu_gaps or ())) for row in report.rows)
    return _csv_text(header, rows, [(f"lambda{i}", v) for i, (v, _) in enumerate(points)])


def trace_checks_to_csv(reports: list[TraceCheckReport]) -> str:
    return _csv_text([f.name for f in fields(TraceCheckReport)], map(astuple, reports))


def double_cover_report_to_json(report: DoubleCoverReport) -> dict:
    return {
        "limit_points": [{"re": t.real, "im": t.imag} for t in report.limit_points],
        "rows": [asdict(row) for row in report.rows],
    }


def double_cover_report_to_csv(report: DoubleCoverReport) -> str:
    ells = sorted(report.rows[0].cycle_density_bidirected) if report.rows else []
    header = ["degree", "seed", "spectrum_match_bidirected", "spectrum_match_oneway",
              *(f"t_c{ell}_{cover}" for cover in ("bidirected", "oneway") for ell in ells),
              "hausdorff_bidirected", "hausdorff_oneway"]
    rows = ((row.degree, row.seed, row.spectrum_match_bidirected, row.spectrum_match_oneway,
             *(t[ell] for t in (row.cycle_density_bidirected, row.cycle_density_oneway)
               for ell in ells),
             row.hausdorff_bidirected, row.hausdorff_oneway) for row in report.rows)
    return _csv_text(header, rows)
