"""Complex spectra with algebraic multiplicities, and Hausdorff diagnostics.

Eigenvalues come from LAPACK's dense non-symmetric solver (balancing, then
Hessenberg reduction, then implicitly shifted QR with deflation); a spectrum
that is not exactly closed under conjugation, or whose sum strays from the
trace, raises NumericalError. Matrices known to be exactly symmetric may take
LAPACK's symmetric solver instead, and matrices with a known bipartition of
their vertices the half-size product of their two off-diagonal blocks, under
the same checks. Floating eigenvalue lists are turned into (value,
multiplicity) pairs at an explicit tolerance tol by single linkage with
centroid re-merging: each round pairs the centroids within tol (a k-d tree
query, then the exact test), merges the connected components of those
pairs, and averages each component's members with multiplicity; rounds
repeat until no two centroids are within tol.
"""
from __future__ import annotations

import ctypes
import functools
import glob
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from .digraph import Digraph
from .errors import IsolationError, NumericalError
from .stepkernel import StepKernel


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Multiset of complex eigenvalues as (value, multiplicity) pairs.

    includes_zero_spectral_point records whether 0 belongs to the spectrum
    even when it is not listed among the points (for integral operators it
    always does; for a finite digraph it does only when 0 is an eigenvalue).
    """

    points: tuple[tuple[complex, int], ...]
    includes_zero_spectral_point: bool = False

    def __post_init__(self):
        pts = tuple((complex(v), int(m)) for v, m in self.points)
        if any(m < 1 for _, m in pts):
            raise ValueError("multiplicities must be positive")
        object.__setattr__(self, "points", pts)

    def point_set(self, include_zero: bool | None = None) -> np.ndarray:
        """Distinct spectral points as a complex array (optionally forcing 0 in)."""
        vals = [v for v, _ in self.points]
        if include_zero is None:
            include_zero = self.includes_zero_spectral_point
        if include_zero and not any(v == 0 for v in vals):
            vals.append(0j)
        return np.asarray(vals, dtype=np.complex128)

    def power_sum(self, ell: int) -> complex:
        """Sum of mult * value^ell over the listed points."""
        return sum(m * v**ell for v, m in self.points) if self.points else 0j

    @property
    def total_multiplicity(self) -> int:
        return sum(m for _, m in self.points)

    def multiplicity_at(self, lam: complex, tol: float = 1e-9) -> int:
        for v, m in self.points:
            if abs(v - lam) <= tol:
                return m
        return 0


@dataclass(frozen=True)
class MultiplicityLedger:
    """Eigenvalue mass found inside an epsilon ball around a target point."""

    target: complex
    epsilon: float
    matched_mass: int
    expected: int

    @property
    def matched(self) -> bool:
        return self.matched_mass == self.expected


def default_cluster_tol(n: int, max_abs: float) -> float:
    """Default clustering radius for an n x n matrix with entries up to max_abs."""
    return max(1e-7, 1e-8 * n * max_abs)


def _finite_square(m, integers: bool = False) -> np.ndarray:
    """m as a float64 array, or as it stands when integers is set and m holds
    integers or bools; ValueError unless it is square, non-empty and finite."""
    a = np.asarray(m)
    exact = integers and a.dtype.kind in "biu"
    if not exact:
        a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError("matrix must be square and non-empty")
    if not exact and not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def _checked_solve(solve, a: np.ndarray) -> np.ndarray:
    """solve(a), sorted by (real, imaginary) part and checked against the trace.

    A LAPACK failure, a list not closed under conjugation or a sum that
    strays from Tr(a) raises NumericalError.
    """
    try:
        vals = solve(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigenvalue iteration failed to converge: {exc}") from exc
    # dgeev returns each complex pair with an equal real part and a negated
    # imaginary part, so the sorted list must equal its sorted conjugates.
    vals = np.sort_complex(vals)
    vals.imag[vals.imag == 0.0] = 0.0
    if not np.array_equal(vals, np.sort_complex(vals.conj())):
        raise NumericalError("eigenvalue list is not closed under conjugation")
    residual = abs(vals.sum() - np.trace(a))
    scale = max(1.0, float(a.max()), -float(a.min()))  # max |a|, with no n x n temporary
    if residual > 1e-6 * a.shape[0] * scale:
        raise NumericalError(
            f"eigenvalue sum deviates from the trace by {residual:.3e}"
        )
    return vals


def eigenvalues(m: np.ndarray) -> np.ndarray:
    """All eigenvalues of a real square matrix, with multiplicity, conjugate-closed.

    The returned array is sorted by (real, imaginary) part and satisfies the
    trace identities sum(lam^p) = Tr(M^p) up to the solver's accuracy.
    """
    return _checked_solve(np.linalg.eigvals, _finite_square(m))


def _symmetric_eigenvalues(m: np.ndarray) -> np.ndarray:
    """eigenvalues(m) for an exactly symmetric m, from the symmetric solver.

    LAPACK's dsyevd (tridiagonal reduction, then divide and conquer) returns
    real values, so every imaginary part is +0.0. Raises ValueError unless
    m equals its transpose exactly.
    """
    a = _finite_square(m)
    if not np.array_equal(a, a.T):
        raise ValueError("matrix must be exactly symmetric")
    return _checked_solve(np.linalg.eigvalsh, a)


def _bipartite_eigenvalues(m: np.ndarray, side) -> np.ndarray:
    """eigenvalues(m) for an m that never joins two vertices of one side.

    side is a bool mask of the vertices. Permuted to [[0, B], [C, 0]] with p
    <= q vertices on the two sides, m has det(lam I - m) = lam^(q - p)
    det(lam^2 I - B C), so its spectrum is +-sqrt(mu) over the eigenvalues
    mu of the p x p product B C (dgeev) and q - p zeros. Near 0 the square
    root amplifies the solver's error to about sqrt(u |B| |C|). Raises
    ValueError unless both same-side blocks of m are exactly zero. An integer
    m is checked as it stands and only B and C are converted to float64.
    """
    a = _finite_square(m, integers=True)
    side = np.asarray(side, dtype=bool)
    if side.shape != (a.shape[0],):
        raise ValueError("side must be a bool mask with one entry per row")
    small = side if 2 * np.count_nonzero(side) <= side.size else ~side
    large = ~small
    if a[np.ix_(small, small)].any() or a[np.ix_(large, large)].any():
        raise ValueError("matrix joins two vertices of one side")

    def solve(a):
        # for 0/1 entries every entry of B C is an exact integer below 2^53
        bc = (a[np.ix_(small, large)].astype(np.float64, copy=False)
              @ a[np.ix_(large, small)].astype(np.float64, copy=False))
        root = np.sqrt(np.linalg.eigvals(bc).astype(np.complex128))
        zeros = np.zeros(np.count_nonzero(large) - root.size, np.complex128)
        vals = np.concatenate([root, -root, zeros])
        vals.real[vals.real == 0.0] = 0.0  # -(0 + i y) has real part -0.0
        return vals

    return _checked_solve(solve, a)


@functools.cache
def _openblas_threads():
    """(getter, setter) of the thread count of numpy's bundled OpenBLAS, or None."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas64_*.so"))
    try:
        lib = ctypes.CDLL(libs[0])
        get = lib.scipy_openblas_get_num_threads64_
        set_ = lib.scipy_openblas_set_num_threads64_
    except (IndexError, OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


# The OpenBLAS thread count is one setting for the whole process, so the pins
# of all threads are counted together: the first sets one thread and the last
# to leave restores the count found by the first.
_pin_lock = threading.Lock()
_pins = 0
_unpinned_threads = 0


@contextmanager
def one_blas_thread():
    """Run the block with one OpenBLAS thread; restore the caller's count on exit.

    Enter it from the calling thread before any worker threads or processes
    start; forked workers inherit the pin. A multi-threaded dgeev sums in a
    different order than a single-threaded one, so pinning makes eigenvalue
    bytes independent of the BLAS thread count, and it leaves the CPUs to the
    experiment's own worker processes. Does nothing when numpy's bundled
    OpenBLAS is not found.
    """
    global _pins, _unpinned_threads
    fns = _openblas_threads()
    if fns is None:
        yield
        return
    get, set_ = fns
    with _pin_lock:
        if _pins == 0:
            _unpinned_threads = get()
            set_(1)
        _pins += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pins -= 1
            if _pins == 0:
                set_(_unpinned_threads)


def cluster_multiplicities(points, tol: float) -> Spectrum:
    """Cluster eigenvalues into (centroid, mass) pairs by single linkage with
    centroid re-merging, as the module docstring describes.

    Each centroid is the mean of its member values (with repetition). The
    candidate pairs of a round are the centroids with |dx| + |dy| <= 8 tol,
    a window around the disc |c_i - c_j| <= tol that absorbs the rounding of
    the k-d tree's distances, subnormal ones included; the exact test
    |c_i - c_j| <= tol decides. Non-finite points stay singletons.
    """
    if not 0 < tol < np.inf:
        raise ValueError("clustering tolerance must be positive and finite")
    pts = np.asarray(points, dtype=np.complex128).ravel()
    if pts.size == 0:
        return Spectrum(())
    centroids = pts.copy()
    weights = np.ones(pts.size, dtype=np.int64)
    while centroids.size > 1:
        # quartered coordinates: no |dx| + |dy| of two finite points overflows
        finite = np.flatnonzero(np.isfinite(centroids))
        quarters = np.column_stack([centroids.real[finite], centroids.imag[finite]]) / 4
        i, j = finite[cKDTree(quarters).query_pairs(2 * tol, p=1, output_type="ndarray").T]
        close = np.abs(centroids[i] - centroids[j]) <= tol
        i, j = i[close], j[close]
        if i.size == 0:
            break
        # the pairs as a CSR matrix, built here: scipy's conversion from COO
        # costs more than the search itself on a few hundred points
        n = centroids.size
        by_row = np.argsort(i, kind="stable")
        indptr = np.searchsorted(i[by_row], np.arange(n + 1))
        pairs = csr_array((np.ones(i.size), j[by_row], indptr), shape=(n, n))
        _, labels = connected_components(pairs, directed=False)
        # members grouped by component, ascending within a group
        members = np.argsort(labels, kind="stable")
        grouped = labels[members]
        starts = np.flatnonzero(np.r_[True, grouped[1:] != grouped[:-1]])
        sizes = np.diff(np.r_[starts, members.size])
        weights_out = np.add.reduceat(weights[members], starts)
        # a one-member sum is 0 + c * w, as the sum of a one-element array
        lead = members[starts]
        centroids_out = (0j + centroids[lead] * weights[lead]) / weights[lead]
        for g in np.flatnonzero(sizes > 1):
            idx = members[starts[g]:starts[g] + sizes[g]]
            centroids_out[g] = (centroids[idx] * weights[idx]).sum() / int(weights_out[g])
        centroids = centroids_out
        weights = weights_out
    order = np.lexsort((centroids.imag, centroids.real))
    pts_out = tuple((complex(centroids[i]), int(weights[i])) for i in order)
    return Spectrum(pts_out)


def _adjacency_spectrum(vals: np.ndarray, n: int, divisor: int, tol: float | None) -> Spectrum:
    """Clustered spectrum of the n-vertex adjacency eigenvalues vals, divided by divisor."""
    if tol is None:
        tol = default_cluster_tol(n, 1.0 / divisor)
    spec = cluster_multiplicities(vals / divisor, tol)
    has_zero = any(abs(v) <= tol for v, _ in spec.points)
    return replace(spec, includes_zero_spectral_point=has_zero)


def digraph_spectrum(g: Digraph, tol: float | None = None) -> Spectrum:
    """Clustered spectrum of the adjacency matrix of a digraph."""
    return _adjacency_spectrum(eigenvalues(g.adj.astype(np.float64)), g.n, 1, tol)


def normalized_spectrum(g: Digraph, tol: float | None = None) -> Spectrum:
    """Spectrum of the adjacency matrix divided by the vertex count."""
    return _adjacency_spectrum(eigenvalues(g.adj.astype(np.float64)), g.n, g.n, tol)


def step_spectrum(w: StepKernel, tol: float | None = None) -> Spectrum:
    """Nonzero spectrum of the integral operator of a step kernel.

    On block functions the operator acts as B with B[i, j] = values[i, j] *
    measures[j]; its nonzero eigenvalues (with algebraic multiplicity) are
    exactly the operator's. The zero spectral point is always present for the
    operator and is carried by the flag, not by the point list.
    """
    b = w.values * w.measures[None, :]
    vals = eigenvalues(b)
    if tol is None:
        tol = default_cluster_tol(w.k, max(float(np.max(np.abs(b))), 1e-30))
    spec = cluster_multiplicities(vals, tol)
    nonzero = tuple((v, m) for v, m in spec.points if abs(v) > tol)
    return Spectrum(nonzero, includes_zero_spectral_point=True)


def hausdorff_distance(x, y) -> float:
    """Hausdorff distance between two non-empty finite sets of complex points."""
    xa = np.asarray(x, dtype=np.complex128).ravel()
    ya = np.asarray(y, dtype=np.complex128).ravel()
    if xa.size == 0 or ya.size == 0:
        raise ValueError("hausdorff_distance requires non-empty point sets")
    d = np.abs(xa[:, None] - ya[None, :])
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def check_isolation(limit: Spectrum, lam: complex, epsilon: float) -> None:
    """Raise IsolationError unless B_{2 eps}(lam) meets the limit spectrum only at lam."""
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    if abs(lam) <= epsilon:
        raise ValueError("epsilon must be smaller than |lambda|")
    for v, _ in limit.points:
        if v != lam and abs(v - lam) < 2 * epsilon:
            raise IsolationError(
                f"spectral point {v} lies within 2*epsilon of target {lam}"
            )
    if limit.includes_zero_spectral_point and abs(lam) < 2 * epsilon:
        raise IsolationError(f"zero spectral point lies within 2*epsilon of target {lam}")


def multiplicity_match(
    limit: Spectrum, observed: Spectrum, lam: complex, epsilon: float
) -> MultiplicityLedger:
    """Ledger of observed eigenvalue mass inside B_eps(lam) vs the limit multiplicity.

    lam must be one of the nonzero points of the limit spectrum and epsilon
    must isolate it: no other limit point (including 0 when present) may lie
    within 2*epsilon.
    """
    lam = complex(lam)
    match_tol = 1e-9 * max(1.0, abs(lam))
    target = None
    expected = 0
    for v, m in limit.points:
        if abs(v - lam) <= match_tol:
            target, expected = v, m
            break
    if target is None or target == 0:
        raise ValueError(f"{lam} is not a nonzero point of the limit spectrum")
    check_isolation(limit, target, epsilon)
    matched = sum(m for v, m in observed.points if abs(v - target) < epsilon)
    return MultiplicityLedger(target, float(epsilon), int(matched), int(expected))


def singular_moment_bound(g: Digraph) -> bool:
    """True when sum of mult * |lam|^2 over the spectrum is at most n^2."""
    spec = digraph_spectrum(g)
    moment = sum(m * abs(v) ** 2 for v, m in spec.points)
    return moment <= g.n**2


# ---------------------------------------------------------------------------
# serialization


def spectrum_to_json(spec: Spectrum) -> dict:
    return {
        "points": [{"re": v.real, "im": v.imag, "mult": m} for v, m in spec.points],
        "includes_zero_spectral_point": spec.includes_zero_spectral_point,
    }


def _csv_cell(x) -> str:
    """A float with 17 significant digits (round-trips exactly), a complex as two
    such floats re+imj, None as an empty cell, anything else by str."""
    if isinstance(x, complex):
        return f"{x.real:.17g}{x.imag:+.17g}j"
    if isinstance(x, float):
        return f"{x:.17g}"
    return "" if x is None else str(x)


def _csv_text(header, rows, comments=()) -> str:
    """A '# name = value' line per comment pair, the header, then one line per row."""
    lines = [f"# {name} = {_csv_cell(value)}" for name, value in comments]
    lines += [",".join(header), *(",".join(map(_csv_cell, row)) for row in rows)]
    return "\n".join(lines) + "\n"


def spectrum_to_csv(spec: Spectrum) -> str:
    """CSV rows re,im,mult; a zero spectral point not listed among the points
    is flagged by a trailing row with mult=0."""
    rows = [(v.real, v.imag, m) for v, m in spec.points]
    if spec.includes_zero_spectral_point and not any(v == 0 for v, _ in spec.points):
        rows.append((0, 0, 0))
    return _csv_text(("re", "im", "mult"), rows)


def spectrum_from_csv(text: str) -> Spectrum:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "re,im,mult":
        raise ValueError("spectrum CSV must start with the header 're,im,mult'")
    points = []
    zero_flag = False
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 3:
            raise ValueError(f"malformed spectrum row: {ln!r}")
        re, im, mult = float(parts[0]), float(parts[1]), int(parts[2])
        value = complex(re, im)
        if not np.isfinite(value):
            raise ValueError(f"spectrum row is not finite: {ln!r}")
        if mult == 0:
            if value != 0:
                raise ValueError(f"a mult=0 row flags the zero point and must be 0,0,0: {ln!r}")
            zero_flag = True
        else:
            points.append((value, mult))
            if value == 0:
                zero_flag = True
    return Spectrum(tuple(points), includes_zero_spectral_point=zero_flag)
