"""Complex spectra with algebraic multiplicities, and Hausdorff diagnostics.

Eigenvalues come from LAPACK's dense non-symmetric solver (balancing, then
Hessenberg reduction, then implicitly shifted QR with deflation); conjugate
symmetry of real-matrix spectra is re-enforced exactly on top of it. Floating
eigenvalue lists are turned into (value, multiplicity) pairs by single-linkage
clustering at an explicit tolerance.
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


def _pair_conjugates(vals: np.ndarray) -> np.ndarray:
    """Force the eigenvalue list of a real matrix to be exactly conjugate-closed.

    Eigenvalues with positive and negative imaginary parts are matched in
    sorted order and each pair is replaced by avg(re) +- avg(|im|) i; any
    unmatched leftover is made real.
    """
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


def eigenvalues(m: np.ndarray) -> np.ndarray:
    """All eigenvalues of a real square matrix, with multiplicity, conjugate-closed.

    The returned array is sorted by (real, imaginary) part and satisfies the
    trace identities sum(lam^p) = Tr(M^p) up to the solver's accuracy.
    """
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError("matrix must be square and non-empty")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    try:
        vals = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigenvalue iteration failed to converge: {exc}") from exc
    vals = _pair_conjugates(vals)
    residual = abs(vals.sum() - np.trace(a))
    scale = max(1.0, float(np.max(np.abs(a))))
    if residual > 1e-6 * a.shape[0] * scale:
        raise NumericalError(
            f"eigenvalue sum deviates from the trace by {residual:.3e}"
        )
    return vals


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

    Enter it from the calling thread before any worker threads start. A
    multi-threaded dgeev sums in a different order than a single-threaded
    one, so pinning makes eigenvalue bytes independent of the BLAS thread
    count, and it leaves the CPUs to the experiment's own thread pool. Does
    nothing when numpy's bundled OpenBLAS is not found.
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


def _sweep(axis: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Sort order along one axis and, per sorted point, its later neighbours within 2 tol."""
    order = np.argsort(axis, kind="stable")
    ax = axis[order]
    return order, np.searchsorted(ax, ax + 2.0 * tol, side="right") - np.arange(1, ax.size + 1)


def _close_pairs(centroids: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs i < j with |c_i - c_j| <= tol, in row-major order.

    A sort-and-sweep finds the candidates along the real or the imaginary
    axis, whichever gives fewer (spectra of real matrices often crowd one
    axis): a close pair lies within tol on each axis, and the window of
    2 tol absorbs the rounding of the sweep's bound. The candidates are
    then held to the exact test.
    """
    order, counts = min(_sweep(centroids.real, tol), _sweep(centroids.imag, tol),
                        key=lambda swept: int(swept[1].sum()))
    first = np.repeat(np.arange(counts.size), counts)
    second = first + 1 + np.arange(first.size) - np.repeat(np.cumsum(counts) - counts, counts)
    i = np.minimum(order[first], order[second])
    j = np.maximum(order[first], order[second])
    close = np.abs(centroids[i] - centroids[j]) <= tol
    i, j = i[close], j[close]
    rowmajor = np.lexsort((j, i))
    return i[rowmajor], j[rowmajor]


def cluster_multiplicities(points, tol: float) -> Spectrum:
    """Single-linkage clustering of eigenvalues into (centroid, mass) pairs.

    Clusters are merged until all centroids are pairwise further apart than
    tol; each centroid is the mean of its member values (with repetition).
    """
    if tol <= 0:
        raise ValueError("clustering tolerance must be positive")
    pts = np.asarray(points, dtype=np.complex128).ravel()
    if pts.size == 0:
        return Spectrum(())
    centroids = pts.copy()
    weights = np.ones(pts.size, dtype=np.int64)
    while centroids.size > 1:
        first, second = _close_pairs(centroids, tol)
        if first.size == 0:
            break
        # one union-find round over all currently-close pairs
        parent = np.arange(centroids.size)

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i, j in zip(first.tolist(), second.tolist()):
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[rj] = ri
        roots = parent
        while not np.array_equal(roots, roots[roots]):
            roots = roots[roots]
        # members grouped by root, ascending within a group; groups in root order
        members = np.argsort(roots, kind="stable")
        grouped = roots[members]
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
    if epsilon <= 0:
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


def spectrum_to_csv(spec: Spectrum) -> str:
    """CSV rows re,im,mult; a zero spectral point not listed among the points
    is flagged by a trailing row with mult=0."""
    lines = ["re,im,mult"]
    has_explicit_zero = False
    for v, m in spec.points:
        if v == 0:
            has_explicit_zero = True
        lines.append(f"{v.real:.17g},{v.imag:.17g},{m}")
    if spec.includes_zero_spectral_point and not has_explicit_zero:
        lines.append("0,0,0")
    return "\n".join(lines) + "\n"


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
        if mult == 0:
            zero_flag = True
        else:
            points.append((value, mult))
            if value == 0:
                zero_flag = True
    return Spectrum(tuple(points), includes_zero_spectral_point=zero_flag)
