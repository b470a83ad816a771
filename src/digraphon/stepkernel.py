"""Step kernels on [0,1]^2: densities, cut norms, operator norms, algebra.

A step kernel is a bounded function constant on products J_i x J_j of finitely
many blocks; it is fully described by a k x k value matrix and the vector of
block measures. A step digraphon additionally has values in [0,1] with
W(x,y) + W(y,x) <= 1, which is exactly the condition that the directional
edge probabilities of the random-digraph model are consistent.
"""
from __future__ import annotations

import math
import string
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .digraph import Digraph, _block_sum, _pair_factors, automorphism_count
from .errors import BudgetError, StructureError

_MEASURE_TOL = 1e-12
_CUT_NORM_MAX_BLOCKS = 24
# The cut scan pairs a table over the subsets of this many low rows with one
# entry of the table over the remaining rows at a time.
_CUT_LOW_ROWS = 10
# The float32 screen's low-row table is larger: its pass is one add, abs and
# column sum per high row at half the bytes, so fewer, longer rows are faster
# (13 timed fastest of 11-15 at k = 20, 22 and 24).
_CUT_SCREEN_LOW_ROWS = 13
_REFINEMENT_MAX_BLOCKS = 10_000


@dataclass(frozen=True, eq=False)
class StepKernel:
    """k-block step kernel: value matrix, block measures, and a sup-norm bound."""

    values: np.ndarray
    measures: np.ndarray
    bound: float | None = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        m = np.asarray(self.measures, dtype=np.float64)
        if v.ndim != 2 or v.shape[0] != v.shape[1] or v.shape[0] < 1:
            raise ValueError("values must be a non-empty square matrix")
        if not np.isfinite(v).all():
            raise ValueError("values must be finite")
        if m.ndim != 1 or m.shape[0] != v.shape[0]:
            raise ValueError("measures must be a vector matching the value matrix")
        if not np.all(m > 0):  # NaN is not > 0
            raise ValueError("every block measure must be positive")
        if abs(float(m.sum()) - 1.0) > _MEASURE_TOL:
            raise ValueError("block measures must sum to 1")
        b = float(np.max(np.abs(v))) if self.bound is None else float(self.bound)
        if not math.isfinite(b) or np.max(np.abs(v)) > b + 1e-12:
            raise ValueError("bound is not a finite sup-norm certificate for values")
        v.setflags(write=False)
        m.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "measures", m)
        object.__setattr__(self, "bound", b)

    @property
    def k(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True, eq=False)
class StepDigraphon(StepKernel):
    """Step kernel with values in [0,1] and W(x,y) + W(y,x) <= 1."""

    def __post_init__(self):
        if self.bound is None:
            object.__setattr__(self, "bound", 1.0)
        super().__post_init__()
        v = self.values
        if np.any(v < 0):
            raise ValueError("digraphon values must be non-negative")
        if np.any(v + v.T > 1.0 + 1e-12):
            raise ValueError("digraphon values must satisfy W(x,y) + W(y,x) <= 1")


@dataclass(frozen=True, eq=False)
class BidirectedStepPair:
    """Pair (W1, W2) of [0,1] step kernels on shared blocks.

    W1 is the symmetric probability of an antiparallel edge pair, W2 the
    probability of a single directed edge; W1 + W2 + W2^T <= 1 entrywise.
    """

    w1: np.ndarray
    w2: np.ndarray
    measures: np.ndarray

    def __post_init__(self):
        w1 = np.asarray(self.w1, dtype=np.float64)
        w2 = np.asarray(self.w2, dtype=np.float64)
        m = np.asarray(self.measures, dtype=np.float64)
        k = m.shape[0] if m.ndim == 1 else -1
        if w1.shape != (k, k) or w2.shape != (k, k) or k < 1:
            raise ValueError("w1, w2 must be k x k matrices matching the measures vector")
        if not (np.isfinite(w1).all() and np.isfinite(w2).all()):
            raise ValueError("pair values must be finite")
        if not np.all(m > 0) or abs(float(m.sum()) - 1.0) > _MEASURE_TOL:  # NaN is not > 0
            raise ValueError("block measures must be positive and sum to 1")
        if np.any(w1 < 0) or np.any(w2 < 0):
            raise ValueError("pair values must be non-negative")
        if not np.allclose(w1, w1.T, rtol=0.0, atol=1e-12):
            raise ValueError("w1 must be symmetric")
        if np.any(w1 + w2 + w2.T > 1.0 + 1e-12):
            raise ValueError("pair must satisfy W1 + W2 + W2^T <= 1")
        for arr in (w1, w2, m):
            arr.setflags(write=False)
        object.__setattr__(self, "w1", w1)
        object.__setattr__(self, "w2", w2)
        object.__setattr__(self, "measures", m)

    @property
    def k(self) -> int:
        return self.measures.shape[0]


class CutNormWitness(NamedTuple):
    """Cut-norm value together with one optimal pair of block subsets."""

    value: float
    row_blocks: tuple[int, ...]
    col_blocks: tuple[int, ...]


def uniform_measures(k: int) -> np.ndarray:
    if k < 1:
        raise ValueError("block count must be positive")
    return np.full(k, 1.0 / k)


# ---------------------------------------------------------------------------
# digraph <-> kernel


def step_from_digraph(g: Digraph) -> StepDigraphon:
    """Step digraphon of a digraph: |G| equal blocks, values = adjacency."""
    if g.allow_bidirected:
        raise TypeError(
            "digraph permits antiparallel pairs, which a step digraphon cannot hold"
        )
    return StepDigraphon(g.adj, uniform_measures(g.n))


def bidirected_crossing_pair() -> BidirectedStepPair:
    """Two equal blocks; every crossing pair is antiparallel with probability 1/2."""
    w1 = np.array([[0.0, 0.5], [0.5, 0.0]])
    return BidirectedStepPair(w1, np.zeros((2, 2)), uniform_measures(2))


def oneway_crossing_pair() -> BidirectedStepPair:
    """Two equal blocks; every crossing pair gets a single direction, 1/2 each way."""
    w2 = np.array([[0.0, 0.5], [0.5, 0.0]])
    return BidirectedStepPair(np.zeros((2, 2)), w2, uniform_measures(2))


def collapse(p: BidirectedStepPair) -> StepKernel:
    """Entrywise sum W1 + W2 as a plain kernel.

    The sum governs all cycle densities of length >= 3 but is typed as a
    kernel, not a digraphon: W'(x,y) + W'(y,x) may exceed 1.
    """
    return StepKernel(p.w1 + p.w2, p.measures, bound=1.0)


# ---------------------------------------------------------------------------
# densities


def _require_pattern_budget(h: Digraph, k: int, limit: int) -> None:
    if h.n > limit and k**h.n > 10**8:
        raise BudgetError(
            f"pattern on {h.n} vertices with {k} blocks exceeds the enumeration budget"
        )
    if h.n > len(string.ascii_letters):
        raise BudgetError(f"pattern on {h.n} vertices exceeds the contraction alphabet")


def hom_density_step(h: Digraph, w: StepKernel) -> float:
    """t(H, W) = sum over block maps of prod(measures) * prod(values on edges).

    Exact evaluation of the integral of prod_{uv in E(H)} W(x_u, x_v): the
    integrand is constant on block cells, so the integral is a finite sum.
    """
    _require_pattern_budget(h, w.k, 8)
    return float(_block_sum([(w.values, u, v) for u, v in h.edges()], w.measures, h.n))


def subgraph_density_step(h: Digraph, w: StepDigraphon) -> float:
    """d(H, W): probability that an |H|-vertex W-random digraph is a copy of H.

    Evaluates |V(H)|!/|Aut(H)| times the block sum of the edge factors
    W(x_u, x_v) and, for each unordered non-adjacent pair, the no-edge factor
    1 - W(x_u, x_v) - W(x_v, x_u). Patterns with an antiparallel pair have
    probability 0 under the three-outcome model.
    """
    if not isinstance(w, StepDigraphon):
        raise TypeError("subgraph_density_step requires a StepDigraphon")
    if h.n > 5:
        raise BudgetError("induced-density patterns limited to 5 vertices")
    if np.any(h.adj & h.adj.T):
        return 0.0
    factors = _pair_factors(h, None, w.values, 1.0 - w.values - w.values.T)
    integral = float(_block_sum(factors, w.measures, h.n))
    return math.factorial(h.n) / automorphism_count(h) * integral


def hom_density_pair(h: Digraph, p: BidirectedStepPair) -> float:
    """Homomorphism density of H in a bidirected pair (W1, W2).

    Per unordered pair of H-vertices: an antiparallel pair of H contributes
    the factor W1, a single directed edge contributes W1 + W2 in that
    direction, a non-pair contributes 1. For antiparallel-free H this equals
    hom_density_step(H, collapse(P)).
    """
    _require_pattern_budget(h, p.k, 8)
    return float(_block_sum(_pair_factors(h, p.w1, p.w1 + p.w2, None), p.measures, h.n))


# ---------------------------------------------------------------------------
# cut norm and metric


def _subset_sums(r: np.ndarray) -> np.ndarray:
    """Column sums and total of every subset of the m rows of r (m, k).

    Returns (k + 1, 2^m): entry [j, s] sums column j over the rows i with
    bit i of s set, and row k holds the totals of those rows. The table is
    built by doubling: the table over rows 0..b-1 is followed by the same
    table plus row b.
    """
    out = np.concatenate((r, r.sum(axis=1, keepdims=True)), axis=1)
    table = np.empty((out.shape[1], 1 << out.shape[0]))
    table[:, 0] = 0.0
    for b in range(out.shape[0]):
        np.add(table[:, :1 << b], out[b, :, None], out=table[:, 1 << b:2 << b])
    return table


def _subset_scores(low: np.ndarray, high: np.ndarray, h: int, sums: np.ndarray) -> np.ndarray:
    """twice = sum_j |c_j| + |c_k| of the row subsets (h << L) + i, i < 2^L.

    The column sums are low[:, i] + high[:, h], in the tables' dtype; sums is
    a work array of low's shape.
    """
    np.add(low, high[:, h, None], out=sums)
    np.abs(sums, out=sums)
    return sums.sum(axis=0)


def _screen_margin(x: np.ndarray) -> float:
    """A bound delta >= |twice32 - twice64| for every row subset of x, |x| <= 1.

    twice32 is _subset_scores on the float64 subset-sum tables of x split at
    _CUT_SCREEN_LOW_ROWS and cast to float32, twice64 on those split at
    _CUT_LOW_ROWS. Let A = sum |x_ij|, u = 2^-24 (float32) and v = 2^-53
    (float64), and let C_j be the exact column sums of a row subset (C_k the
    exact sum of its rows), so E = sum_j |C_j| <= 2A. A recursive sum of n
    terms errs by at most gamma_(n-1) = (n - 1) w / (1 - (n - 1) w) times
    the sum of their magnitudes, in unit roundoff w and any order (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed. 2002, section
    4.2). Each table entry is such a float64 sum (the totals column sums
    float64 row totals), so to first order in v either pass's entries a_j,
    b_j satisfy sum_j |a_j - A_j| + |b_j - B_j| <= 3kvA and
    sum_j |a_j| + |b_j| <= 2A (1 + 2kv).
      - float32: the casts of a_j and b_j and their addition cost at most
        (2u + u^2)(|a_j| + |b_j|) per column, and the (k+1)-term sum of the
        |c_j| at most gamma_k times that sum:
        |twice32 - E| <= 2A ((k + 2) u + O(ku^2 + kv)).
      - float64: the addition and the (k+1)-term sum give
        |twice64 - E| <= 2A O(kv), where kv <= 24 v < u 2^-24.
    So |twice32 - twice64| <= 4 (k + 2) u 2A, with room for the higher-order
    terms and for the float64 rounding of A, delta and the screen's
    threshold. The 1e-30 covers entries and sums below float32's normal
    range (2^-126), where each of the 3(k + 1) + k roundings loses up to
    2^-150 absolutely (and float64's 2^-1075).
    """
    k = x.shape[0]
    return 4 * (k + 2) * 2.0**-24 * 2 * float(np.abs(x).sum()) + 1e-30


def _screen_rows(x: np.ndarray) -> np.ndarray:
    """Rows of the float32 screen that may hold a float64 maximum, ascending.

    Row h of the screen covers the row subsets (h << L) + i, i < 2^L, for
    L = min(k, _CUT_SCREEN_LOW_ROWS), and scores their float32 maximum. With
    delta = _screen_margin(x), a float64 maximizer m* has
    twice32(m*) >= twice64(m*) - delta >= twice64(m) - delta
    >= twice32(m) - 2 delta for every m, so its row scores at least
    max32 - 2 delta.
    """
    low_rows = min(x.shape[0], _CUT_SCREEN_LOW_ROWS)
    low = _subset_sums(x[:low_rows]).astype(np.float32)
    high = _subset_sums(x[low_rows:]).astype(np.float32)
    sums = np.empty_like(low)
    row_max = np.array([_subset_scores(low, high, h, sums).max() for h in range(high.shape[1])],
                       dtype=np.float64)
    return np.flatnonzero(row_max >= row_max.max() - 2 * _screen_margin(x))


def _cut_scan(r: np.ndarray) -> CutNormWitness:
    """Maximize |sum_{i in S, j in T} r[i, j]| over block subsets S, T.

    For fixed S with column sums c the optimal T collects the columns of one
    sign, worth max(sum c^+, sum c^-) = (sum |c_j| + |sum c_j|) / 2, so only
    the 2^k row subsets are enumerated. The optimum over [0,1]-valued block
    functions is attained at such 0/1 vertices because the objective is
    bilinear. Row subset (h << L) + i has column sums low[:, i] + high[:, h],
    read from the subset-sum tables of the low L rows and of the others; the
    winner is the first maximum in that order. When several subset pairs
    attain the maximum exactly, which one wins depends on the rounding of
    the sums.

    r is first scaled by a power of two to max |x| in [1/2, 1), which is
    exact while the entries and sums stay in float64's normal range, so
    every comparison is the one on r. A float32 screen (_screen_rows) keeps
    the screen rows that may hold a maximum, and the float64 scan runs over
    the subsets of those rows only, in ascending order, so it finds the same
    first maximum as a scan over all subsets.
    """
    k = r.shape[0]
    scale = int(np.frexp(np.max(np.abs(r)))[1])
    x = np.ldexp(r, -scale)
    screen_rows = _screen_rows(x)
    low_rows = min(k, _CUT_LOW_ROWS)
    low = _subset_sums(x[:low_rows])
    high = _subset_sums(x[low_rows:])
    per_screen_row = 1 << (min(k, _CUT_SCREEN_LOW_ROWS) - low_rows)
    sums = np.empty_like(low)
    best = 0.0
    best_mask = 0
    for s in screen_rows:
        for h in range(s * per_screen_row, (s + 1) * per_screen_row):
            twice = _subset_scores(low, high, h, sums)
            i = int(np.argmax(twice))
            if twice[i] > best:
                best = float(twice[i])
                best_mask = (h << low_rows) + i
    h, i = divmod(best_mask, 1 << low_rows)
    col_sums = low[:, i] + high[:, h]
    cols = col_sums[:k] > 0.0 if col_sums[k] >= 0.0 else col_sums[:k] < 0.0
    rows = tuple(b for b in range(k) if (best_mask >> b) & 1)
    # halved before unscaling, so a value near float64's maximum stays finite
    value = math.ldexp(0.5 * best, scale)
    return CutNormWitness(value, rows, tuple(int(j) for j in np.nonzero(cols)[0]))


def _weighted(v: StepKernel) -> np.ndarray:
    return v.measures[:, None] * v.values * v.measures[None, :]


def cut_norm(v: StepKernel) -> float:
    """Cut norm: max over block subsets S, T of |sum_{S x T} mu_i mu_j V[i,j]|."""
    return cut_norm_witness(v).value


def cut_norm_witness(v: StepKernel) -> CutNormWitness:
    """Cut norm plus the first optimal (S, T) in mask order (reproducible)."""
    if v.k > _CUT_NORM_MAX_BLOCKS:
        raise BudgetError(
            f"exact cut norm enumerates 2^k subsets; k={v.k} exceeds {_CUT_NORM_MAX_BLOCKS}"
        )
    return _cut_scan(_weighted(v))


def _require_same_structure(a: StepKernel, b: StepKernel) -> None:
    if a.k != b.k or not np.allclose(a.measures, b.measures, rtol=0.0, atol=_MEASURE_TOL):
        raise StructureError(
            "kernels have different block structures; apply common_refinement first"
        )


def cut_metric(w1: StepKernel, w2: StepKernel) -> float:
    """Cut-norm distance of two kernels on the same block structure."""
    _require_same_structure(w1, w2)
    diff = StepKernel(w1.values - w2.values, w1.measures, bound=w1.bound + w2.bound)
    return cut_norm(diff)


def common_refinement(w1: StepKernel, w2: StepKernel) -> tuple[StepKernel, StepKernel]:
    """Rewrite both kernels over one block structure without changing them.

    Block boundaries are the union of both cumulative-measure breakpoint
    sequences (interval overlap); values are replicated onto the refined
    blocks. Breakpoints closer than 1e-12 are merged.
    """
    cum1 = np.cumsum(w1.measures)
    cum2 = np.cumsum(w2.measures)
    points = np.concatenate(([0.0], cum1[:-1], cum2[:-1], [1.0]))
    points = np.sort(points)
    keep = np.concatenate(([True], np.diff(points) > _MEASURE_TOL))
    points = points[keep]
    points[-1] = 1.0
    if points.size - 1 > _REFINEMENT_MAX_BLOCKS:
        raise BudgetError("common refinement would exceed the block budget")
    lengths = np.diff(points)
    lengths = lengths / lengths.sum()
    mids = (points[:-1] + points[1:]) / 2.0
    idx1 = np.minimum(np.searchsorted(cum1, mids, side="right"), w1.k - 1)
    idx2 = np.minimum(np.searchsorted(cum2, mids, side="right"), w2.k - 1)

    def rebuild(w: StepKernel, idx: np.ndarray) -> StepKernel:
        vals = w.values[np.ix_(idx, idx)]
        cls = StepDigraphon if isinstance(w, StepDigraphon) else StepKernel
        return cls(vals, lengths, bound=w.bound)

    return rebuild(w1, idx1), rebuild(w2, idx2)


# ---------------------------------------------------------------------------
# operator view


def op_norm_2to2(v: StepKernel) -> float:
    """L2 -> L2 norm of the integral operator f -> int W(., y) f(y) dy.

    The operator annihilates functions with zero block means and maps block
    indicators to block indicators, so with D = diag(measures) and the
    isometry u -> D^(1/2) u it is represented by D^(1/2) M D^(1/2) on
    Euclidean space; the norm is that matrix's top singular value, computed
    through the symmetric eigenproblem of S^T S.
    """
    s = np.sqrt(v.measures)
    mat = s[:, None] * v.values * s[None, :]
    top = float(np.linalg.eigvalsh(mat.T @ mat)[-1])
    return math.sqrt(max(top, 0.0))


def compose_step(v: StepKernel, u: StepKernel) -> StepKernel:
    """Kernel of the composed operator: (VU)(x, y) = int V(x, z) U(z, y) dz.

    On the shared block structure this is M_V diag(measures) M_U. The sup
    bound of the composition is at most bound(V) * bound(U) because the inner
    integral runs over a probability measure.
    """
    _require_same_structure(v, u)
    vals = v.values @ (v.measures[:, None] * u.values)
    return StepKernel(vals, v.measures, bound=v.bound * u.bound)


def nu_convergence_gaps(wn: StepKernel, w: StepKernel) -> tuple[float, float]:
    """Operator norms (||(Wn - W) W||, ||(Wn - W) Wn||) on a shared structure."""
    _require_same_structure(wn, w)
    diff = StepKernel(wn.values - w.values, w.measures, bound=wn.bound + w.bound)
    return op_norm_2to2(compose_step(diff, w)), op_norm_2to2(compose_step(diff, wn))


# ---------------------------------------------------------------------------
# serialization


def kernel_to_json(w: StepKernel) -> dict:
    obj = {
        "k": w.k,
        "measures": w.measures.tolist(),
        "values": w.values.tolist(),
        "bound": w.bound,
    }
    if isinstance(w, StepDigraphon):
        obj["type"] = "digraphon"
    return obj


def _json_numbers(obj: dict, key: str) -> np.ndarray:
    """obj[key] as a float64 array; ValueError unless every entry is a JSON number."""
    a = np.asarray(obj[key], dtype=object)
    # type(x) is int or float: JSON true/false load as bool, a subclass of int.
    if not all(type(x) in (int, float) for x in a.flat):
        raise ValueError(f"JSON field {key!r} must hold numbers only")
    return a.astype(np.float64)


def kernel_from_json(obj: dict) -> StepKernel:
    if not isinstance(obj, dict):
        raise ValueError("kernel JSON must be an object")
    for key in ("k", "measures", "values"):
        if key not in obj:
            raise ValueError(f"kernel JSON missing key {key!r}")
    k = obj["k"]
    measures = _json_numbers(obj, "measures")
    values = _json_numbers(obj, "values")
    if type(k) is not int or values.shape != (k, k) or measures.shape != (k,):
        raise ValueError("kernel JSON fields have inconsistent shapes")
    if "type" in obj and obj["type"] != "digraphon":
        raise ValueError("kernel JSON field 'type' must be \"digraphon\" or absent")
    bound = None if obj.get("bound") is None else float(_json_numbers(obj, "bound"))
    cls = StepDigraphon if "type" in obj else StepKernel
    return cls(values, measures, bound=bound)


def pair_to_json(p: BidirectedStepPair) -> dict:
    return {
        "measures": p.measures.tolist(),
        "W1": p.w1.tolist(),
        "W2": p.w2.tolist(),
    }


def pair_from_json(obj: dict) -> BidirectedStepPair:
    if not isinstance(obj, dict):
        raise ValueError("pair JSON must be an object")
    for key in ("measures", "W1", "W2"):
        if key not in obj:
            raise ValueError(f"pair JSON missing key {key!r}")
    return BidirectedStepPair(*(_json_numbers(obj, key) for key in ("W1", "W2", "measures")))
