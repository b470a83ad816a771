"""Finite digraphs: constructions, random models, and exact density counts.

Vertices are 0..n-1 and adjacency is stored densely (int8), so memory is
O(n^2); the intended scale is a few thousand vertices. All counts are exact
integers, all sampling is reproducible from an explicit seed (numpy PCG64).
"""
from __future__ import annotations

import functools
import itertools
import json
import math
import os
import re
import string
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

import numpy as np

from .errors import BudgetError, GenerationError

if TYPE_CHECKING:
    from .stepkernel import BidirectedStepPair, StepDigraphon

# Traces and homomorphism counts are certified exact under int64 only while
# the a-priori bound n^ell stays below this; beyond it we refuse rather than
# risk a silent wrap.
_INT64_SAFE = 2**62
# Integers below this, and sums of them that stay below it, are exact in float64.
_FLOAT64_EXACT = 2**53

# Cap (in elements) on intermediate tensors of einsum contractions.
_EINSUM_MEM = 1 << 26

# random_regular_graph raises GenerationError after this many fresh stub
# pairings, each re-drawing its leftover stubs at most _PAIRING_ROUNDS times.
_PAIRING_RESTARTS = 10_000
_PAIRING_ROUNDS = 1000

# Peak traced bytes per n^2 of one W-random draw, and of loading a digraph:
# the int8 adjacency and the two bool temporaries of Digraph's 0/1 entry
# check (3.0 measured at n=4000). Sampling adds the temporaries of one row
# block, traced at 19.3 bytes per cell of a block at n=1000 and 20.2 at
# n=4000 beside the adjacency; so a draw peaks at 6.1 bytes per n^2 at
# n=1000 (its blocks of 262 rows) and 3.0 at n=4000.
_SAMPLE_BYTES_PER_N2 = 3
_SAMPLE_BYTES_PER_CELL = 21
# random_regular_graph peaks at 32 bytes per stub (n2 * degree) in a pairing
# round plus 3 per n2^2 (adjacency, validation): traced peaks are 17.1 per
# n2^2 at degree n2 / 2 (n2 = 2000, 4000), 9.6 at n2 / 4, 3.0 at 10; resident
# growth at n2 = 4000 is 17.9 and 10.6.
_PAIRING_BYTES_PER_STUB = 32
_REGULAR_BYTES_PER_N2 = 3
# Rows per strip of the antiparallel-pair check.
_STRIP_ROWS = 256
# Adjacency cells per row block of the sampler and the streaming writers.
_BLOCK_CELLS = 1 << 18


@dataclass(frozen=True, eq=False)
class Digraph:
    """Loop-free digraph over a dense 0/1 adjacency matrix.

    adj[i, j] = 1 encodes an edge i -> j. Antiparallel pairs (both i -> j
    and j -> i) are rejected unless allow_bidirected is set.
    """

    adj: np.ndarray
    allow_bidirected: bool = False

    def __post_init__(self):
        a = np.asarray(self.adj)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise ValueError("adjacency must be a non-empty square matrix")
        # Built in place and dropped before the int8 copy, so validation holds
        # at most two n^2 temporaries at a time (see _SAMPLE_BYTES_PER_N2).
        binary = a == 0
        binary |= a == 1
        if not binary.all():
            raise ValueError("adjacency entries must be 0 or 1")
        del binary
        a = a.astype(np.int8)
        if np.trace(a, dtype=np.int64) != 0:
            raise ValueError("loops are not allowed (diagonal must be zero)")
        if not self.allow_bidirected and _has_antiparallel_pair(a):
            raise ValueError(
                "antiparallel edge pair present; construct with allow_bidirected=True"
            )
        a.setflags(write=False)
        object.__setattr__(self, "adj", a)
        object.__setattr__(self, "allow_bidirected", bool(self.allow_bidirected))

    @property
    def n(self) -> int:
        return self.adj.shape[0]

    @property
    def edge_count(self) -> int:
        return int(self.adj.sum(dtype=np.int64))

    def edges(self) -> list[tuple[int, int]]:
        """Every edge (i, j), in row-major order (sorted by i, then j)."""
        ii, jj = np.nonzero(self.adj)
        return list(zip(ii.tolist(), jj.tolist()))


def _has_antiparallel_pair(a: np.ndarray) -> bool:
    """Whether a[i, j] = a[j, i] = 1 for some i, j, tested one strip of rows at a time.

    Strip [lo, lo + s) pairs its rows from column lo on with the transpose of
    its columns from row lo on, so every pair i < j is tested in the strip of
    i, and the temporary is s * n bytes instead of n^2.
    """
    s = _STRIP_ROWS
    return any(np.any(a[lo:lo + s, lo:] & a[lo:, lo:lo + s].T) for lo in range(0, a.shape[0], s))


@dataclass(frozen=True, eq=False)
class UndirectedRegularGraph:
    """Simple undirected regular graph on an even number of vertices: a
    symmetric adjacency whose 0/1 entries and zero diagonal Digraph checks."""

    adj: np.ndarray
    degree: int

    def __post_init__(self):
        a = Digraph(self.adj, allow_bidirected=True).adj
        if a.shape[0] % 2 != 0:
            raise ValueError("vertex count must be even")
        if not np.array_equal(a, a.T):
            raise ValueError("adjacency must be symmetric")
        if np.any(a.sum(axis=1, dtype=np.int64) != self.degree):
            raise ValueError(f"every row must sum to degree={self.degree}")
        object.__setattr__(self, "adj", a)
        object.__setattr__(self, "degree", int(self.degree))

    @property
    def n2(self) -> int:
        return self.adj.shape[0]


# ---------------------------------------------------------------------------
# constructions


def cycle_digraph(ell: int) -> Digraph:
    """Cyclically oriented cycle on ell vertices (edges i -> i+1 mod ell).

    ell = 2 yields the two-vertex digraph with both directions present,
    constructed with allow_bidirected=True.
    """
    if ell < 2:
        raise ValueError("cycle length must be at least 2")
    adj = np.zeros((ell, ell), dtype=np.int8)
    idx = np.arange(ell)
    adj[idx, (idx + 1) % ell] = 1
    return Digraph(adj, allow_bidirected=(ell == 2))


def empty_digraph(n: int) -> Digraph:
    """Digraph on n vertices with no edges."""
    if n < 1:
        raise ValueError("vertex count must be positive")
    return Digraph(np.zeros((n, n), dtype=np.int8))


# ---------------------------------------------------------------------------
# exact counting


def _count_dtype(n: int, m: int) -> type:
    """Exact dtype for a count of maps from m points into n: float64 or int64.

    Such a count, and every partial sum on the way to it, is a count of
    partial maps of at most n^m, so float64 (and its BLAS) is exact while
    n^m < 2^53 and int64 below 2^62; callers refuse n^m >= 2^62.
    """
    return np.float64 if n**m < _FLOAT64_EXACT else np.int64


def _block_sum(factors, measures: np.ndarray, n: int):
    """Sum over maps x of n points of prod_u measures[x_u] * prod m[x_u, x_v] over factors (m, u, v)."""
    letters = string.ascii_letters
    subs = [letters[u] + letters[v] for _, u, v in factors] + list(letters[:n])
    spec = ",".join(subs) + "->"
    operands = [m for m, _, _ in factors] + [measures] * n
    return np.einsum(spec, *operands,
                     optimize=_contraction_path(spec, tuple(op.shape for op in operands)))


@functools.lru_cache(maxsize=256)
def _contraction_path(spec: str, shapes: tuple) -> list:
    """np.einsum's greedy contraction path for spec on operands of these shapes.

    Planning reads only the shapes, so it runs on zero-stride views, and the
    path is cached: at k = 4 planning took most of a cycle count's time.
    """
    operands = [np.broadcast_to(0.0, shape) for shape in shapes]
    return np.einsum_path(spec, *operands, optimize=("greedy", _EINSUM_MEM))[0]


def _pair_factors(h: Digraph, both, single, neither) -> list:
    """_block_sum factors for the pairs u < v of H, in row-major order.

    An antiparallel pair gives (both, u, v), a single edge (single, tail,
    head) and a non-edge (neither, u, v); factors that are None are left out.
    """
    kinds = {(1, 1): both, (1, 0): single, (0, 0): neither}
    factors = []
    for u in range(h.n):
        for v in range(u + 1, h.n):
            tail, head = (v, u) if h.adj[v, u] > h.adj[u, v] else (u, v)
            f = kinds[h.adj[tail, head], h.adj[head, tail]]
            if f is not None:
                factors.append((f, tail, head))
    return factors


def trace_power(g: Digraph, ell: int) -> int:
    """Tr(A^ell): the number of closed walks of length ell, exactly.

    Counted under _count_dtype's rule (float64 BLAS while n^ell < 2^53,
    int64 up to 2^62); beyond that the call raises OverflowError instead of
    wrapping. Tr(X Y) is summed as sum(X * Y^T), so A^ell is never formed.
    """
    if ell < 1:
        raise ValueError("power must be at least 1")
    if g.n**ell >= _INT64_SAFE:
        raise OverflowError(
            f"n^ell = {g.n}^{ell} exceeds the exact integer range of trace_power"
        )
    a = g.adj.astype(_count_dtype(g.n, ell))
    half = np.linalg.matrix_power(a, ell // 2)
    rest = half @ a if ell % 2 else half
    return int(np.sum(half * rest.T))


def hom_count(h: Digraph, g: Digraph) -> int:
    """Number of maps V(H) -> V(G) that carry every edge of H to an edge of G."""
    if h.n > 6:
        raise BudgetError(
            "pattern has more than 6 vertices; for a cycle C_ell use trace_power(g, ell)"
        )
    if g.n**h.n >= _INT64_SAFE:
        raise BudgetError("|G|^|H| exceeds the exact integer range of hom_count")
    dtype = _count_dtype(g.n, h.n)
    edges = h.edges()
    a = g.adj.astype(dtype) if edges else None  # no n^2 copy for an edgeless pattern
    return int(_block_sum([(a, u, v) for u, v in edges], np.ones(g.n, dtype), h.n))


def _induced_count(h: Digraph, g: Digraph) -> int:
    """Injective maps V(H) -> V(G) that carry edges to edges and non-edges to non-edges.

    Each pair of H contributes one of three 0/1 factors of G, whose zero
    diagonal keeps only injective maps: A*A^T for an antiparallel pair,
    A - A*A^T read from tail to head for a single edge, J - I - A - A^T + A*A^T
    for a non-edge. Each distinct factor is an n x n count array built through
    an n x n bool mask, 9 bytes per n^2, and all of them must fit in physical
    memory (else BudgetError).
    """
    dtype = _count_dtype(g.n, h.n)
    pairs = _pair_factors(h, (1, 1), (1, 0), (0, 0))
    kinds = dict.fromkeys(kind for kind, _, _ in pairs)
    _require_memory(len(kinds) * 9 * g.n * g.n,
                    f"{len(kinds)} induced-count factor(s) at n={g.n}")
    for kind in kinds:
        f = (g.adj == kind[0]) & (g.adj.T == kind[1])
        np.fill_diagonal(f, False)
        kinds[kind] = f.astype(dtype)
    factors = [(kinds[kind], u, v) for kind, u, v in pairs]
    return int(_block_sum(factors, np.ones(g.n, dtype), h.n))


def hom_density(h: Digraph, g: Digraph) -> float:
    """t(H, G): fraction of uniform maps V(H) -> V(G) that are homomorphisms."""
    return hom_count(h, g) / g.n**h.n


def automorphism_count(h: Digraph) -> int:
    """|Aut(H)|: the induced copies of H in itself (patterns up to 8 vertices)."""
    if h.n > 8:
        raise BudgetError("automorphism enumeration limited to 8 vertices")
    return _induced_count(h, h)


def subgraph_density(h: Digraph, g: Digraph) -> float:
    """d(H, G): probability that |H| random vertices of G induce a copy of H.

    Returns 0 when |H| > |G|. Exact: each |H|-subset that induces a copy of
    H carries |Aut(H)| induced embeddings, out of C(|G|, |H|) subsets.
    """
    m = h.n
    if m > 5:
        raise BudgetError("induced-density enumeration limited to patterns on 5 vertices")
    if m > g.n:
        return 0.0
    total = math.comb(g.n, m)
    if total * m * m > 2 * 10**8:
        raise BudgetError("subset enumeration budget exceeded")
    return (_induced_count(h, g) // automorphism_count(h)) / total


# ---------------------------------------------------------------------------
# random models


def sample_w_random(w: "StepDigraphon", n: int, seed: int) -> Digraph:
    """n-vertex random digraph driven by a step digraphon.

    Each vertex draws a block label with the block measures as probabilities;
    each unordered pair {i, j} independently receives the edge i -> j with
    probability W(x_i, x_j), the edge j -> i with probability W(x_j, x_i),
    and no edge otherwise. Deterministic given the seed: this is
    sample_bidirected_random with W1 = 0, and draws the same random stream.
    """
    from .stepkernel import StepDigraphon

    if not isinstance(w, StepDigraphon):
        raise TypeError("sample_w_random requires a StepDigraphon")
    return _w_random_draw(w, n, seed)[0]


def _w_random_draw(w: "StepDigraphon", n: int, seed: int) -> tuple[Digraph, np.ndarray]:
    """sample_w_random(w, n, seed) and the block label of each of its vertices."""
    adj, labels = _sample_adjacency(np.zeros_like(w.values), w.values, w.measures, n, seed)
    return Digraph(adj, allow_bidirected=False), labels


def sample_bidirected_random(p: "BidirectedStepPair", n: int, seed: int) -> Digraph:
    """n-vertex random digraph in which antiparallel pairs are allowed.

    Per unordered pair: both directions with probability W1(x_i, x_j),
    only i -> j with probability W2(x_i, x_j), only j -> i with probability
    W2(x_j, x_i), and no edge otherwise.
    """
    from .stepkernel import BidirectedStepPair

    if not isinstance(p, BidirectedStepPair):
        raise TypeError("sample_bidirected_random requires a BidirectedStepPair")
    return Digraph(_sample_adjacency(p.w1, p.w2, p.measures, n, seed)[0], allow_bidirected=True)


def _require_memory(need: int, what: str) -> None:
    """Raise BudgetError when need bytes exceed the machine's physical memory."""
    memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > memory:
        raise BudgetError(f"{what} needs about {need / 2**30:.1f} GiB, more than "
                          f"the {memory / 2**30:.1f} GiB of physical memory")


def _sample_adjacency(w1, w2, measures, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """int8 adjacency of one draw, filled a block of upper-triangle rows at a
    time, and the block label of each vertex.

    Labels come from choice(k, n, p=measures); then one uniform u per pair
    (i, j > i) in row-major order: both edges when u < W1, i -> j when
    u < W1 + W2(x_i, x_j), j -> i when u < W1 + W2(x_i, x_j) + W2(x_j, x_i),
    W1 read at (x_i, x_j). Rows [lo, lo + b) draw their uniforms in one
    random() call (the same stream as a call per row) into the upper
    triangle of a strip of columns lo.., inf elsewhere, which sets no edge;
    the thresholds are summed once per distinct label of the block. The
    forward strip adj[lo:lo + b, lo:] and the backward strip adj[lo:, lo:lo + b]
    overlap in the block's square, so both are or-ed in.
    """
    if n < 1:
        raise ValueError("sample size must be positive")
    rows = max(1, _BLOCK_CELLS // n)
    _require_memory(_SAMPLE_BYTES_PER_N2 * n * n + _SAMPLE_BYTES_PER_CELL * min(rows, n) * n,
                    f"sampling n={n}")
    rng = np.random.default_rng(seed)
    labels = rng.choice(len(measures), size=n, p=measures)
    adj = np.zeros((n, n), dtype=np.int8)
    for lo in range(0, n - 1, rows):
        b, m = min(rows, n - 1 - lo), n - lo
        keys, at = np.unique(labels[lo:lo + b], return_inverse=True)
        cols = labels[lo:]
        both = w1[keys][:, cols]
        t1 = both + w2[keys][:, cols]
        t2 = t1 + w2.T[keys][:, cols]
        u = np.full((b, m), np.inf)
        u[np.less.outer(np.arange(b), np.arange(m))] = rng.random(b * (m - 1) - b * (b - 1) // 2)
        adj[lo:lo + b, lo:] |= u < t1[at]
        backward = u < both[at]
        backward |= (u >= t1[at]) & (u < t2[at])
        adj[lo:, lo:lo + b] |= backward.T
    return adj, labels


def _first_seen(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """np.unique(keys, return_index=True, return_counts=True) without a stable sort.

    The first index of each distinct key is the least original index in its
    run of the unstably sorted keys.
    """
    order = np.argsort(keys)
    sorted_keys = keys[order]
    new_run = np.ones(keys.size, dtype=bool)
    new_run[1:] = sorted_keys[1:] != sorted_keys[:-1]
    starts = np.flatnonzero(new_run)
    del new_run
    first = np.minimum.reduceat(order, starts)
    del order
    return sorted_keys[starts], first, np.diff(starts, append=keys.size)


def _try_pairing(n: int, degree: int, rng: np.random.Generator) -> np.ndarray | None:
    """One pairing attempt: the adjacency, or None when the leftovers are stuck.

    A pair of consecutive shuffled stubs fails when it is a loop, in adj or a
    repeat within its round; failed stubs go on grouped by vertex in order of
    first appearance.
    """
    adj = np.zeros((n, n), dtype=np.int8)
    neighbours = np.zeros(n, dtype=np.int64)
    stubs = np.repeat(np.arange(n), degree)
    for _ in range(_PAIRING_ROUNDS):
        if stubs.size == 0:
            return adj
        rng.shuffle(stubs)
        u = np.minimum(stubs[0::2], stubs[1::2])
        v = np.maximum(stubs[0::2], stubs[1::2])
        # dropped before the sort, as _first_seen drops its temporaries, so a
        # round stays within _PAIRING_BYTES_PER_STUB
        del stubs
        ok = np.zeros(u.size, dtype=bool)
        ok[_first_seen(u * n + v)[1]] = True
        ok &= (u != v) & (adj[u, v] == 0)
        adj[u[ok], v[ok]] = 1
        adj[v[ok], u[ok]] = 1
        neighbours += np.bincount(u[ok], minlength=n) + np.bincount(v[ok], minlength=n)
        vertices, first, counts = _first_seen(np.stack((u[~ok], v[~ok]), axis=1).ravel())
        order = np.argsort(first)
        left = vertices[order]
        # stuck when no two distinct leftover vertices are still non-adjacent,
        # which needs each of them to have at least left.size - 1 neighbours
        if (left.size and neighbours[left].min() >= left.size - 1
                and adj[np.ix_(left, left)].sum() == left.size * (left.size - 1)):
            return None
        stubs = np.repeat(left, counts[order])
    return None


def random_regular_graph(n2: int, degree: int, seed: int) -> UndirectedRegularGraph:
    """Random simple degree-regular graph on n2 vertices via stub pairing.

    Pairs stubs uniformly and re-draws only the stubs whose pair would create
    a loop or multi-edge, restarting from scratch when no two leftover
    vertices can still be joined. Approximately uniform over regular graphs;
    regularity itself is always exact. Deterministic given the seed. Budgeted
    against physical memory before allocating (BudgetError).
    """
    if n2 < 2 or n2 % 2 != 0:
        raise ValueError("vertex count must be a positive even integer")
    if not 1 <= degree < n2:
        raise ValueError("degree must satisfy 1 <= degree < n2")
    if (n2 * degree) % 2 != 0:
        raise ValueError("n2 * degree must be even")
    _require_memory((_PAIRING_BYTES_PER_STUB * degree + _REGULAR_BYTES_PER_N2 * n2) * n2,
                    f"a {degree}-regular graph on {n2} vertices")
    rng = np.random.default_rng(seed)
    for _ in range(_PAIRING_RESTARTS):
        adj = _try_pairing(n2, degree, rng)
        if adj is not None:
            return UndirectedRegularGraph(adj, degree)
    raise GenerationError(
        f"no simple {degree}-regular graph on {n2} vertices found in {_PAIRING_RESTARTS} restarts"
    )


# ---------------------------------------------------------------------------
# double covers of regular graphs


def bidirected_double_cover(a: UndirectedRegularGraph) -> Digraph:
    """Digraph on two copies of V(A) whose adjacency is [[0, A], [A, 0]].

    Every edge of A becomes an antiparallel pair between the copies, so the
    spectrum is {+lam, -lam} over the eigenvalues lam of A.
    """
    z = np.zeros_like(a.adj)
    return Digraph(np.block([[z, a.adj], [a.adj, z]]), allow_bidirected=True)


def oneway_double_cover(a: UndirectedRegularGraph) -> Digraph:
    """Digraph on two copies of V(A) with adjacency [[0, A], [J - A, 0]].

    Edges run from the first copy to the second along A and return along the
    complement (J is all ones), so no antiparallel pair ever occurs.
    """
    z = np.zeros_like(a.adj)
    comp = np.ones_like(a.adj) - a.adj
    return Digraph(np.block([[z, a.adj], [comp, z]]), allow_bidirected=False)


# ---------------------------------------------------------------------------
# serialization


# One [i, j] of a top-level "edges" list under json.dumps(indent=2).
_EDGE_JSON = "\n    [\n      %d,\n      %d\n    ]"


def _edge_text(g: Digraph, template: str, sep: str) -> Iterator[str]:
    """template % (i, j) for every edge in row-major order, joined by sep, a row block at a time.

    With template = pre + "%d" + mid + "%d" + post, edge (i, j) with its sep
    in front is heads[i] + tails[j], where heads[i] = sep + pre + str(i) + mid
    and tails[j] = str(j) + post. Row i is then heads[i] + heads[i].join(the
    tails of its edges); the sep in front of the first edge is cut off.
    """
    pre, mid, post = template.split("%d")
    heads = [f"{sep}{pre}{v}{mid}" for v in range(g.n)]
    tails = np.array([f"{v}{post}" for v in range(g.n)], dtype=object)
    step = max(1, _BLOCK_CELLS // g.n)
    lead = len(sep)
    for lo in range(0, g.n, step):
        rows = ((heads[i], np.flatnonzero(row)) for i, row in enumerate(g.adj[lo:lo + step], lo))
        text = "".join(head + head.join(tails[jj].tolist()) for head, jj in rows if jj.size)
        if text:
            yield text[lead:]
            lead = 0


def digraph_json_text(g: Digraph, extra: dict) -> Iterator[str]:
    """The JSON text of g with the keys of extra, in pieces, ending in a newline.

    The object holds extra's keys and "n", "allow_bidirected" and "edges",
    the 0-based [i, j] pairs in row-major order, as json.dumps(obj,
    sort_keys=True, indent=2) writes it; digraph_from_json reads it back.
    Under indent=2 every edge is the same text around two integers, so the
    "edges" list is formatted from np.nonzero a row block at a time and the
    rest comes from json.dumps of the same object with no edges.
    """
    obj = {**extra, "n": g.n, "allow_bidirected": g.allow_bidirected, "edges": []}
    shell = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
    yield from _fill_json_lists(shell, "edges", [_edge_text(g, _EDGE_JSON, ",")])


def _fill_json_lists(shell: str, key: str, fills: list) -> Iterator[str]:
    """shell, a json.dumps(..., indent=2) text, in pieces, with its last
    len(fills) lists '"key": []' filled in order.

    fills[i] yields the text of the i-th list's items, each item led by its
    "," but the first, and each on its own lines as indent=2 sets them; a
    fill that yields no piece, or "" first, leaves its list []. Strings in
    shell escape their quotes, so only the key itself matches.
    """
    empty = f'"{key}": []'
    pieces = shell.rsplit(empty, len(fills))
    yield pieces[0]
    for before, fill, after in zip(pieces, fills, pieces[1:]):
        items = iter(fill)
        first = next(items, "")
        if not first:
            yield empty
        else:
            yield f'"{key}": [' + first
            yield from items
            # the closing bracket sits at the indent of the key's line
            yield "\n" + before[before.rfind("\n") + 1:] + "]"
        yield after


def digraph_from_json(obj: dict) -> Digraph:
    if not isinstance(obj, dict):
        raise ValueError("digraph JSON must be an object")
    for key in ("n", "allow_bidirected", "edges"):
        if key not in obj:
            raise ValueError(f"digraph JSON missing key {key!r}")
    n, bidirected = obj["n"], obj["allow_bidirected"]
    # type(x) is int: JSON true/false load as bool, a subclass of int.
    if type(n) is not int or n < 1:
        raise ValueError("digraph JSON field 'n' must be a positive integer")
    if type(bidirected) is not bool:
        raise ValueError("digraph JSON field 'allow_bidirected' must be true or false")
    if not isinstance(obj["edges"], (list, tuple)):
        raise ValueError("digraph JSON field 'edges' must be a list")
    _require_memory(_SAMPLE_BYTES_PER_N2 * n * n, f"loading a digraph on n={n} vertices")
    adj = np.zeros((n, n), dtype=np.int8)
    for e in obj["edges"]:
        if not (isinstance(e, (list, tuple)) and len(e) == 2):
            raise ValueError("each edge must be a pair [i, j]")
        i, j = e
        if not (type(i) is int and type(j) is int and 0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge {e!r} out of range for n={n}")
        adj[i, j] = 1
    return Digraph(adj, allow_bidirected=bidirected)


def digraph_edgelist_text(g: Digraph) -> Iterator[str]:
    """digraph_to_edgelist(g) in pieces, a row block of edges at a time."""
    yield f"# n={g.n} bidirected={1 if g.allow_bidirected else 0}\n"
    yield from _edge_text(g, "%d %d\n", "")


def digraph_to_edgelist(g: Digraph) -> str:
    """Plain-text edge list with a '# n=<n> bidirected=<0|1>' header line."""
    return "".join(digraph_edgelist_text(g))


# A line of str.splitlines, less its line break.
_LINE = re.compile("[^\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]+")


def digraph_from_edgelist(text: str) -> Digraph:
    """The digraph of an edge list; its lines are read one at a time, not split up front.

    The header is the last '# n=<n> bidirected=<0|1>' among the comment lines
    before the first edge; blank lines are skipped.
    """
    lines = (ln for ln in (m.group().strip() for m in _LINE.finditer(text)) if ln)
    n = bidirected = None
    body = None
    for ln in lines:
        if not ln.startswith("#"):
            body = ln
            break
        header = dict(part.split("=", 1) for part in ln[1:].split() if "=" in part)
        if "n" in header and "bidirected" in header:
            if not (header["n"].isdecimal() and int(header["n"]) > 0):
                raise ValueError(f"edge-list header {ln!r}: n must be a positive integer")
            if header["bidirected"] not in ("0", "1"):
                raise ValueError(f"edge-list header {ln!r}: bidirected must be 0 or 1")
            n, bidirected = int(header["n"]), header["bidirected"] == "1"
    if n is None:
        raise ValueError("edge list requires a '# n=<n> bidirected=<0|1>' header")
    _require_memory(_SAMPLE_BYTES_PER_N2 * n * n, f"loading a digraph on n={n} vertices")
    adj = np.zeros((n, n), dtype=np.int8)
    for ln in itertools.chain(() if body is None else (body,), lines):
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"malformed edge line: {ln!r}")
        i, j = int(parts[0]), int(parts[1])
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge {i} {j} out of range for n={n}")
        adj[i, j] = 1
    return Digraph(adj, allow_bidirected=bidirected)
