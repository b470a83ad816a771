import itertools
import math

import numpy as np
import pytest

from digraphon import (
    BidirectedStepPair,
    BudgetError,
    Digraph,
    StepDigraphon,
    StepKernel,
    StructureError,
    automorphism_count,
    bidirected_crossing_pair,
    collapse,
    common_refinement,
    compose_step,
    cut_metric,
    cut_norm,
    cut_norm_witness,
    cycle_digraph,
    empty_digraph,
    hausdorff_distance,
    hom_density,
    hom_density_pair,
    hom_density_step,
    kernel_from_json,
    kernel_to_json,
    nu_convergence_gaps,
    oneway_crossing_pair,
    op_norm_2to2,
    pair_from_json,
    pair_to_json,
    sample_w_random,
    step_from_digraph,
    step_spectrum,
    subgraph_density_step,
    uniform_measures,
)
import digraphon.stepkernel as sk
from digraphon import digraph


def brute_hom_density_step(h, w):
    """Oracle: direct sum over all block maps."""
    total = 0.0
    edges = h.edges()
    for phi in itertools.product(range(w.k), repeat=h.n):
        term = math.prod(w.measures[b] for b in phi)
        for u, v in edges:
            term *= w.values[phi[u], phi[v]]
        total += term
    return total


def brute_cut_norm(w):
    """Oracle: direct enumeration of all 4^k subset pairs."""
    r = w.measures[:, None] * w.values * w.measures[None, :]
    k = w.k
    best = 0.0
    for smask in range(1 << k):
        s = [i for i in range(k) if (smask >> i) & 1]
        for tmask in range(1 << k):
            t = [j for j in range(k) if (tmask >> j) & 1]
            val = abs(sum(r[i, j] for i in s for j in t))
            best = max(best, val)
    return best


def random_kernel(rng, k, scale=1.0):
    vals = rng.uniform(-scale, scale, (k, k))
    m = rng.random(k) + 0.1
    m = m / m.sum()
    return StepKernel(vals, m, bound=scale)


def random_digraphon(rng, k):
    x = rng.random((k, k))
    np.fill_diagonal(x, rng.random(k) * 0.5)
    scale = np.maximum(x + x.T, 1.0)
    m = rng.random(k) + 0.1
    m = m / m.sum()
    return StepDigraphon(x / scale, m)


def directed_cycle_kernel():
    vals = np.zeros((3, 3))
    for i in range(3):
        vals[i, (i + 1) % 3] = 1.0
    return StepDigraphon(vals, uniform_measures(3))


# ---------------------------------------------------------------------------
# types


def test_step_kernel_validates():
    with pytest.raises(ValueError):
        StepKernel([[1.0]], [0.5])  # measures must sum to 1
    with pytest.raises(ValueError):
        StepKernel([[1.0, 0.0]], [1.0])  # not square
    with pytest.raises(ValueError):
        StepKernel([[2.0]], [1.0], bound=1.0)  # bound certificate violated
    w = StepKernel([[2.0]], [1.0])
    assert w.bound == 2.0


def test_step_digraphon_validates():
    with pytest.raises(ValueError):
        StepDigraphon([[-0.1]], [1.0])
    with pytest.raises(ValueError):
        StepDigraphon([[0.6]], [1.0])  # diagonal forces W + W^T <= 1
    with pytest.raises(ValueError):
        StepDigraphon([[0.0, 0.7], [0.7, 0.0]], [0.5, 0.5])
    w = StepDigraphon([[0.0, 0.7], [0.3, 0.0]], [0.5, 0.5])
    assert w.bound == 1.0


def test_pair_validates():
    with pytest.raises(ValueError):
        BidirectedStepPair([[0.0, 0.4], [0.1, 0.0]], np.zeros((2, 2)), [0.5, 0.5])
    with pytest.raises(ValueError):
        BidirectedStepPair(np.full((2, 2), 0.5), np.full((2, 2), 0.4), [0.5, 0.5])


# ---------------------------------------------------------------------------
# digraph <-> kernel


def test_step_from_digraph_triangle():
    w = step_from_digraph(cycle_digraph(3))
    assert w.k == 3
    assert np.allclose(w.measures, 1 / 3)
    assert np.array_equal(w.values, cycle_digraph(3).adj)


def test_step_from_digraph_empty():
    w = step_from_digraph(empty_digraph(2))
    assert np.all(w.values == 0)
    assert isinstance(w, StepDigraphon)


def test_step_from_digraph_rejects_bidirected():
    with pytest.raises(TypeError, match="antiparallel pairs, which a step digraphon cannot hold"):
        step_from_digraph(cycle_digraph(2))


def test_step_from_digraph_of_a_oneway_edge():
    w = step_from_digraph(Digraph(np.array([[0, 1], [0, 0]])))
    assert np.array_equal(w.values, [[0, 1], [0, 0]])
    assert np.array_equal(w.measures, [0.5, 0.5])


def test_step_from_digraph_of_w_random_samples_keeps_densities():
    rng = np.random.default_rng(0)
    for _ in range(5):
        g = sample_w_random(random_digraphon(rng, 3), 15, int(rng.integers(2**32)))
        w = step_from_digraph(g)
        assert np.isin(w.values, (0.0, 1.0)).all()
        assert (w.values + w.values.T <= 1).all()
        for ell in (3, 4):
            c = cycle_digraph(ell)
            assert hom_density_step(c, w) == pytest.approx(hom_density(c, g), rel=1e-12)


# ---------------------------------------------------------------------------
# densities


def test_hom_density_step_constant_kernel():
    for ell in (3, 4, 5):
        w = StepDigraphon([[0.5]], [1.0])
        assert hom_density_step(cycle_digraph(ell), w) == pytest.approx(0.5**ell, abs=1e-15)


def test_hom_density_step_directed_cycle_blocks():
    w = directed_cycle_kernel()
    assert hom_density_step(cycle_digraph(3), w) == pytest.approx(1 / 9, abs=1e-15)
    assert hom_density_step(cycle_digraph(4), w) == pytest.approx(0.0, abs=0)


def test_hom_density_step_crossing_kernel_odd_even():
    wp = collapse(bidirected_crossing_pair())
    assert hom_density_step(cycle_digraph(3), wp) == pytest.approx(0.0, abs=1e-15)
    assert hom_density_step(cycle_digraph(4), wp) == pytest.approx(2**-7, abs=1e-15)


def test_hom_density_step_matches_brute_force():
    rng = np.random.default_rng(1)
    for _ in range(10):
        k = int(rng.integers(1, 4))
        w = random_kernel(rng, k)
        n_h = int(rng.integers(1, 5))
        h = Digraph((rng.random((n_h, n_h)) < 0.4).astype(int) * (1 - np.eye(n_h, dtype=int)),
                    allow_bidirected=True)
        assert hom_density_step(h, w) == pytest.approx(brute_hom_density_step(h, w), abs=1e-12)


def test_hom_density_step_trace_bridge():
    # t(C_ell, W) equals Tr(B^ell) with B = values * measures (column-scaled)
    rng = np.random.default_rng(2)
    for _ in range(10):
        w = random_digraphon(rng, int(rng.integers(1, 6)))
        b = w.values * w.measures[None, :]
        for ell in (3, 4, 5):
            assert hom_density_step(cycle_digraph(ell), w) == pytest.approx(
                float(np.trace(np.linalg.matrix_power(b, ell))), abs=1e-10
            )


def test_block_sum_plans_each_contraction_once_with_the_bytes_of_planning_per_call(monkeypatch):
    calls = []
    plan = np.einsum_path
    monkeypatch.setattr(np, "einsum_path", lambda *a, **kw: calls.append(a[0]) or plan(*a, **kw))
    digraph._contraction_path.cache_clear()
    rng = np.random.default_rng(4)
    for k in (1, 4, 8):
        w = random_digraphon(rng, k)
        for ell in range(2, 9):
            factors = [(w.values, u, v) for u, v in cycle_digraph(ell).edges()]
            spec = ",".join("abcdefgh"[u] + "abcdefgh"[v] for _, u, v in factors)
            spec += "," + ",".join("abcdefgh"[:ell]) + "->"
            planned = np.einsum(spec, *[f for f, _, _ in factors], *[w.measures] * ell,
                                optimize=("greedy", digraph._EINSUM_MEM))
            for _ in range(3):
                assert sk._block_sum(factors, w.measures, ell).tobytes() == planned.tobytes()
    assert len(calls) == 3 * 7  # one plan per (k, ell)


def test_subgraph_density_step_two_isolated_vertices():
    w = StepDigraphon([[0.5]], [1.0])
    assert subgraph_density_step(empty_digraph(2), w) == pytest.approx(0.0, abs=0)


def test_subgraph_density_step_single_edge():
    edge = Digraph(np.array([[0, 1], [0, 0]]))
    for p in (0.1, 0.3, 0.5):
        w = StepDigraphon([[p]], [1.0])
        assert subgraph_density_step(edge, w) == pytest.approx(2 * p, abs=1e-15)


def test_subgraph_density_step_partition_of_three_vertex_classes():
    rng = np.random.default_rng(3)
    w = random_digraphon(rng, 3)
    states = [(0, 0), (1, 0), (0, 1)]
    seen = set()
    total = 0.0
    for s01, s02, s12 in itertools.product(states, repeat=3):
        adj = np.zeros((3, 3), dtype=np.int8)
        adj[0, 1], adj[1, 0] = s01
        adj[0, 2], adj[2, 0] = s02
        adj[1, 2], adj[2, 1] = s12
        codes = frozenset(
            tuple(adj[np.ix_(p, p)].ravel()) for p in map(list, itertools.permutations(range(3)))
        )
        if codes not in seen:
            seen.add(codes)
            h = Digraph(adj)
            d = subgraph_density_step(h, w)
            assert 0.0 <= d <= 1.0
            total += d
    assert total == pytest.approx(1.0, abs=1e-12)


def test_subgraph_density_step_antiparallel_pattern_is_zero():
    w = random_digraphon(np.random.default_rng(4), 2)
    assert subgraph_density_step(cycle_digraph(2), w) == 0.0


def test_subgraph_density_step_requires_digraphon():
    with pytest.raises(TypeError):
        subgraph_density_step(empty_digraph(2), StepKernel([[0.5]], [1.0]))


def test_hom_density_pair_crossing_values():
    c2 = cycle_digraph(2)
    assert hom_density_pair(c2, bidirected_crossing_pair()) == 0.25
    assert hom_density_pair(c2, oneway_crossing_pair()) == 0.0


def test_hom_density_pair_matches_collapse_for_simple_patterns():
    rng = np.random.default_rng(5)
    for _ in range(8):
        k = int(rng.integers(1, 4))
        w1 = rng.random((k, k)) * 0.3
        w1 = (w1 + w1.T) / 2
        w2 = rng.random((k, k)) * 0.3
        m = rng.random(k) + 0.1
        p = BidirectedStepPair(w1, w2, m / m.sum())
        for ell in (3, 4, 5):
            h = cycle_digraph(ell)
            assert hom_density_pair(h, p) == pytest.approx(
                hom_density_step(h, collapse(p)), abs=1e-12
            )


# ---------------------------------------------------------------------------
# the pair-type factor list against frozen copies of the earlier pair loops


def frozen_subgraph_density_step(h, w):
    """The earlier subgraph_density_step after its checks: its own pair loop."""
    a = h.adj
    if np.any((a & a.T) != 0):
        return 0.0
    non_edge = 1.0 - w.values - w.values.T
    factors = []
    for u in range(h.n):
        for v in range(u + 1, h.n):
            if a[u, v]:
                factors.append((w.values, u, v))
            elif a[v, u]:
                factors.append((w.values, v, u))
            else:
                factors.append((non_edge, u, v))
    integral = float(sk._block_sum(factors, w.measures, h.n))
    return math.factorial(h.n) / automorphism_count(h) * integral


def frozen_hom_density_pair(h, p):
    """The earlier hom_density_pair after its budget check: its own pair loop."""
    a = h.adj
    w_sum = p.w1 + p.w2
    factors = []
    for u in range(h.n):
        for v in range(u + 1, h.n):
            if a[u, v] and a[v, u]:
                factors.append((p.w1, u, v))
            elif a[u, v]:
                factors.append((w_sum, u, v))
            elif a[v, u]:
                factors.append((w_sum, v, u))
    return float(sk._block_sum(factors, p.measures, h.n))


def random_pattern(rng, m, states):
    """Pattern whose pairs u < v draw none/forward/backward(/both) uniformly from states."""
    adj = np.zeros((m, m), dtype=np.int8)
    for u, v in itertools.combinations(range(m), 2):
        s = int(rng.integers(states))
        adj[u, v], adj[v, u] = s & 1, s >> 1
    return Digraph(adj, allow_bidirected=states == 4)


def test_pair_densities_equal_the_frozen_pair_loops():
    rng = np.random.default_rng(17)
    seen = {3: set(), 4: set()}
    for _ in range(150):
        k, m = int(rng.integers(1, 5)), int(rng.integers(1, 6))
        measures = rng.dirichlet(np.ones(k))
        # three outcomes per unordered block pair {i < j}: i -> j, j -> i, none
        d = np.moveaxis(rng.dirichlet(np.ones(3), size=(k, k)), 2, 0)
        values = np.triu(d[0], 1) + np.triu(d[1], 1).T + np.diag(rng.random(k) / 2)
        w = StepDigraphon(values, measures)
        assert not np.array_equal(w.values, w.values.T) or k == 1
        # four per pair: both, i -> j, j -> i, none; a diagonal block pair splits
        # its mass between both and the two equal single directions
        d = np.moveaxis(rng.dirichlet(np.ones(4), size=(k, k)), 2, 0)
        dd = rng.dirichlet(np.ones(3), size=k)
        w1 = np.triu(d[0], 1) + np.triu(d[0], 1).T + np.diag(dd[:, 0])
        w2 = np.triu(d[1], 1) + np.triu(d[2], 1).T + np.diag(dd[:, 1] / 2)
        p = BidirectedStepPair(w1, w2, measures)
        for states, density, frozen, kernel in (
            (3, subgraph_density_step, frozen_subgraph_density_step, w),
            (4, hom_density_pair, frozen_hom_density_pair, p),
        ):
            h = random_pattern(rng, m, states)
            seen[states].update((int(h.adj[u, v]), int(h.adj[v, u]))
                                for u, v in itertools.combinations(range(m), 2))
            new, old = density(h, kernel), frozen(h, kernel)
            assert new == old and type(new) is float
    assert len(seen[3]) == 3 and len(seen[4]) == 4


# ---------------------------------------------------------------------------
# cut norm


def test_cut_norm_zero_and_constant():
    assert cut_norm(StepKernel([[0.0]], [1.0])) == 0.0
    assert cut_norm(StepKernel([[0.7]], [1.0])) == pytest.approx(0.7, abs=0)
    assert cut_norm(StepKernel([[-0.7]], [1.0])) == pytest.approx(0.7, abs=0)


def test_cut_norm_two_block_checkerboard():
    w = StepKernel([[1.0, -1.0], [-1.0, 1.0]], [0.5, 0.5])
    assert cut_norm(w) == pytest.approx(0.25, abs=0)
    assert brute_cut_norm(w) == pytest.approx(0.25, abs=0)
    # mask 1 = {0} is the first optimum; its column sums total exactly 0,
    # and then the positive columns are taken
    assert cut_norm_witness(w) == (0.25, (0,), (0,))


def test_cut_norm_matches_brute_force():
    rng = np.random.default_rng(6)
    for _ in range(20):
        w = random_kernel(rng, int(rng.integers(1, 5)))
        assert cut_norm(w) == pytest.approx(brute_cut_norm(w), abs=1e-14)


def test_cut_norm_witness_reconstructs_value():
    rng = np.random.default_rng(7)
    for _ in range(10):
        w = random_kernel(rng, int(rng.integers(1, 7)))
        witness = cut_norm_witness(w)
        r = w.measures[:, None] * w.values * w.measures[None, :]
        val = abs(sum(r[i, j] for i in witness.row_blocks for j in witness.col_blocks))
        assert witness.value == pytest.approx(cut_norm(w), abs=0)
        assert val == pytest.approx(witness.value, abs=1e-14)


def gemm_cut_scan(r):
    """The cut scan as first written: a 0/1 mask matrix per chunk of 2^16 row
    subsets, a BLAS product for the column sums and the first maximum of
    max(positive part, negative part) in mask order."""
    k = r.shape[0]
    best, best_mask, best_cols = 0.0, 0, np.zeros(k, dtype=bool)
    bits = np.arange(k, dtype=np.uint32)
    for lo in range(0, 1 << k, 1 << 16):
        hi = min(lo + (1 << 16), 1 << k)
        masks = ((np.arange(lo, hi, dtype=np.uint32)[:, None] >> bits[None, :]) & 1).astype(
            np.float64
        )
        col_sums = masks @ r
        pos = np.where(col_sums > 0.0, col_sums, 0.0).sum(axis=1)
        neg = -np.where(col_sums < 0.0, col_sums, 0.0).sum(axis=1)
        vals = np.maximum(pos, neg)
        i = int(np.argmax(vals))
        if vals[i] > best:
            best, best_mask = float(vals[i]), lo + i
            best_cols = col_sums[i] > 0.0 if pos[i] >= neg[i] else col_sums[i] < 0.0
    rows = tuple(i for i in range(k) if (best_mask >> i) & 1)
    return best, rows, tuple(int(j) for j in np.nonzero(best_cols)[0])


def test_cut_scan_matches_gemm_scan():
    # k = 1..16 covers fewer, as many and more blocks than the low-row table
    assert 1 < sk._CUT_LOW_ROWS < 16
    rng = np.random.default_rng(13)
    for k in range(1, 17):
        for _ in range(4 if k <= 12 else 2):
            w = random_kernel(rng, k)
            value, rows, cols = gemm_cut_scan(sk._weighted(w))
            witness = cut_norm_witness(w)
            assert (witness.row_blocks, witness.col_blocks) == (rows, cols)
            assert witness.value == pytest.approx(value, rel=1e-15, abs=0)


def test_cut_norm_witness_of_zero_kernel():
    for k in (1, 3, sk._CUT_LOW_ROWS, sk._CUT_LOW_ROWS + 2):
        assert cut_norm_witness(StepKernel(np.zeros((k, k)), uniform_measures(k))) == (0.0, (), ())


def test_cut_norm_witness_attains_value_on_ties():
    # Integer values and duplicated blocks make many subset pairs exactly
    # optimal. Which of them is returned depends on how the column sums are
    # rounded (true of any summation order, the BLAS scan's included), so
    # only the value the witness attains is checked.
    rng = np.random.default_rng(14)
    for k in (4, 9, 12, 14):
        base = rng.integers(-2, 3, ((k + 1) // 2, (k + 1) // 2)).astype(np.float64)
        blocks = np.repeat(np.arange((k + 1) // 2), 2)[:k]
        values = base[np.ix_(blocks, blocks)]
        for measures in (uniform_measures(k), rng.integers(1, 4, k) / 1.0):
            w = StepKernel(values, measures / measures.sum())
            witness = cut_norm_witness(w)
            r = sk._weighted(w)
            attained = abs(r[np.ix_(witness.row_blocks, witness.col_blocks)].sum())
            assert attained == pytest.approx(witness.value, abs=1e-14)
            assert witness.value == pytest.approx(gemm_cut_scan(r)[0], abs=1e-14)


def frozen_float64_cut_scan(r):
    """The cut scan before the float32 screen: every row subset scored in
    float64, from subset-sum tables over the first 10 rows and over the rest."""
    def subset_sums(rows):
        out = np.concatenate((rows, rows.sum(axis=1, keepdims=True)), axis=1)
        table = np.zeros((out.shape[1], 1))
        for b in range(out.shape[0]):
            table = np.concatenate((table, table + out[b, :, None]), axis=1)
        return table

    k = r.shape[0]
    low_rows = min(k, 10)
    low = subset_sums(r[:low_rows])
    high = subset_sums(r[low_rows:])
    sums = np.empty_like(low)
    best = 0.0
    best_mask = 0
    for h in range(high.shape[1]):
        np.add(low, high[:, h, None], out=sums)
        np.abs(sums, out=sums)
        twice = sums.sum(axis=0)
        i = int(np.argmax(twice))
        if twice[i] > best:
            best = float(twice[i])
            best_mask = (h << low_rows) + i
    h, i = divmod(best_mask, 1 << low_rows)
    col_sums = low[:, i] + high[:, h]
    cols = col_sums[:k] > 0.0 if col_sums[k] >= 0.0 else col_sums[:k] < 0.0
    rows = tuple(b for b in range(k) if (best_mask >> b) & 1)
    return sk.CutNormWitness(0.5 * best, rows, tuple(int(j) for j in np.nonzero(cols)[0]))


def scan_corpus(rng, k, count):
    """Weighted value matrices r on k blocks: uniform values, integer values
    on duplicated blocks (exact ties), values scaled by 1e300 and 1e-300, and
    entries of magnitude 1e-300 mixed with magnitude 1."""
    for n in range(count):
        kind = n % 5
        if kind == 1:
            base = rng.integers(-2, 3, ((k + 1) // 2, (k + 1) // 2)).astype(np.float64)
            blocks = np.repeat(np.arange((k + 1) // 2), 2)[:k]
            values = base[np.ix_(blocks, blocks)]
        elif kind == 4:
            values = np.where(rng.random((k, k)) < 0.5, 1e-300, 1.0) * rng.choice([-1.0, 1.0], (k, k))
        else:
            values = rng.uniform(-1.0, 1.0, (k, k)) * {0: 1.0, 2: 1e300, 3: 1e-300}[kind]
        m = rng.integers(1, 4, k) / 1.0
        m /= m.sum()
        yield m[:, None] * values * m[None, :]


def scores_by_mask(x, low_rows, dtype):
    """sum_j |c_j| + |c_k| of every row subset of x in mask order, from the
    subset-sum tables split at low_rows and cast to dtype."""
    low = sk._subset_sums(x[:low_rows]).astype(dtype)
    high = sk._subset_sums(x[low_rows:]).astype(dtype)
    sums = np.empty_like(low)
    return np.concatenate([sk._subset_scores(low, high, h, sums) for h in range(high.shape[1])])


def test_cut_scan_equals_the_frozen_float64_scan():
    # the float32 screen re-checks in float64 only the rows that may hold a
    # maximum: the witness is the full scan's, value bits included, ties too
    rng = np.random.default_rng(31)
    for k in range(1, 19):
        for r in scan_corpus(rng, k, 40 if k <= 12 else 20):
            want = frozen_float64_cut_scan(r)
            got = sk._cut_scan(r)
            assert got == want and got.value.hex() == want.value.hex()


def test_screen_margin_bounds_float32_rounding_on_every_subset():
    rng = np.random.default_rng(32)
    for k in range(1, 13):
        for r in scan_corpus(rng, k, 30):
            x = np.ldexp(r, -int(np.frexp(np.abs(r).max())[1]))
            twice64 = scores_by_mask(x, min(k, sk._CUT_LOW_ROWS), np.float64)
            twice32 = scores_by_mask(x, min(k, sk._CUT_SCREEN_LOW_ROWS), np.float32)
            assert np.abs(twice32 - twice64).max() <= sk._screen_margin(x)


def test_screen_keeps_a_row_that_float32_ranks_below_the_top():
    # The row subsets {12} and {13} are the best, with equal exact sums: row
    # 13 of r holds row 12's entries 1 / (j + 3), rotated and negated.
    # Rounding puts the float64 maximum at {13}, in screen row 1 (masks from
    # 2^13 on), which float32 scores below screen row 0, so the screen must
    # keep the rows within its margin of the top, not the top row alone.
    assert sk._CUT_SCREEN_LOW_ROWS == 13
    k = 14
    a = 1.0 / (np.arange(k) + 3.0)
    r = np.zeros((k, k))
    r[12], r[13] = a, -np.roll(a, 3)
    x = np.ldexp(r, -int(np.frexp(np.abs(r).max())[1]))
    twice32 = scores_by_mask(x, 13, np.float32)
    assert twice32[1 << 13:].max() < twice32[:1 << 13].max()
    assert sk._cut_scan(r) == frozen_float64_cut_scan(r)
    assert sk._cut_scan(r).row_blocks == (13,)


def test_cut_norm_dominated_by_fractional_candidates():
    # the enumerated 0/1 optimum dominates every [0,1]-valued block pair
    rng = np.random.default_rng(8)
    for _ in range(5):
        w = random_kernel(rng, 6)
        r = w.measures[:, None] * w.values * w.measures[None, :]
        best = cut_norm(w)
        g = rng.random((1000, 6))
        h = rng.random((1000, 6))
        frac = np.abs(np.einsum("si,ij,sj->s", g, r, h))
        assert (frac <= best + 1e-12).all()


def test_cut_norm_properties():
    rng = np.random.default_rng(9)
    for _ in range(10):
        k = int(rng.integers(1, 6))
        a = random_kernel(rng, k)
        b = StepKernel(rng.uniform(-1, 1, (k, k)), a.measures, bound=1.0)
        assert cut_norm(a) <= a.bound + 1e-12
        two_a = StepKernel(2 * a.values, a.measures, bound=2 * a.bound)
        assert cut_norm(two_a) == pytest.approx(2 * cut_norm(a), abs=1e-12)
        s = StepKernel(a.values + b.values, a.measures, bound=a.bound + b.bound)
        assert cut_norm(s) <= cut_norm(a) + cut_norm(b) + 1e-12


def test_cut_norm_budget():
    with pytest.raises(BudgetError):
        cut_norm(StepKernel(np.zeros((25, 25)), uniform_measures(25)))


def test_cut_metric_basics():
    rng = np.random.default_rng(10)
    a = random_kernel(rng, 4)
    assert cut_metric(a, a) == 0.0
    half = StepKernel([[0.5]], [1.0])
    zero = StepKernel([[0.0]], [1.0])
    assert cut_metric(half, zero) == pytest.approx(0.5, abs=0)
    b = random_kernel(rng, 4)
    b = StepKernel(b.values, a.measures, bound=b.bound)
    assert cut_metric(a, b) == pytest.approx(cut_metric(b, a), abs=0)


def test_cut_metric_triangle_inequality():
    rng = np.random.default_rng(17)
    for _ in range(20):
        a = random_kernel(rng, int(rng.integers(1, 6)))
        b, c = (StepKernel(rng.uniform(-1, 1, (a.k, a.k)), a.measures, bound=1.0) for _ in range(2))
        assert cut_metric(a, c) <= cut_metric(a, b) + cut_metric(b, c) + 1e-14


def test_cut_metric_lies_between_the_whole_square_mass_and_the_l1_distance():
    rng = np.random.default_rng(18)
    for _ in range(20):
        a = random_kernel(rng, int(rng.integers(1, 6)))
        b = StepKernel(rng.uniform(-1, 1, (a.k, a.k)), a.measures, bound=1.0)
        d = a.values - b.values
        whole = abs(float(a.measures @ d @ a.measures))
        l1 = float(a.measures @ np.abs(d) @ a.measures)
        assert whole - 1e-14 <= cut_metric(a, b) <= l1 + 1e-14


def test_cut_metric_structure_error():
    a = StepKernel([[0.5]], [1.0])
    b = StepKernel(np.zeros((2, 2)), [0.5, 0.5])
    with pytest.raises(StructureError):
        cut_metric(a, b)


# ---------------------------------------------------------------------------
# refinement and relabelling


def test_common_refinement_identical_structures():
    rng = np.random.default_rng(11)
    w = random_kernel(rng, 4)
    r1, r2 = common_refinement(w, StepKernel(w.values * 0.5, w.measures, bound=w.bound))
    assert r1.k == 4
    assert np.array_equal(r1.values, w.values)
    assert np.allclose(r1.measures, w.measures)


def test_common_refinement_constant_kernels():
    one = StepKernel([[0.3]], [1.0])
    two = StepKernel(np.full((2, 2), 0.8), [0.5, 0.5])
    r1, r2 = common_refinement(one, two)
    assert r1.k == r2.k == 2
    assert np.all(r1.values == 0.3)
    assert np.all(r2.values == 0.8)


def test_common_refinement_preserves_cut_norm():
    rng = np.random.default_rng(12)
    for _ in range(8):
        a = random_kernel(rng, int(rng.integers(1, 5)))
        b = random_kernel(rng, int(rng.integers(1, 5)))
        ra, rb = common_refinement(a, b)
        assert np.allclose(ra.measures, rb.measures)
        assert cut_norm(ra) == pytest.approx(cut_norm(a), abs=1e-12)
        assert cut_norm(rb) == pytest.approx(cut_norm(b), abs=1e-12)


def test_common_refinement_budget(monkeypatch):
    monkeypatch.setattr(sk, "_REFINEMENT_MAX_BLOCKS", 5)
    rng = np.random.default_rng(13)
    with pytest.raises(BudgetError):
        common_refinement(random_kernel(rng, 4), random_kernel(rng, 4))


def relabelled_and_split(rng, w):
    """w with its blocks in a random order, and w with one block split in two random parts."""
    p = rng.permutation(w.k)
    yield StepKernel(w.values[np.ix_(p, p)], w.measures[p], bound=w.bound)
    b, t = int(rng.integers(w.k)), rng.uniform(0.1, 0.9)
    idx = np.insert(np.arange(w.k), b, b)
    measures = w.measures[idx]
    measures[b:b + 2] *= (t, 1 - t)
    yield StepKernel(w.values[np.ix_(idx, idx)], measures, bound=w.bound)


def test_a_split_kernel_is_at_cut_distance_zero_after_common_refinement():
    rng = np.random.default_rng(19)
    for _ in range(10):
        w = random_kernel(rng, int(rng.integers(1, 6)))
        _, split = relabelled_and_split(rng, w)
        a, b = common_refinement(w, split)
        assert a.k == b.k == w.k + 1
        assert cut_metric(a, b) == 0.0
        assert cut_norm(a) == pytest.approx(cut_norm(w), abs=1e-14)


def test_relabelling_and_splitting_blocks_keep_kernel_invariants():
    # These depend on W only as a function on [0,1]^2 (the cut norm is attained
    # at block unions), so they may move by rounding alone. Every third kernel
    # repeats one block pattern twice, so its eigenvalues come in pairs.
    rng = np.random.default_rng(16)
    cycles = [cycle_digraph(ell) for ell in (3, 4, 5)]

    def scalars(v):
        return [cut_norm(v), op_norm_2to2(v), *(hom_density_step(c, v) for c in cycles)]

    for case in range(50):
        if case % 3 == 0:
            half = int(rng.integers(1, 4))
            w = StepKernel(np.kron(np.eye(2), rng.uniform(-1, 1, (half, half))),
                           np.tile(rng.dirichlet(np.ones(half)), 2) / 2, bound=1.0)
        else:
            k = int(rng.integers(1, 7))
            w = StepKernel(rng.uniform(-1, 1, (k, k)), rng.dirichlet(np.ones(k)), bound=1.0)
        expected, spec = scalars(w), step_spectrum(w)
        for v in relabelled_and_split(rng, w):
            assert scalars(v) == pytest.approx(expected, abs=1e-14)
            moved = step_spectrum(v)
            assert len(moved.points) == len(spec.points) > 0
            assert hausdorff_distance(moved.point_set(), spec.point_set()) <= 1e-12
            for lam, m in spec.points:
                assert min(moved.points, key=lambda q: abs(q[0] - lam))[1] == m


# ---------------------------------------------------------------------------
# operator view


def test_op_norm_constants():
    assert op_norm_2to2(StepKernel([[1.0]], [1.0])) == pytest.approx(1.0, abs=1e-12)
    assert op_norm_2to2(StepKernel([[0.0]], [1.0])) == 0.0


def test_op_norm_digraphon_at_most_one():
    rng = np.random.default_rng(16)
    for _ in range(20):
        w = random_digraphon(rng, int(rng.integers(1, 7)))
        assert op_norm_2to2(w) <= 1.0 + 1e-9
        assert op_norm_2to2(w) <= w.bound + 1e-9


def test_op_norm_matches_dense_grid_discretization():
    # independent check of the D^(1/2) M D^(1/2) formula on a 512-point grid
    rng = np.random.default_rng(17)
    grid = 512
    for _ in range(20):
        k = int(rng.integers(1, 7))
        w = random_kernel(rng, k)
        cum = np.cumsum(w.measures)
        x = (np.arange(grid) + 0.5) / grid
        idx = np.minimum(np.searchsorted(cum, x, side="right"), k - 1)
        kmat = w.values[np.ix_(idx, idx)]
        grid_norm = np.linalg.svd(kmat, compute_uv=False)[0] / grid
        assert abs(grid_norm - op_norm_2to2(w)) < 5e-3


def test_compose_step_zero_and_constants():
    m = uniform_measures(3)
    v = StepKernel(np.full((3, 3), 0.4), m)
    z = StepKernel(np.zeros((3, 3)), m)
    assert np.all(compose_step(v, z).values == 0.0)
    a = StepKernel([[0.3]], [1.0])
    b = StepKernel([[0.5]], [1.0])
    assert compose_step(a, b).values[0, 0] == pytest.approx(0.15, abs=1e-15)


def test_compose_step_bound_is_valid():
    rng = np.random.default_rng(18)
    for _ in range(10):
        k = int(rng.integers(1, 6))
        v = random_kernel(rng, k, scale=2.0)
        u = StepKernel(rng.uniform(-2, 2, (k, k)), v.measures, bound=2.0)
        c = compose_step(v, u)
        assert np.max(np.abs(c.values)) <= c.bound + 1e-12
        assert c.bound == pytest.approx(v.bound * u.bound, abs=0)


def test_compose_norm_bounded_by_cut_norm_sample():
    rng = np.random.default_rng(19)
    for _ in range(100):
        k = int(rng.integers(1, 9))
        v = random_kernel(rng, k)
        u = StepKernel(rng.uniform(-1, 1, (k, k)), v.measures, bound=1.0)
        assert op_norm_2to2(compose_step(v, u)) <= 2 * math.sqrt(cut_norm(v)) + 1e-9


def test_nu_convergence_gaps_cases():
    rng = np.random.default_rng(20)
    w = random_kernel(rng, 4)
    assert nu_convergence_gaps(w, w) == (0.0, 0.0)
    zero = StepKernel(np.zeros((4, 4)), w.measures)
    g1, g2 = nu_convergence_gaps(w, zero)
    assert g1 == 0.0 and g2 >= 0.0


def test_nu_convergence_gaps_bounded_by_cut_metric():
    rng = np.random.default_rng(21)
    for _ in range(20):
        k = int(rng.integers(1, 7))
        w = StepKernel(rng.uniform(-0.5, 0.5, (k, k)), uniform_measures(k), bound=1.0)
        wn = StepKernel(w.values + rng.uniform(-0.5, 0.5, (k, k)), w.measures, bound=1.0)
        bound = 2 * math.sqrt(cut_metric(wn, w))
        g1, g2 = nu_convergence_gaps(wn, w)
        assert g1 <= bound + 1e-9 and g2 <= bound + 1e-9


def test_collapse_crossing_pairs_coincide():
    a = collapse(bidirected_crossing_pair())
    b = collapse(oneway_crossing_pair())
    assert np.array_equal(a.values, b.values)
    assert isinstance(a, StepKernel) and not isinstance(a, StepDigraphon)
    assert np.allclose(a.values, [[0.0, 0.5], [0.5, 0.0]])


def test_collapse_symmetric_when_w2_zero():
    p = bidirected_crossing_pair()
    c = collapse(p)
    assert np.array_equal(c.values, c.values.T)


# ---------------------------------------------------------------------------
# serialization


def test_kernel_json_round_trip():
    rng = np.random.default_rng(22)
    w = random_kernel(rng, 3)
    back = kernel_from_json(kernel_to_json(w))
    assert type(back) is StepKernel
    assert np.array_equal(back.values, w.values)
    d = random_digraphon(rng, 2)
    back_d = kernel_from_json(kernel_to_json(d))
    assert isinstance(back_d, StepDigraphon)


def test_pair_json_round_trip():
    p = bidirected_crossing_pair()
    back = pair_from_json(pair_to_json(p))
    assert np.array_equal(back.w1, p.w1)
    assert np.array_equal(back.w2, p.w2)


def test_kernel_json_rejects_malformed():
    with pytest.raises(ValueError):
        kernel_from_json({"k": 2, "measures": [0.5, 0.5]})
    with pytest.raises(ValueError):
        kernel_from_json({"k": 3, "measures": [0.5, 0.5], "values": [[0.0]]})


@pytest.mark.parametrize("measures", [[float("nan"), 0.5], [float("nan")], [0.5, float("inf")],
                                      [float("-inf"), 1.0]])
def test_kernel_and_pair_reject_a_non_finite_block_measure(measures):
    # NaN <= 0 and |NaN - 1| > tol are both False
    k = len(measures)
    values = np.full((k, k), 0.25)
    for make in (StepKernel, StepDigraphon):
        with pytest.raises(ValueError, match="measure"):
            make(values, measures)
    with pytest.raises(ValueError, match="measures"):
        BidirectedStepPair(np.zeros((k, k)), values, measures)


def test_kernel_json_rejects_a_boolean_block_count():
    with pytest.raises(ValueError, match="shapes"):
        kernel_from_json({"k": True, "measures": [1.0], "values": [[0.5]]})


_KERNEL = {"k": 2, "measures": [0.5, 0.5], "values": [[0.0, 0.25], [0.25, 0.0]], "bound": 1.0}
_PAIR = {"measures": [0.5, 0.5], "W1": [[0.0, 0.5], [0.5, 0.0]], "W2": [[0.0, 0.0], [0.0, 0.0]]}


@pytest.mark.parametrize("load,base,key,bad", [
    (kernel_from_json, _KERNEL, "values", [[True, False], [False, True]]),
    (kernel_from_json, _KERNEL, "values", [["0", "0.25"], ["0.25", "0"]]),
    (kernel_from_json, _KERNEL, "measures", [0.5, "0.5"]),
    (kernel_from_json, _KERNEL, "bound", True),
    (kernel_from_json, _KERNEL, "bound", "0.5"),
    (kernel_from_json, _KERNEL, "bound", float("nan")),
    (kernel_from_json, _KERNEL, "type", "digrafon"),
    (kernel_from_json, _KERNEL, "type", None),
    (pair_from_json, _PAIR, "W1", [[False, True], [True, False]]),
    (pair_from_json, _PAIR, "W2", [["0", "0"], ["0", "0"]]),
    (pair_from_json, _PAIR, "measures", ["0.5", 0.5]),
])
def test_kernel_and_pair_json_reject_non_numbers_and_unknown_types(load, base, key, bad):
    load(base)  # the unaltered object loads
    with pytest.raises(ValueError):
        load({**base, key: bad})
