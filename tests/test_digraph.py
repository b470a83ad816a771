import itertools
import json
import math
import os
import tracemalloc
from collections import defaultdict

import numpy as np
import pytest

from digraphon import (
    BudgetError,
    Digraph,
    automorphism_count,
    bidirected_double_cover,
    cycle_digraph,
    digraph_from_edgelist,
    digraph_from_json,
    digraph_to_edgelist,
    digraph_edgelist_text,
    digraph_json_text,
    empty_digraph,
    eigenvalues,
    hom_count,
    hom_density,
    oneway_double_cover,
    random_regular_graph,
    sample_bidirected_random,
    sample_w_random,
    subgraph_density,
    trace_power,
    UndirectedRegularGraph,
)
from digraphon import digraph
from digraphon.stepkernel import (
    BidirectedStepPair,
    StepDigraphon,
    bidirected_crossing_pair,
    oneway_crossing_pair,
    uniform_measures,
)


def complete_bidirected_digraph(n):
    return Digraph(1 - np.eye(n, dtype=np.int8), allow_bidirected=True)


def brute_hom_count(h, g):
    """Oracle: enumerate every map V(H) -> V(G) and test all edges."""
    count = 0
    edges = h.edges()
    for phi in itertools.product(range(g.n), repeat=h.n):
        if all(g.adj[phi[u], phi[v]] == 1 for u, v in edges):
            count += 1
    return count


def brute_closed_walks(g, ell):
    """Oracle: enumerate walks of length ell returning to their start."""
    count = 0
    for walk in itertools.product(range(g.n), repeat=ell):
        steps = list(walk) + [walk[0]]
        if all(g.adj[a, b] == 1 for a, b in zip(steps, steps[1:])):
            count += 1
    return count


def random_digraphon(rng, k):
    x = rng.random((k, k))
    np.fill_diagonal(x, rng.random(k) * 0.5)
    scale = np.maximum(x + x.T, 1.0)
    m = rng.random(k) + 0.1
    return StepDigraphon(x / scale, m / m.sum())


def random_digraph(rng, n, k=3):
    return sample_w_random(random_digraphon(rng, k), n, int(rng.integers(2**32)))


# ---------------------------------------------------------------------------
# construction and invariants


def test_digraph_rejects_loops_and_antiparallel():
    with pytest.raises(ValueError):
        Digraph(np.array([[1]]))
    with pytest.raises(ValueError):
        Digraph(np.array([[0, 1], [1, 0]]))
    g = Digraph(np.array([[0, 1], [1, 0]]), allow_bidirected=True)
    assert g.n == 2 and g.edge_count == 2


@pytest.mark.parametrize("n", [257, 513, 1000])
def test_antiparallel_check_finds_one_pair_in_any_strip(n):
    # a dense oriented graph (one direction per pair) passes; one planted pair
    # is found inside a diagonal strip of 256 rows, across strips, and in or
    # next to the last partial strip
    rng = np.random.default_rng(n)
    upper = np.triu(rng.random((n, n)) < 0.5, 1)
    flip = rng.random((n, n)) < 0.5
    oriented = ((upper & ~flip) | (upper & flip).T).astype(np.int8)
    assert Digraph(oriented).edge_count == upper.sum()
    last = (n - 1) // 256 * 256
    pairs = {(3, 200), (259, 356), (10, n - 1), (last - 1, last), (last, n - 1), (n - 2, n - 1)}
    for i, j in sorted(p for p in pairs if p[0] < p[1] < n):
        a = oriented.copy()
        a[i, j] = a[j, i] = 1
        with pytest.raises(ValueError, match="antiparallel"):
            Digraph(a)


def test_digraph_rejects_non_binary_entries():
    with pytest.raises(ValueError):
        Digraph(np.array([[0, 2], [0, 0]]))


def test_cycle_digraph_3():
    g = cycle_digraph(3)
    assert sorted(g.edges()) == [(0, 1), (1, 2), (2, 0)]
    assert not g.allow_bidirected


def test_cycle_digraph_2_is_bidirected():
    g = cycle_digraph(2)
    assert sorted(g.edges()) == [(0, 1), (1, 0)]
    assert g.allow_bidirected


def test_cycle_digraph_4_degrees():
    g = cycle_digraph(4)
    assert g.edge_count == 4
    assert (g.adj.sum(axis=0) == 1).all() and (g.adj.sum(axis=1) == 1).all()


def test_cycle_digraph_rejects_short():
    with pytest.raises(ValueError):
        cycle_digraph(1)


# ---------------------------------------------------------------------------
# exact counts


def test_trace_power_directed_triangle():
    g = cycle_digraph(3)
    assert trace_power(g, 3) == 3 == brute_closed_walks(g, 3)
    assert trace_power(g, 4) == 0 == brute_closed_walks(g, 4)


def test_trace_power_empty_and_first_power():
    assert trace_power(empty_digraph(5), 3) == 0
    rng = np.random.default_rng(0)
    for _ in range(5):
        assert trace_power(random_digraph(rng, 12), 1) == 0


def test_trace_power_overflow_refuses():
    g = empty_digraph(100)
    with pytest.raises(OverflowError):
        trace_power(g, 31)


def test_hom_count_matches_brute_force():
    rng = np.random.default_rng(1)
    for _ in range(15):
        h = random_digraph(rng, int(rng.integers(1, 5)))
        g = random_digraph(rng, int(rng.integers(1, 7)))
        assert hom_count(h, g) == brute_hom_count(h, g)


def test_hom_density_triangle_in_triangle():
    c3 = cycle_digraph(3)
    assert hom_density(c3, c3) == pytest.approx(1 / 9, abs=0)
    assert brute_hom_count(c3, c3) == 3


def test_hom_density_edge_in_complete_bidirected():
    edge = Digraph(np.array([[0, 1], [0, 0]]))
    for m in (2, 3, 5):
        g = complete_bidirected_digraph(m)
        assert hom_density(edge, g) == pytest.approx(m * (m - 1) / m**2, abs=0)


def test_hom_density_empty_host():
    h = cycle_digraph(3)
    assert hom_density(h, empty_digraph(4)) == 0.0


def test_hom_count_budget_errors():
    h7 = empty_digraph(7)
    with pytest.raises(BudgetError, match="trace_power"):
        hom_count(h7, cycle_digraph(3))


def test_hom_count_refuses_a_count_past_the_exact_integer_range():
    # 1300**6 maps exceed 2**62 though the pattern is within budget; 1200**6 do not.
    assert 1200**6 < 2**62 <= 1300**6
    with pytest.raises(BudgetError, match="exact integer range"):
        hom_count(empty_digraph(6), empty_digraph(1300))
    assert hom_count(empty_digraph(6), empty_digraph(1200)) == 1200**6


def test_hom_density_of_an_edgeless_pattern_is_one():
    for h_n, g in ((1, cycle_digraph(4)), (3, cycle_digraph(4)), (4, complete_bidirected_digraph(5))):
        assert hom_count(empty_digraph(h_n), g) == g.n**h_n
        assert hom_density(empty_digraph(h_n), g) == 1.0


def test_trace_identity_on_random_digraphs():
    rng = np.random.default_rng(2)
    for _ in range(10):
        g = random_digraph(rng, int(rng.integers(3, 25)))
        for ell in range(2, 6):
            assert hom_count(cycle_digraph(ell), g) == trace_power(g, ell)


# ---------------------------------------------------------------------------
# induced density


def test_subgraph_density_edge_in_triangle():
    edge = Digraph(np.array([[0, 1], [0, 0]]))
    assert subgraph_density(edge, cycle_digraph(3)) == 1.0


def test_subgraph_density_pattern_larger_than_host():
    assert subgraph_density(cycle_digraph(4), cycle_digraph(3)) == 0.0


def test_subgraph_density_isolated_pair_in_empty():
    assert subgraph_density(empty_digraph(2), empty_digraph(10)) == 1.0


def test_subgraph_density_classes_partition():
    # the induced densities of all isomorphism classes on 3 vertices sum to 1
    rng = np.random.default_rng(3)
    g = random_digraph(rng, 12)
    states = [(0, 0), (1, 0), (0, 1)]  # no edge, forward, backward per pair
    seen = set()
    reps = []
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
            reps.append(Digraph(adj))
    total = sum(subgraph_density(h, g) for h in reps)
    assert total == pytest.approx(1.0, abs=1e-12)


def test_subgraph_density_budget():
    with pytest.raises(BudgetError):
        subgraph_density(empty_digraph(6), empty_digraph(10))


def test_induced_count_budgets_its_factors_before_building_them(monkeypatch):
    # With 1 MB of physical memory two n = 200 factors fit (9 B/n^2 each) and
    # three do not; the third pair type is refused before any factor is built.
    fake = {"SC_PHYS_PAGES": 250, "SC_PAGE_SIZE": 4000}
    real = os.sysconf
    monkeypatch.setattr(os, "sysconf", lambda name: fake.get(name) or real(name))
    g = cycle_digraph(200)
    path = Digraph(np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]]))  # pair types (1, 0), (0, 0)
    assert subgraph_density(path, g) == 200 / math.comb(200, 3)
    # 0 -> 1 and 2 -> 1 point opposite ways in row-major order; both read as
    # the one single-edge type (1, 0) from tail to head, so two factors fit
    in_star = Digraph(np.array([[0, 1, 0], [0, 0, 0], [0, 1, 0]]))
    assert subgraph_density(in_star, g) == 0.0
    all_three = Digraph(np.array([[0, 1, 0], [1, 0, 1], [0, 0, 0]]), allow_bidirected=True)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match="physical memory"):
            subgraph_density(all_three, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9 * 200 * 200


# ---------------------------------------------------------------------------
# the one contraction against frozen copies of the earlier counters


def frozen_hom_count(h, g):
    """The earlier hom_count: one int64 einsum over the edges, times n per untouched vertex."""
    edge_list = h.edges()
    if not edge_list:
        return g.n**h.n
    letters = "abcdefgh"
    spec = ",".join(letters[u] + letters[v] for u, v in edge_list) + "->"
    a64 = g.adj.astype(np.int64)
    count = int(np.einsum(spec, *([a64] * len(edge_list)), optimize=("greedy", 1 << 26)))
    touched = {u for uv in edge_list for u in uv}
    return count * g.n ** (h.n - len(touched))


def frozen_automorphism_count(h):
    """The earlier automorphism_count: every permutation of V(H), tested."""
    a = h.adj
    count = 0
    for p in itertools.permutations(range(h.n)):
        perm = np.asarray(p)
        if np.array_equal(a[np.ix_(perm, perm)], a):
            count += 1
    return count


def frozen_subgraph_density(h, g):
    """The earlier subgraph_density: bit codes of every |H|-subset against H's permuted codes."""
    m = h.n
    if m > g.n:
        return 0.0
    total = math.comb(g.n, m)
    ah = h.adj
    targets = set()
    for p in itertools.permutations(range(m)):
        code = 0
        for i in range(m):
            for j in range(m):
                code = (code << 1) | int(ah[p[i], p[j]])
        targets.add(code)
    rows = [int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little") for row in g.adj]
    count = 0
    for s in itertools.combinations(range(g.n), m):
        code = 0
        for a_ in s:
            ra = rows[a_]
            for b_ in s:
                code = (code << 1) | ((ra >> b_) & 1)
        if code in targets:
            count += 1
    return count / total


def random_pair_states(rng, n, bidirected):
    """Digraph whose pairs are none/forward/backward (or both, if bidirected), in random proportions."""
    states = 4 if bidirected else 3
    weights = rng.random(states) + 0.05
    adj = np.zeros((n, n), dtype=np.int8)
    for u, v in itertools.combinations(range(n), 2):
        s = int(rng.choice(states, p=weights / weights.sum()))
        adj[u, v], adj[v, u] = s & 1, s >> 1
    return Digraph(adj, allow_bidirected=bidirected)


def count_corpus(seed, count, m_max, n_max):
    """(H, G) pairs: random and edgeless patterns, directed and bidirected hosts, m > n and n = 1."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        m, n = int(rng.integers(1, m_max + 1)), int(rng.integers(1, n_max + 1))
        yield (random_pair_states(rng, m, bool(rng.integers(2))),
               random_pair_states(rng, n, bool(rng.integers(2))))
    for m in range(1, m_max + 1):
        for n in (1, m, n_max):
            yield empty_digraph(m), empty_digraph(n)
            yield empty_digraph(m), complete_bidirected_digraph(n)
            yield complete_bidirected_digraph(m), complete_bidirected_digraph(n)


def test_hom_count_equals_the_frozen_einsum():
    for h, g in count_corpus(11, 300, 5, 13):
        assert hom_count(h, g) == frozen_hom_count(h, g)


def test_subgraph_density_equals_the_frozen_subset_loop():
    for h, g in count_corpus(12, 300, 5, 13):
        new, old = subgraph_density(h, g), frozen_subgraph_density(h, g)
        assert new == old and type(new) is float


def test_automorphism_count_equals_the_frozen_permutation_loop():
    rng = np.random.default_rng(13)
    patterns = [random_pair_states(rng, int(rng.integers(1, 8)), bool(rng.integers(2)))
                for _ in range(60)]
    patterns += [random_pair_states(rng, 8, bidirected) for bidirected in (False, True)]
    patterns += [empty_digraph(8), complete_bidirected_digraph(8), cycle_digraph(8),
                 empty_digraph(1), cycle_digraph(2)]
    for h in patterns:
        assert automorphism_count(h) == frozen_automorphism_count(h)


@pytest.mark.parametrize("n,dtype", [(50, np.float64), (500, np.int64)])
def test_counts_are_exact_on_both_sides_of_the_float64_switch(n, dtype):
    # 50^6 < 2^53 <= 500^6 < 2^62
    assert digraph._count_dtype(n, 6) is dtype
    rng = np.random.default_rng(n)
    pairs, flip = np.triu(rng.random((n, n)) < 0.5, 1), rng.random((n, n)) < 0.5
    g = Digraph((pairs & flip) | (pairs & ~flip).T)
    path = Digraph(np.eye(6, k=1, dtype=np.int8))
    assert hom_count(path, g) == frozen_hom_count(path, g)
    assert hom_count(cycle_digraph(6), g) == trace_power(g, 6)


def test_counting_budgets_are_unchanged():
    with pytest.raises(BudgetError):
        hom_count(empty_digraph(6), empty_digraph(1300))  # 1300^6 > 2^62
    with pytest.raises(BudgetError):
        automorphism_count(empty_digraph(9))
    with pytest.raises(BudgetError):
        subgraph_density(cycle_digraph(5), empty_digraph(100))  # C(100, 5) * 25 > 2e8
    assert subgraph_density(cycle_digraph(5), empty_digraph(60)) == 0.0


# ---------------------------------------------------------------------------
# random models


def test_sample_w_random_zero_kernel_is_empty():
    w = StepDigraphon(np.zeros((1, 1)), np.ones(1))
    for seed in (0, 7, 123):
        assert sample_w_random(w, 20, seed).edge_count == 0


def test_sample_w_random_constant_half_edge_density():
    # every pair receives exactly one direction, so t(edge) = (n-1)/(2n)
    half = StepDigraphon(np.array([[0.5]]), np.ones(1), bound=1.0)
    edge = Digraph(np.array([[0, 1], [0, 0]]))
    n = 200
    vals = [hom_density(edge, sample_w_random(half, n, s)) for s in range(20)]
    assert np.allclose(vals, (n - 1) / (2 * n), atol=1e-12)
    # and the density approaches 1/2 as n grows
    assert abs(np.mean(vals) - 0.5) < 0.01


def test_sample_w_random_respects_block_zeros():
    vals = np.array([[0.0, 1.0], [0.0, 0.0]])
    w = StepDigraphon(vals, uniform_measures(2))
    g = sample_w_random(w, 60, seed=4)
    labels_src = g.adj.sum(axis=1) > 0
    # all edges run from block-1 vertices to block-2 vertices; with W12 = 1
    # every cross pair is an edge, so sources have out-degree > 0 and sinks 0
    for i, j in g.edges():
        assert labels_src[i] and not labels_src[j]


def test_sample_w_random_deterministic():
    rng = np.random.default_rng(8)
    w = random_digraphon(rng, 3)
    a = sample_w_random(w, 40, seed=99)
    b = sample_w_random(w, 40, seed=99)
    assert np.array_equal(a.adj, b.adj)
    c = sample_w_random(w, 40, seed=100)
    assert not np.array_equal(a.adj, c.adj)


def test_sample_w_random_never_bidirected():
    # digraphon sampling picks at most one direction per pair
    w = StepDigraphon(np.array([[0.0, 0.5], [0.5, 0.0]]), uniform_measures(2))
    g = sample_w_random(w, 80, seed=3)
    assert not g.allow_bidirected
    assert np.all((g.adj & g.adj.T) == 0)


def test_sample_bidirected_no_pairs_when_w1_zero():
    p = oneway_crossing_pair()
    g = sample_bidirected_random(p, 80, seed=5)
    assert np.all((g.adj & g.adj.T) == 0)


def test_sample_bidirected_all_pairs_when_w2_zero():
    p = bidirected_crossing_pair()
    g = sample_bidirected_random(p, 80, seed=6)
    assert np.array_equal(g.adj, g.adj.T)
    assert g.edge_count > 0


def test_sample_bidirected_deterministic():
    p = bidirected_crossing_pair()
    a = sample_bidirected_random(p, 30, seed=11)
    b = sample_bidirected_random(p, 30, seed=11)
    assert np.array_equal(a.adj, b.adj)


def frozen_sample_w_random(w, n, seed):
    """The earlier vectorised sampler, kept as the byte-identity oracle."""
    rng = np.random.default_rng(seed)
    labels = rng.choice(w.k, size=n, p=w.measures)
    prob = w.values[labels[:, None], labels[None, :]]
    iu, ju = np.triu_indices(n, k=1)
    u = rng.random(iu.size)
    p = prob[iu, ju]
    q = prob[ju, iu]
    fwd = u < p
    bwd = (~fwd) & (u < p + q)
    adj = np.zeros((n, n), dtype=np.int8)
    adj[iu[fwd], ju[fwd]] = 1
    adj[ju[bwd], iu[bwd]] = 1
    return adj


def frozen_sample_bidirected_random(p, n, seed):
    """The earlier vectorised pair sampler, kept as the byte-identity oracle."""
    rng = np.random.default_rng(seed)
    labels = rng.choice(p.k, size=n, p=p.measures)
    w1 = p.w1[labels[:, None], labels[None, :]]
    w2 = p.w2[labels[:, None], labels[None, :]]
    iu, ju = np.triu_indices(n, k=1)
    u = rng.random(iu.size)
    both = u < w1[iu, ju]
    t1 = w1[iu, ju] + w2[iu, ju]
    fwd = (~both) & (u < t1)
    bwd = (~both) & (~fwd) & (u < t1 + w2[ju, iu])
    adj = np.zeros((n, n), dtype=np.int8)
    adj[iu[both], ju[both]] = 1
    adj[ju[both], iu[both]] = 1
    adj[iu[fwd], ju[fwd]] = 1
    adj[ju[bwd], iu[bwd]] = 1
    return adj


def random_pair(rng, k):
    s = rng.random((k, k))
    m = rng.random(k) + 0.1
    return BidirectedStepPair((s + s.T) / 4, rng.random((k, k)) / 4, m / m.sum())


@pytest.mark.parametrize("n", [1, 2, 3, 50, 257])
def test_samplers_match_the_vectorised_samplers_byte_for_byte(n):
    rng = np.random.default_rng(n)
    for k in (1, 2, 4):
        w, p = random_digraphon(rng, k), random_pair(rng, k)
        for seed in (0, 1, 2**40 + 3):
            g = sample_w_random(w, n, seed)
            assert g.adj.tobytes() == frozen_sample_w_random(w, n, seed).tobytes()
            h = sample_bidirected_random(p, n, seed)
            assert h.adj.tobytes() == frozen_sample_bidirected_random(p, n, seed).tobytes()


def frozen_row_sampler(w1, w2, measures, n, seed):
    """The sampler before block draws: one random() call and threshold sum per row."""
    rng = np.random.default_rng(seed)
    labels = rng.choice(len(measures), size=n, p=measures)
    adj = np.zeros((n, n), dtype=np.int8)
    for i in range(n - 1):
        x, rest = labels[i], labels[i + 1:]
        u = rng.random(n - 1 - i)
        both = w1[x][rest]
        t1 = both + w2[x][rest]
        adj[i, i + 1:] = u < t1
        adj[i + 1:, i] = (u < both) | ((u >= t1) & (u < t1 + w2[:, x][rest]))
    return adj, labels


@pytest.mark.parametrize("cells,sizes", [
    # 4 rows a block at n = 16 (the last of 15 rows a block of 3), 3 at
    # n = 17 (a last block of 1), 2 at n = 22 and 1 at n = 64 and 65
    (64, (1, 2, 3, 16, 17, 22, 64, 65)),
    # the default: n = 512 is one block of 511 rows, n = 513 two blocks
    (1 << 18, (511, 512, 513)),
])
def test_block_sampler_equals_the_frozen_row_loop(monkeypatch, cells, sizes):
    monkeypatch.setattr(digraph, "_BLOCK_CELLS", cells)
    rng = np.random.default_rng(16)
    for k in (1, 2, 7):  # 7 labels outnumber the rows of a small block
        w, p = random_digraphon(rng, k), random_pair(rng, k)
        assert np.any(p.w1 != 0)
        for w1, w2, measures in ((np.zeros_like(w.values), w.values, w.measures),
                                 (p.w1, p.w2, p.measures)):
            for n in sizes:
                for seed in (0, 2**40 + 3):
                    adj, labels = digraph._sample_adjacency(w1, w2, measures, n, seed)
                    old_adj, old_labels = frozen_row_sampler(w1, w2, measures, n, seed)
                    assert adj.tobytes() == old_adj.tobytes()
                    assert np.array_equal(labels, old_labels)


def test_sample_refuses_n_beyond_physical_memory_before_allocating():
    w = StepDigraphon(np.array([[0.0, 0.25], [0.25, 0.0]]), uniform_measures(2))
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match="physical memory"):
            sample_w_random(w, 10_000_000, seed=0)
        with pytest.raises(BudgetError):
            sample_bidirected_random(bidirected_crossing_pair(), 10_000_000, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # the labels alone would take 80 MB


# ---------------------------------------------------------------------------
# regular graphs and double covers


def test_random_regular_graph_perfect_matching():
    a = random_regular_graph(4, 1, seed=0)
    assert (a.adj.sum(axis=1) == 1).all()
    assert np.array_equal(a.adj, a.adj.T)


def test_random_regular_graph_invariants_half_degree():
    a = random_regular_graph(20, 10, seed=1)
    assert (a.adj.sum(axis=1) == 10).all()
    assert np.trace(a.adj) == 0
    assert np.array_equal(a.adj, a.adj.T)


def test_undirected_regular_graph_rejects_each_defect():
    c4 = np.array([[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]])
    a = UndirectedRegularGraph(c4, 2)
    assert a.adj.dtype == np.int8 and not a.adj.flags.writeable and a.n2 == 4
    not_binary, loop, asymmetric = c4.copy(), c4.copy(), c4.copy()
    not_binary[0, 1] = not_binary[1, 0] = 2
    loop[0, 0] = 1
    asymmetric[0, 2] = 1
    triangle = np.ones((3, 3), dtype=int) - np.eye(3, dtype=int)
    # each matrix has one defect, so the same check rejects it whatever the order
    for adj, degree, message in [(not_binary, 2, "0 or 1"), (loop, 2, "loops are not allowed"),
                                 (asymmetric, 2, "symmetric"), (triangle, 2, "even"),
                                 (c4, 3, "degree"), (np.zeros((2, 2, 2)), 0, "square")]:
        with pytest.raises(ValueError, match=message):
            UndirectedRegularGraph(adj, degree)


def test_random_regular_graph_deterministic():
    a = random_regular_graph(16, 3, seed=2)
    b = random_regular_graph(16, 3, seed=2)
    assert np.array_equal(a.adj, b.adj)


def _has_suitable(edges: set, potential: dict) -> bool:
    # True when the leftover stubs can still be paired into some new edge.
    if not potential:
        return True
    nodes = list(potential)
    for s1 in nodes:
        for s2 in nodes:
            if s1 == s2:
                break
            a, b = (s2, s1) if s1 > s2 else (s1, s2)
            if (a, b) not in edges:
                return True
    return False


def _try_pairing(n: int, degree: int, rng: np.random.Generator):
    edges: set[tuple[int, int]] = set()
    stubs = np.repeat(np.arange(n), degree)
    for _ in range(digraph._PAIRING_ROUNDS):
        if stubs.size == 0:
            return edges
        rng.shuffle(stubs)
        failed: dict[int, int] = defaultdict(int)
        it = iter(stubs.tolist())
        for s1, s2 in zip(it, it):
            if s1 > s2:
                s1, s2 = s2, s1
            if s1 != s2 and (s1, s2) not in edges:
                edges.add((s1, s2))
            else:
                failed[s1] += 1
                failed[s2] += 1
        if not _has_suitable(edges, failed):
            return None
        stubs = np.array([v for v, c in failed.items() for _ in range(c)], dtype=np.int64)
    return None


def frozen_random_regular_graph(n2, degree, seed):
    """The edge-set stub pairing above: (adjacency, pairing attempts used)."""
    rng = np.random.default_rng(seed)
    for attempt in range(1, digraph._PAIRING_RESTARTS + 1):
        edges = _try_pairing(n2, degree, rng)
        if edges is None:
            continue
        adj = np.zeros((n2, n2), dtype=np.int8)
        for u, v in edges:
            adj[u, v] = 1
            adj[v, u] = 1
        return adj, attempt
    raise AssertionError("the reference pairing found no graph")


def test_random_regular_graph_equals_the_frozen_edge_set_pairing():
    grid = [(2 * d, d, s) for d in (2, 3, 4, 5, 8, 20, 50, 100, 200) for s in range(12)]
    dense_attempts = 0
    for n2, degree, seed in grid:
        adj, attempts = frozen_random_regular_graph(n2, degree, seed)
        dense_attempts += attempts
        assert random_regular_graph(n2, degree, seed).adj.tobytes() == adj.tobytes()
    assert dense_attempts > len(grid)  # the restart path ran
    for n2, degree, seed in itertools.product((10, 50, 200, 1000), (1, 2, 3, 7), range(5)):
        adj, _ = frozen_random_regular_graph(n2, degree, seed)
        assert random_regular_graph(n2, degree, seed).adj.tobytes() == adj.tobytes()


def test_random_regular_graph_budgets_before_allocating(monkeypatch):
    # With 1 MB of physical memory, 32 B per stub plus 3 B/n2^2 fits n2 = 200
    # at degree 10 (184 kB) but not n2 = 400 at degree 100 (1.76 MB), which is
    # refused before its 320 kB stub array exists.
    fake = {"SC_PHYS_PAGES": 250, "SC_PAGE_SIZE": 4000}
    real = os.sysconf
    monkeypatch.setattr(os, "sysconf", lambda name: fake.get(name) or real(name))
    assert random_regular_graph(200, 10, seed=0).degree == 10
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match="physical memory"):
            random_regular_graph(400, 100, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


def test_random_regular_graph_validates_arguments():
    with pytest.raises(ValueError):
        random_regular_graph(5, 2, seed=0)
    with pytest.raises(ValueError):
        random_regular_graph(4, 0, seed=0)
    with pytest.raises(ValueError):
        random_regular_graph(4, 4, seed=0)


def test_random_regular_graph_spectral_envelope():
    # statistical check: the non-trivial eigenvalues stay below 5 sqrt(degree)
    for seed in range(20):
        a = random_regular_graph(200, 100, seed=seed)
        lam = np.sort(np.abs(eigenvalues(a.adj.astype(float))))
        assert abs(lam[-1] - 100) < 1e-8
        assert lam[-2] <= 5 * np.sqrt(100)


def test_bidirected_double_cover_structure():
    a = random_regular_graph(12, 4, seed=3)
    h = bidirected_double_cover(a)
    assert h.n == 24
    assert np.array_equal(h.adj, h.adj.T)
    assert np.trace(h.adj) == 0


def test_oneway_double_cover_has_no_antiparallel_pair():
    a = random_regular_graph(12, 4, seed=4)
    h = oneway_double_cover(a)
    comp = np.ones_like(a.adj) - a.adj
    assert np.all(a.adj * comp.T == 0)
    assert np.all((h.adj & h.adj.T) == 0)


def test_bidirected_double_cover_spectrum_is_plus_minus():
    a = random_regular_graph(10, 3, seed=5)
    lam_a = np.sort(eigenvalues(a.adj.astype(float)).real)
    lam_h = np.sort(eigenvalues(bidirected_double_cover(a).adj.astype(float)).real)
    expected = np.sort(np.concatenate([lam_a, -lam_a]))
    assert np.allclose(lam_h, expected, atol=1e-8)


# ---------------------------------------------------------------------------
# serialization


def json_object(g):
    """The digraph fields of digraph_json_text's object, built in one piece."""
    return {"n": g.n, "allow_bidirected": g.allow_bidirected, "edges": np.argwhere(g.adj).tolist()}


def test_digraph_json_round_trip():
    rng = np.random.default_rng(10)
    for g in (random_digraph(rng, 9), cycle_digraph(2)):
        obj = json.loads("".join(digraph_json_text(g, {})))
        assert obj == json_object(g)
        back = digraph_from_json(obj)
        assert np.array_equal(back.adj, g.adj)
        assert back.allow_bidirected == g.allow_bidirected


def test_digraph_edgelist_round_trip():
    g = cycle_digraph(2)
    text = digraph_to_edgelist(g)
    assert text.splitlines()[0] == "# n=2 bidirected=1"
    back = digraph_from_edgelist(text)
    assert np.array_equal(back.adj, g.adj)
    assert back.allow_bidirected


def test_digraph_json_rejects_malformed():
    with pytest.raises(ValueError):
        digraph_from_json({"n": 3, "edges": [[0, 1]]})
    with pytest.raises(ValueError):
        digraph_from_json({"n": 2, "allow_bidirected": False, "edges": [[0, 5]]})
    with pytest.raises(ValueError):
        digraph_from_edgelist("0 1\n")
    for header, field in [("n=3 bidirected=2", "bidirected"), ("n=3 bidirected=yes", "bidirected"),
                          ("n=-1 bidirected=0", "n"), ("n=0 bidirected=0", "n"),
                          ("n=x bidirected=1", "n"), ("n=2.5 bidirected=1", "n")]:
        with pytest.raises(ValueError, match=f"edge-list header '# {header}': {field} must be"):
            digraph_from_edgelist(f"# {header}\n0 1\n")


def test_digraph_json_rejects_edges_that_are_not_a_list():
    for edges in (5, None, True, 0.5, "", {}):
        with pytest.raises(ValueError, match="'edges'"):
            digraph_from_json({"n": 2, "allow_bidirected": False, "edges": edges})


def test_digraph_json_requires_a_boolean_allow_bidirected():
    with pytest.raises(ValueError, match="allow_bidirected"):
        digraph_from_json({"n": 2, "allow_bidirected": "no", "edges": [[0, 1], [1, 0]]})


def test_digraph_json_rejects_boolean_edge_indices():
    with pytest.raises(ValueError, match="out of range"):
        digraph_from_json({"n": 2, "allow_bidirected": False, "edges": [[True, False]]})


def test_digraph_json_rejects_a_boolean_vertex_count():
    with pytest.raises(ValueError, match="'n'"):
        digraph_from_json({"n": True, "allow_bidirected": False, "edges": []})


def dumped(g, extra):
    return json.dumps({**extra, **json_object(g)}, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("cells", [1, 64, 1 << 18])
def test_json_writer_matches_json_dumps(monkeypatch, cells):
    # cells=1 and 64 put one row per block, so block joins and empty rows are hit
    monkeypatch.setattr(digraph, "_BLOCK_CELLS", cells)
    rng = np.random.default_rng(12)
    graphs = [empty_digraph(1), empty_digraph(7), cycle_digraph(2), complete_bidirected_digraph(4),
              random_digraph(rng, 50), sample_bidirected_random(random_pair(rng, 3), 40, seed=1)]
    configs = [{}, {"config": {"command": "sample", "kernel": 'q"uote\\back\u00e9\u6f22.json'}},
               {"config": {"kernel": '"edges": [].json', "pair": "x\n\"edges\": []"}}]
    for g in graphs:
        for extra in configs:
            assert "".join(digraph_json_text(g, extra)) == dumped(g, extra)


@pytest.mark.parametrize("cells", [1, 1 << 18])
def test_edgelist_writer_matches_the_joined_lines(monkeypatch, cells):
    monkeypatch.setattr(digraph, "_BLOCK_CELLS", cells)
    rng = np.random.default_rng(13)
    for g in (empty_digraph(1), empty_digraph(3), cycle_digraph(2), random_digraph(rng, 60),
              sample_bidirected_random(random_pair(rng, 2), 30, seed=4)):
        lines = [f"# n={g.n} bidirected={int(g.allow_bidirected)}"]
        lines.extend(f"{i} {j}" for i, j in sorted(g.edges()))
        assert "".join(digraph_edgelist_text(g)) == digraph_to_edgelist(g) == "\n".join(lines) + "\n"


def frozen_edge_text(g, template, sep):
    """The %-template _edge_text that the per-vertex string tables replaced."""
    step = max(1, digraph._BLOCK_CELLS // g.n)
    lead = ""
    for lo in range(0, g.n, step):
        ii, jj = np.nonzero(g.adj[lo:lo + step])
        if ii.size:
            ij = np.column_stack((ii + lo, jj)).ravel().tolist()
            yield lead + sep.join([template] * ii.size) % tuple(ij)
            lead = sep


@pytest.mark.parametrize("cells", [1, 3000, 1 << 18])
def test_edge_text_equals_the_frozen_template_writer(monkeypatch, cells):
    # cells=3000 gives blocks of 300 / 30 / 3 rows at n = 10 / 100 / 1000, so
    # n = 11, 101, 1001 end on a partial block, and of 25 rows at n = 120,
    # where `gaps` has an empty first row and an empty block (rows 50-74);
    # cells=1 makes every row a block
    monkeypatch.setattr(digraph, "_BLOCK_CELLS", cells)
    rng = np.random.default_rng(15)
    gaps = np.triu(rng.random((120, 120)) < 0.2, 1).astype(np.int8)
    gaps[0] = 0
    gaps[50:75] = 0
    graphs = [empty_digraph(1), empty_digraph(12), cycle_digraph(2), complete_bidirected_digraph(11),
              sample_bidirected_random(random_pair(rng, 3), 101, seed=2), Digraph(gaps)]
    graphs += [random_digraph(rng, n) for n in (9, 10, 11, 99, 100, 101, 999, 1000, 1001)]
    for g in graphs:
        for template, sep in ((digraph._EDGE_JSON, ","), ("%d %d\n", "")):
            assert "".join(digraph._edge_text(g, template, sep)) == "".join(frozen_edge_text(g, template, sep))


@pytest.mark.parametrize("load", [
    lambda: digraph_from_json({"n": 10_000_000, "allow_bidirected": False, "edges": []}),
    lambda: digraph_from_edgelist("# n=10000000 bidirected=0\n0 1\n"),
], ids=["json", "edgelist"])
def test_digraph_loaders_budget_n_before_allocating(load):
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match="n=10000000 vertices .* physical memory"):
            load()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_json_writer_refuses_a_non_finite_extra():
    with pytest.raises(ValueError, match="not JSON compliant"):
        "".join(digraph_json_text(cycle_digraph(3), {"config": {"tol": float("inf")}}))


def test_edges_are_row_major():
    g = random_digraph(np.random.default_rng(14), 40)
    assert g.edges() == sorted(g.edges())
    assert json.loads("".join(digraph_json_text(g, {})))["edges"] == [list(e) for e in sorted(g.edges())]


def frozen_digraph_from_edgelist(text):
    """The earlier reader, which split every line up front; kept as the oracle."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    n = bidirected = None
    body_start = 0
    for i, ln in enumerate(lines):
        if not ln.startswith("#"):
            body_start = i
            break
        body_start = i + 1
        header = dict(part.split("=", 1) for part in ln[1:].split() if "=" in part)
        if "n" in header and "bidirected" in header:
            if not (header["n"].isdecimal() and int(header["n"]) > 0):
                raise ValueError(f"edge-list header {ln!r}: n must be a positive integer")
            if header["bidirected"] not in ("0", "1"):
                raise ValueError(f"edge-list header {ln!r}: bidirected must be 0 or 1")
            n, bidirected = int(header["n"]), header["bidirected"] == "1"
    if n is None:
        raise ValueError("edge list requires a '# n=<n> bidirected=<0|1>' header")
    adj = np.zeros((n, n), dtype=np.int8)
    for ln in lines[body_start:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"malformed edge line: {ln!r}")
        i, j = int(parts[0]), int(parts[1])
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge {i} {j} out of range for n={n}")
        adj[i, j] = 1
    return Digraph(adj, allow_bidirected=bidirected)


@pytest.mark.parametrize("text", [
    "# n=3 bidirected=0\n0 1\n1 2\n",
    "\n\n  # n=3 bidirected=1 \n\n 0 1 \n1 0\n\n",
    "# a comment\n# n=3 bidirected=0\n# n=4 bidirected=1\n0 3\n",
    "# n=3 bidirected=0",
    # every line break of str.splitlines, and whitespace that is not one
    "# n=3 bidirected=0\r\n0 1\r1 2\x0b2 0\x0c",
    "# n=4 bidirected=0\x1c0 1\x1d1 2\x1e2 3\x85",
    "# n=3 bidirected=0 0 1 1 2\n\t2 0\x1f ",
    "# n=3 bidirected=0\n0\x851\n",
    "# n=3 bidirected=0\n0 1\n# late comment\n",
    "0 1\n", "", "# n=3\n0 1\n", "# n=3 bidirected=2\n", "# n=0x1 bidirected=0\n",
    "# n=3 bidirected=0\n0 1 2\n", "# n=3 bidirected=0\n0 5\n", "# n=3 bidirected=0\na b\n",
    "# n=2 bidirected=0\n0 1\n1 0\n", "# n=2 bidirected=0\n1 1\n",
])
def test_edgelist_reader_equals_the_frozen_reader(text):
    def outcome(read):
        try:
            g = read(text)
        except ValueError as exc:
            return str(exc)
        return g.adj.tobytes(), g.allow_bidirected

    assert outcome(digraph_from_edgelist) == outcome(frozen_digraph_from_edgelist)


def test_edgelist_reader_peak_is_the_adjacency_and_its_validation():
    # the frozen reader's list of lines took about 11 bytes per n^2 more
    n = 1000
    g = sample_w_random(StepDigraphon([[0.0, 0.25], [0.25, 0.0]], [0.5, 0.5]), n, seed=4)
    text = digraph_to_edgelist(g)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        back = digraph_from_edgelist(text)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.adj, g.adj)
    assert peak <= (digraph._SAMPLE_BYTES_PER_N2 + 0.1) * n * n


def test_sampler_labels_come_from_the_draws_own_generator():
    rng = np.random.default_rng(15)
    for k in (1, 2, 4):
        w = random_digraphon(rng, k)
        for n, seed in ((1, 0), (57, 3), (200, 2**40 + 3)):
            g, labels = digraph._w_random_draw(w, n, seed)
            expected = np.random.default_rng(seed).choice(k, size=n, p=w.measures)
            assert np.array_equal(labels, expected)
            assert g.adj.tobytes() == sample_w_random(w, n, seed).adj.tobytes()
