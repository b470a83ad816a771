"""Output checks: every command's file against an independent reference and the paper's gates.

Values are compared, not bytes: output bytes can change with the BLAS thread
count (last-bit noise in eigenvalues, signed zeros, the order of equal sort
keys) while every value stays within the tolerances below. Exact integers
(multiplicities, ledger masses, edge lists, cut witnesses, seeds) are
compared exactly.

References are computed once per benchmark run, outside any timed region,
with numpy and the code in this file: child seeds, the W-random sampler's
documented random stream, exact 2^k cut scans, eigenvalues, traces and
operator norms. The one exception is the random regular graph of
``double-cover``, whose draw comes from ``digraphon.random_regular_graph``;
the reference validates it and recomputes everything built from it.
"""
from __future__ import annotations

import hashlib
import json
import statistics

import numpy as np

# Recomputed through another summation order or eigensolver call.
FLOAT_TOL = 1e-9
# A clustered spectrum against raw eigenvalues: clustering merges points up to
# 1e-7 apart (the default radius), so centroids move by less than this.
CLUSTER_TOL = 1e-6
# Recomputed from the output's own numbers by the same formula.
SAME_TOL = 1e-12
# Paper gates (README "converge" and "double-cover", acceptance criteria 1-7).
CONVERGE_MEDIAN_MAX = 0.08
LEDGER_FRACTION_MIN = 0.8
DOUBLE_COVER_TOL_PER_DEGREE = 1e-5
TRACE_ERROR_MAX = 1e-8
SEQUENCE_FINAL_MAX = 1e-4


# ---------------------------------------------------------------------------
# independent references


def child_seed(master: int, *path: int) -> int:
    """Per-cell seed as documented: SeedSequence(master, spawn_key=path), one uint64."""
    ss = np.random.SeedSequence(entropy=master, spawn_key=path)
    return int(ss.generate_state(1, np.uint64)[0])


def sample_edges(values, measures, n: int, seed: int) -> np.ndarray:
    """Sorted (i, j) edges of the W-random digraph for ``seed``, row by row.

    Block labels come first from ``choice(k, n, p=measures)``; then one
    uniform per unordered pair i < j in row-major order gives i -> j when it
    is below W(x_i, x_j), j -> i when below W(x_i, x_j) + W(x_j, x_i).
    """
    values = np.asarray(values, dtype=np.float64)
    rng = np.random.default_rng(seed)
    labels = rng.choice(len(measures), size=n, p=np.asarray(measures, dtype=np.float64))
    parts = []
    for i in range(n - 1):
        j = np.arange(i + 1, n)
        u = rng.random(j.size)
        p = values[labels[i], labels[j]]
        fwd = u < p
        bwd = ~fwd & (u < p + values[labels[j], labels[i]])
        parts.append(np.stack([np.full(fwd.sum(), i), j[fwd]], axis=1))
        parts.append(np.stack([j[bwd], np.full(bwd.sum(), i)], axis=1))
    edges = np.concatenate(parts) if parts else np.zeros((0, 2), dtype=np.int64)
    return edges[np.lexsort((edges[:, 1], edges[:, 0]))].astype(np.int64)


def hausdorff(x, y) -> float:
    d = np.abs(np.asarray(x, dtype=complex).ravel()[:, None] - np.asarray(y, dtype=complex).ravel()[None, :])
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def operator(values, measures) -> np.ndarray:
    """Matrix of the integral operator on block functions: B[i, j] = W[i, j] mu_j."""
    return np.asarray(values, dtype=np.float64) * np.asarray(measures, dtype=np.float64)[None, :]


def cut_witness(values, measures) -> tuple[float, list[int], list[int]]:
    """Exact cut norm and the first optimal (S, T) in mask order over all 2^k row sets."""
    m = np.asarray(measures, dtype=np.float64)
    r = m[:, None] * np.asarray(values, dtype=np.float64) * m[None, :]
    k = len(m)
    bits = np.arange(k, dtype=np.int64)
    best, best_rows, best_cols = -1.0, 0, None
    for lo in range(0, 1 << k, 1 << 15):
        masks = np.arange(lo, min(lo + (1 << 15), 1 << k), dtype=np.int64)
        sums = ((masks[:, None] >> bits) & 1).astype(np.float64) @ r
        pos = np.clip(sums, 0.0, None).sum(axis=1)
        neg = np.clip(-sums, 0.0, None).sum(axis=1)
        val = np.maximum(pos, neg)
        i = int(np.argmax(val))
        if val[i] > best:
            best, best_rows = float(val[i]), int(masks[i])
            best_cols = sums[i] > 0.0 if pos[i] >= neg[i] else sums[i] < 0.0
    rows = [i for i in range(k) if best_rows >> i & 1]
    return best, rows, [int(j) for j in np.nonzero(best_cols)[0]]


def op_norm(values, measures) -> float:
    s = np.sqrt(np.asarray(measures, dtype=np.float64))
    return float(np.linalg.norm(s[:, None] * np.asarray(values) * s[None, :], 2))


def _ref_converge(p: dict) -> dict:
    kernel, seed = p["kernel"], p["seed"]
    spot = {}
    for i, n in enumerate(p["sizes"]):
        cell = child_seed(seed, i, 0)
        adj = np.zeros((n, n))
        e = sample_edges(kernel["values"], kernel["measures"], n, cell)
        adj[e[:, 0], e[:, 1]] = 1.0
        spot[i] = np.linalg.eigvals(adj / n)
    seeds = [[child_seed(seed, i, j) for j in range(p["seeds_per_size"])]
             for i in range(len(p["sizes"]))]
    limit = np.sort_complex(_nonzero(np.linalg.eigvals(operator(kernel["values"], kernel["measures"]))))
    return {"seeds": seeds, "spot": spot, "limit": limit}


def _ref_double_cover(p: dict) -> list[dict]:
    import digraphon

    rows = []
    for idx, d in enumerate(p["degrees"]):
        cell = child_seed(p["seed"], idx)
        a = np.asarray(digraphon.random_regular_graph(2 * d, d, cell).adj, dtype=np.float64)
        if not (np.array_equal(a, a.T) and not a.diagonal().any() and (a.sum(axis=1) == d).all()):
            raise ValueError(f"random_regular_graph({2 * d}, {d}) is not a simple {d}-regular graph")
        z = np.zeros_like(a)
        covers = {"bidirected": np.block([[z, a], [a, z]]),
                  "oneway": np.block([[z, a], [1.0 - a, z]])}
        nv = 4 * d
        row = {"seed": cell}
        for name, h in covers.items():
            row[name] = {
                str(ell): int(round(np.trace(np.linalg.matrix_power(h, ell)))) / nv**ell
                for ell in (2, 3, 4)
            }
            row[f"hausdorff_{name}"] = hausdorff(np.linalg.eigvals(h / nv), [0.25, -0.25, 0.0])
        rows.append(row)
    return rows


def _ref_sample(p: dict) -> np.ndarray:
    return sample_edges(p["kernel"]["values"], p["kernel"]["measures"], p["n"], p["seed"])


def _ref_cutnorm(p: dict):
    return cut_witness(p["kernel"]["values"], p["kernel"]["measures"])


def _ref_eigs(p: dict) -> np.ndarray:
    return np.linalg.eigvals(operator(p["kernel"]["values"], p["kernel"]["measures"]))


def _ref_step_converge(p: dict) -> dict:
    lim = p["limit"]
    lv, mu = np.asarray(lim["values"]), np.asarray(lim["measures"])
    limit_eig = np.linalg.eigvals(operator(lv, mu))
    rows = []
    for m in p["members"]:
        mv = np.asarray(m["values"])
        diff = mv - lv
        rows.append({
            "eig": np.linalg.eigvals(operator(mv, mu)),
            "nu_gaps": [op_norm(diff @ (mu[:, None] * lv), mu), op_norm(diff @ (mu[:, None] * mv), mu)],
            "cut_metric": cut_witness(diff, mu)[0],
        })
    return {"limit_eig": limit_eig, "rows": rows}


# ---------------------------------------------------------------------------
# checks: each returns a list of failure messages


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def _points(spec: dict) -> tuple[np.ndarray, list[int]]:
    pts = spec["points"]
    return np.array([complex(q["re"], q["im"]) for q in pts]), [int(q["mult"]) for q in pts]


def _nonzero(eig: np.ndarray) -> np.ndarray:
    return eig[np.abs(eig) > 1e-7]


def _check_converge(obj: dict, p: dict, ref: dict) -> list[str]:
    errs = []
    cfg = obj["config"]
    want = {"command": "converge", "seed": p["seed"], "sizes": p["sizes"],
            "seeds_per_size": p["seeds_per_size"], "epsilon": p["epsilon"]}
    errs += [f"config {k}={cfg.get(k)!r}, expected {v!r}" for k, v in want.items() if cfg.get(k) != v]
    lim_pts, lim_mult = _points(obj["limit_spectrum"])
    if lim_mult != [1] * len(ref["limit"]) or hausdorff(lim_pts, ref["limit"]) > FLOAT_TOL:
        errs.append(f"limit spectrum {obj['limit_spectrum']['points']}, expected {ref['limit'].tolist()}")
    eps, per = p["epsilon"], p["seeds_per_size"]
    rows = obj["rows"]
    if len(rows) != len(p["sizes"]) * per:
        return errs + [f"{len(rows)} rows, expected {len(p['sizes']) * per}"]
    by_n: dict[int, list[float]] = {}
    matched = {n: [0] * len(lim_pts) for n in p["sizes"]}
    for idx, row in enumerate(rows):
        i, j = divmod(idx, per)
        n = p["sizes"][i]
        where = f"row {idx} (n={n})"
        if row["n"] != n or row["seed"] != ref["seeds"][i][j]:
            errs.append(f"{where}: n={row['n']} seed={row['seed']}, expected seed {ref['seeds'][i][j]}")
            continue
        pts, mult = _points(row["observed"])
        if sum(mult) != n:
            errs.append(f"{where}: multiplicities sum to {sum(mult)}")
        targets = list(lim_pts) + ([0.0] if n > len(lim_pts) else [])
        if not _close(row["hausdorff"], hausdorff(pts, targets), SAME_TOL):
            errs.append(f"{where}: hausdorff {row['hausdorff']} disagrees with its own points")
        if len(row["ledgers"]) != len(lim_pts):
            errs.append(f"{where}: {len(row['ledgers'])} ledgers")
        for t, (led, target) in enumerate(zip(row["ledgers"], lim_pts)):
            mass = sum(m for v, m in zip(pts, mult) if abs(v - target) < eps)
            if (complex(led["target_re"], led["target_im"]), led["expected"], led["epsilon"]) != (target, 1, eps) \
                    or led["matched_mass"] != mass:
                errs.append(f"{where}: ledger {led} does not match mass {mass} at {target}")
            matched[n][t] += led["matched_mass"] == led["expected"]
        if j == 0:
            raw = ref["spot"][i]
            if not _close(row["hausdorff"], hausdorff(raw, targets), CLUSTER_TOL) \
                    or hausdorff(pts, raw) > CLUSTER_TOL:
                errs.append(f"{where}: spectrum differs from the reference eigenvalues")
            masses = [int((np.abs(raw - t) < eps).sum()) for t in lim_pts]
            if [led["matched_mass"] for led in row["ledgers"]] != masses:
                errs.append(f"{where}: ledger masses differ from reference {masses}")
        by_n.setdefault(n, []).append(row["hausdorff"])
    med = {int(k): v for k, v in obj["median_hausdorff_by_n"].items()}
    for n, hs in by_n.items():
        if not _close(med.get(n, np.nan), statistics.median(hs), SAME_TOL):
            errs.append(f"median at n={n} is {med.get(n)}, rows give {statistics.median(hs)}")
    first, last = p["sizes"][0], p["sizes"][-1]
    if not (med.get(last, np.inf) < CONVERGE_MEDIAN_MAX and med.get(last, np.inf) < med.get(first, 0.0)):
        errs.append(f"gate: median Hausdorff {med.get(last)} at n={last} (n={first}: {med.get(first)})")
    fractions = [c / per for c in matched[last]]
    if min(fractions) < LEDGER_FRACTION_MIN:
        errs.append(f"gate: ledger fractions {fractions} at n={last} below {LEDGER_FRACTION_MIN}")
    return errs


def _check_double_cover(obj: dict, p: dict, ref: list[dict]) -> list[str]:
    errs = []
    cfg = obj["config"]
    if (cfg.get("command"), cfg.get("seed"), cfg.get("degrees")) != ("double-cover", p["seed"], p["degrees"]):
        errs.append(f"config {cfg} does not match the command")
    lims = [complex(q["re"], q["im"]) for q in obj["limit_points"]]
    if lims != [0.25, -0.25, 0.0]:
        errs.append(f"limit points {lims}")
    if len(obj["rows"]) != len(p["degrees"]):
        return errs + [f"{len(obj['rows'])} rows for {len(p['degrees'])} degrees"]
    for row, d, r in zip(obj["rows"], p["degrees"], ref):
        where = f"degree {d}"
        if row["degree"] != d or row["seed"] != r["seed"]:
            errs.append(f"{where}: degree {row['degree']} seed {row['seed']}, expected seed {r['seed']}")
        for name in ("bidirected", "oneway"):
            if not row[f"spectrum_match_{name}"] <= DOUBLE_COVER_TOL_PER_DEGREE * d:
                errs.append(f"gate {where}: {name} spectrum match {row[f'spectrum_match_{name}']}")
            if row[f"cycle_density_{name}"] != r[name]:
                errs.append(f"{where}: {name} cycle densities {row[f'cycle_density_{name}']}, expected {r[name]}")
            if not _close(row[f"hausdorff_{name}"], r[f"hausdorff_{name}"], CLUSTER_TOL):
                errs.append(f"{where}: {name} hausdorff {row[f'hausdorff_{name}']}, expected {r[f'hausdorff_{name}']}")
        bi, one = row["cycle_density_bidirected"], row["cycle_density_oneway"]
        if bi.get("2") != 0.25 or one.get("2") != 0.0:
            errs.append(f"gate {where}: t(C2) is {bi.get('2')} vs {one.get('2')}, expected 1/4 vs 0")
        if any(bi.get(ell) != one.get(ell) for ell in ("3", "4")):
            errs.append(f"gate {where}: covers differ in t(C3) or t(C4)")
    return errs


def _check_sample(obj: dict, p: dict, ref: np.ndarray) -> list[str]:
    errs = []
    cfg = obj["config"]
    if (cfg.get("command"), cfg.get("seed"), cfg.get("n")) != ("sample", p["seed"], p["n"]):
        errs.append(f"config {cfg} does not match the command")
    if obj["n"] != p["n"] or obj["allow_bidirected"] is not False:
        errs.append(f"n={obj['n']} allow_bidirected={obj['allow_bidirected']}")
    edges = np.asarray(obj["edges"], dtype=np.int64).reshape(-1, 2)
    if not np.array_equal(edges, ref):
        errs.append(f"{len(edges)} edges differ from the {len(ref)} reference edges")
    return errs


def _check_cutnorm(obj: dict, p: dict, ref) -> list[str]:
    value, rows, cols = ref
    errs = []
    if not _close(obj["value"], value, SAME_TOL):
        errs.append(f"cut norm {obj['value']}, expected {value}")
    if obj["row_blocks"] != rows or obj["col_blocks"] != cols:
        errs.append(f"witness {obj['row_blocks']} x {obj['col_blocks']}, expected {rows} x {cols}")
    m = np.asarray(p["kernel"]["measures"])
    r = m[:, None] * np.asarray(p["kernel"]["values"]) * m[None, :]
    if not _close(abs(float(r[np.ix_(obj["row_blocks"], obj["col_blocks"])].sum())), obj["value"], SAME_TOL):
        errs.append("the witness sets do not attain the reported value")
    return errs


def _check_trace(obj: dict, p: dict, eig: np.ndarray) -> list[str]:
    errs = []
    b = operator(p["kernel"]["values"], p["kernel"]["measures"])
    checks = obj["checks"]
    if [c["ell"] for c in checks] != list(range(3, p["ell_max"] + 1)):
        return [f"cycle lengths {[c['ell'] for c in checks]}"]
    for c in checks:
        ell = c["ell"]
        lhs = float(np.trace(np.linalg.matrix_power(b, ell)))
        rhs = float(np.sum(eig**ell).real)
        if not (_close(c["lhs"], lhs, FLOAT_TOL) and _close(c["rhs"], rhs, FLOAT_TOL)):
            errs.append(f"ell={ell}: lhs {c['lhs']} rhs {c['rhs']}, expected {lhs} {rhs}")
        if c["abs_error"] != abs(c["lhs"] - c["rhs"]) or not c["abs_error"] < TRACE_ERROR_MAX:
            errs.append(f"gate ell={ell}: abs_error {c['abs_error']}")
    return errs


def _check_spectrum(obj: dict, p: dict, eig: np.ndarray) -> list[str]:
    pts, mult = _points(obj)
    ref = _nonzero(eig)
    errs = []
    if sum(mult) != len(ref) or hausdorff(pts, ref) > FLOAT_TOL:
        errs.append(f"points {obj['points']} differ from reference eigenvalues {ref.tolist()}")
    if obj["includes_zero_spectral_point"] is not True:
        errs.append("the zero spectral point is missing")
    return errs


def _check_step_converge(obj: dict, p: dict, ref: dict) -> list[str]:
    errs = []
    lim_pts, lim_mult = _points(obj["limit_spectrum"])
    lim_ref = _nonzero(ref["limit_eig"])
    if sum(lim_mult) != len(lim_ref) or hausdorff(lim_pts, lim_ref) > FLOAT_TOL:
        errs.append("limit spectrum differs from the reference eigenvalues")
    rows = obj["rows"]
    if [r["n"] for r in rows] != list(range(1, len(p["members"]) + 1)):
        return errs + [f"row indices {[r['n'] for r in rows]}"]
    eps = p["epsilon"]
    for row, r in zip(rows, ref["rows"]):
        where = f"member {row['n']}"
        h = hausdorff(np.append(_nonzero(r["eig"]), 0.0), np.append(lim_ref, 0.0))
        if not _close(row["hausdorff"], h, FLOAT_TOL):
            errs.append(f"{where}: hausdorff {row['hausdorff']}, expected {h}")
        if not all(_close(a, b, FLOAT_TOL) for a, b in zip(row["nu_gaps"], r["nu_gaps"])):
            errs.append(f"{where}: nu gaps {row['nu_gaps']}, expected {r['nu_gaps']}")
        if max(row["nu_gaps"]) > 2 * np.sqrt(r["cut_metric"]) + 1e-9:
            errs.append(f"gate {where}: nu gaps {row['nu_gaps']} exceed 2 sqrt(cut metric)")
        for led in row["ledgers"]:
            target = complex(led["target_re"], led["target_im"])
            mass = int((np.abs(r["eig"] - target) < eps).sum())
            if led["matched_mass"] != mass:
                errs.append(f"{where}: ledger mass {led['matched_mass']} at {target}, expected {mass}")
    last = rows[-1]
    if not (last["hausdorff"] < SEQUENCE_FINAL_MAX and max(last["nu_gaps"]) < SEQUENCE_FINAL_MAX
            and last["hausdorff"] < rows[0]["hausdorff"]):
        errs.append(f"gate: final hausdorff {last['hausdorff']} and gaps {last['nu_gaps']}")
    return errs


_KINDS = {
    "converge": (_ref_converge, _check_converge),
    "double-cover": (_ref_double_cover, _check_double_cover),
    "sample": (_ref_sample, _check_sample),
    "cutnorm": (_ref_cutnorm, _check_cutnorm),
    "trace-check": (_ref_eigs, _check_trace),
    "spectrum": (_ref_eigs, _check_spectrum),
    "step-converge": (_ref_step_converge, _check_step_converge),
}


def reference(cmd: dict):
    """Independent reference for one planned command."""
    return _KINDS[cmd["kind"]][0](cmd["params"])


def check_output(cmd: dict, ref) -> tuple[list[str], str | None]:
    """Failure messages for the command's output file, and the file's sha256."""
    try:
        with open(cmd["output"], "rb") as fh:
            data = fh.read()
    except OSError as exc:
        return [f"output not readable: {exc}"], None
    digest = hashlib.sha256(data).hexdigest()
    try:
        return _KINDS[cmd["kind"]][1](json.loads(data), cmd["params"], ref), digest
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"], digest
