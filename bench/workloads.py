"""Workload plans: the input kernels each workload writes and the CLI commands it runs.

A plan is plain JSON data so that the workload process can be a fresh
interpreter: it receives the plan, writes the input files, and runs the
commands through ``digraphon.cli.main``. Every input is derived from the
workload seed with numpy alone, so the program under test only ever sees the
finished kernel files. ``tiny=True`` shrinks every size for the smoke test.
"""
from __future__ import annotations

import os

import numpy as np

# DIGRAPHON_THREADS for each workload: converge is the only one on the pool.
THREADS = {"converge": 2, "double-cover": 1, "sample-large": 1, "kernels": 1}

CROSSING_SURROGATE = {"values": [[0.0, 0.25], [0.25, 0.0]], "measures": [0.5, 0.5]}


def _kernel_obj(values, measures, digraphon: bool) -> dict:
    values = np.asarray(values, dtype=np.float64)
    obj = {
        "k": int(values.shape[0]),
        "measures": [float(m) for m in measures],
        "values": values.tolist(),
        "bound": 1.0,
    }
    if digraphon:
        obj["type"] = "digraphon"
    return obj


def _random_measures(rng: np.random.Generator, k: int) -> np.ndarray:
    m = rng.random(k) + 0.1
    return m / m.sum()


class _Builder:
    """Collects input files and commands under one work directory."""

    def __init__(self, work: str):
        self.in_dir = os.path.join(work, "in")
        self.out_root = os.path.join(work, "out")
        self.inputs: dict[str, dict] = {}
        self.commands: list[dict] = []

    def add_input(self, name: str, obj: dict) -> str:
        path = os.path.join(self.in_dir, name)
        self.inputs[path] = obj
        return path

    def add_command(self, kind: str, flags: list[str], output: str, **params) -> None:
        out_dir = os.path.join(self.out_root, str(len(self.commands)))
        self.commands.append({
            "kind": kind,
            "argv": [kind, *flags, "--out-dir", out_dir],
            "output": os.path.join(out_dir, output),
            "params": params,
        })


def _converge(b: _Builder, seed: int, tiny: bool) -> None:
    sizes = [50, 200] if tiny else [50, 100, 200, 400, 800]
    per_size = 4 if tiny else 20
    kernel = _kernel_obj(CROSSING_SURROGATE["values"], CROSSING_SURROGATE["measures"], True)
    path = b.add_input("crossing.json", kernel)
    b.add_command(
        "converge",
        ["--kernel", path, "--sizes", ",".join(map(str, sizes)),
         "--seeds-per-size", str(per_size), "--epsilon", "0.05", "--seed", str(seed)],
        f"converge_seed{seed}.json",
        kernel=kernel, sizes=sizes, seeds_per_size=per_size, epsilon=0.05, seed=seed,
    )


def _double_cover(b: _Builder, seed: int, tiny: bool) -> None:
    degrees = [4, 8] if tiny else [20, 50, 100, 200]
    b.add_command(
        "double-cover",
        ["--degrees", ",".join(map(str, degrees)), "--seed", str(seed)],
        f"double_cover_seed{seed}.json",
        degrees=degrees, seed=seed,
    )


def _sample_large(b: _Builder, seed: int, tiny: bool) -> None:
    n = 300 if tiny else 4000
    rng = np.random.default_rng([seed, 1])
    measures = _random_measures(rng, 3)
    values = rng.uniform(0.5, 1.0, (3, 3))
    # Scaled to the crossing surrogate's edge density 1/8 (entries stay
    # below 1/4, so W + W^T <= 1): every seed writes about 2 million edges,
    # a 70 MB JSON file at n = 4000.
    values *= 0.125 / (measures @ values @ measures)
    kernel = _kernel_obj(values, measures, True)
    path = b.add_input("sample_kernel.json", kernel)
    b.add_command(
        "sample",
        ["--kernel", path, "--n", str(n), "--seed", str(seed)],
        f"sample_seed{seed}.json",
        kernel=kernel, n=n, seed=seed,
    )


def _kernels(b: _Builder, seed: int, tiny: bool) -> None:
    for i, k in enumerate((6, 8) if tiny else (20, 22)):
        rng = np.random.default_rng([seed, 2, i])
        kernel = _kernel_obj(rng.uniform(-1.0, 1.0, (k, k)), _random_measures(rng, k), False)
        path = b.add_input(f"cut_k{k}.json", kernel)
        b.add_command("cutnorm", ["--kernel", path], "cutnorm.json", kernel=kernel)

    k, ell_max = (4, 5) if tiny else (8, 8)
    rng = np.random.default_rng([seed, 3])
    # Values in [0, 1/2] satisfy the digraphon condition W + W^T <= 1.
    kernel = _kernel_obj(rng.uniform(0.0, 0.5, (k, k)), _random_measures(rng, k), True)
    path = b.add_input(f"trace_k{k}.json", kernel)
    b.add_command("trace-check", ["--kernel", path, "--ell-max", str(ell_max)],
                  "trace_check.json", kernel=kernel, ell_max=ell_max)
    b.add_command("spectrum", ["--kernel", path], "spectrum.json", kernel=kernel)

    # The perturbed sequence of acceptance criterion 7: W_n = W + 2^-n noise.
    k, steps = 6, 20
    rng = np.random.default_rng([seed, 4])
    values = rng.random((k, k)) * 0.4
    measures = np.full(k, 1.0 / k)
    noise = rng.uniform(-0.5, 0.5, (k, k))
    limit = _kernel_obj(values, measures, True)
    limit_path = b.add_input("seq_limit.json", limit)
    members = [_kernel_obj(values + 2.0**-n * noise, measures, False) for n in range(1, steps + 1)]
    member_paths = [b.add_input(f"seq_{n}.json", m) for n, m in enumerate(members, 1)]
    eig = np.linalg.eigvals(values * measures[None, :])
    pts = [complex(v) for v in eig if abs(v) > 1e-7] + [0j]
    gaps = [abs(u - v) for i, u in enumerate(pts) for v in pts[i + 1:]]
    radius = min(abs(v) for v in pts if v != 0)
    epsilon = min(0.4 * min(gaps), 0.9 * radius)
    b.add_command(
        "step-converge",
        ["--kernel", limit_path, "--members", *member_paths, "--epsilon", repr(epsilon)],
        "step_converge.json",
        limit=limit, members=members, epsilon=epsilon,
    )


_BUILDERS = {
    "converge": _converge,
    "double-cover": _double_cover,
    "sample-large": _sample_large,
    "kernels": _kernels,
}


def build_plan(workload: str, seed: int, work: str, tiny: bool = False) -> dict:
    """Inputs, commands and thread count of one workload for one seed."""
    b = _Builder(work)
    _BUILDERS[workload](b, seed, tiny)
    return {"inputs": b.inputs, "commands": b.commands, "threads": THREADS[workload]}
