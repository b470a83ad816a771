"""Benchmark entry point: one workload, one seed, for a fixed time.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. Each repetition is a fresh workload
process (``bench/child.py``) that imports digraphon from ``./src``, writes the
seeded input kernels and runs the workload's CLI commands one at a time in a
closed loop with one client. Repetitions start until S seconds have passed.
Every output of every repetition is checked against an independent
reference (``bench/checks.py``); a command fails on a non-zero exit code or
a failed check. The line before the last on stdout is the run record; the
last line is ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports medians over repetitions of the end-to-end metrics:
``wall_s`` (command time after set-up), ``setup_s`` (interpreter start until
digraphon is imported and the inputs are written; set-up-only processes
after the timed repetitions bring it to at least SETUP_SAMPLES samples),
``cpu_s`` (user+sys CPU of the command phase, all threads) and
``peak_rss_mb`` (peak resident memory of the workload process).

``--trace 1`` alternates untraced and traced repetitions for S seconds and
reports per-layer medians: self time and calls per public function and per
module, work counts, pool efficiency and the tracing overhead (the median,
over pairs of neighbouring repetitions, of traced minus plain wall time; the
run record gives the pairs). It then makes
one serial tracemalloc pass for peak bytes per n^2 and, on a workload that
uses the thread pool, one untraced repetition with DIGRAPHON_THREADS=1 for
``limits.speedup_vs_serial``. Metrics of functions a workload never calls
read 0.
"""
from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
CHILD_TIMEOUT_S = 150
# setup_s is a median over at least this many set-ups per run: a run of
# converge fits only three repetitions of the workload, so set-up-only
# processes make up the rest.
SETUP_SAMPLES = 9

import checks  # noqa: E402  (bench modules sit next to this file)
import record  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in spans.LAYERS},
    "spectra.eigenvalues.self_s": "s",
    "spectra.eigenvalues.calls": "count",
    "spectra.eigenvalues.gflop_computed": "Gflop",
    "spectra.cluster_multiplicities.self_s": "s",
    "spectra.normalized_spectrum.peak_bytes_per_n2": "B/n2",
    "spectra.hausdorff_distance.self_s": "s",
    "spectra.multiplicity_match.self_s": "s",
    "spectra.step_spectrum.self_s": "s",
    "limits.convergence_experiment.self_s": "s",
    "limits.parallel_efficiency": "ratio",
    "limits.speedup_vs_serial": "ratio",
    "limits.convergence_report_to_json.self_s": "s",
    "limits.double_cover_example.self_s": "s",
    "digraph.hom_count.self_s": "s",
    "digraph.hom_count.calls": "count",
    "digraph.random_regular_graph.self_s": "s",
    "digraph.sample_w_random.self_s": "s",
    "digraph.sample_w_random.peak_bytes_per_n2": "B/n2",
    "digraph.digraph_to_json.self_s": "s",
    "stepkernel.cut_norm_witness.self_s": "s",
    "stepkernel.cut_norm_witness.subsets_scanned": "count",
    "stepkernel.hom_density_step.self_s": "s",
    "stepkernel.common_refinement.self_s": "s",
    "stepkernel.nu_convergence_gaps.self_s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
}


class Bench:
    """Runs repetitions of one workload plan and checks every output."""

    def __init__(self, workload: str, seed: int, tiny: bool):
        self.work = WORK / f"{workload}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.plan = workloads.build_plan(workload, seed, str(self.work), tiny)
        self.plan["src"] = str(SRC)
        self.plan_path = self.work / "plan.json"
        self.work.mkdir(parents=True)
        self.plan_path.write_text(json.dumps(self.plan), encoding="utf-8")
        self.refs = []
        for cmd in self.plan["commands"]:
            try:
                self.refs.append(checks.reference(cmd))
            except Exception as exc:  # reported by every check of this command
                self.refs.append(exc)
        self.attempted = self.failed = self.processes = 0
        self.outputs: dict[tuple, int] = {}
        self.samples: dict[str, list[float]] = {}

    def rep(self, mode: str, threads: int | None = None) -> dict | None:
        """One workload process; returns its result with ``setup_s``, or None if it died.

        Mode ``setup`` stops the process once set-up is done and runs no command.
        """
        threads = self.plan["threads"] if threads is None else threads
        # Fresh files every time: on ext4, truncating a file that was just
        # written forces its write-back (auto_da_alloc), which set-up would time.
        for sub in ("in", "out"):
            shutil.rmtree(self.work / sub, ignore_errors=True)
        env = dict(os.environ, DIGRAPHON_THREADS=str(threads))
        cmds = [] if mode == "setup" else self.plan["commands"]
        self.processes += 1
        start = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(self.plan_path), mode],
                env=env, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else None
        except (subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
            proc, result = None, None
            print(f"workload process failed: {exc}", file=sys.stderr)
        self.attempted += len(cmds)
        if result is None:
            if proc is not None:
                print(f"workload process exited {proc.returncode}:\n{proc.stderr}", file=sys.stderr)
            self.failed += len(cmds)
            return None
        if proc.stderr:
            sys.stderr.write(proc.stderr)
        result["setup_s"] = result["ready"] - start
        for i, (cmd, ref, code) in enumerate(zip(cmds, self.refs, result["codes"])):
            if isinstance(ref, Exception):
                errs, digest = [f"reference failed: {type(ref).__name__}: {ref}"], None
            else:
                errs, digest = checks.check_output(cmd, ref)
            if code != 0:
                errs.insert(0, f"exit code {code}")
            if errs:
                self.failed += 1
                print(f"FAILED {cmd['kind']} #{i} ({mode}): " + "; ".join(errs[:5]),
                      file=sys.stderr)
            key = (i, cmd["kind"], digest, result["blas_threads"], threads)
            self.outputs[key] = self.outputs.get(key, 0) + 1
        return result

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def _median(values) -> float:
    return float(statistics.median(values))


def end_to_end(bench: Bench, seconds: float) -> dict[str, float]:
    deadline = time.monotonic() + seconds
    reps = []
    while bench.processes == 0 or time.monotonic() < deadline:
        result = bench.rep("plain")
        if result is not None:
            reps.append(result)
    if not reps:
        raise RuntimeError("no repetition of the workload completed")
    bench.samples = {name: [r[name] for r in reps] for name in END_TO_END}
    while len(bench.samples["setup_s"]) < SETUP_SAMPLES:
        result = bench.rep("setup")
        if result is None:
            break
        bench.samples["setup_s"].append(result["setup_s"])
    return {name: _median(bench.samples[name]) for name in END_TO_END}


def per_layer(bench: Bench, seconds: float) -> dict[str, float]:
    deadline = time.monotonic() + seconds
    plain, traced, layers = [], [], []
    while bench.processes == 0 or time.monotonic() < deadline:
        a, b = bench.rep("plain"), bench.rep("trace")
        if a is None or b is None:
            continue
        plain.append(a["wall_s"])
        traced.append(b["wall_s"])
        layers.append(spans.layer_metrics(b["spans"], bench.plan["threads"]))
    if not layers:
        raise RuntimeError("no traced repetition of the workload completed")
    out = {name: _median(m.get(name, 0.0) for m in layers) for name in PER_LAYER}
    # Each traced repetition against the plain one just before it, so that
    # slow drift of the machine cancels; with few pairs it is still noisy.
    overheads = [t - p for p, t in zip(plain, traced)]
    out["trace.overhead_s"] = _median(overheads)
    bench.samples = {"wall_s": plain, "traced_wall_s": traced, "overhead_s": overheads,
                     "overhead_pairs": len(overheads)}
    # tracemalloc.reset_peak is process-wide, so this pass runs without the pool.
    peaks = bench.rep("tracemalloc", threads=1)
    for name, ratio in (peaks or {}).get("peaks", {}).items():
        out[f"{name}.peak_bytes_per_n2"] = ratio
    out["limits.speedup_vs_serial"] = 0.0
    if bench.plan["threads"] > 1:
        serial = bench.rep("plain", threads=1)
        if serial is not None:
            out["limits.speedup_vs_serial"] = serial["wall_s"] / _median(plain)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.THREADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)

    if not (SRC / "digraphon" / "__init__.py").is_file():
        print(f"no digraphon sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    compileall.compile_dir(str(SRC), quiet=1)
    sys.path.insert(0, str(SRC))

    bench = Bench(args.workload, args.seed, args.tiny)
    try:
        if args.trace:
            values, units = per_layer(bench, args.seconds), PER_LAYER
        else:
            values, units = end_to_end(bench, args.seconds), END_TO_END
    finally:
        bench.close()

    outputs = [
        {"index": i, "command": kind, "sha256": digest, "blas_threads": blas,
         "digraphon_threads": threads, "runs": runs}
        for (i, kind, digest, blas, threads), runs in sorted(bench.outputs.items(), key=str)
    ]
    run_record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "processes": bench.processes,
        "digraphon_threads": bench.plan["threads"],
        "blas_threads": sorted({o["blas_threads"] for o in outputs}, key=str),
        **record.machine(ROOT, SRC),
        "outputs": outputs,
        "samples": bench.samples,
    }
    print(json.dumps({"run_record": run_record}))
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
