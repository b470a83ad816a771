"""Repeat the benchmark over seeds and summarise each workload and end-to-end metric.

    python3 bench/baseline.py [--out FILE]

Run it from the root of a checkout. For every workload of ``BENCHMARK.json``
it makes two sets of ten runs, each run one ``BENCHMARK.json`` command with
``--seconds run_seconds --trace 0`` and its own seed: seeds 1-10, then
11-20. For every workload and metric it
reports the median and quartiles (``statistics.quantiles(values, n=4)``),
the spread (Q3 - Q1) / median, and how the median of each later set
compares with the first. It then makes one traced run per workload. The
summary goes to FILE as JSON and a table goes to stdout.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUNS = 10
SETS = 2


def _bench(spec: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [*spec["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", str(spec["run_seconds"]), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-2])["run_record"], json.loads(lines[-1])


def _summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {"run_seconds": spec["run_seconds"], "runs_per_set": RUNS, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        entry = out["workloads"][workload] = {"sets": [], "correct": True, "attempted": 0, "failed": 0}
        for s in range(SETS):
            values: dict[str, list[float]] = {m: [] for m in bounds}
            seeds = range(1 + s * RUNS, 1 + (s + 1) * RUNS)
            for seed in seeds:
                rec, result = _bench(spec, workload, seed, 0)
                entry["record"] = rec
                entry["correct"] &= result["correct"]
                entry["attempted"] += result["attempted"]
                entry["failed"] += result["failed"]
                for name in bounds:
                    values[name].append(result["metrics"][name]["value"])
            entry["sets"].append({"seeds": list(seeds),
                                  "metrics": {m: _summary(v) for m, v in values.items()}})
        first = entry["sets"][0]["metrics"]
        for later in entry["sets"][1:]:
            for name, summ in later["metrics"].items():
                summ["vs_first"] = summ["median"] / first[name]["median"] - 1.0
        rec, traced = _bench(spec, workload, 1, 1)
        entry["traced"] = {"seed": 1, "record": rec, "result": traced}
        for i, st in enumerate(entry["sets"]):
            for name, summ in st["metrics"].items():
                flag = "ok" if summ["spread"] is not None and summ["spread"] < bounds[name] / 3 else "WIDE"
                vs = f" vs first {summ['vs_first']:+.3f}" if "vs_first" in summ else ""
                print(f"{workload:13s} set {i} {name:12s} median {summ['median']:10.4f} "
                      f"spread {summ['spread']:.4f} (bound {bounds[name]}) {flag}{vs}", flush=True)
        print(f"{workload:13s} correct={entry['correct']} attempted={entry['attempted']} "
              f"failed={entry['failed']}", flush=True)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
