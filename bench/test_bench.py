"""Smoke test of the benchmark: every workload at tiny sizes, untraced and traced.

    python3 -m pytest bench/test_bench.py

Checks that each run prints every metric BENCHMARK.json lists, with its
unit, and that a deliberately corrupted output is counted as a failed
command.
"""
from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

import checks
import run

SPEC = json.loads((Path(run.__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(workload: str, trace: int) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(["--workload", workload, "--seed", "5", "--seconds", "0",
                         "--trace", str(trace), "--tiny"])
    assert code == 0
    return json.loads(buf.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    result = _bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == listed
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def _bump_ledger(obj):
    obj["rows"][0]["ledgers"][0]["matched_mass"] += 1


def _bump_density(obj):
    obj["rows"][-1]["cycle_density_oneway"]["4"] *= 1 + 1e-9


def _drop_edge(obj):
    obj["edges"].pop()


def _nudge_cut_norm(obj):
    obj["value"] *= 1 + 1e-9


CORRUPT = {"converge": _bump_ledger, "double-cover": _bump_density,
           "sample": _drop_edge, "cutnorm": _nudge_cut_norm}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_output_counts_as_failed(workload, monkeypatch):
    real = checks.check_output

    def corrupt_then_check(cmd, ref):
        if cmd["kind"] in CORRUPT:
            path = Path(cmd["output"])
            obj = json.loads(path.read_text())
            CORRUPT[cmd["kind"]](obj)
            path.write_text(json.dumps(obj))
        return real(cmd, ref)

    monkeypatch.setattr(checks, "check_output", corrupt_then_check)
    result = _bench(workload, 0)
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0  # fail_rate
