import argparse
import contextlib
import hashlib
import importlib
import io
import json
import multiprocessing
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import digraphon

from digraphon import (
    ConvergenceReport,
    Spectrum,
    bidirected_crossing_pair,
    collapse,
    digraph_from_edgelist,
    digraph_from_json,
    kernel_to_json,
    pair_to_json,
)
from digraphon import cli
from digraphon.cli import main
from digraphon.stepkernel import StepDigraphon, StepKernel, uniform_measures


@pytest.fixture
def crossing_kernel_file(tmp_path):
    path = tmp_path / "crossing.json"
    path.write_text(json.dumps(kernel_to_json(collapse(bidirected_crossing_pair()))))
    return str(path)


@pytest.fixture
def digraphon_file(tmp_path):
    w = StepDigraphon(np.array([[0.0, 0.25], [0.25, 0.0]]), [0.5, 0.5])
    path = tmp_path / "digraphon.json"
    path.write_text(json.dumps(kernel_to_json(w)))
    return str(path)


@pytest.fixture
def looped_digraphon_file(tmp_path):
    # a nonzero diagonal block: the blocks do not 2-colour
    w = StepDigraphon(np.array([[0.5, 0.25], [0.25, 0.0]]), [0.5, 0.5])
    path = tmp_path / "looped.json"
    path.write_text(json.dumps(kernel_to_json(w)))
    return str(path)


@pytest.fixture
def pair_file(tmp_path):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(pair_to_json(bidirected_crossing_pair())))
    return str(path)


@pytest.fixture
def step_sequence_files(tmp_path):
    """A limit kernel and three members approaching it, as (limit, [members])."""
    base = StepDigraphon(np.full((2, 2), 0.2), uniform_measures(2))
    limit_path = tmp_path / "limit.json"
    limit_path.write_text(json.dumps(kernel_to_json(base)))
    member_paths = []
    for i in (1, 2, 3):
        w = StepKernel(base.values + 2.0**-i * 0.05, base.measures, bound=1.0)
        p = tmp_path / f"member{i}.json"
        p.write_text(json.dumps(kernel_to_json(w)))
        member_paths.append(str(p))
    return str(limit_path), member_paths


def test_spectrum_csv_rows(crossing_kernel_file, tmp_path):
    out = tmp_path / "out"
    code = main([
        "spectrum", "--kernel", crossing_kernel_file,
        "--out-dir", str(out), "--format", "csv",
    ])
    assert code == 0
    text = (out / "spectrum.csv").read_text()
    rows = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    assert rows[0] == "re,im,mult"
    assert rows[1].startswith("-0.25,")
    assert rows[2].startswith("0.25,")
    assert rows[3] == "0,0,0"


def test_spectrum_json_deterministic_bytes(crossing_kernel_file, tmp_path):
    out = tmp_path / "out"
    assert main(["spectrum", "--kernel", crossing_kernel_file, "--out-dir", str(out)]) == 0
    first = (out / "spectrum.json").read_bytes()
    assert main(["spectrum", "--kernel", crossing_kernel_file, "--out-dir", str(out)]) == 0
    assert (out / "spectrum.json").read_bytes() == first
    obj = json.loads(first)
    assert obj["includes_zero_spectral_point"] is True
    assert obj["config"]["command"] == "spectrum"


def test_trace_check_csv(crossing_kernel_file, tmp_path):
    out = tmp_path / "out"
    code = main([
        "trace-check", "--kernel", crossing_kernel_file, "--ell-max", "6",
        "--out-dir", str(out), "--format", "csv",
    ])
    assert code == 0
    rows = [ln for ln in (out / "trace_check.csv").read_text().splitlines()
            if ln and not ln.startswith("#")]
    assert rows[0] == "ell,lhs,rhs,abs_error"
    assert len(rows) == 5
    assert all(float(r.split(",")[3]) < 1e-8 for r in rows[1:])


def test_cutnorm_value(crossing_kernel_file, tmp_path):
    out = tmp_path / "out"
    assert main(["cutnorm", "--kernel", crossing_kernel_file, "--out-dir", str(out)]) == 0
    obj = json.loads((out / "cutnorm.json").read_text())
    assert obj["value"] == pytest.approx(0.25)
    assert obj["row_blocks"] and obj["col_blocks"]


def test_sample_json_and_determinism(digraphon_file, tmp_path):
    out = tmp_path / "out"
    args = ["sample", "--kernel", digraphon_file, "--n", "30", "--seed", "5",
            "--out-dir", str(out)]
    assert main(args) == 0
    first = (out / "sample_seed5.json").read_bytes()
    assert main(args) == 0
    assert (out / "sample_seed5.json").read_bytes() == first
    g = digraph_from_json(json.loads(first) | {})
    assert g.n == 30


def test_sample_edgelist_format(digraphon_file, tmp_path):
    out = tmp_path / "out"
    assert main(["sample", "--kernel", digraphon_file, "--n", "12", "--seed", "2",
                 "--out-dir", str(out), "--format", "csv"]) == 0
    text = (out / "sample_seed2.txt").read_text()
    g = digraph_from_edgelist(text)
    assert g.n == 12


def test_sample_from_pair(pair_file, tmp_path):
    out = tmp_path / "out"
    assert main(["sample", "--pair", pair_file, "--n", "16", "--seed", "3",
                 "--out-dir", str(out)]) == 0
    obj = json.loads((out / "sample_seed3.json").read_text())
    assert obj["allow_bidirected"] is True


@pytest.mark.parametrize("fmt,ext,flag,digest", [
    ("json", "json", "--kernel", "fcfea2a68204f49ca17efaa160f70035651b41b261a9cd77e4408355e2412740"),
    ("csv", "txt", "--kernel", "dd0040e181cddb9a4f46a1cf743c0c086e7706cc0642ceff37ed576bed7aac77"),
    ("json", "json", "--pair", "f4753fe4c902af1abc90396bae9d1741b4ca00f3a03b7951862fb922ea34b73b"),
    ("csv", "txt", "--pair", "32c28e0d0919809420200a15559c8444d5a3de2763dec96d323e20b03f53a3e4"),
])
def test_sample_bytes_are_pinned(digraphon_file, pair_file, tmp_path, fmt, ext, flag, digest):
    # digests of the vectorised sampler and the json.dumps writer at n = 300
    path = pair_file if flag == "--pair" else digraphon_file
    out = tmp_path / "out"
    assert main(["sample", flag, path, "--n", "300", "--seed", "7",
                 "--format", fmt, "--out-dir", str(out)]) == 0
    assert hashlib.sha256((out / f"sample_seed7.{ext}").read_bytes()).hexdigest() == digest


# Every command x format at tiny sizes; "@name" stands for an input file.
# Eigenvalues' last bits may change with the CPU or BLAS build (README), and
# with them the spectral digests below.
_GOLDEN_RUNS = {
    "spectrum": (["spectrum", "--kernel", "@crossing"], "spectrum"),
    "spectrum-tol": (["spectrum", "--kernel", "@crossing", "--tol", "1e-6"], "spectrum"),
    "cutnorm": (["cutnorm", "--kernel", "@crossing"], "cutnorm"),
    "trace-check": (["trace-check", "--kernel", "@crossing", "--ell-max", "6"], "trace_check"),
    "sample-kernel": (["sample", "--kernel", "@digraphon", "--n", "40", "--seed", "3"],
                      "sample_seed3"),
    "sample-pair": (["sample", "--pair", "@pair", "--n", "40", "--seed", "3"], "sample_seed3"),
    "converge": (["converge", "--kernel", "@digraphon", "--sizes", "10,20",
                  "--seeds-per-size", "2", "--epsilon", "0.05", "--seed", "1"], "converge_seed1"),
    "converge-nu-gaps": (["converge", "--kernel", "@digraphon", "--sizes", "10,20",
                          "--seeds-per-size", "2", "--epsilon", "0.05", "--seed", "1",
                          "--nu-gaps"], "converge_seed1"),
    "converge-looped": (["converge", "--kernel", "@looped", "--sizes", "10,20",
                         "--seeds-per-size", "2", "--epsilon", "0.02", "--seed", "1"],
                        "converge_seed1"),
    "step-converge": (["step-converge", "--kernel", "@limit", "--members", "@members",
                       "--epsilon", "0.1"], "step_converge"),
    "double-cover": (["double-cover", "--degrees", "3,4", "--seed", "4"], "double_cover_seed4"),
    "double-cover-tol": (["double-cover", "--degrees", "3,4", "--seed", "4", "--tol", "0.01"],
                         "double_cover_seed4"),
}

_GOLDEN_DIGESTS = {
    ("spectrum", "json"): "d96db77b69e01a587c1b5ab5749d59166e3ddc1392dda2b5297d7396acabf577",
    ("spectrum", "csv"): "e1743892385010337db977ab4feae41a5d20c521aa66692c2e9b87011ff52e72",
    ("spectrum-tol", "json"): "e48c57660b76e7d473ba26eaf507fd31aa425bfc11dd435c18ab6831ca5c9f5a",
    ("spectrum-tol", "csv"): "00af97b71cb7818601304dbcbb164d269ffb5d2c1c057110113da7932a499b99",
    ("cutnorm", "json"): "f4ac415bfa4d0077d714b429db16134eb1735e8e34fb963a1416b61b357be099",
    ("cutnorm", "csv"): "e3d7f2e1cbc0accac3c8b5fc2396a7fc41a5b628011105f2ffebd79834933608",
    ("trace-check", "json"): "2672ba1d2993c81270c4f05e138194af81e76f89694987e0e054dae8ff25ea7a",
    ("trace-check", "csv"): "c642e2db15bc78a38f436dd0ed47e5730c9260094d12edd5afa754f277c18400",
    ("sample-kernel", "json"): "4e33c1dcf3ba012bc19e4a0ad84a47995e5e5e0b3a0c621ffe527f0699e39520",
    ("sample-kernel", "csv"): "41630ce218d68f4bbdbf39337a03894ed0ffc1f2e78cad20abda93fa8d233f84",
    ("sample-pair", "json"): "efee1294c5ba5c63b59fed05875b7ef288a41223947fd9d7143deb9ceb310778",
    ("sample-pair", "csv"): "96c64786e079aec335cccf514b24b438f11dc07ffaf72cb0d3255b357e976547",
    ("converge", "json"): "cfc1bd9035126e8f740d79a3559662865a06eecc8a82355b6628fbd4004b83fa",
    ("converge", "csv"): "acbf440e703cc6cde14edcde89a8c29d6d9fdfda3c00a9f292a0bbd66fd5dec2",
    ("converge-nu-gaps", "json"): "a23cac606fdbd6f5e179343bb699567d8374ce243f3f22501aa48d556bd69f4d",
    ("converge-nu-gaps", "csv"): "b17260f70b78c4da688e15d7cd7d5bf142a8398eeeec187eed17b61677179147",
    ("converge-looped", "json"): "2cedd1c42b80d182d43482944093475b71f942d814d5c06ca8ed501dd50c9d51",
    ("converge-looped", "csv"): "a57f0319efdf073ab9432ea9a079f2e46738a0fb6be51eab862f62062a67597d",
    ("step-converge", "json"): "d5a6e1f5b28d89c261b885d1281e79e324da1f2d5270ab6f29329be6b1841b0e",
    ("step-converge", "csv"): "7205f9d76ef8344b7a91ab4315a8320df47414bd938b93d8e6062ca969ea4c80",
    ("double-cover", "json"): "ddc98c64fad7c1fbbddceed81f84059d0156ab59542002fe64bea531b26b640a",
    ("double-cover", "csv"): "3692ea2457c52ff103c7db2d2391d047fbece34f86953c49af429a5cad9864a6",
    ("double-cover-tol", "json"): "5f7e85c416a9ef84178395f431b8a008c27d2a5e4565fb5acf32e5272cccd1a3",
    ("double-cover-tol", "csv"): "647a89a7c9394c58dbc9b9f1f3ee32172e5675ead6ab9715b34c28456a7fb306",
}


@pytest.fixture
def input_files(crossing_kernel_file, digraphon_file, looped_digraphon_file, pair_file,
                step_sequence_files):
    limit, members = step_sequence_files
    return {"@crossing": [crossing_kernel_file], "@digraphon": [digraphon_file],
            "@looped": [looped_digraphon_file], "@pair": [pair_file], "@limit": [limit],
            "@members": members}


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("run", list(_GOLDEN_RUNS))
def test_output_bytes_are_pinned(run, fmt, input_files, tmp_path):
    template, stem = _GOLDEN_RUNS[run]
    argv = [part for arg in template for part in input_files.get(arg, [arg])]
    ext = "json" if fmt == "json" else "txt" if template[0] == "sample" else "csv"
    out = tmp_path / "out"
    assert main([*argv, "--format", fmt, "--out-dir", str(out)]) == 0
    assert [p.name for p in out.iterdir()] == [f"{stem}.{ext}"]
    digest = hashlib.sha256((out / f"{stem}.{ext}").read_bytes()).hexdigest()
    assert digest == _GOLDEN_DIGESTS[run, fmt]


def _assert_budget_exit_before_allocating(argv, out, capsys):
    tracemalloc.start()
    try:
        code = main([*argv, "--out-dir", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert json.loads(capsys.readouterr().err)["error"] == "BudgetError"
    assert peak < 1 << 20
    assert not out.exists()


def test_exit_3_when_sample_exceeds_physical_memory(digraphon_file, tmp_path, capsys):
    _assert_budget_exit_before_allocating(
        ["sample", "--kernel", digraphon_file, "--n", "10000000", "--seed", "1"],
        tmp_path / "out", capsys)


def test_exit_3_when_converge_exceeds_physical_memory(digraphon_file, tmp_path, capsys):
    _assert_budget_exit_before_allocating(
        ["converge", "--kernel", digraphon_file, "--sizes", "10000000",
         "--seeds-per-size", "1", "--epsilon", "0.05", "--seed", "1"],
        tmp_path / "out", capsys)


def test_exit_3_when_converge_cells_exceed_physical_memory(digraphon_file, tmp_path, capsys):
    # one n = 2 cell is tiny; the report of a billion is not, and the cell
    # list is never built
    _assert_budget_exit_before_allocating(
        ["converge", "--kernel", digraphon_file, "--sizes", "2",
         "--seeds-per-size", "1000000000", "--epsilon", "0.05", "--seed", "1"],
        tmp_path / "out", capsys)


def _one_error_line(err: str) -> dict:
    assert err.count("\n") == 1 and err.endswith("\n")
    return json.loads(err)


@pytest.mark.parametrize("command,value,codes", [
    (["trace-check", "--ell-max", "4"], 1e200, {4}),
    (["cutnorm"], 1e308, {4}),
    (["step-converge", "--members", "@big", "--epsilon", "0.1"], 1e308, {2, 4}),
])
def test_floating_overflow_exits_with_one_json_line(command, value, codes, tmp_path):
    # trace-check raised OverflowError from a power sum (exit 1, traceback),
    # cutnorm wrote "value": Infinity and step-converge printed RuntimeWarnings;
    # a subprocess, so that warnings reach the stderr checked here
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"k": 1, "values": [[value]], "measures": [1.0], "bound": value}))
    kernel = big
    if command[0] == "step-converge":
        kernel = tmp_path / "limit.json"
        kernel.write_text(json.dumps({"k": 1, "values": [[0.5]], "measures": [1.0]}))
    argv = [str(big) if arg == "@big" else arg for arg in command]
    out = tmp_path / "out"
    src = str(Path(digraphon.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-m", "digraphon.cli", *argv, "--kernel", str(kernel),
                           "--out-dir", str(out)], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode in codes
    _one_error_line(done.stderr)
    assert not out.exists()


def test_non_finite_result_exits_4_and_writes_no_file(monkeypatch, digraphon_file, tmp_path, capsys):
    real = digraphon.cli.cut_norm_witness
    monkeypatch.setattr(digraphon.cli, "cut_norm_witness",
                        lambda w: real(w)._replace(value=float("inf")))
    out = tmp_path / "out"
    assert main(["cutnorm", "--kernel", digraphon_file, "--out-dir", str(out)]) == 4
    assert _one_error_line(capsys.readouterr().err)["error"] == "NumericalError"
    assert not out.exists()


def _spoil_last_row(report, field, value):
    """report with its last row's hausdorff, or one added point's real part, set to value."""
    row = report.rows[-1]
    if field == "hausdorff":
        row = replace(row, hausdorff=value)
    else:
        row = replace(row, observed=Spectrum(((complex(value, 0.0), 1), *row.observed.points),
                                             row.observed.includes_zero_spectral_point))
    return ConvergenceReport(report.limit_spectrum, report.rows[:-1] + (row,))


@pytest.mark.parametrize("value", [float("inf"), float("nan")])
@pytest.mark.parametrize("field", ["hausdorff", "point"])
@pytest.mark.parametrize("command", ["converge", "step-converge"])
def test_non_finite_convergence_report_exits_4_and_makes_no_directory(
        monkeypatch, command, field, value, digraphon_file, step_sequence_files, tmp_path, capsys):
    name, argv = {
        "converge": ("convergence_experiment", [
            "converge", "--kernel", digraphon_file, "--sizes", "10,20", "--seeds-per-size", "2",
            "--epsilon", "0.05", "--seed", "1"]),
        "step-converge": ("step_sequence_convergence", [
            "step-converge", "--kernel", step_sequence_files[0],
            "--members", *step_sequence_files[1], "--epsilon", "0.1"]),
    }[command]
    real = getattr(cli, name)
    monkeypatch.setattr(cli, name, lambda *a, **kw: _spoil_last_row(real(*a, **kw), field, value))
    out = tmp_path / "out"
    assert main([*argv, "--out-dir", str(out)]) == 4
    err = _one_error_line(capsys.readouterr().err)
    assert err["error"] == "NumericalError"
    assert err["message"] == f"result is not finite: Out of range float values are not JSON compliant: {value!r}"
    assert not out.exists()


def _run_converge_on_two_workers(monkeypatch, digraphon_file, out, cell):
    """Exit code of converge on two forked worker processes whose cells call cell()."""
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setenv("DIGRAPHON_THREADS", "2")
    monkeypatch.setattr(digraphon.limits, "_converge_cell", lambda *args: cell())
    return main(["converge", "--kernel", digraphon_file, "--sizes", "10,20",
                 "--seeds-per-size", "2", "--epsilon", "0.05", "--seed", "1",
                 "--out-dir", str(out)])


def test_exit_3_with_one_json_line_when_a_worker_process_dies(
        monkeypatch, digraphon_file, tmp_path, capfd):
    caller = os.getpid()

    def die():
        # the patch reaches the workers by fork; the calling process must not run cells
        assert os.getpid() != caller, "a cell ran in the calling process"
        os._exit(9)

    out = tmp_path / "out"
    assert _run_converge_on_two_workers(monkeypatch, digraphon_file, out, die) == 3
    captured = capfd.readouterr()
    assert _one_error_line(captured.err)["error"] == "BrokenProcessPool"
    assert captured.out == "" and not out.exists()
    assert multiprocessing.active_children() == []


def test_worker_floating_point_error_exits_4(monkeypatch, digraphon_file, tmp_path, capfd):
    def overflow():
        return np.float64(1e308) * np.float64(10.0)

    out = tmp_path / "out"
    assert _run_converge_on_two_workers(monkeypatch, digraphon_file, out, overflow) == 4
    err = _one_error_line(capfd.readouterr().err)
    assert err["error"] == "FloatingPointError" and "overflow" in err["message"]
    assert not out.exists() and multiprocessing.active_children() == []


def test_exit_3_when_double_cover_exceeds_physical_memory(tmp_path, capsys):
    _assert_budget_exit_before_allocating(
        ["double-cover", "--degrees", "3,10000000", "--seed", "1"], tmp_path / "out", capsys)


def test_exit_3_when_no_regular_graph_is_found(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(digraphon.digraph, "_PAIRING_RESTARTS", 0)
    with pytest.raises(digraphon.GenerationError, match="in 0 restarts"):
        digraphon.random_regular_graph(8, 3, seed=1)
    out = tmp_path / "out"
    assert main(["double-cover", "--degrees", "3", "--seed", "4", "--out-dir", str(out)]) == 3
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and captured.out == ""
    error = json.loads(lines[0])
    assert error["error"] == "GenerationError" and "regular graph" in error["message"]
    assert not out.exists()


def test_converge_report(digraphon_file, tmp_path):
    out = tmp_path / "out"
    args = ["converge", "--kernel", digraphon_file, "--sizes", "10,20",
            "--seeds-per-size", "2", "--epsilon", "0.05", "--seed", "1",
            "--out-dir", str(out)]
    assert main(args) == 0
    obj = json.loads((out / "converge_seed1.json").read_text())
    assert len(obj["rows"]) == 4
    assert set(obj["median_hausdorff_by_n"]) == {"10", "20"}
    first = (out / "converge_seed1.json").read_bytes()
    assert main(args) == 0
    assert (out / "converge_seed1.json").read_bytes() == first


def test_step_converge(step_sequence_files, tmp_path):
    limit_path, member_paths = step_sequence_files
    out = tmp_path / "out"
    assert main(["step-converge", "--kernel", limit_path,
                 "--members", *member_paths, "--epsilon", "0.1",
                 "--out-dir", str(out), "--format", "csv"]) == 0
    rows = [ln for ln in (out / "step_converge.csv").read_text().splitlines()
            if ln and not ln.startswith("#")]
    assert rows[0].split(",")[:3] == ["n", "seed", "hausdorff"]
    assert len(rows) == 4


def test_double_cover_command(tmp_path):
    out = tmp_path / "out"
    assert main(["double-cover", "--degrees", "3", "--seed", "4",
                 "--out-dir", str(out)]) == 0
    obj = json.loads((out / "double_cover_seed4.json").read_text())
    assert obj["rows"][0]["cycle_density_bidirected"]["2"] == 0.25
    assert obj["rows"][0]["cycle_density_oneway"]["2"] == 0.0


# ---------------------------------------------------------------------------
# exit codes


def test_exit_2_on_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert main(["spectrum", "--kernel", str(bad), "--out-dir", str(tmp_path)]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert "error" in err and "message" in err


def test_exit_2_on_schema_violation(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"k": 2, "measures": [0.5, 0.5]}))
    assert main(["spectrum", "--kernel", str(bad), "--out-dir", str(tmp_path)]) == 2


def test_exit_2_when_converge_needs_digraphon(tmp_path, crossing_kernel_file):
    # the crossing kernel is a plain kernel, not a digraphon
    assert main(["converge", "--kernel", crossing_kernel_file, "--sizes", "10",
                 "--seeds-per-size", "1", "--epsilon", "0.05", "--seed", "0",
                 "--out-dir", str(tmp_path)]) == 2


@pytest.mark.parametrize("run", ["spectrum", "cutnorm", "trace-check", "sample-pair",
                                 "converge", "step-converge", "double-cover"])
def test_exit_2_on_missing_file(run, tmp_path, capsys):
    template, _ = _GOLDEN_RUNS[run]
    argv = [str(tmp_path / "nope.json") if arg.startswith("@") else arg for arg in template]
    out = tmp_path / "out"
    if run == "double-cover":
        # reads no input file: the missing path is its output directory's parent
        (tmp_path / "nope.json").write_text("")
        out = tmp_path / "nope.json" / "out"
    assert main([*argv, "--out-dir", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert set(json.loads(captured.err)) == {"error", "message"}
    assert not out.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == (
        ["nope.json"] if run == "double-cover" else [])


def test_exit_2_when_sample_given_both_inputs(tmp_path, digraphon_file, pair_file, capsys):
    assert main(["sample", "--kernel", digraphon_file, "--pair", pair_file,
                 "--n", "5", "--seed", "0", "--out-dir", str(tmp_path / "out")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ArgumentError" and "--kernel" in err["message"]
    assert not (tmp_path / "out").exists()


def test_exit_3_on_budget_error(tmp_path):
    big = StepKernel(np.zeros((25, 25)), uniform_measures(25))
    path = tmp_path / "big.json"
    path.write_text(json.dumps(kernel_to_json(big)))
    assert main(["cutnorm", "--kernel", str(path), "--out-dir", str(tmp_path)]) == 3


def test_exit_4_on_numerical_failure(tmp_path):
    assert main(["double-cover", "--degrees", "3", "--seed", "0",
                 "--tol", "1e-30", "--out-dir", str(tmp_path)]) == 4


def test_exit_2_on_bad_thread_count(tmp_path, capsys, monkeypatch):
    for raw in ("abc", "-1", "1.5"):
        monkeypatch.setenv("DIGRAPHON_THREADS", raw)
        assert main(["double-cover", "--degrees", "3", "--seed", "0",
                     "--out-dir", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError" and "DIGRAPHON_THREADS" in err["message"]
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("args,message", [
    (["converge", "--kernel", "@zero", "--sizes", "10", "--seeds-per-size", "1",
      "--epsilon", "0", "--seed", "1"], "epsilon must be positive"),
    (["converge", "--kernel", "@zero", "--sizes", "10", "--seeds-per-size", "1",
      "--epsilon", "-1", "--seed", "1"], "epsilon must be positive"),
    (["step-converge", "--kernel", "@zero", "--members", "@zero", "--epsilon", "0"],
     "epsilon must be positive"),
    (["double-cover", "--degrees", "", "--seed", "1"], "degrees must be non-empty"),
])
def test_exit_2_on_nonpositive_epsilon_or_no_degrees(args, message, tmp_path, capsys):
    # the zero kernel has no nonzero spectral point, so no isolation check sees epsilon
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps(kernel_to_json(StepDigraphon(np.zeros((2, 2)), uniform_measures(2)))))
    out = tmp_path / "out"
    argv = [str(zero) if arg == "@zero" else arg for arg in args]
    assert main([*argv, "--out-dir", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert set(err) == {"error", "message"} and err["error"] == "ValueError"
    assert message in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("args,message", [
    (["spectrum", "--kernel", "@crossing", "--tol", "nan"], "positive and finite"),
    (["spectrum", "--kernel", "@crossing", "--tol", "inf"], "positive and finite"),
    (["double-cover", "--degrees", "3", "--seed", "0", "--tol", "nan"], "positive and finite"),
    (["double-cover", "--degrees", "3", "--seed", "0", "--tol", "-1"], "positive and finite"),
])
def test_exit_2_on_nan_infinite_or_negative_tolerance(args, message, crossing_kernel_file,
                                                     tmp_path, capsys):
    out = tmp_path / "out"
    argv = [crossing_kernel_file if arg == "@crossing" else arg for arg in args]
    assert main([*argv, "--out-dir", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert set(err) == {"error", "message"} and err["error"] == "ValueError"
    assert message in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("args,names", [
    (["converge", "--kernel", "k.json", "--sizes", "50,x", "--seeds-per-size", "1",
      "--epsilon", "0.1", "--seed", "1"], "--sizes"),
    (["double-cover", "--degrees", "4,y", "--seed", "1"], "--degrees"),
    (["sample", "--kernel", "k.json", "--n", "5"], "--seed"),
    (["no-such-command"], "no-such-command"),
    ([], "command"),
    (["sample", "--n", "5", "--seed", "1"], "--kernel --pair"),
])
def test_exit_2_with_one_json_error_on_parse_errors(args, names, tmp_path, capsys):
    assert main([*args, "--out-dir", str(tmp_path)] if args else args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert set(err) == {"error", "message"} and err["error"] == "ArgumentError"
    assert names in err["message"]
    assert not list(tmp_path.iterdir())


def test_help_still_prints_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sample", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: digraphon sample")


def test_readme_synopsis_lists_every_flag_of_every_command():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line\n\n```\n", 1)[1].split("```", 1)[0]
    synopsis = {}
    for line in block.replace("\\\n", " ").splitlines():
        _, command, *words = line.split()
        synopsis[command] = set(re.findall(r"--[a-z][a-z-]*", " ".join(words)))
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    ignored = {"--out-dir", "--format", "-h", "--help"}
    flags = {name: {o for a in p._actions for o in a.option_strings} - ignored
             for name, p in sub.choices.items()}
    assert {name: f - ignored for name, f in synopsis.items()} == flags


README_NOT_CODE = {"ell_max", "seeds_per_size", "ru_maxrss", "wall_s"}  # JSON keys and metrics


def readme_code_names():
    """(backticked snake_case names in README.md, the package and its modules)."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    # backticked snake_case names, alone or called: `hom_count`, `collapse(P)`
    names = set(re.findall(r"`(_?[a-z][a-z0-9]*(?:_[a-z0-9]+)+)(?:\([^`]*\))?`", readme))
    modules = [digraphon, *(importlib.import_module(f"digraphon.{p.stem}")
                            for p in Path(digraphon.__file__).parent.glob("[!_]*.py"))]
    return names, modules


def test_readme_names_only_functions_the_package_has():
    names, modules = readme_code_names()
    assert len(names) > 10
    assert sorted(n for n in names - README_NOT_CODE if not any(hasattr(m, n) for m in modules)) == []


def test_readme_exceptions_are_words_the_readme_uses_and_the_package_lacks():
    names, modules = readme_code_names()
    assert README_NOT_CODE <= names
    assert sorted(n for n in README_NOT_CODE if any(hasattr(m, n) for m in modules)) == []


def test_config_records_tol_and_nu_gaps_only_when_set(digraphon_file, crossing_kernel_file, tmp_path):
    def config(args, name):
        assert main([*args, "--out-dir", str(tmp_path)]) == 0
        return json.loads((tmp_path / name).read_text())["config"]

    spectrum = ["spectrum", "--kernel", crossing_kernel_file]
    assert "tol" not in config(spectrum, "spectrum.json")
    assert config([*spectrum, "--tol", "1e-6"], "spectrum.json")["tol"] == 1e-6
    converge = ["converge", "--kernel", digraphon_file, "--sizes", "10",
                "--seeds-per-size", "1", "--epsilon", "0.05", "--seed", "2"]
    assert "nu_gaps" not in config(converge, "converge_seed2.json")
    assert config([*converge, "--nu-gaps"], "converge_seed2.json")["nu_gaps"] is True
    cover = ["double-cover", "--degrees", "3", "--seed", "5"]
    assert "tol" not in config(cover, "double_cover_seed5.json")
    assert config([*cover, "--tol", "0.01"], "double_cover_seed5.json")["tol"] == 0.01


def test_output_bytes_do_not_depend_on_thread_counts(digraphon_file, tmp_path):
    # n = 400 is large enough for a multi-threaded OpenBLAS to split dgeev's work
    commands = {
        "converge_seed17.json": ["converge", "--kernel", digraphon_file, "--sizes", "400",
                                 "--seeds-per-size", "2", "--epsilon", "0.05", "--seed", "17"],
        "double_cover_seed17.json": ["double-cover", "--degrees", "100", "--seed", "17"],
    }
    src = str(Path(digraphon.__file__).resolve().parents[1])
    digests = {name: set() for name in commands}
    for blas in ("1", "2"):
        for workers in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=blas, DIGRAPHON_THREADS=workers,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            out = tmp_path / f"blas{blas}_workers{workers}"
            for name, args in commands.items():
                subprocess.run([sys.executable, "-m", "digraphon.cli", *args, "--out-dir", str(out)],
                               env=env, check=True, timeout=120)
                digests[name].add(hashlib.sha256((out / name).read_bytes()).hexdigest())
    assert {name: len(d) for name, d in digests.items()} == {name: 1 for name in commands}


def test_thread_count_is_capped_at_the_cpu_count(monkeypatch):
    for cpus, raw, want in ((4, "1", 1), (4, "3", 3), (4, "", 1), (4, "0", 4), (4, "100000", 4),
                            (None, "0", 1), (None, "7", 1), (2, "2", 2)):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        monkeypatch.setenv("DIGRAPHON_THREADS", raw)
        assert cli._workers_from_env() == want


# ---------------------------------------------------------------------------
# hostile input: every command keeps the exit-code and output contract


_HOSTILE_NUMBERS = st.sampled_from([-0.0, 5e-324, -1e-300, 1e308, -1.5, 2.0, float("nan"),
                                    float("inf"), -float("inf"), 10**400, True, None, "0.5",
                                    [0.5], {}])
_HOSTILE_REALS = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                           st.sampled_from(["0", "-1", "5e-324", "1e308", "nan", "-inf", "x"]))
# sizes stay small or are so large that the memory budget refuses them unallocated
_HOSTILE_COUNTS = st.sampled_from([-2, -1, 0, 10**15, 2**63, -(10**30), "x", "1.5", ""])


def _either(draw, valid, hostile):
    """A draw from hostile one time in four, else from valid."""
    return draw(hostile if draw(st.integers(0, 3)) == 0 else valid)


@st.composite
def _kernel_json(draw):
    """A valid 1-3 block kernel object, or one with a hostile field."""
    k = draw(st.integers(1, 3))
    entries = st.one_of(st.sampled_from([0.0, 0.25, 0.5]), st.floats(0.0, 0.5))
    obj = {"k": k, "measures": [1.0 / k] * k,
           "values": [[draw(entries) for _ in range(k)] for _ in range(k)]}
    if draw(st.booleans()):
        obj["type"] = "digraphon"
    change = _either(draw, st.just("none"), st.sampled_from(
        ["value", "measure", "k", "ragged", "drop", "type", "bound", "list"]))
    if change == "value":
        obj["values"][draw(st.integers(0, k - 1))][0] = draw(_HOSTILE_NUMBERS)
    elif change == "measure":
        obj["measures"][0] = draw(_HOSTILE_NUMBERS)
    elif change == "k":
        obj["k"] = draw(st.sampled_from([0, -1, k + 1, 10**9, 2.0, "2", None]))
    elif change == "ragged":
        obj["values"][-1] = obj["values"][-1][:draw(st.integers(0, k - 1))]
    elif change == "drop":
        del obj[draw(st.sampled_from(["k", "measures", "values"]))]
    elif change == "type":
        obj["type"] = draw(st.sampled_from(["kernel", 3, None]))
    elif change == "bound":
        obj["bound"] = draw(st.one_of(st.floats(0.0, 2.0), _HOSTILE_NUMBERS))
    elif change == "list":
        return [obj]
    return obj


@st.composite
def _pair_json(draw):
    """A valid 1-3 block pair (W1 + W2 + W2^T <= 1) or one with a hostile field."""
    k = draw(st.integers(1, 3))
    entries = st.one_of(st.sampled_from([0.0, 0.25]), st.floats(0.0, 0.25))
    obj = {"measures": [1.0 / k] * k,
           **{key: [[draw(entries) for _ in range(k)] for _ in range(k)] for key in ("W1", "W2")}}
    change = _either(draw, st.just("none"), st.sampled_from(["value", "ragged", "drop"]))
    if change == "value":
        obj[draw(st.sampled_from(["W1", "W2", "measures"]))][0] = draw(_HOSTILE_NUMBERS)
    elif change == "ragged":
        obj["W2"] = [[0.0] * draw(st.integers(0, 3))]
    elif change == "drop":
        del obj[draw(st.sampled_from(["W1", "W2", "measures"]))]
    return obj


@st.composite
def _hostile_run(draw):
    """(argv with @kernel, @pair and @member<i> placeholders, {placeholder: JSON object})."""
    def real():
        return str(_either(draw, st.sampled_from([1e-4, 1e-3, 0.01]), _HOSTILE_REALS))

    def count(low, high):
        return str(_either(draw, st.integers(low, high), _HOSTILE_COUNTS))

    def sizes(at_most, high):
        valid = st.lists(st.integers(1, high), min_size=1, max_size=at_most, unique=True).map(sorted)
        hostile = st.one_of(st.lists(st.one_of(st.integers(-2, high), _HOSTILE_COUNTS),
                                     max_size=at_most), st.just(["3", "", "5"]))
        return ",".join(map(str, _either(draw, valid, hostile)))

    command = draw(st.sampled_from(["spectrum", "cutnorm", "trace-check", "sample", "converge",
                                    "step-converge", "double-cover"]))
    kernel = draw(_kernel_json())
    if command in ("sample", "converge") and isinstance(kernel, dict) and draw(st.integers(0, 3)):
        kernel["type"] = "digraphon"  # they take digraphons only
    files = {"@kernel": kernel}
    argv = [command, "--kernel", "@kernel"]
    # --flag=value, so that a value starting with "-" is not read as a flag
    if command == "spectrum" and draw(st.booleans()):
        argv += [f"--tol={real()}"]
    elif command == "trace-check":
        argv += [f"--ell-max={count(3, 12)}"]
    elif command == "sample":
        if draw(st.booleans()):
            files = {"@pair": draw(_pair_json())}
            argv[1:] = ["--pair", "@pair"]
        argv += [f"--n={count(1, 60)}", f"--seed={count(0, 2**64)}"]
    elif command == "converge":
        argv += [f"--sizes={sizes(3, 40)}", f"--seeds-per-size={count(1, 3)}",
                 f"--epsilon={real()}", f"--seed={count(0, 2**64)}"]
        argv += ["--nu-gaps"] if draw(st.booleans()) else []
    elif command == "step-converge":
        members = draw(st.lists(_kernel_json(), min_size=1, max_size=2))
        files.update({f"@member{i}": m for i, m in enumerate(members)})
        argv += ["--members", *sorted(files.keys() - {"@kernel"}), f"--epsilon={real()}"]
    elif command == "double-cover":
        files = {}
        argv = [command, f"--degrees={sizes(2, 8)}", f"--seed={count(0, 2**64)}"]
        argv += [f"--tol={real()}"] if draw(st.booleans()) else []
    if draw(st.integers(0, 9)) == 0:
        argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(["--bogus", "-n", "1e9"])))
    return argv, files


def _refuse_constant(name):
    raise ValueError(f"{name} in JSON output")


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_hostile_run())
def test_hostile_input_keeps_the_exit_code_and_output_contract(run):
    argv, files = run
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, obj in files.items():
            (tmp / f"{name[1:]}.json").write_text(json.dumps(obj))
        argv = [str(tmp / f"{arg[1:]}.json") if arg in files else arg for arg in argv]
        out = tmp / "out"
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")  # a warning would print on the CLI's stderr
            code = main([*argv, "--out-dir", str(out)])
        outputs = [p.read_text() for p in out.iterdir()] if out.exists() else []
    assert code in (0, 2, 3, 4)
    assert [str(w.message) for w in caught] == []
    if code == 0:
        assert stderr.getvalue() == "" and len(outputs) == 1
        json.loads(outputs[0], parse_constant=_refuse_constant)
    else:
        lines = stderr.getvalue().splitlines()
        assert len(lines) == 1 and set(json.loads(lines[0])) == {"error", "message"}
        assert outputs == []
