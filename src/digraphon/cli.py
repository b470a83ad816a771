"""Command-line entry point: file-based inputs, machine-readable outputs.

Exit codes: 0 success, 2 validation or schema error, 3 enumeration budget or
generation failure, or a worker process that died (an out-of-memory kill or a
signal), 4 numerical failure (floating overflow and non-finite results
included). Errors are emitted as one JSON object on stderr. Outputs
are written atomically (temp file then rename) and embed the invoking
configuration and master seed; identical configuration and seed give
byte-identical files.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from collections.abc import Callable, Iterable
from concurrent.futures import BrokenExecutor
from dataclasses import asdict
from pathlib import Path
from typing import Any, NamedTuple

import numpy as np

from .digraph import digraph_edgelist_text, digraph_json_text, sample_bidirected_random, sample_w_random
from .errors import BudgetError, GenerationError, IsolationError, NumericalError, StructureError
from .limits import (
    convergence_experiment,
    convergence_report_json_text,
    convergence_report_to_csv,
    double_cover_example,
    double_cover_report_to_csv,
    double_cover_report_to_json,
    step_sequence_convergence,
    trace_checks_to_csv,
    verify_trace_formula,
)
from .spectra import _csv_text, spectrum_to_csv, spectrum_to_json, step_spectrum
from .stepkernel import cut_norm_witness, kernel_from_json, pair_from_json

_EXIT_OK = 0
_EXIT_VALIDATION = 2
_EXIT_BUDGET = 3
_EXIT_NUMERICAL = 4

_Text = str | Iterable[str]


class _Command(NamedTuple):
    """One command: its result from the parsed args, and how that result is written.

    to_json(result, extra) gives the JSON text of extra plus the result's
    fields; to_csv(result) gives the CSV body under the config comment lines.
    The output is <stem>.<ext>, or <stem>_seed<seed>.<ext> when seeded.
    """

    compute: Callable[[argparse.Namespace], Any]
    to_json: Callable[[Any, dict], _Text]
    to_csv: Callable[[Any], _Text]
    stem: str
    seeded: bool
    csv_ext: str = "csv"


def _write_atomic(path: Path, *parts: _Text) -> None:
    """Write each text, or its pieces in order, to a temp file and rename it to path."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            for text in parts:
                fh.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json(fields: Callable[[Any], dict]) -> Callable[[Any, dict], str]:
    """to_json from a function giving the result's fields as a dict."""
    return _finite(lambda result, extra: json.dumps(
        {**extra, **fields(result)}, sort_keys=True, indent=2, allow_nan=False) + "\n")


def _finite(text: Callable[[Any, dict], str]) -> Callable[[Any, dict], str]:
    """to_json from text(result, extra), the JSON text of both.

    The ValueError json raises for a NaN or an infinity in the result becomes
    NumericalError, instead of a file that is not JSON.
    """
    def to_json(result, extra: dict) -> str:
        try:
            return text(result, extra)
        except ValueError as exc:
            raise NumericalError(f"result is not finite: {exc}") from None
    return to_json


def _load_json_file(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _kernel(args: argparse.Namespace):
    return kernel_from_json(_load_json_file(args.kernel))


def _sample(args: argparse.Namespace):
    if args.pair is not None:
        pair = pair_from_json(_load_json_file(args.pair))
        return sample_bidirected_random(pair, args.n, args.seed)
    return sample_w_random(_kernel(args), args.n, args.seed)


def _step_converge(args: argparse.Namespace):
    limit = _kernel(args)
    members = [kernel_from_json(_load_json_file(p)) for p in args.members]
    return step_sequence_convergence(members, limit, args.epsilon)


def _cutnorm_csv(witness) -> str:
    blocks = (f'"{" ".join(map(str, b))}"' for b in (witness.row_blocks, witness.col_blocks))
    return _csv_text(witness._fields, [(witness.value, *blocks)])


def _commands() -> dict[str, _Command]:
    """The command table, built per call so that it calls whatever this module's
    names are bound to at run time (tests and tracers rebind them)."""
    return {
        "spectrum": _Command(
            lambda a: step_spectrum(_kernel(a), tol=a.tol),
            _json(spectrum_to_json), spectrum_to_csv, "spectrum", False),
        "cutnorm": _Command(
            lambda a: cut_norm_witness(_kernel(a)),
            _json(lambda w: w._asdict()),
            _cutnorm_csv, "cutnorm", False),
        "trace-check": _Command(
            lambda a: verify_trace_formula(_kernel(a), a.ell_max),
            _json(lambda reports: {"checks": [asdict(r) for r in reports]}),
            trace_checks_to_csv, "trace_check", False),
        "sample": _Command(
            _sample, digraph_json_text, digraph_edgelist_text, "sample", True, "txt"),
        "converge": _Command(
            lambda a: convergence_experiment(
                _kernel(a), a.sizes, a.seeds_per_size, a.epsilon, a.seed,
                nu_gaps=a.nu_gaps, workers=a.workers),
            _finite(convergence_report_json_text), convergence_report_to_csv, "converge", True),
        "step-converge": _Command(
            _step_converge, _finite(convergence_report_json_text), convergence_report_to_csv,
            "step_converge", False),
        "double-cover": _Command(
            lambda a: double_cover_example(a.degrees, a.seed, spectral_tol=a.tol),
            _json(double_cover_report_to_json), double_cover_report_to_csv,
            "double_cover", True),
    }


def _config(args: argparse.Namespace) -> dict:
    """Every parsed flag but the output directory and pool size, input files by
    basename; flags left unset (None) or off (False) are omitted."""
    config = {}
    for key, value in vars(args).items():
        if key in ("out_dir", "workers") or value is None or value is False:
            continue
        if key in ("kernel", "pair"):
            value = os.path.basename(value)
        elif key == "members":
            value = [os.path.basename(p) for p in value]
        config[key] = value
    return config


def run(args: argparse.Namespace) -> int:
    """Execute one parsed command; map exceptions to documented exit codes."""
    command = _commands()[args.command]
    try:
        # floating overflow and invalid operations raise (exit 4), not warn
        with np.errstate(over="raise", invalid="raise"):
            result = command.compute(args)
        config = _config(args)
        stem = f"{command.stem}_seed{args.seed}" if command.seeded else command.stem
        if args.format == "csv":
            head = "".join(f"# {k}={v}\n" for k, v in sorted(config.items()))
            path = Path(args.out_dir) / f"{stem}.{command.csv_ext}"
            _write_atomic(path, head, command.to_csv(result))
        else:
            path = Path(args.out_dir) / f"{stem}.json"
            _write_atomic(path, command.to_json(result, {"config": config}))
        return _EXIT_OK
    except (BudgetError, GenerationError, BrokenExecutor) as exc:  # a dead worker process
        _emit_error(exc)
        return _EXIT_BUDGET
    except (NumericalError, OverflowError, FloatingPointError) as exc:
        _emit_error(exc)
        return _EXIT_NUMERICAL
    except (
        ValueError,
        TypeError,
        KeyError,
        OSError,
        StructureError,
        IsolationError,
        json.JSONDecodeError,
    ) as exc:
        _emit_error(exc)
        return _EXIT_VALIDATION


def _emit_error(exc: Exception) -> None:
    obj = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(obj, sort_keys=True), file=sys.stderr)


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors raise instead of printing usage and exiting.

    Subparsers are built from the parser's own class, so their errors raise too.
    """

    def error(self, message: str):
        raise argparse.ArgumentError(None, message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="digraphon",
        description="Densities, spectra and convergence experiments for digraph limits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="nonzero spectrum of a step kernel")
    p.add_argument("--kernel", required=True)
    p.add_argument("--tol", type=float, default=None, help="clustering tolerance")

    p = sub.add_parser("cutnorm", help="exact cut norm with an optimal subset pair")
    p.add_argument("--kernel", required=True)

    p = sub.add_parser("trace-check", help="cycle density vs eigenvalue power sums")
    p.add_argument("--kernel", required=True)
    p.add_argument("--ell-max", type=int, required=True)

    p = sub.add_parser("sample", help="draw one random digraph from a kernel or pair")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--kernel")
    source.add_argument("--pair")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("converge", help="sampled spectral-convergence experiment")
    p.add_argument("--kernel", required=True)
    p.add_argument("--sizes", type=_int_list, required=True, help="e.g. 50,100,200")
    p.add_argument("--seeds-per-size", type=int, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--nu-gaps", action="store_true")

    p = sub.add_parser("step-converge", help="deterministic kernel-sequence convergence")
    p.add_argument("--kernel", required=True, help="limit kernel")
    p.add_argument("--members", nargs="+", required=True, help="sequence kernel files")
    p.add_argument("--epsilon", type=float, required=True)

    p = sub.add_parser("double-cover", help="double covers of random regular graphs")
    p.add_argument("--degrees", type=_int_list, required=True, help="e.g. 20,50,100")
    p.add_argument("--tol", type=float, default=None, help="spectral identity tolerance")

    commands = _commands()
    for name, p in sub.choices.items():
        p.add_argument("--out-dir", default=".", help="output directory")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        if commands[name].seeded:
            p.add_argument("--seed", type=int, required=True, help="master seed")
        else:
            p.set_defaults(seed=0)

    return parser


def _workers_from_env() -> int:
    """Worker processes for converge from DIGRAPHON_THREADS (named when the
    pool was threads): unset means 1, which forks none, 0 means one per CPU,
    and no value gives more processes than CPUs."""
    raw = os.environ.get("DIGRAPHON_THREADS", "1") or "1"
    if not raw.strip().isdecimal():
        raise ValueError(f"DIGRAPHON_THREADS must be a non-negative integer, got {raw!r}")
    cpus = os.cpu_count() or 1
    return min(int(raw) or cpus, cpus)


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        args.workers = _workers_from_env()
    except (argparse.ArgumentError, ValueError) as exc:
        _emit_error(exc)
        return _EXIT_VALIDATION
    return run(args)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
