"""Command-line entry point: file-based inputs, machine-readable outputs.

Exit codes: 0 success, 2 validation or schema error, 3 enumeration budget or
generation failure, 4 numerical failure. Errors are emitted as one JSON
object on stderr. Outputs are written atomically (temp file then rename) and
embed the invoking configuration and master seed; identical configuration and
seed give byte-identical files.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

from .digraph import digraph_edgelist_text, digraph_json_text, sample_bidirected_random, sample_w_random
from .errors import BudgetError, GenerationError, IsolationError, NumericalError, StructureError
from .limits import (
    convergence_experiment,
    convergence_report_to_csv,
    convergence_report_to_json,
    double_cover_example,
    double_cover_report_to_csv,
    double_cover_report_to_json,
    step_sequence_convergence,
    trace_checks_to_csv,
    verify_trace_formula,
)
from .spectra import spectrum_to_csv, step_spectrum
from .stepkernel import (
    StepDigraphon,
    cut_norm_witness,
    kernel_from_json,
    pair_from_json,
)

_EXIT_OK = 0
_EXIT_VALIDATION = 2
_EXIT_BUDGET = 3
_EXIT_NUMERICAL = 4


@dataclass
class RunConfig:
    command: str
    kernel_path: str | None = None
    pair_path: str | None = None
    member_paths: list[str] = field(default_factory=list)
    seed: int = 0
    n: int = 0
    sizes: list[int] = field(default_factory=list)
    seeds_per_size: int = 0
    degrees: list[int] = field(default_factory=list)
    epsilon: float = 0.0
    ell_max: int = 0
    tol: float | None = None
    nu_gaps: bool = False
    out_dir: str = "."
    fmt: str = "json"
    workers: int = 1


def _flags_obj(cfg: RunConfig) -> dict:
    obj = {"command": cfg.command, "seed": cfg.seed, "format": cfg.fmt}
    if cfg.kernel_path:
        obj["kernel"] = os.path.basename(cfg.kernel_path)
    if cfg.pair_path:
        obj["pair"] = os.path.basename(cfg.pair_path)
    if cfg.member_paths:
        obj["members"] = [os.path.basename(p) for p in cfg.member_paths]
    if cfg.n:
        obj["n"] = cfg.n
    if cfg.sizes:
        obj["sizes"] = cfg.sizes
    if cfg.seeds_per_size:
        obj["seeds_per_size"] = cfg.seeds_per_size
    if cfg.degrees:
        obj["degrees"] = cfg.degrees
    if cfg.epsilon:
        obj["epsilon"] = cfg.epsilon
    if cfg.ell_max:
        obj["ell_max"] = cfg.ell_max
    if cfg.tol is not None:
        obj["tol"] = cfg.tol
    if cfg.nu_gaps:
        obj["nu_gaps"] = True
    return obj


def _write_atomic(path: Path, text: str | Iterable[str]) -> None:
    """Write text, or its pieces in order, to a temp file and rename it to path."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _dump_json(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _csv_with_header(cfg: RunConfig, body: str) -> str:
    head = "".join(f"# {k}={v}\n" for k, v in sorted(_flags_obj(cfg).items()))
    return head + body


def _load_json_file(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _load_kernel(cfg: RunConfig, require_digraphon: bool = False):
    if not cfg.kernel_path:
        raise ValueError("--kernel is required for this command")
    kernel = kernel_from_json(_load_json_file(cfg.kernel_path))
    if require_digraphon and not isinstance(kernel, StepDigraphon):
        raise ValueError('this command requires a kernel JSON with "type": "digraphon"')
    return kernel


def _out_name(cfg: RunConfig, stem: str, ext: str, seeded: bool) -> Path:
    name = f"{stem}_seed{cfg.seed}.{ext}" if seeded else f"{stem}.{ext}"
    return Path(cfg.out_dir) / name


def _run_spectrum(cfg: RunConfig) -> None:
    kernel = _load_kernel(cfg)
    spec = step_spectrum(kernel, tol=cfg.tol)
    if cfg.fmt == "csv":
        _write_atomic(_out_name(cfg, "spectrum", "csv", False),
                      _csv_with_header(cfg, spectrum_to_csv(spec)))
    else:
        obj = {
            "config": _flags_obj(cfg),
            "points": [{"re": v.real, "im": v.imag, "mult": m} for v, m in spec.points],
            "includes_zero_spectral_point": spec.includes_zero_spectral_point,
        }
        _write_atomic(_out_name(cfg, "spectrum", "json", False), _dump_json(obj))


def _run_cutnorm(cfg: RunConfig) -> None:
    kernel = _load_kernel(cfg)
    witness = cut_norm_witness(kernel)
    if cfg.fmt == "csv":
        body = "value,row_blocks,col_blocks\n"
        body += (f"{witness.value:.17g},"
                 f"\"{' '.join(map(str, witness.row_blocks))}\","
                 f"\"{' '.join(map(str, witness.col_blocks))}\"\n")
        _write_atomic(_out_name(cfg, "cutnorm", "csv", False), _csv_with_header(cfg, body))
    else:
        obj = {
            "config": _flags_obj(cfg),
            "value": witness.value,
            "row_blocks": list(witness.row_blocks),
            "col_blocks": list(witness.col_blocks),
        }
        _write_atomic(_out_name(cfg, "cutnorm", "json", False), _dump_json(obj))


def _run_trace_check(cfg: RunConfig) -> None:
    kernel = _load_kernel(cfg)
    reports = verify_trace_formula(kernel, cfg.ell_max)
    if cfg.fmt == "csv":
        _write_atomic(_out_name(cfg, "trace_check", "csv", False),
                      _csv_with_header(cfg, trace_checks_to_csv(reports)))
    else:
        obj = {
            "config": _flags_obj(cfg),
            "checks": [
                {"ell": r.ell, "lhs": r.lhs, "rhs": r.rhs, "abs_error": r.abs_error}
                for r in reports
            ],
        }
        _write_atomic(_out_name(cfg, "trace_check", "json", False), _dump_json(obj))


def _run_sample(cfg: RunConfig) -> None:
    if cfg.n < 1:
        raise ValueError("--n must be positive")
    if bool(cfg.kernel_path) == bool(cfg.pair_path):
        raise ValueError("sample requires exactly one of --kernel or --pair")
    if cfg.pair_path:
        pair = pair_from_json(_load_json_file(cfg.pair_path))
        g = sample_bidirected_random(pair, cfg.n, cfg.seed)
    else:
        g = sample_w_random(_load_kernel(cfg, require_digraphon=True), cfg.n, cfg.seed)
    if cfg.fmt == "csv":
        text = chain([_csv_with_header(cfg, "")], digraph_edgelist_text(g))
        _write_atomic(_out_name(cfg, "sample", "txt", True), text)
    else:
        text = digraph_json_text(g, {"config": _flags_obj(cfg)})
        _write_atomic(_out_name(cfg, "sample", "json", True), text)


def _run_converge(cfg: RunConfig) -> None:
    kernel = _load_kernel(cfg, require_digraphon=True)
    report = convergence_experiment(
        kernel,
        cfg.sizes,
        cfg.seeds_per_size,
        cfg.epsilon,
        cfg.seed,
        nu_gaps=cfg.nu_gaps,
        workers=cfg.workers,
    )
    if cfg.fmt == "csv":
        _write_atomic(_out_name(cfg, "converge", "csv", True),
                      _csv_with_header(cfg, convergence_report_to_csv(report)))
    else:
        obj = {"config": _flags_obj(cfg), **convergence_report_to_json(report)}
        _write_atomic(_out_name(cfg, "converge", "json", True), _dump_json(obj))


def _run_step_converge(cfg: RunConfig) -> None:
    limit = _load_kernel(cfg)
    if not cfg.member_paths:
        raise ValueError("--members requires at least one kernel file")
    members = [kernel_from_json(_load_json_file(p)) for p in cfg.member_paths]
    report = step_sequence_convergence(members, limit, cfg.epsilon)
    if cfg.fmt == "csv":
        _write_atomic(_out_name(cfg, "step_converge", "csv", False),
                      _csv_with_header(cfg, convergence_report_to_csv(report)))
    else:
        obj = {"config": _flags_obj(cfg), **convergence_report_to_json(report)}
        _write_atomic(_out_name(cfg, "step_converge", "json", False), _dump_json(obj))


def _run_double_cover(cfg: RunConfig) -> None:
    report = double_cover_example(cfg.degrees, cfg.seed, spectral_tol=cfg.tol)
    if cfg.fmt == "csv":
        _write_atomic(_out_name(cfg, "double_cover", "csv", True),
                      _csv_with_header(cfg, double_cover_report_to_csv(report)))
    else:
        obj = {"config": _flags_obj(cfg), **double_cover_report_to_json(report)}
        _write_atomic(_out_name(cfg, "double_cover", "json", True), _dump_json(obj))


_RUNNERS = {
    "spectrum": _run_spectrum,
    "cutnorm": _run_cutnorm,
    "trace-check": _run_trace_check,
    "sample": _run_sample,
    "converge": _run_converge,
    "step-converge": _run_step_converge,
    "double-cover": _run_double_cover,
}


def run(cfg: RunConfig) -> int:
    """Execute one command; map exceptions to documented exit codes."""
    try:
        _RUNNERS[cfg.command](cfg)
        return _EXIT_OK
    except (BudgetError, GenerationError) as exc:
        _emit_error(exc)
        return _EXIT_BUDGET
    except NumericalError as exc:
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

    def common(p: argparse.ArgumentParser, seeded: bool = False) -> None:
        p.add_argument("--out-dir", default=".", help="output directory")
        p.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")
        if seeded:
            p.add_argument("--seed", type=int, required=True, help="master seed")

    p = sub.add_parser("spectrum", help="nonzero spectrum of a step kernel")
    p.add_argument("--kernel", required=True)
    p.add_argument("--tol", type=float, default=None, help="clustering tolerance")
    common(p)

    p = sub.add_parser("cutnorm", help="exact cut norm with an optimal subset pair")
    p.add_argument("--kernel", required=True)
    common(p)

    p = sub.add_parser("trace-check", help="cycle density vs eigenvalue power sums")
    p.add_argument("--kernel", required=True)
    p.add_argument("--ell-max", type=int, required=True)
    common(p)

    p = sub.add_parser("sample", help="draw one random digraph from a kernel or pair")
    p.add_argument("--kernel")
    p.add_argument("--pair")
    p.add_argument("--n", type=int, required=True)
    common(p, seeded=True)

    p = sub.add_parser("converge", help="sampled spectral-convergence experiment")
    p.add_argument("--kernel", required=True)
    p.add_argument("--sizes", type=_int_list, required=True, help="e.g. 50,100,200")
    p.add_argument("--seeds-per-size", type=int, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--nu-gaps", action="store_true")
    common(p, seeded=True)

    p = sub.add_parser("step-converge", help="deterministic kernel-sequence convergence")
    p.add_argument("--kernel", required=True, help="limit kernel")
    p.add_argument("--members", nargs="+", required=True, help="sequence kernel files")
    p.add_argument("--epsilon", type=float, required=True)
    common(p)

    p = sub.add_parser("double-cover", help="double covers of random regular graphs")
    p.add_argument("--degrees", type=_int_list, required=True, help="e.g. 20,50,100")
    p.add_argument("--tol", type=float, default=None, help="spectral identity tolerance")
    common(p, seeded=True)

    return parser


def _workers_from_env() -> int:
    """Pool size from DIGRAPHON_THREADS: unset means 1, 0 means one per CPU."""
    raw = os.environ.get("DIGRAPHON_THREADS", "1") or "1"
    if not raw.strip().isdecimal():
        raise ValueError(f"DIGRAPHON_THREADS must be a non-negative integer, got {raw!r}")
    return int(raw) or os.cpu_count() or 1


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        workers = _workers_from_env()
    except (argparse.ArgumentError, ValueError) as exc:
        _emit_error(exc)
        return _EXIT_VALIDATION
    cfg = RunConfig(
        command=args.command,
        kernel_path=getattr(args, "kernel", None),
        pair_path=getattr(args, "pair", None),
        member_paths=list(getattr(args, "members", []) or []),
        seed=getattr(args, "seed", 0),
        n=getattr(args, "n", 0),
        sizes=list(getattr(args, "sizes", []) or []),
        seeds_per_size=getattr(args, "seeds_per_size", 0),
        degrees=list(getattr(args, "degrees", []) or []),
        epsilon=getattr(args, "epsilon", 0.0),
        ell_max=getattr(args, "ell_max", 0),
        tol=getattr(args, "tol", None),
        nu_gaps=bool(getattr(args, "nu_gaps", False)),
        out_dir=args.out_dir,
        fmt=args.fmt,
        workers=workers,
    )
    return run(cfg)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
