"""One workload process: import digraphon, write the inputs, run the commands in order.

    python3 bench/child.py PLAN_JSON MODE

MODE is ``plain`` (timed), ``setup`` (set-up only, no command runs),
``trace`` (spans around every public layer function) or ``tracemalloc``
(peak bytes per n^2 of the sampler and the normalized spectrum). The
commands run one at a time through ``digraphon.cli.main``. The last stdout
line is one JSON object with the moment set-up ended, the command phase's
wall and CPU time, the peak resident memory, each command's exit code and
time, the BLAS thread count, and the spans or memory peaks of the pass.
"""
from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback


def _run(cli, argv: list[str]) -> int:
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # counted as a failed command; the workload goes on
        traceback.print_exc()
        return 1


def main() -> None:
    plan_path, mode = sys.argv[1], sys.argv[2]
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])
    import digraphon.cli as cli

    # The benchmark's own modules load only outside the set-up window of a
    # plain pass, so setup_s times digraphon and the inputs alone.
    recorder = peaks = None
    if mode == "trace":
        import spans

        recorder = spans.Recorder()
        spans.install(recorder)
    elif mode == "tracemalloc":
        import tracemalloc

        import spans

        peaks = spans.PeakMemory()
        spans.install(peaks, only=set(spans.PEAK_N))
    for path, obj in plan["inputs"].items():
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
    ready = time.monotonic()
    if mode == "setup":
        sys.stdout.write(json.dumps({"ready": ready, "codes": []}) + "\n")
        return

    if peaks is not None:
        tracemalloc.start()
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    codes, seconds = [], []
    for cmd in plan["commands"]:
        c0 = time.perf_counter()
        codes.append(_run(cli, cmd["argv"]))
        seconds.append(time.perf_counter() - c0)
    wall = time.perf_counter() - t0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    if peaks is not None:
        tracemalloc.stop()

    import record

    result = {
        "ready": ready,
        "wall_s": wall,
        "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        "peak_rss_mb": ru1.ru_maxrss / 1024.0,
        "codes": codes,
        "seconds": seconds,
        "blas_threads": record.blas_threads(),
        "spans": recorder.spans if recorder else None,
        "peaks": {name: ratio for name, (_, ratio) in peaks.peaks.items()} if peaks else None,
    }
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
