"""longtail-lab benchmark: times `compare` end to end, or layer by layer.

    python3 perfbench/run.py --workload desk|wide|embed --seed N --seconds S --trace 0|1

It works from the root of the source checkout it sits in (the parent of
perfbench/) and imports the program from ./src there.
With --trace 0 it prints the end-to-end metrics, with --trace 1 the per-layer
metrics of a traced run.  The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
Details of the run (every operation, the report digest, the checks) go to
perfbench/_work/<workload>-seed<N>-trace<T>/result.json, and a traced run
writes its spans next to it as spans.csv.gz.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import probes
from spans import Tracer, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Relative to ROOT, so the embedding path in embed's config, and with it the
# config digest in every report, does not depend on where the checkout lives.
WORK = Path("perfbench") / "_work"

# One BLAS thread keeps timings steady; the desk check below re-runs a compare
# at two threads and expects the same bytes.
BLAS_THREADS = 1
CHECK_BLAS_THREADS = 2
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Set up at least SETUP_MIN times, and more while the total stays under
# SETUP_BUDGET_S: a cheap set-up (an import) is noisy and gets more samples.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 9, 2.0
CHILD_TIMEOUT_S = 150


def _pin_blas(threads: int, env=os.environ) -> None:
    for var in BLAS_ENV:
        env[var] = str(threads)


def _import_program() -> None:
    """Put ./src first on the path and make sure longtail_lab comes from it."""
    if not (SRC / "longtail_lab" / "__init__.py").is_file():
        raise SystemExit(f"error: no longtail_lab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import longtail_lab

    if Path(longtail_lab.__file__).resolve().parent != SRC / "longtail_lab":
        raise SystemExit(f"error: longtail_lab imported from {longtail_lab.__file__}, "
                         f"not from {SRC}")


def setup_child(workload: str, seed: int, inputs: Path) -> None:
    """Entry point of one timed set-up: import, config build, input files."""
    started = time.perf_counter()
    _import_program()
    import workloads

    workloads.setup(workload, seed, inputs)
    print(json.dumps({"setup_s": time.perf_counter() - started}))


def timed_setups(workload: str, seed: int, inputs: Path) -> list[float]:
    """Set up several times, each in a fresh interpreter."""
    times: list[float] = []
    while len(times) < SETUP_MIN or (len(times) < SETUP_MAX and sum(times) < SETUP_BUDGET_S):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-into", str(inputs)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed ({proc.returncode}): {proc.stderr.strip()}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


class WarningLog:
    """Collects the program's log records instead of printing them."""

    def __init__(self):
        import logging

        self.messages: list[str] = []
        handler = logging.Handler(level=logging.WARNING)
        handler.emit = lambda record: self.messages.append(record.getMessage())
        logging.getLogger("longtail_lab").addHandler(handler)


def run_ops(wl, tracer: Tracer, probe_set: tuple, run_dir: Path, budget_s: float,
            min_ops: int) -> list[dict]:
    """Run operations until the next one would end after ``budget_s``.

    Each operation runs in a fresh output directory under a root span, so the
    spans it causes share that root.  Checks run outside the timed part.
    """
    restore = probes.install(tracer, probe_set)
    ops: list[dict] = []
    started = time.perf_counter()
    try:
        while True:
            elapsed = time.perf_counter() - started
            if len(ops) >= min_ops and (
                    elapsed + statistics.median(op["seconds"] for op in ops) > budget_s):
                break
            out = run_dir / f"op{len(ops)}"
            gc.collect()  # a user's compare starts without the last one's garbage
            sid = tracer.begin("bench.op")
            t0 = time.perf_counter()
            try:
                result = wl.run(out)
            except Exception as exc:  # a raised exception fails the operation
                result = None
                error = f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - t0
            tracer.end(sid)
            if result is not None:
                try:
                    wl.check(result)
                except Exception as exc:
                    result.error = f"check raised {type(exc).__name__}: {exc}"
                error = result.error
            ops.append({"root": sid, "seconds": seconds, "error": error,
                        "digest": None if result is None else result.digest,
                        "dir": out})
    finally:
        restore()
    return ops


def settle_ops(ops: list[dict]) -> str | None:
    """Fail every operation whose reports differ from the reference digest
    (the first good operation's); returns the reference digest."""
    reference = None
    for op in ops:
        if op["error"] is None:
            if reference is None:
                reference = op["digest"]
            elif op["digest"] != reference:
                op["error"] = f"report digest {op['digest']} != {reference}"
    return reference


def blas_check(config_path: Path, out: Path, reference: str) -> str | None:
    """A desk compare through the console entry point at two BLAS threads
    must write the same report bytes; returns a problem, or None."""
    import workloads

    env = dict(os.environ)
    _pin_blas(CHECK_BLAS_THREADS, env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "longtail_lab.cli", "compare", "--config", str(config_path),
         "--output-dir", str(out)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT, env=env)
    if proc.returncode != 0:
        return f"compare at {CHECK_BLAS_THREADS} BLAS threads failed: {proc.stderr.strip()}"
    digest = workloads.report_digest(out)
    if digest != reference:
        return f"reports at {CHECK_BLAS_THREADS} BLAS threads differ: {digest} != {reference}"
    return None


def quality(run_dir: Path) -> tuple[dict, list[str]]:
    """Tail accuracy and macro-F1 averaged over the methods, and the problems
    the report checks find."""
    import workloads

    reports = workloads.load_reports(run_dir)
    csv = (run_dir / "reports" / "comparison.csv").read_text(encoding="utf-8")
    problems = workloads.check_reports(reports, csv)
    values = {
        "tail_acc_mean": statistics.fmean(workloads.tail_accuracy(r) for r in reports.values()),
        "macro_f1_mean": statistics.fmean(r["macro_f1"] for r in reports.values()),
    }
    return values, problems


def write_details(run_dir: Path, details: dict) -> None:
    (run_dir / "result.json").write_text(json.dumps(details, indent=2) + "\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("desk", "wide", "embed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-into", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _pin_blas(BLAS_THREADS)
    os.chdir(ROOT)
    if args.setup_into is not None:
        setup_child(args.workload, args.seed, args.setup_into)
        return 0

    _import_program()
    run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    # The inputs' path is part of embed's config, so it must not depend on --trace.
    inputs = WORK / "inputs" / f"{args.workload}-seed{args.seed}"
    for fresh in (run_dir, inputs):
        shutil.rmtree(fresh, ignore_errors=True)
        fresh.mkdir(parents=True)
    try:
        return measure(args, run_dir, inputs)
    finally:
        shutil.rmtree(inputs)
        for leftover in run_dir.iterdir():
            if leftover.name not in ("result.json", "spans.csv.gz"):
                shutil.rmtree(leftover) if leftover.is_dir() else leftover.unlink()


def measure(args, run_dir: Path, inputs: Path) -> int:
    import resource

    import numpy as np

    import workloads

    details: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                     "seconds": args.seconds, "blas_threads": os.environ[BLAS_ENV[0]],
                     "cpu_count": os.cpu_count(), "python": sys.version.split()[0],
                     "numpy": np.__version__}
    warnings = WarningLog()
    tracer = Tracer()
    origin = time.perf_counter()

    if args.trace:
        setup_root = tracer.begin("bench.setup")
        restore = probes.install(tracer, probes.LAYER_PROBES)
        try:
            workloads.setup(args.workload, args.seed, inputs)
        finally:
            restore()
            tracer.end(setup_root)
    else:
        details["setup_s"] = timed_setups(args.workload, args.seed, inputs)
    wl = workloads.Workload(args.workload, inputs)

    if args.trace:
        half = args.seconds / 2
        plain = run_ops(wl, Tracer(), probes.TRAIN_PROBES, run_dir, half, 1)
        ops = run_ops(wl, tracer, probes.LAYER_PROBES, run_dir, half, 1)
        all_ops = plain + ops
    else:
        plain = []
        ops = all_ops = run_ops(wl, tracer, probes.TRAIN_PROBES, run_dir, args.seconds, 2)
    reference = settle_ops(all_ops)
    details["report_digest"] = reference
    good = [op for op in ops if op["error"] is None]
    plain_times = [op["seconds"] for op in plain if op["error"] is None]
    details["operations"] = [{k: v for k, v in op.items() if k not in ("root", "dir")}
                             for op in all_ops]
    totals = probes.totals_by_root(tracer)
    for op, entry in zip(ops, details["operations"][len(plain):]):
        entry["train_s"] = probes.train_time(totals[op["root"]])
        entry["rows_drawn"] = probes.rows_drawn(totals[op["root"]])
    if not good or (args.trace and not plain_times):
        write_details(run_dir, details)
        errors = sorted({op["error"] for op in all_ops if op["error"]})
        print(f"error: no operation to measure succeeded: {errors}", file=sys.stderr)
        return 1

    reference_dir = next(op["dir"] for op in all_ops if op["digest"] == reference)
    values, problems = quality(reference_dir)
    attempted, failed = len(all_ops), sum(op["error"] is not None for op in all_ops)
    if args.workload == "desk":
        attempted += 1
        problem = blas_check(wl.config_path, run_dir / "blas_check", reference)
        details["blas_check"] = problem or "reports identical at 1 and 2 BLAS threads"
        if problem:
            failed += 1
            problems.append(problem)
    for op in all_ops:
        if op["dir"] != reference_dir:
            shutil.rmtree(op["dir"], ignore_errors=True)

    compare_times = [op["seconds"] for op in good]
    if args.trace:
        extra = totals.get(setup_root, probes.Totals())
        per_op = [totals[op["root"]].add(extra) for op in good]
        metrics = {name: (statistics.median(fn(t) for t in per_op), unit)
                   for name, unit, fn in probes.PER_LAYER}
        metrics["trace.overhead_s"] = (
            statistics.median(compare_times) - statistics.median(plain_times), "s")
        metrics["trace.spans"] = (statistics.median(t.spans for t in per_op), "count")
        details["untraced_compare_s"] = summarize(plain_times)
        details["traced_compare_s"] = summarize(compare_times)
        tracer.write_csv(str(run_dir / "spans.csv.gz"), origin)
    else:
        per_op = [totals[op["root"]] for op in good]
        metrics = {
            "compare_s": (statistics.median(compare_times), "s"),
            "train_rows_per_s": (statistics.median(
                probes.rows_drawn(t) / probes.train_time(t) for t in per_op), "rows/s"),
            "setup_s": (statistics.median(details["setup_s"]), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            **{k: (v, "fraction") for k, v in values.items()},
        }
        details["compare_s"] = summarize(compare_times)
    details["quality"] = values
    details["problems"] = problems
    details["warnings"] = sorted(set(warnings.messages))
    write_details(run_dir, details)

    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:>16.6g} {unit}")
    print(f"operations {attempted}, failed {failed}, reports {reference[:16]}, "
          f"problems {len(problems)}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
