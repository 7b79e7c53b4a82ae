"""The wall-clock benchmark: one command, four workloads, every result checked.

    python3 benchmarks/e2e/run.py --seed S [--workload W] [--trace [0|1]]
                                  [--seconds T] [--out DIR]

With ``--workload`` the named workload runs in this process and the last
line of standard output is one JSON object ``{"correct", "attempted",
"failed", "metrics"}`` — the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, its per-layer metrics with ``--trace 1``; the line before it
holds the timings as measured, the speed factor and the sample counts.
Without it every workload runs in a subprocess of its own (so
``peak_rss_mb`` is that workload's alone), untraced and then — with
``--trace`` — traced, and ``results.json`` (plus ``trace.jsonl``) lands in
``--out``.

Every metric is also printed as ``workload metric value unit``.  The exit
code is non-zero when any result differed from the numpy mirror.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Optional, Sequence

ROOT = Path(__file__).resolve().parents[2]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"run.py: no program to measure: {ROOT / 'src' / 'repro'} is missing")
sys.path.insert(0, str(ROOT / "src"))

import metrics  # noqa: E402
import numpy as np  # noqa: E402
import summary  # noqa: E402
import tracing  # noqa: E402
from calibrate import SpeedMeter, at_reference_speed  # noqa: E402
from metrics import Samples, Tallies  # noqa: E402
from ops import Op, OpGenerator  # noqa: E402
from workloads import BASE_SECONDS, WARMUP_OPS, WORKLOADS, Workload  # noqa: E402

from repro import obs  # noqa: E402
from repro.bench import salescube  # noqa: E402

#: Stores live next to this file (removed on exit), never outside the
#: benchmark's own directory.
WORK_ROOT = Path(__file__).resolve().parent / ".work"

#: Set-ups per untraced run; ``setup_s`` and ``ingest_mb_s`` are their
#: medians.  The traced run sets up once (its set-up time is not reported).
SETUPS = 3

#: obs counters bracketed around single ops (cheap attribute reads).
_CELLS_FETCHED = obs.counter("tilestore.cells_fetched")
_CELLS_RETURNED = obs.counter("tilestore.cells_returned")
_TILES_LOADED = obs.counter("tilestore.tiles_loaded")
_INDEX_ENTRIES = obs.counter("index.rplustree.entries_found")


def _obs_totals() -> dict[str, float]:
    """Every obs counter's value and every histogram's sum, by name."""
    snapshot = obs.snapshot()
    totals = dict(snapshot["counters"])
    for name, histogram in snapshot["histograms"].items():
        totals[name] = histogram["sum"]
    return totals


def _add_delta(into: dict, before: dict, after: dict) -> None:
    for name, value in after.items():
        into[name] = into.get(name, 0.0) + value - before.get(name, 0.0)


@contextmanager
def traced_window(
    recorder: tracing.Recorder, tallies: Tallies, workload: Workload
) -> Iterator[None]:
    """Record spans, and take counter deltas, for the block only."""
    obs_before = _obs_totals()
    local_before = workload.counters()
    try:
        with tracing.installed(recorder):
            yield
    finally:
        _add_delta(tallies.obs, obs_before, _obs_totals())
        _add_delta(tallies.local, local_before, workload.counters())


def run_ops(
    workload: Workload,
    ops: Sequence[Op],
    tallies: Optional[Tallies] = None,
) -> Samples:
    """One closed-loop caller: each op waits for the previous result.

    Only ``workload.execute`` is inside the stopwatch; verification
    against the mirror and the counter bookkeeping are outside it.
    """
    samples = Samples()
    clock = time.perf_counter
    cpu_clock = time.process_time
    for op in ops:
        before = (
            _CELLS_FETCHED.value,
            _CELLS_RETURNED.value,
            _TILES_LOADED.value,
            _INDEX_ENTRIES.value,
        )
        result = None
        error = None
        cpu = cpu_clock()
        start = clock()
        try:
            result = workload.execute(op)
        except Exception:  # noqa: BLE001 - a failed op is a counted outcome
            error = traceback.format_exc()
        end = clock()
        cpu = cpu_clock() - cpu
        if error is not None:
            print(f"op failed: {op.key()}\n{error}", file=sys.stderr)
            samples.add(op.kind, start, end, cpu, 0, False)
            continue
        ok = bool(workload.verify(op, result))
        if not ok:
            print(f"result differs from the mirror: {op.key()}", file=sys.stderr)
        samples.add(
            op.kind, start, end, cpu, workload.result_bytes(op, result), ok
        )
        if tallies is None:
            continue
        if op.kind in metrics.READ_KINDS:
            tallies.read_cells_fetched += _CELLS_FETCHED.value - before[0]
            tallies.read_cells_returned += _CELLS_RETURNED.value - before[1]
            tallies.read_tiles += _TILES_LOADED.value - before[2]
        elif op.kind == "groupby":
            tallies.groupby_groups += result.value.size
            tallies.groupby_index_entries += _INDEX_ENTRIES.value - before[3]
        elif op.kind in metrics.WRITE_KINDS:
            tallies.wal_user_bytes += op.values.nbytes
    return samples


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    traced: bool,
    out_dir: Optional[Path] = None,
    setups: int = SETUPS,
) -> dict:
    """Run one workload in this process; returns the contract's result
    object plus everything else that was measured (``all``, ``samples``)."""
    cube = salescube.generate_sales_data()
    workload = WORKLOADS[name](cube)
    generator = OpGenerator(seed, cube)
    count = workload.op_count(seconds)
    warmup = workload.warmup(generator, min(WARMUP_OPS, count))
    ops = workload.generate(generator, count)
    # The traced run repeats the untraced run, then times half as many ops
    # of the same mix with spans recorded.
    traced_ops = workload.generate(generator, count // 2) if traced else []
    recorder = tracing.Recorder()
    tallies = Tallies(wal_user_bytes=workload.setup_wal_bytes)
    if traced:
        setups = 1

    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT))
    setup_seconds = []
    ingest_mb_s = []
    try:
        for attempt in range(setups):
            directory = work / f"setup{attempt}"
            meter = SpeedMeter()
            meter.sample(15)
            cpu = time.process_time()
            started = time.perf_counter()
            if traced:
                with traced_window(recorder, tallies, workload):
                    ingest = workload.setup(directory)
            else:
                ingest = workload.setup(directory)
            workload.prewarm()
            elapsed = time.perf_counter() - started
            cpu = time.process_time() - cpu
            meter.sample(15)
            # One set-up is too short to sample inside: the kernel runs
            # just before and just after it.
            setup_seconds.append(
                (elapsed, at_reference_speed(elapsed, cpu, meter.speed()))
            )
            ingest_mb = workload.ingest_cubes * cube.nbytes / 1e6
            ingest_mb_s.append(
                (ingest_mb / ingest[0],
                 ingest_mb / at_reference_speed(*ingest, meter.speed()))
            )
            if attempt < setups - 1:
                workload.close()
                shutil.rmtree(directory, ignore_errors=True)
        try:
            run_ops(workload, warmup)
            untraced = measured = run_ops(workload, ops)
            if traced:
                with traced_window(recorder, tallies, workload):
                    measured = run_ops(workload, traced_ops, tallies)
                    facts = workload.finish(directory)
            else:
                facts = workload.finish(directory)
        finally:
            workload.close()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still has its stores there

    for violation in workload.violations:
        print(f"invariant violated: {violation}", file=sys.stderr)
    # ``raw`` is as measured; ``values`` has the timings of ops and set-up
    # at reference speed (see calibrate.py).
    raw = metrics.op_class_metrics(untraced)
    values = metrics.op_class_metrics(untraced.at_reference_speed())
    facts = {"reopen_s": 0.0, "stored_bytes_per_user_byte": 0.0, **facts}
    raw.update(facts)
    values.update(facts)
    for position, target in enumerate((raw, values)):
        target["setup_s"] = statistics.median(s[position] for s in setup_seconds)
        target["ingest_mb_s"] = statistics.median(
            r[position] for r in ingest_mb_s
        )
    values["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    spec = summary.load_spec()
    in_ops: dict[str, float] = {}
    if traced:
        spans = recorder.spans
        values.update(metrics.layer_metrics(spans, measured, untraced, tallies))
        listed = spec["per_layer"]
        owners = tracing.assign_ops(spans, measured.intervals)
        in_ops = metrics.layer_metrics(
            [span for span, op in zip(spans, owners) if op is not None],
            measured, untraced, tallies,
        )
        if out_dir is not None:
            with open(out_dir / "trace.jsonl", "a") as sink:
                for record in tracing.jsonl_records(recorder.spans, owners):
                    record["workload"] = name
                    sink.write(json.dumps(record) + "\n")
    else:
        listed = spec["end_to_end"]
    attempted = untraced.attempted + (measured.attempted if traced else 0)
    failed = untraced.failed + (measured.failed if traced else 0)
    return {
        "correct": failed == 0 and not workload.violations,
        "attempted": attempted,
        "failed": failed + len(workload.violations),
        "metrics": metrics.select(values, listed),
        "all": values,
        "raw": raw,
        "speed_factor": untraced.meter.speed()[0],
        "samples": metrics.sample_counts(untraced),
        "in_ops": in_ops,
        "ops": measured.attempted,
    }


def print_metrics(name: str, result: dict, spec: dict) -> None:
    """``workload metric value unit`` for everything measured; latency
    percentiles carry their sample count, layer times the part of them
    spent inside timed ops (the rest is set-up and recovery), per op;
    a metric scaled to reference speed shows the measured value too."""
    units = {
        entry["name"]: entry["unit"]
        for entry in spec["end_to_end"] + spec["per_layer"]
    }
    samples = result["samples"]
    print(f"{name} speed_factor {result['speed_factor']:.4f} ratio")
    for metric, value in sorted(result["all"].items()):
        unit = units.get(metric, "")
        note = ""
        klass, _, statistic = metric.partition("_")
        if klass in samples and statistic.startswith("p"):
            if not samples[klass]:
                continue  # this workload has no op of that class
            if not value:
                print(
                    f"{name} {metric} not reported: n={samples[klass]}, fewer "
                    f"than {metrics.SAMPLES_BEYOND} samples beyond the percentile"
                )
                continue
            note = f"  n={samples[klass]}"
        elif not value and "." not in metric and metric != "error_rate":
            continue  # an end-to-end metric this workload does not have
        elif metric.endswith("_ms") and "p99" not in metric and metric in result["in_ops"]:
            note = f"  (in ops: {result['in_ops'][metric] / result['ops']:.4f} ms/op)"
        if metric in result["raw"] and result["raw"][metric] != value:
            note += f"  (as measured: {result['raw'][metric]:.6g})"
        print(f"{name} {metric} {value:.6g} {unit}{note}")


def environment() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own subprocess; results.json in ``--out``."""
    out_dir = Path(args.out or tempfile.mkdtemp(prefix="bench_e2e_"))
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "trace.jsonl").unlink(missing_ok=True)  # children append
    results = {
        "seed": args.seed,
        "seconds": args.seconds,
        "environment": environment(),
        "workloads": {},
    }
    exit_code = 0
    for name in WORKLOADS:
        entry: dict = {}
        for traced in (0, 1) if args.trace else (0,):
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(traced), "--out", str(out_dir),
            ]
            child = subprocess.run(
                command, stdout=subprocess.PIPE, text=True, check=False
            )
            lines = child.stdout.splitlines()
            print("\n".join(lines[:-2]), flush=True)
            if child.returncode != 0:
                exit_code = 1
            if not lines or not lines[-1].startswith("{"):
                print(f"{name}: no result (exit {child.returncode})", file=sys.stderr)
                exit_code = 1
                continue
            outcome = json.loads(lines[-1])
            entry["layers" if traced else "metrics"] = outcome.pop("metrics")
            if not traced:
                entry.update(json.loads(lines[-2]))
            entry.update({f"{key}{'_traced' if traced else ''}": value
                          for key, value in outcome.items()})
        results["workloads"][name] = entry
    (out_dir / "results.json").write_text(json.dumps(results, indent=1) + "\n")
    print(f"results: {out_dir / 'results.json'}")
    return exit_code


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=BASE_SECONDS,
        help="run length; op counts scale with it (default %(default)s)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: the traced run (per-layer metrics)",
    )
    parser.add_argument("--out", help="directory for results.json / trace.jsonl")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    out_dir = Path(args.out) if args.out else None
    result = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), out_dir
    )
    print_metrics(args.workload, result, summary.load_spec())
    # Second to last: what the contract's object has no key for.
    print(json.dumps({
        "reported": {name: result["all"][name] for name in result["raw"]},
        "as_measured": result["raw"],
        "speed_factor": result["speed_factor"],
        "samples": result["samples"],
    }))
    contract = {
        key: result[key] for key in ("correct", "attempted", "failed", "metrics")
    }
    print(json.dumps(contract))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
