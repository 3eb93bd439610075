"""Run one benchmark workload, or all of them.

    python3 perfbench/run.py --workload referee_metro --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout: the program is imported from
`src/`. With `--trace 0` the last line of standard output is a JSON object
with the end-to-end metrics; with `--trace 1` it carries the per-layer
metrics of a traced window, which follows an untraced window of the same
length so the tracing overhead can be reported. The lines before it repeat
the metrics for people, with the sample counts, tokens per op, the error
rate, the raw CPU and wall-clock figures, and the reference routine's time
before, during and after the run.

Set-up and op times in the JSON are scaled to a reference machine. The
workloads run in one thread and wait for no I/O worth counting, so an op's
CPU time is its latency on an idle machine. On a shared machine that CPU
time still changes with what the machine's other tenants do to its caches
and cores, in spells of seconds to minutes. A fixed reference routine,
which does not touch the program, is therefore timed every
REFERENCE_EVERY_S of the window and around every set-up, and each op's and
set-up's CPU time is multiplied by REFERENCE_MS over the routine's CPU time
around it: the time the op would take on a machine where the routine takes
REFERENCE_MS. The raw CPU and wall-clock figures are printed beside them,
ungated.

The exit code is 0 when every op passed its reference check, 1 when one did
not, and 2 when the program could not be found or loaded.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench_work"  # a run's working files and span files
# The timed window runs in CHUNKS chunks; before each, SETUPS_PER_CHUNK
# set-ups are timed, so set-up time is sampled across the window rather
# than at one moment.
CHUNKS = 5
SETUPS_PER_CHUNK = 5
# The reference routine parses this document, builds tuples and dicts from
# it and encodes it again with indentation (the pure-Python encoder): the
# kinds of work the program's ops do.
REFERENCE_DOCUMENT = json.dumps({
    f"sector_{i:04d}": {
        "load": i * 0.37 % 100,
        "users": i * 7919 % 50000,
        "bands": {"mid": i % 5 * 20, "low": i % 6 * 10},
        "latency": [i % 13 * 1.5, i % 7 * 2.5],
    }
    for i in range(400)
})
# The routine's CPU time on the reference machine. On a shared 2-vCPU
# x86_64 VM with Python 3.11.7 it mostly took 3.5-7 ms, so scaled figures
# are of the order of that machine's.
REFERENCE_MS = 5.0
REFERENCE_EVERY_S = 0.25
RUN_SECONDS = 25.0  # run_seconds in BENCHMARK.json; the tail percentiles assume it
WORKLOAD_NAMES = ("referee_metro", "referee_exhaustive", "agent_replay", "suite_replay")


def load_program():
    """Import sliceweaver from the checkout's `src/`, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "sliceweaver" / "__init__.py").is_file():
        fatal(f"no sliceweaver sources under {src}")
    sys.path.insert(0, str(src))
    try:
        sw = importlib.import_module("sliceweaver")
        for module in ("cli", "data"):
            importlib.import_module(f"sliceweaver.{module}")
    except ImportError as exc:
        fatal(f"cannot import sliceweaver from {src}: {exc}")
    if Path(sw.__file__).resolve().parent != src / "sliceweaver":
        fatal(f"imported sliceweaver from {sw.__file__}, not from {src}")
    return sw


def fatal(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def reference_ms() -> float:
    """CPU milliseconds of one run of the reference routine. The collector
    is off while it runs, so the size of the program's heap does not count."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = process_time()
        document = json.loads(REFERENCE_DOCUMENT)
        rows = [(key, value["load"], value["users"], tuple(value["bands"].items()))
                for key, value in document.items()]
        json.dumps({key: {"load": load, "users": users, "bands": dict(bands)}
                    for key, load, users, bands in rows}, indent=2)
        return (process_time() - start) * 1e3
    finally:
        if enabled:
            gc.enable()


def scale(cpu: float, before_ms: float, after_ms: float) -> float:
    """`cpu` as on the reference machine, from the routine's times around it."""
    return cpu * REFERENCE_MS * 2 / (before_ms + after_ms)


def timed_setup(workload) -> tuple[float, float]:
    """CPU seconds of one set-up, raw and scaled."""
    gc.collect()
    before = reference_ms()
    start = process_time()
    workload.setup()
    cpu = process_time() - start
    return cpu, scale(cpu, before, reference_ms())


def measure(workload, seconds: float, first_op: int, tracer=None) -> dict:
    """Run ops back to back for `seconds` of wall time, each checked untimed,
    with the reference routine run between ops every REFERENCE_EVERY_S."""
    latencies: list[float] = []
    cpu: list[float] = []
    scaled: list[float] = []
    references = [reference_ms()]
    segment: list[float] = []  # CPU times of the ops since the last reference run
    failed = 0
    i = first_op
    start = perf_counter()
    reference_wall = 0.0
    next_reference = start + REFERENCE_EVERY_S
    while True:
        if tracer is not None:
            tracer.op = i
        latency, latency_cpu, passed, _ = workload.attempt(i)
        latencies.append(latency)
        segment.append(latency_cpu)
        failed += not passed
        i += 1
        now = perf_counter()
        done = now - start >= seconds
        if done or now >= next_reference:
            references.append(reference_ms())
            scaled += [scale(t, references[-2], references[-1]) for t in segment]
            cpu += segment
            segment = []
            next_reference = perf_counter()
            reference_wall += next_reference - now
            next_reference += REFERENCE_EVERY_S
        if done:
            break
    if tracer is not None:
        tracer.op = None
    return {"latencies": latencies, "cpu": cpu, "scaled": scaled, "references": references,
            "wall": perf_counter() - start - reference_wall, "failed": failed}


def chunked_window(workload, seconds: float, first_op: int, setups: list[tuple]) -> dict:
    """`seconds` of ops in CHUNKS chunks, with set-ups timed before each
    chunk and left out of the window's wall time."""
    window = {"latencies": [], "cpu": [], "scaled": [], "references": [], "wall": 0.0,
              "failed": 0}
    for _ in range(CHUNKS):
        setups.extend(timed_setup(workload) for _ in range(SETUPS_PER_CHUNK))
        chunk = measure(workload, seconds / CHUNKS, first_op + len(window["latencies"]))
        for key in window:
            window[key] += chunk[key]
    return window


def reference_median() -> float:
    return statistics.median(reference_ms() for _ in range(15))


def tail(latencies: list[float], percentile: int) -> tuple[float, int]:
    """The latency at `percentile` and the number of samples above it."""
    value = statistics.quantiles(latencies, n=100, method="inclusive")[percentile - 1]
    return value, sum(x > value for x in latencies)


def run_workload(args) -> int:
    sw = load_program()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from spans import Tracer, per_layer
    from workloads import WORKLOADS

    WORK_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](sw, args.seed, WORK_DIR)
    reference_before = reference_median()
    setups: list[tuple] = []
    try:
        workload.generate()
        generated = workload.inputs()
        workload.generate()
        if workload.inputs() != generated:
            workload.fail(f"seed {args.seed} generated different inputs twice")
        workload.setup()
        workload.prepare()
        prepared_failures = len(workload.failures)
        warm = measure(workload, 0.0, 0)
        first = len(warm["latencies"])
        window = args.seconds / 2 if args.trace else args.seconds
        run = chunked_window(workload, window, first, setups)
        traced = None
        if args.trace:
            tracer = Tracer()
            tracer.install(sw)
            try:
                workload.setup()
                traced = measure(workload, window, first + len(run["latencies"]), tracer)
            finally:
                tracer.uninstall()
    finally:
        workload.close()
    reference_after = reference_median()

    windows = [warm, run] + ([traced] if traced else [])
    attempted = sum(len(w["latencies"]) for w in windows) + prepared_failures
    failed = sum(w["failed"] for w in windows) + prepared_failures
    latencies, cpu, scaled = run["latencies"], run["cpu"], run["scaled"]
    scaled_tail, beyond = tail(scaled, workload.tail_percentile)
    end_to_end = {
        "setup_s": (statistics.median(scaled_setup for _, scaled_setup in setups), "s"),
        "ops_per_ref_s": (len(scaled) / sum(scaled), "1/s"),
        "op_ref_ms.p50": (statistics.median(scaled) * 1e3, "ms"),
        "op_ref_ms.tail": (scaled_tail * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    not_gated = {
        "setup_cpu_s": (statistics.median(raw for raw, _ in setups), "s"),
        "ops_per_cpu_s": (len(cpu) / sum(cpu), "1/s"),
        "op_cpu_ms.p50": (statistics.median(cpu) * 1e3, "ms"),
        "op_cpu_ms.tail": (tail(cpu, workload.tail_percentile)[0] * 1e3, "ms"),
        "ops_per_s": (len(latencies) / run["wall"], "1/s"),
        "op_ms.p50": (statistics.median(latencies) * 1e3, "ms"),
        "op_ms.tail": (tail(latencies, workload.tail_percentile)[0] * 1e3, "ms"),
    }
    print(f"workload {workload.name}  seed {args.seed}  {len(latencies)} timed ops "
          f"in {run['wall']:.2f} s  tail = p{workload.tail_percentile} "
          f"({beyond} samples beyond it)")
    for name, (value, unit) in end_to_end.items():
        print(f"  {name:<16} {value:12.4f} {unit}")
    for name, (value, unit) in not_gated.items():
        print(f"  {name:<16} {value:12.4f} {unit}  (not gated)")
    print(f"  {'tokens_per_op':<16} {workload.tokens_per_op:12.1f} tokens")
    print(f"  {'error_rate':<16} {failed / attempted:12.4f} ratio  ({failed} of {attempted})")
    during = run["references"]
    print(f"  reference routine CPU ms: {reference_before:.3f} before, "
          f"{statistics.median(during):.3f} during ({min(during):.3f}-{max(during):.3f}, "
          f"{len(during)} runs), {reference_after:.3f} after")
    for message in workload.failures[:5]:
        print(f"  FAILED: {message}", file=sys.stderr)

    metrics = end_to_end
    if traced:
        overhead = (len(traced["scaled"]) / sum(traced["scaled"])) / end_to_end["ops_per_ref_s"][0]
        metrics = per_layer(tracer.spans, len(traced["latencies"]), overhead)
        print(f"  traced window: {len(traced['latencies'])} ops, {len(tracer.spans)} spans")
        for name, (value, unit) in metrics.items():
            print(f"  {name:<52} {value:14.4f} {unit}")
        spans_path = WORK_DIR / f"spans-{workload.name}-seed{args.seed}.jsonl"
        tracer.write_jsonl(spans_path)
        print(f"  spans written to {spans_path.relative_to(ROOT)}")
    try:
        WORK_DIR.rmdir()  # only when no span file is left in it
    except OSError:
        pass
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    load_program()
    from workloads import WORKLOADS

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        command = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        status = max(status, done.returncode)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            summary["correct"] = False
            continue
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(summary))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
