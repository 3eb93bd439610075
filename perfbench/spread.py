"""Run workloads over several seeds and report how steady each metric is.

    python3 perfbench/spread.py --workloads referee_metro agent_replay \
        --seeds 1 2 3 4 5 6 7 8 9 10 --out perfbench/results/set-a.jsonl

Each run is `run.py --trace 0` in its own process, one after another. Every
run's result line, timed-op count, `tokens_per_op`, ungated figures and
reference-routine line are appended to `--out` as one JSON line. For each
workload and end-to-end metric it prints the median of the runs and their quartile spread: the
distance between the first and third quartile
(`statistics.quantiles(values, n=4)`) as a share of the median. `--compare`
also prints, per metric, how much worse this set's median is than that of
an earlier set's file. Not gated.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
BOUNDS = {m["name"]: m for m in BENCHMARK["end_to_end"]}


def run(workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1]) if lines else {}
    return {
        "workload": workload,
        "seed": seed,
        "returncode": done.returncode,
        "timed_ops": int(lines[0].split()[4]) if lines else 0,
        "tokens_per_op": next((float(ln.split()[1]) for ln in lines
                               if ln.split()[:1] == ["tokens_per_op"]), None),
        "reference": next((ln.strip() for ln in lines if "reference routine" in ln), ""),
        "not_gated": {ln.split()[0]: float(ln.split()[1]) for ln in lines
                      if ln.endswith("(not gated)")},
        "result": result,
    }


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def medians(rows: list[dict]) -> dict[tuple[str, str], list[float]]:
    values: dict[tuple[str, str], list[float]] = {}
    for row in rows:
        for name, entry in row["result"].get("metrics", {}).items():
            values.setdefault((row["workload"], name), []).append(entry["value"])
    return values


def worse_by(name: str, before: float, after: float) -> float:
    """How much worse `after` is than `before`, as a share of `before`."""
    change = (after - before) / before
    return -change if BOUNDS[name]["better"] == "higher" else change


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--compare", type=Path, help="an earlier set's --out file")
    args = parser.parse_args(argv)

    rows = []
    with args.out.open("a", encoding="utf-8") as out:
        for workload in args.workloads:
            for seed in args.seeds:
                row = run(workload, seed, args.seconds)
                rows.append(row)
                out.write(json.dumps(row) + "\n")
                out.flush()
                metrics = row["result"].get("metrics", {})
                print(f"{workload} seed {seed} rc {row['returncode']} "
                      f"ops {row['timed_ops']} "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in metrics.items())
                      + f" | {row['reference']}", flush=True)
    earlier = {}
    if args.compare:
        with args.compare.open(encoding="utf-8") as lines:
            earlier = medians([json.loads(line) for line in lines])
    failed = any(row["returncode"] != 0 for row in rows)
    for (workload, name), values in medians(rows).items():
        median = statistics.median(values)
        line = (f"{workload:<20} {name:<12} median {median:10.4f}  "
                f"spread {spread(values):.3f}  bound {BOUNDS[name]['bound']}")
        if (workload, name) in earlier:
            before = statistics.median(earlier[workload, name])
            line += f"  worse than earlier set by {worse_by(name, before, median):+.3f}"
        print(line)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
