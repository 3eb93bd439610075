#!/usr/bin/env python3
"""Alternating A/B runs of one perfbench workload in two checkouts.

    python3 tools/ab.py --parent ../parent --change . --workload suite_replay \
        --pairs 10 --seconds 25

Each pair runs each checkout's own `perfbench/spread.py` `run` once: that
checkout's `run.py --trace 0`, in its own process and from its own `src/`.
Even pairs run the parent first and odd pairs the change first, so a spell
of the machine does not always land on one side. Every run is printed as a
JSON line as it arrives. Then, for each end-to-end metric of
`BENCHMARK.json`, it prints each side's median (to four significant
digits) and quartile spread (as
`spread.py` computes them), how much worse the change's median is than the
parent's beside the metric's bound (`peak_rss_mb ... worse +3.0 % of 5 %`;
a negative share is a move the better way) and how many pairs the change
won (ties count for neither). A pair in which either side exited non-zero or failed its
reference check is left out of these figures, and the count left out is
printed.

A metric is marked `gain` when at least ten pairs are kept, the change won
at least nine tenths of them and its median is better than the parent's by
more than the parent's quartile spread: with fewer pairs, a spell of the
machine that favours one side can pass the nine-tenths rule alone. It is
marked `worse` when the change's median is worse than the parent's by more
than the metric's bound (`spread.worse_by`). The exit code is 1 when a run
failed or fewer than two pairs are left, else 0.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
MIN_GAIN_PAIRS = 10  # the fewest kept pairs that can show a gain


def load_spread(checkout: Path, name: str):
    """The `perfbench/spread.py` module of `checkout`."""
    spec = importlib.util.spec_from_file_location(name, checkout / "perfbench" / "spread.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spread = load_spread(ROOT, "spread")


def failed(run: dict) -> bool:
    """Whether a run exited non-zero or an op failed its reference check."""
    return run["returncode"] != 0 or not run["result"].get("correct")


def summarise(pairs: list[tuple[dict, dict]]) -> dict:
    """The figures of the (parent, change) runs of each pair: how many pairs
    were left out because a side failed, and one row per gated metric with
    each side's median and spread, how much worse the change's median is
    (`worse_by`, a share; negative is better) and the metric's `bound`, the
    pairs the change won and the `gain` and `worse` verdicts. With fewer than two pairs left there are no rows;
    with fewer than `MIN_GAIN_PAIRS` no row is a `gain`."""
    kept = [(p["result"], c["result"]) for p, c in pairs if not (failed(p) or failed(c))]
    summary = {"pairs": len(kept), "left_out": len(pairs) - len(kept), "rows": []}
    if len(kept) < 2:
        return summary
    for name, gate in spread.BOUNDS.items():
        values = {
            side: [pair[i]["metrics"][name]["value"] for pair in kept]
            for i, side in enumerate(SIDES)
        }
        row = {"metric": name, "unit": gate["unit"]}
        for side in SIDES:
            row[side] = {"median": statistics.median(values[side]),
                         "spread": spread.spread(values[side])}
        row["won"] = sum(
            spread.worse_by(name, parent, change) < 0
            for parent, change in zip(values["parent"], values["change"])
        )
        worse = row["worse_by"] = spread.worse_by(
            name, row["parent"]["median"], row["change"]["median"])
        row["bound"] = gate["bound"]
        row["gain"] = (len(kept) >= MIN_GAIN_PAIRS and row["won"] >= 0.9 * len(kept)
                       and -worse > row["parent"]["spread"])
        row["worse"] = worse > gate["bound"]
        summary["rows"].append(row)
    return summary


def significant(value: float) -> str:
    """`value` to four significant digits, without an exponent, so a set-up
    of 0.005684 s reads `0.005684` and 1205.6 ops/s `1206`."""
    if not math.isfinite(value):
        return str(value)
    exponent = int(f"{value:.3e}".partition("e")[2])  # after rounding
    return f"{value:.{max(0, 3 - exponent)}f}"


def format_summary(summary: dict) -> str:
    lines = [f"{summary['pairs']} pairs, {summary['left_out']} left out (a side failed)"]
    for row in summary["rows"]:
        sides = "  ".join(
            f"{side} {significant(row[side]['median'])} spread {row[side]['spread']:.3f}"
            for side in SIDES
        )
        verdict = "gain" if row["gain"] else "worse" if row["worse"] else "-"
        lines.append(f"{row['metric']:<16} {row['unit']:<4} {sides}  "
                     f"worse {100 * row['worse_by']:+.1f} % of {100 * row['bound']:g} %  "
                     f"won {row['won']}/{summary['pairs']}  {verdict}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="changed checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spread.BENCHMARK["run_seconds"])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    runners = {side: load_spread(getattr(args, side).resolve(), f"spread_{side}")
               for side in SIDES}
    pairs = []
    for index in range(args.pairs):
        runs = {}
        for side in SIDES if index % 2 == 0 else SIDES[::-1]:
            try:
                runs[side] = runners[side].run(args.workload, args.seed, args.seconds)
            except (ValueError, IndexError):  # it printed no result line
                runs[side] = {"returncode": None, "result": {}}
            print(json.dumps({"pair": index, "side": side, **runs[side]}), flush=True)
        pairs.append((runs["parent"], runs["change"]))
    summary = summarise(pairs)
    print(format_summary(summary))
    return 1 if summary["left_out"] or not summary["rows"] else 0


if __name__ == "__main__":
    sys.exit(main())
