"""Ungated scale sweep over topology size.

    python3 perfbench/sweep.py [--seed 1] [--out perfbench/results/sweep.json]

For each size (sectors x 12 UPF nodes) it records the median time of
`classify_intent` on an intent naming one sector, of `solve` on an intent
naming none, of `serialize_state`, the serialized characters, and the prompt
tokens of one specialist consultation (the ScriptedBackend's chars/4
estimate). Every classify compiles one pattern per sector id plus one per
lexicon keyword through a 512-entry cache, so the sizes 480 and 520 bracket
the point where the cache stops holding the working set.

The figures are not checked against a bound; the benchmark proper is
`run.py`.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import random
import statistics
import sys
from pathlib import Path
from time import perf_counter

from run import load_program, reference_median

import gen

SIZES = (5, 50, 480, 500, 520, 2000)
NODES = 12
PATTERN_CACHE = 512


def timed_ms(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = perf_counter()
        fn()
        times.append((perf_counter() - start) * 1e3)
    return statistics.median(times)


def measure(sw, seed: int, sectors: int, lexicon, prompts) -> dict:
    topology = gen.topology(seed, sectors, NODES)
    state = sw.model.load_state(topology.document)
    rng = random.Random(f"sweep:{seed}:{sectors}")
    traffic_class = rng.choice(gen.CLASSES)
    targeted = gen.intent(rng, traffic_class, rng.choice(sorted(topology.sector_bands))).text
    untargeted = gen.intent(rng, traffic_class, None)
    profile = sw.intent.classify_intent(untargeted.text, state, lexicon)
    classify = functools.partial(sw.intent.classify_intent, targeted, state, lexicon)
    classify()
    repeats = 5 if sectors <= 520 else 3
    session = sw.gateway.ChatSession(sw.gateway.ScriptedBackend(
        [sw.gateway.ScriptedExchange(response="RECOMMENDATION: keep the current plan.")]))
    sw.agents.consult_specialist(
        "ran_specialist", "Which band fits?", state, session, prompts)
    keywords = {k.lower() for field in ("urllc", "mmtc", "bandwidth_high", "bandwidth_low")
                for k in getattr(lexicon, field)}
    return {
        "sectors": sectors,
        "nodes": NODES,
        "patterns_per_classify": sectors + len(keywords),
        "classify_ms": timed_ms(classify, repeats),
        "untargeted_candidates": len(sw.oracle.enumerate_candidates(state, profile)),
        "untargeted_solve_ms": timed_ms(lambda: sw.oracle.solve(state, profile), repeats),
        "serialize_ms": timed_ms(lambda: sw.model.serialize_state(state), repeats),
        "serialized_chars": len(sw.model.serialize_state(state)),
        "specialist_prompt_tokens": session.calls[0].prompt_tokens,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Ungated scale sweep over topology size.")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    sw = load_program()
    lexicon = sw.intent.Lexicon.from_file(sw.data.default_lexicon_path())
    prompts = sw.agents.load_prompts(sw.data.default_prompts_dir())
    before = reference_median()
    rows = []
    for sectors in SIZES:
        row = measure(sw, args.seed, sectors, lexicon, prompts)
        rows.append(row)
        print("  ".join(f"{k}={v:.2f}" if isinstance(v, float) else f"{k}={v}"
                        for k, v in row.items()), file=sys.stderr, flush=True)
    doc = {
        "seed": args.seed,
        "pattern_cache_entries": PATTERN_CACHE,
        "machine": {
            "platform": platform.platform(),
            "processor": platform.machine(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "reference_ms_before": before,
            "reference_ms_after": reference_median(),
        },
        "rows": rows,
    }
    text = json.dumps(doc, indent=2) + "\n"
    if args.out:
        args.out.write_text(text, encoding="utf-8")
    print(text, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
