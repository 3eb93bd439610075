"""The benchmark's three workloads.

Each is a closed loop with one client in one thread. A workload generates
its inputs from the seed (`generate`), turns them into program objects
(`setup`, timed as `setup_s`), computes its reference values before timing
(`prepare`), then runs ops (`op`) and checks each result (`check`).

The program is called only through its public API and always through the
module attributes (`sw.intent.classify_intent`, ...), so that a traced run
sees the benchmark's own calls too.
"""

from __future__ import annotations

import io
import json
import shutil
import tempfile
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter, process_time

import gen

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# The oracle's documented ranking order: feasible first, utility descending,
# lower latency, lower sector load, then (sector, band, node) with bands
# ordered mmwave < mid_band < low_band.
BAND_ORDER = {"mmwave": 0, "mid_band": 1, "low_band": 2}


class Workload:
    name: str
    tail_percentile: int  # op_ref_ms.tail; leaves at least ten samples beyond it in a run

    def __init__(self, sw, seed: int, work_dir: Path):
        self.sw = sw
        self.seed = seed
        self.work_dir = work_dir
        self.tokens_per_op = 0.0
        self.failures: list[str] = []

    def generate(self) -> None:
        raise NotImplementedError

    def inputs(self) -> tuple:
        """Every document and text generated for the program."""
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        """Reference values and a checked warm-up, before any timing."""

    def op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, result) -> bool:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def fail(self, message: str) -> bool:
        self.failures.append(message)
        return False

    def attempt(self, i: int) -> tuple[float, float, bool, object]:
        """Run op `i` and check it untimed:
        (wall latency in s, CPU latency in s, passed, result).
        An op that raises, or whose result cannot be checked, fails."""
        start, start_cpu = perf_counter(), process_time()
        try:
            result = self.op(i)
        except Exception as exc:
            cpu, wall = process_time() - start_cpu, perf_counter() - start
            return wall, cpu, self.fail(f"op {i} raised {type(exc).__name__}: {exc}"), None
        cpu, wall = process_time() - start_cpu, perf_counter() - start
        try:
            passed = self.check(i, result)
        except Exception as exc:
            passed = self.fail(f"op {i}: checking its result raised {type(exc).__name__}: {exc}")
        return wall, cpu, passed, result

    def profile_mismatch(self, profile, meant: gen.Intent) -> str | None:
        got = (profile.traffic_class.value, profile.bandwidth_category.value,
               profile.tau_req_ms, profile.target_sector)
        want = (meant.traffic_class, meant.bandwidth, meant.tau_ms, meant.target)
        return None if got == want else f"profile {got} != {want} for {meant.text!r}"

    def meant_profile(self, meant: gen.Intent):
        intent = self.sw.intent
        return intent.IntentProfile(
            raw_text=meant.text,
            traffic_class=intent.TrafficClass(meant.traffic_class),
            bandwidth_category=intent.BandwidthCategory(meant.bandwidth),
            tau_req_ms=meant.tau_ms,
            target_sector=meant.target,
        )


class RefereeMetro(Workload):
    """classify_intent then solve()[0] on a 640-sector x 12-node topology;
    every intent names a sector."""

    name = "referee_metro"
    tail_percentile = 85
    sectors, nodes, targeted = 640, 12, True

    def generate(self) -> None:
        self.topology = gen.topology(self.seed, self.sectors, self.nodes)
        self.intents = gen.referee_intents(self.seed, self.topology, self.targeted)

    def inputs(self) -> tuple:
        return self.topology.document, [meant.text for meant in self.intents]

    def setup(self) -> None:
        sw = self.sw
        self.state = sw.model.load_state(self.topology.document)
        self.lexicon = sw.intent.Lexicon.from_file(sw.data.default_lexicon_path())

    def prepare(self) -> None:
        heads: dict[tuple, tuple] = {}
        self.expected = []
        for meant in self.intents:
            key = (meant.traffic_class, meant.bandwidth, meant.tau_ms, meant.target)
            if key not in heads:
                heads[key] = self.reference_head(meant)
            self.expected.append(heads[key])

    def reference_head(self, meant: gen.Intent) -> tuple:
        """The head of the documented ranking, scored candidate by candidate."""
        sw, state = self.sw, self.state
        profile = self.meant_profile(meant)
        best = None
        for config in sw.oracle.enumerate_candidates(state, profile):
            utility = sw.scoring.compute_utility(config, profile, state).utility
            feasible = sw.scoring.check_constraints(config, profile, state).feasible
            key = (
                0 if feasible else 1,
                -utility,
                state.nodes[config.node_id].latency_to_sector[config.sector_id],
                state.sectors[config.sector_id].load_percent,
                config.sector_id,
                BAND_ORDER[config.band.value],
                config.node_id,
            )
            if best is None or key < best[0]:
                best = (key, (config.sector_id, config.band.value, config.node_id, feasible))
        return best[1]

    def op(self, i: int):
        meant = self.intents[i % len(self.intents)]
        profile = self.sw.intent.classify_intent(meant.text, self.state, self.lexicon)
        head = self.sw.oracle.solve(self.state, profile)[0]
        return profile, head

    def check(self, i: int, result) -> bool:
        profile, head = result
        meant = self.intents[i % len(self.intents)]
        mismatch = self.profile_mismatch(profile, meant)
        if mismatch:
            return self.fail(mismatch)
        config = head.config
        got = (config.sector_id, config.band.value, config.node_id, head.feasible)
        want = self.expected[i % len(self.intents)]
        return got == want or self.fail(f"head {got} != {want} for {meant.text!r}")


class RefereeExhaustive(RefereeMetro):
    """A stress case, not traffic: classify_intent then solve()[0] on a
    400-sector x 12-node topology, below the classifier's pattern cache,
    with intents that name no sector, so solve scans every candidate."""

    name = "referee_exhaustive"
    tail_percentile = 85
    sectors, nodes, targeted = 400, 12, False


class AgentReplay(Workload):
    """classify_intent, run_react over a scripted session, then score the
    final configuration, on a 200-sector x 10-node topology with a
    250-slice ledger."""

    name = "agent_replay"
    tail_percentile = 95

    def generate(self) -> None:
        self.topology = gen.topology(self.seed, 200, 10, 250)
        self.sessions = gen.agent_sessions(self.seed, self.topology)

    def inputs(self) -> tuple:
        return self.topology.document, [(s.intent.text, s.script) for s in self.sessions]

    def setup(self) -> None:
        sw = self.sw
        self.state = sw.model.load_state(self.topology.document)
        self.lexicon = sw.intent.Lexicon.from_file(sw.data.default_lexicon_path())
        self.prompts = sw.agents.load_prompts(sw.data.default_prompts_dir())
        self.scripts = [
            [sw.gateway.exchange_from_dict(e) for e in json.loads(s.script)]
            for s in self.sessions
        ]

    def prepare(self) -> None:
        """Score each expected configuration, then replay every script once;
        its token count becomes the exact figure later replays must match."""
        sw = self.sw
        self.expected_scores = []
        for session in self.sessions:
            sector, band, node, slice_id = session.expected_config
            config = sw.model.SliceConfiguration(
                sector_id=sector, band=sw.model.Band(band), node_id=node, slice_id=slice_id)
            profile = self.meant_profile(session.intent)
            self.expected_scores.append((
                sw.scoring.compute_utility(config, profile, self.state).utility,
                sw.scoring.check_constraints(config, profile, self.state).feasible,
            ))
        self.tokens = [None] * len(self.sessions)
        for k in range(len(self.sessions)):
            _, _, passed, result = self.attempt(k)
            if passed:
                self.tokens[k] = result[1].total_tokens
        known = [t for t in self.tokens if t is not None]
        self.tokens_per_op = sum(known) / len(known) if known else 0.0

    def op(self, i: int):
        sw = self.sw
        k = i % len(self.sessions)
        text = self.sessions[k].intent.text
        profile = sw.intent.classify_intent(text, self.state, self.lexicon)
        session = sw.gateway.ChatSession(
            sw.gateway.ScriptedBackend(self.scripts[k], backend_id=f"bench:{k}"))
        transcript = sw.agents.run_react(text, self.state, session, self.prompts)
        final = transcript.final_configuration
        if final is None:
            return profile, transcript, len(session.calls), None, None
        utility = sw.scoring.compute_utility(final, profile, self.state).utility
        feasible = sw.scoring.check_constraints(final, profile, self.state).feasible
        return profile, transcript, len(session.calls), utility, feasible

    def check(self, i: int, result) -> bool:
        profile, transcript, completions, utility, feasible = result
        k = i % len(self.sessions)
        session = self.sessions[k]
        mismatch = self.profile_mismatch(profile, session.intent)
        if mismatch:
            return self.fail(mismatch)
        if transcript.outcome.value != "finished":
            return self.fail(f"session {k}: outcome {transcript.outcome.value} "
                             f"({transcript.error})")
        final = transcript.final_configuration
        got = (final.sector_id, final.band.value, final.node_id, final.slice_id)
        if got != session.expected_config:
            return self.fail(f"session {k}: final {got} != {session.expected_config}")
        if completions != session.completions:
            return self.fail(f"session {k}: {completions} completions, "
                             f"script has {session.completions}")
        if (utility, feasible) != self.expected_scores[k]:
            return self.fail(f"session {k}: score {(utility, feasible)} != "
                             f"{self.expected_scores[k]}")
        if self.tokens[k] is not None and transcript.total_tokens != self.tokens[k]:
            return self.fail(f"session {k}: {transcript.total_tokens} tokens, "
                             f"first replay used {self.tokens[k]}")
        return True


class _Discard(io.TextIOBase):
    def write(self, text: str) -> int:
        return len(text)


class SuiteReplay(Workload):
    """`compare` then `ablate` through cli.main on the bundled suite; the
    seed is ignored."""

    name = "suite_replay"
    tail_percentile = 90
    REPORTS = ("compare", "ablate")

    def generate(self) -> None:
        data = self.sw.data
        self.state_document = data.default_state_path().read_text(encoding="utf-8")

    def inputs(self) -> tuple:
        return (self.state_document,)

    def setup(self) -> None:
        sw = self.sw
        data = sw.data
        state = sw.model.load_state(self.state_document)
        sw.intent.Lexicon.from_file(data.default_lexicon_path())
        sw.intent.Lexicon.from_file(data.strict_lexicon_path())
        sw.agents.load_prompts(data.default_prompts_dir())
        sw.agents.load_prompts(data.generic_prompts_dir(), require_markers=False)
        sw.harness.load_scenarios(data.default_scenarios_path(), state)
        sw.gateway.SuiteFixture.from_file(data.default_suite_fixture_path())

    def prepare(self) -> None:
        """Load the reference reports (criterion c10: reports are
        byte-identical across runs) and check the paper's multi-agent means."""
        self.reference = {
            name: (REFERENCE_DIR / f"{name}.json").read_bytes() for name in self.REPORTS
        }
        compare = json.loads(self.reference["compare"])
        summary = compare["multi_agent"]["summary"]
        means = tuple(
            self.sw.scoring.round_half_up(summary[key]["mean"], 3)
            for key in ("semantic_accuracy", "utility")
        )
        if means != (0.667, 0.747):
            self.fail(f"reference multi_agent means {means} != (0.667, 0.747)")
        self.work = Path(tempfile.mkdtemp(prefix="suite-", dir=self.work_dir))
        self.out = {name: self.work / f"{name}.json" for name in self.REPORTS}
        self.sink = _Discard()
        self.tokens_per_op = self.count_tokens()

    def count_tokens(self) -> float:
        """Tokens the ChatSessions of one checked, untimed op report."""
        session = self.sw.gateway.ChatSession
        complete = session.complete
        tokens = 0

        def counting(chat, *args, **kwargs):
            nonlocal tokens
            result = complete(chat, *args, **kwargs)
            tokens += result.prompt_tokens + result.completion_tokens
            return result

        session.complete = counting
        try:
            self.attempt(0)
        finally:
            session.complete = complete
        return float(tokens)

    def op(self, i: int):
        main = self.sw.cli.main
        with redirect_stdout(self.sink):
            return tuple(main([name, "--out", str(self.out[name])]) for name in self.REPORTS)

    def check(self, i: int, result) -> bool:
        if result != (0, 0):
            return self.fail(f"cli exit codes {result}")
        for name in self.REPORTS:
            produced = self.out[name].read_bytes()
            self.out[name].unlink()
            if produced != self.reference[name]:
                return self.fail(f"{name} report differs from {REFERENCE_DIR / name}.json")
        return True

    def close(self) -> None:
        work = getattr(self, "work", None)
        if work is not None:
            shutil.rmtree(work, ignore_errors=True)


WORKLOADS = {w.name: w for w in (RefereeMetro, RefereeExhaustive, AgentReplay, SuiteReplay)}
