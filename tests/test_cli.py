from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st

from sliceweaver import cli
from sliceweaver import data as bundled
from sliceweaver.agents import PROMPT_ROLES
from sliceweaver.cli import main
from sliceweaver.intent import Lexicon
from sliceweaver.scoring import round_half_up


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


FACTORY_INTENT = (
    "Configure network slice for automated robotic assembly line at industrial_park_a. "
    "Requires ultra-low latency (<5ms) for real-time control and high reliability for "
    "safety-critical operations."
)


# sha256 of the hermetic `compare --out` and `ablate --out` reports. Any change
# to these bytes, even one that every run repeats, is a change in behaviour.
COMPARE_REPORT_SHA256 = "3e44715d2e61c7bc00280b5cc8ab3c63a674fd43c0ee97827b3744096a7e962a"
ABLATE_REPORT_SHA256 = "ab20f8d8a8229b5fbb89b265967db38ce90dfb6dc20a37269324149ffafc7b68"


def sha256_of(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def trace_backend() -> str:
    return f"scripted:{bundled.industrial_trace_fixture_path()}"


def suite_backend() -> str:
    return f"scripted:{bundled.default_suite_fixture_path()}"


def test_run_intent_trace_replay(capsys, tmp_path):
    out_file = tmp_path / "decision.json"
    code, out, _ = run_cli(
        capsys, "run-intent", FACTORY_INTENT,
        "--backend", trace_backend(), "--out", str(out_file),
    )
    assert code == 0
    assert "--- Iteration 1 ---" in out
    assert "mid_band@industrial_park_a, UPF@mec_industrial_1" in out
    assert "U=0.94" in out
    doc = json.loads(out_file.read_text())
    assert doc["configuration"]["sector"] == "industrial_park_a"
    assert doc["configuration"]["band"] == "mid_band"
    assert doc["configuration"]["node"] == "mec_industrial_1"
    assert doc["total_tokens"] == 13573
    assert doc["iterations"] == 3
    assert doc["feasible"] is True


def test_run_intent_missing_state_file(capsys):
    code, out, err = run_cli(
        capsys, "run-intent", "anything",
        "--state", "/nonexistent/topology.json",
        "--backend", trace_backend(),
    )
    assert code != 0
    assert "/nonexistent/topology.json" in err


def test_run_intent_oracle_system_needs_no_backend(capsys):
    code, out, _ = run_cli(
        capsys, "run-intent", FACTORY_INTENT, "--system", "oracle",
    )
    assert code == 0
    assert "decision: mid_band@industrial_park_a, UPF@mec_industrial_1" in out
    assert "U=0.94" in out


def test_run_intent_reads_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(FACTORY_INTENT))
    code, out, _ = run_cli(capsys, "run-intent", "--system", "oracle")
    assert code == 0
    assert "mid_band@industrial_park_a" in out


def test_run_intent_rule_based(capsys):
    code, out, _ = run_cli(
        capsys, "run-intent", "ultra-low latency loop at industrial_park_a",
        "--system", "rule_based",
    )
    assert code == 0
    assert "rationale:" in out
    assert "decision:" in out


def test_run_intent_rule_based_flags_an_infeasible_fallback(capsys):
    code, out, _ = run_cli(
        capsys, "run-intent", "ultra-low latency loop at industrial_park_a",
        "--system", "rule_based", "--kappa-max", "1",
    )
    assert code == 0
    assert "no feasible candidate; returning best infeasible fallback" in out
    assert out.rstrip().endswith("[infeasible fallback]")


@pytest.mark.parametrize("argv", [
    ["oracle", "--intent", "4K video at stadium_central"],
    ["run-intent", "4K video at stadium_central", "--system", "oracle"],
    ["run-intent", "4K video at stadium_central", "--system", "rule_based"],
], ids=["oracle", "run-intent-oracle", "run-intent-rule_based"])
def test_targeted_sector_without_a_band_exits_2(tmp_path, argv):
    doc = json.loads(bundled.default_state_path().read_text(encoding="utf-8"))
    doc["sectors"]["stadium_central"]["spectrum_available_mhz"] = {
        "mmWave": 0, "mid_band": 0, "low_band": 0,
    }
    state_file = tmp_path / "state.json"
    state_file.write_text(json.dumps(doc), encoding="utf-8")
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "sliceweaver.cli", *argv, "--state", str(state_file)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith("error: ")
    assert "'stadium_central' has no available band" in result.stderr
    assert "Traceback" not in result.stderr


class MalformedPayloadSession:
    """Stands in for requests.Session: every POST answers 200 with `content`."""

    content = b""

    def post(self, url, json=None, headers=None, timeout=None):
        response = requests.Response()
        response.status_code = 200
        response._content = self.content
        return response


@pytest.mark.parametrize(
    "content",
    [
        pytest.param(b"not json", id="not-json"),
        pytest.param(b'{"choices": []}', id="no-choices"),
        pytest.param(b'{"choices": [{"message": {"content": 5}}]}', id="content-int"),
        pytest.param(
            b'{"choices": [{"message": {"content": "ok"}}], "usage": {"prompt_tokens": -1}}',
            id="negative-tokens",
        ),
        pytest.param(b'[["choices"]]', id="list"),
        pytest.param(b"[" * 100_000, id="too-deep"),
    ],
)
def test_run_intent_live_malformed_payload_exits_3(capsys, monkeypatch, content):
    monkeypatch.setenv("IBN_LLM_BASE_URL", "https://llm.example/v1")
    monkeypatch.setenv("IBN_LLM_MODEL", "test-model")
    monkeypatch.setenv("IBN_LLM_API_KEY", "k")
    monkeypatch.setattr(MalformedPayloadSession, "content", content)
    monkeypatch.setattr(requests, "Session", MalformedPayloadSession)
    code, _, err = run_cli(capsys, "run-intent", FACTORY_INTENT, "--backend", "live")
    assert code == 3
    assert err.startswith("gateway error: malformed provider response")
    assert "Traceback" not in err


def test_oracle_command(capsys, tmp_path):
    out_file = tmp_path / "ranking.json"
    code, out, _ = run_cli(
        capsys, "oracle", "--intent", FACTORY_INTENT, "--top", "3",
        "--out", str(out_file),
    )
    assert code == 0
    assert "class=URLLC" in out
    assert "mid_band" in out
    ranking = json.loads(out_file.read_text())
    assert ranking[0]["sector"] == "industrial_park_a"
    assert ranking[0]["node"] == "mec_industrial_1"
    assert ranking[0]["rank"] == 1


def test_benchmark_hermetic(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "benchmark", "--backend", suite_backend(), "--out", str(out_file),
    )
    assert code == 0
    assert "industrial_automation" in out
    doc = json.loads(out_file.read_text())
    assert doc["system"] == "multi_agent"
    assert len(doc["records"]) == 36  # 12 scenarios x 3 repeats


def test_benchmark_defaults_to_bundled_scripted_backend(capsys):
    code, out, _ = run_cli(capsys, "benchmark", "--system", "oracle")
    assert code == 0
    assert "Mean" in out


def test_benchmark_repeats_do_not_change_deterministic_means(capsys, tmp_path):
    first = tmp_path / "r1.json"
    third = tmp_path / "r3.json"
    code1, _, _ = run_cli(
        capsys, "benchmark", "--system", "oracle", "--repeats", "1", "--out", str(first)
    )
    code3, _, _ = run_cli(
        capsys, "benchmark", "--system", "oracle", "--repeats", "3", "--out", str(third)
    )
    assert code1 == code3 == 0
    doc1 = json.loads(first.read_text())
    doc3 = json.loads(third.read_text())
    assert doc1["summary"]["semantic_accuracy"]["mean"] == doc3["summary"]["semantic_accuracy"]["mean"]
    assert doc1["summary"]["utility"]["mean"] == doc3["summary"]["utility"]["mean"]


def test_compare_command(capsys, tmp_path):
    out_file = tmp_path / "compare.json"
    code, out, _ = run_cli(capsys, "compare", "--out", str(out_file))
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l.startswith(("System", "-"))]
    assert len(lines) == 4
    assert {l.split()[0] for l in lines} == {"multi_agent", "monolithic", "rule_based", "direct_llm"}
    doc = json.loads(out_file.read_text())
    assert set(doc) == {"multi_agent", "monolithic", "rule_based", "direct_llm"}
    assert sha256_of(out_file) == COMPARE_REPORT_SHA256


def test_ablate_command(capsys, tmp_path):
    out_file = tmp_path / "ablate.json"
    code, out, _ = run_cli(capsys, "ablate", "--out", str(out_file))
    assert code == 0
    assert "Remove ReAct" in out
    assert "dSem" in out and "dUtil" in out
    doc = json.loads(out_file.read_text())
    assert set(doc) == {"full", "no_prompts", "no_specialists", "no_react"}
    assert sha256_of(out_file) == ABLATE_REPORT_SHA256


def test_the_reused_parser_carries_nothing_between_calls(capsys, tmp_path):
    # `main` parses with one parser per process; a run-config merged into
    # one call's arguments must not reach the next call.
    assert cli._parser() is cli._parser()
    config, first, second = tmp_path / "run.json", tmp_path / "one.json", tmp_path / "two.json"
    config.write_text(json.dumps({"repeats": 1, "out": str(first)}))
    code, _, _ = run_cli(capsys, "compare", "--config", str(config))
    assert code == 0
    assert len(json.loads(first.read_text())["multi_agent"]["records"]) == 12  # 12 scenarios x 1
    code, _, _ = run_cli(capsys, "compare", "--out", str(second))
    assert code == 0
    assert sha256_of(second) == COMPARE_REPORT_SHA256


# Runs `sliceweaver.cli.main(argv)`, fails if the import loaded a module a
# hermetic run has no use for, and prints which of them the run loaded:
# `hashlib` (OpenSSL) serves only a scripted `expect_sha256`, `requests` only
# the live backend, and `concurrent.futures` only `--jobs` above 1. It runs
# in a child process, since this test module imports hashlib and requests.
UNUSED_MODULES_SCRIPT = """
import sys
from sliceweaver.cli import main
UNUSED = ("hashlib", "_hashlib", "requests", "concurrent.futures")
loaded = [name for name in UNUSED if name in sys.modules]
assert not loaded, f"import sliceweaver.cli loaded {loaded}"
code = main(sys.argv[1:])
print("LOADED:", *[name for name in UNUSED if name in sys.modules])
sys.exit(code)
"""


@pytest.mark.parametrize("jobs,loaded", [
    ("1", "LOADED:"),
    ("2", "LOADED: concurrent.futures"),
], ids=["jobs1", "jobs2"])
def test_hermetic_compare_loads_only_what_it_uses(tmp_path, jobs, loaded):
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    out_file = tmp_path / "compare.json"
    result = subprocess.run(
        [sys.executable, "-c", UNUSED_MODULES_SCRIPT, "compare", "--out", str(out_file),
         "--jobs", jobs],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == loaded
    assert sha256_of(out_file) == COMPARE_REPORT_SHA256


def test_validate_state(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "validate-state")
    assert code == 0
    assert "OK: 5 sectors, 4 nodes" in out

    bad = tmp_path / "bad.json"
    for text in ('{"sectors": {}, "nodes": {}}', DEEPLY_NESTED, state_with_sector("-")):
        bad.write_text(text)
        code, out, _ = run_cli(capsys, "validate-state", "--state", str(bad))
        assert code == 1
        assert "INVALID" in out


def test_validate_prompts(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "validate-prompts")
    assert code == 0
    assert out.count("OK:") == 3

    code, out, _ = run_cli(
        capsys, "validate-prompts", "--prompts", str(bundled.generic_prompts_dir())
    )
    assert code == 1
    code, out, _ = run_cli(
        capsys, "validate-prompts", "--prompts", str(bundled.generic_prompts_dir()),
        "--allow-missing-markers",
    )
    assert code == 0


def test_bad_backend_spec(capsys):
    code, _, err = run_cli(capsys, "benchmark", "--backend", "psychic")
    assert code == 2
    assert "psychic" in err


def test_config_file_merges_under_flags(capsys, tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"system": "oracle", "repeats": 1}))
    code, out, _ = run_cli(capsys, "benchmark", "--config", str(config))
    assert code == 0
    # The config file's system applies; oracle rows report zero tokens.
    assert "Mean" in out

    # Explicit flags win over the file.
    code, out, _ = run_cli(
        capsys, "benchmark", "--config", str(config), "--system", "rule_based"
    )
    assert code == 0


def test_config_file_rejects_unknown_keys(capsys, tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"warp": 9}))
    code, _, err = run_cli(capsys, "benchmark", "--config", str(config))
    assert code == 2
    assert "warp" in err


# The flags of each command, -h excluded: its own, then the common flags it reads.
COMMON_FLAGS = {
    "--state", "--prompts", "--scenarios", "--backend", "--l-max", "--kappa-max",
    "--repeats", "--jobs", "--out", "--config",
}
COMMAND_FLAGS = {
    "run-intent": {"--system", "--top", "--state", "--prompts", "--backend", "--l-max",
                   "--kappa-max", "--out", "--config"},
    "benchmark": {"--system"} | COMMON_FLAGS,
    "compare": COMMON_FLAGS,
    "ablate": COMMON_FLAGS,
    "oracle": {"--intent", "--top", "--state", "--l-max", "--kappa-max", "--out", "--config"},
    "validate-state": {"--state", "--config"},
    "validate-prompts": {"--allow-missing-markers", "--prompts", "--config"},
}


def test_each_command_takes_only_the_flags_it_reads():
    [commands] = [
        action.choices for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    flags = {
        name: {flag for action in command._actions for flag in action.option_strings}
        - {"-h", "--help"}
        for name, command in commands.items()
    }
    assert flags == COMMAND_FLAGS
    # (command, argument) pairs, run-intent's positional intent included:
    # 77 when every command took all ten common flags.
    arguments = [
        action for command in commands.values() for action in command._actions
        if not isinstance(action, argparse._HelpAction)
    ]
    assert len(arguments) == 53


@pytest.mark.parametrize("argv", [
    ["oracle", "--intent", "x", "--jobs", "2"],
    ["validate-state", "--out", "x"],
    ["validate-prompts", "--state", "x"],
    ["run-intent", "x", "--scenarios", "x"],
    ["oracle", "--intent", "x", "--prompts", "x"],
], ids=["oracle-jobs", "validate-state-out", "validate-prompts-state", "run-intent-scenarios",
        "oracle-prompts"])
def test_a_flag_the_command_does_not_take_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exited:
        main(argv)
    assert exited.value.code == 2
    err = capsys.readouterr().err
    assert f"sliceweaver {argv[0]}: error: unrecognized arguments: {argv[-2]}" in err


def test_config_file_keys_the_command_lacks_are_ignored(capsys, tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"jobs": 2, "scenarios": "/nonexistent/suite.json"}))
    code, out, err = run_cli(capsys, "oracle", "--intent", FACTORY_INTENT, "--config", str(config))
    assert (code, err) == (0, "")
    assert "class=URLLC" in out


@pytest.mark.parametrize("system", ["oracle", "rule_based"])
def test_run_intent_referee_systems_read_no_prompts(capsys, system):
    argv = ["run-intent", FACTORY_INTENT, "--system", system]
    plain = run_cli(capsys, *argv)
    assert plain[0] == 0
    assert run_cli(capsys, *argv, "--prompts", "/nonexistent") == plain


@pytest.mark.parametrize("argv, calls", [
    (["oracle", "--intent", FACTORY_INTENT], 0),
    (["run-intent", FACTORY_INTENT, "--system", "oracle"], 0),
    (["run-intent", FACTORY_INTENT, "--system", "rule_based"], 0),
    (["compare"], 1),
], ids=["oracle", "run-intent-oracle", "run-intent-rule_based", "compare"])
def test_only_the_commands_that_run_agents_load_prompts(capsys, monkeypatch, argv, calls):
    loaded = []

    def counting_load_prompts(directory, **kwargs):
        loaded.append(directory)
        return bundled.load_prompts(directory, **kwargs)

    monkeypatch.setattr(cli, "load_prompts", counting_load_prompts)
    assert run_cli(capsys, *argv)[0] == 0
    assert len(loaded) == calls


@pytest.mark.parametrize("flags, feasible", [([], True), (["--kappa-max", "1"], False)],
                         ids=["feasible", "infeasible-fallback"])
def test_run_intent_rule_based_out_holds_the_printed_decision(capsys, tmp_path, flags, feasible):
    intent_text = "ultra-low latency loop at industrial_park_a"
    argv = ["run-intent", intent_text, "--system", "rule_based", *flags]
    out_file = tmp_path / "decision.json"
    plain = run_cli(capsys, *argv)
    assert run_cli(capsys, *argv, "--out", str(out_file)) == plain
    doc = json.loads(out_file.read_text())
    # The worked example's decision and sub-scores, as the decision line prints them.
    assert doc == {
        "intent": intent_text,
        "configuration": {
            "sector": "industrial_park_a", "band": "mid_band", "node": "mec_industrial_1"
        },
        "utility": doc["utility"],
        "sub_scores": {"latency": 1.0, "resource": 1.0, "congestion": 0.4},
        "feasible": feasible,
        "iterations": 0,
        "total_tokens": 0,
    }
    assert round_half_up(doc["utility"], 2) == 0.94
    assert "U=0.94" in plain[1]
    assert plain[1].rstrip().endswith("[infeasible fallback]") is not feasible


@pytest.mark.parametrize("argv", [
    pytest.param(["run-intent", FACTORY_INTENT, "--backend", trace_backend()], id="agent"),
    pytest.param(["run-intent", FACTORY_INTENT, "--system", "rule_based"], id="rule-based"),
    pytest.param(["oracle", "--intent", FACTORY_INTENT], id="oracle"),
])
def test_an_unwritable_out_fails_before_anything_is_printed(capsys, tmp_path, argv):
    code, out, err = run_cli(capsys, *argv, "--out", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err == f"error: cannot write --out {tmp_path}: Is a directory\n"


def test_bundled_experiment_inputs_load_once_per_process(capsys, monkeypatch):
    for cached in (bundled.default_lexicon, bundled.strict_lexicon, bundled.generic_prompts):
        cached.cache_clear()
    loaded = []
    from_file, load_prompts = Lexicon.from_file.__func__, bundled.load_prompts

    def counting_from_file(cls, path):
        loaded.append(Path(path).name)
        return from_file(cls, path)

    def counting_load_prompts(directory, **kwargs):
        loaded.append(Path(directory).name)
        return load_prompts(directory, **kwargs)

    monkeypatch.setattr(Lexicon, "from_file", classmethod(counting_from_file))
    monkeypatch.setattr(bundled, "load_prompts", counting_load_prompts)
    for argv in (
        ["compare"], ["ablate"], ["compare", "--jobs", "3"],
        ["oracle", "--intent", FACTORY_INTENT],
        ["run-intent", FACTORY_INTENT, "--system", "rule_based"],
    ):
        assert run_cli(capsys, *argv)[0] == 0
    assert sorted(loaded) == ["ablation_generic", "lexicon.json", "lexicon_strict.json"]
    generic = bundled.generic_prompts()
    with pytest.raises(TypeError):
        generic["orchestrator"] = "x"


@pytest.mark.parametrize("command, args", [
    ("run-intent", ["x"]), ("benchmark", []),
], ids=["run-intent", "benchmark"])
def test_unreadable_fixture_exits_2(capsys, monkeypatch, tmp_path, command, args):
    # chmod cannot make a file unreadable to root, so the read itself is made to fail.
    fixture = tmp_path / "fixture.json"
    fixture.write_text("[]")
    read_text = Path.read_text

    def refusing_read_text(path, *a, **kw):
        if path == fixture:
            raise PermissionError(13, "Permission denied", str(path))
        return read_text(path, *a, **kw)

    monkeypatch.setattr(Path, "read_text", refusing_read_text)
    code, out, err = run_cli(capsys, command, *args, "--backend", f"scripted:{fixture}")
    assert code == 2
    assert err.startswith(f"error: cannot read fixture {fixture}: ")
    assert "Permission denied" in err
    assert out == ""


NO_GOLDEN_SUITE = json.dumps([
    {"id": "x", "category": "URLLC", "intent_text": "t", "declared_beta": "high"}
])
UNKNOWN_SECTOR_SUITE = json.dumps([
    {"id": "x", "category": "URLLC", "intent_text": "t", "declared_beta": "high",
     "golden": {"sector": "atlantis", "band": "mmwave", "node": "mec_stadium_1"}}
])


NOT_UTF8 = b"\xff\xfe{}"
DEEPLY_NESTED = "[" * 100000 + "]" * 100000


GOLDEN = {"sector": "industrial_park_a", "band": "mid_band", "node": "mec_industrial_1"}


def one_scenario_suite(**fields) -> str:
    """A one-entry suite, valid on the bundled state unless `fields` say otherwise."""
    entry = {
        "id": "x", "category": "URLLC", "intent_text": "t", "declared_beta": "high",
        "golden": GOLDEN,
    }
    return json.dumps([{**entry, **fields}])


def state_with_nan_latency() -> str:
    """The bundled state with one latency written as NaN, which json reads."""
    doc = json.loads(bundled.default_state_path().read_text(encoding="utf-8"))
    node = next(iter(doc["nodes"].values()))
    sector_id = next(iter(node["latency_to_ran_ms"]))
    node["latency_to_ran_ms"][sector_id] = float("nan")
    return json.dumps(doc)


def state_with_sector(sector_id: str) -> str:
    """The bundled state with one more sector, `sector_id`, reachable from every node."""
    doc = json.loads(bundled.default_state_path().read_text(encoding="utf-8"))
    doc["sectors"][sector_id] = dict(next(iter(doc["sectors"].values())))
    for node in doc["nodes"].values():
        node["latency_to_ran_ms"][sector_id] = 5
    return json.dumps(doc)


# Each case writes `file_text` (str or bytes), if given, to a file whose path
# replaces "{file}" in the flags, and as each role prompt of a directory whose
# path replaces "{dir}".
@pytest.mark.parametrize(
    "command, flags, file_text, needle",
    [
        pytest.param("benchmark", ["--repeats", "0"], None, "--repeats", id="repeats-zero"),
        pytest.param("benchmark", ["--repeats", "-1"], None, "--repeats", id="repeats-negative"),
        pytest.param("benchmark", ["--config", "/nonexistent/run.json"], None,
                     "/nonexistent/run.json", id="config-missing"),
        pytest.param("benchmark", ["--config", "{file}"], '{"repeats": 2', "not valid JSON",
                     id="config-malformed"),
        pytest.param("benchmark", ["--config", "{file}"], '["repeats", 2]',
                     "must hold a JSON object", id="config-not-object"),
        pytest.param("benchmark", ["--config", "{file}"], '{"repeats": "two"}', "--repeats",
                     id="config-repeats-string"),
        pytest.param("benchmark", ["--jobs", "0"], None, "--jobs", id="jobs-zero"),
        pytest.param("benchmark", ["--config", "{file}"], '{"jobs": "two"}', "--jobs",
                     id="config-jobs-string"),
        pytest.param("benchmark", ["--config", "{file}"], '{"jobs": null}', "--jobs",
                     id="config-jobs-null"),
        pytest.param("benchmark", ["--config", "{file}"], '{"system": "quantum"}', "--system",
                     id="config-system-unknown"),
        pytest.param("benchmark", ["--config", "{file}"], '{"system": "no_react"}', "--system",
                     id="config-system-ablation-variant"),
        pytest.param("oracle", ["--intent", "x", "--config", "{file}"], '{"l_max": "abc"}',
                     "--l-max", id="oracle-config-l-max-string"),
        pytest.param("oracle", ["--intent", "x", "--config", "{file}"], '{"top": "x"}', "--top",
                     id="oracle-config-top-string"),
        pytest.param("oracle", ["--intent", "x", "--top", "-1"], None, "--top",
                     id="oracle-top-negative"),
        pytest.param("run-intent", ["x", "--system", "oracle", "--top", "0"], None, "--top",
                     id="run-intent-top-zero"),
        pytest.param("benchmark", ["--backend", "scripted:{file}"], "[1", "not valid JSON",
                     id="fixture-malformed"),
        pytest.param("run-intent", ["x", "--backend", "scripted:{file}"], "[1", "not valid JSON",
                     id="run-intent-fixture-malformed"),
        pytest.param("benchmark", ["--scenarios", "/nonexistent/suite.json"], None,
                     "/nonexistent/suite.json", id="scenarios-missing"),
        pytest.param("benchmark", ["--scenarios", "{file}"], "{}", "non-empty JSON list",
                     id="scenarios-not-list"),
        pytest.param("benchmark", ["--scenarios", "{file}"], NO_GOLDEN_SUITE, "'golden'",
                     id="scenarios-no-golden"),
        pytest.param("compare", ["--scenarios", "{file}"], UNKNOWN_SECTOR_SUITE, "atlantis",
                     id="scenarios-unknown-sector"),
        pytest.param("benchmark", ["--state", "{dir}"], None, "Is a directory",
                     id="state-directory"),
        pytest.param("validate-state", ["--state", "{dir}"], None, "Is a directory",
                     id="validate-state-directory"),
        pytest.param("benchmark", ["--state", "{file}"], NOT_UTF8, "can't decode",
                     id="state-not-utf8"),
        pytest.param("validate-state", ["--state", "{file}"], NOT_UTF8, "can't decode",
                     id="validate-state-not-utf8"),
        *(
            pytest.param(command, [*args, "--prompts", "/nonexistent"], None, "/nonexistent",
                         id=f"{command}-prompts-missing")
            for command, args in [
                ("benchmark", []), ("compare", []), ("ablate", []), ("run-intent", ["x"]),
            ]
        ),
        pytest.param("benchmark", ["--prompts", "{dir}"], "no markers here",
                     "missing required marker", id="prompts-missing-marker"),
        pytest.param("run-intent", ["x", "--prompts", "{dir}"], "no markers here",
                     "missing required marker", id="run-intent-prompts-missing-marker"),
        pytest.param("benchmark", ["--prompts", "{dir}"], NOT_UTF8, "can't decode",
                     id="prompts-not-utf8"),
        pytest.param("benchmark", ["--config", "{file}"], NOT_UTF8, "not valid JSON",
                     id="config-not-utf8"),
        pytest.param("benchmark", ["--backend", "scripted:{file}"], "{}", "'scenarios'",
                     id="fixture-empty-object"),
        pytest.param("benchmark", ["--backend", "scripted:{file}"], '"str"', "'scenarios'",
                     id="fixture-string"),
        pytest.param("benchmark", ["--backend", "scripted:{file}"], '{"scenarios": []}',
                     "'scenarios'", id="fixture-scenarios-list"),
        pytest.param("benchmark", ["--backend", "scripted:{file}"],
                     '{"scenarios": {"a": {"multi_agent": 5}}}', "must be a JSON list",
                     id="fixture-script-not-list"),
        pytest.param("benchmark", ["--backend", "scripted:{file}"],
                     '{"scenarios": {"a": {"multi_agent": [{"response": "x", '
                     '"prompt_tokens": -1}]}}}', "'prompt_tokens'",
                     id="fixture-negative-tokens"),
        pytest.param("run-intent", ["x", "--backend", "scripted:{file}"], '[{"response": 5}]',
                     "'response' must be a string", id="run-intent-fixture-response-number"),
        pytest.param("run-intent", ["x", "--backend", "scripted:{file}"], "[1]",
                     "'response'", id="run-intent-fixture-entry-number"),
        pytest.param("run-intent", ["x", "--backend", "scripted:{file}"],
                     '[{"response": "x", "expect_contains": 3}]', "'expect_contains'",
                     id="run-intent-fixture-matcher-number"),
        pytest.param("run-intent", ["x", "--backend", "scripted:{file}"], NOT_UTF8,
                     "not valid JSON", id="run-intent-fixture-not-utf8"),
        pytest.param("benchmark", ["--system", "oracle", "--out", "{dir}"], None,
                     "Is a directory", id="benchmark-out-directory"),
        pytest.param("oracle", ["--intent", "x", "--out", "{dir}"], None, "Is a directory",
                     id="oracle-out-directory"),
        pytest.param("benchmark", ["--state", "{file}"], DEEPLY_NESTED, "invalid state file",
                     id="state-deeply-nested"),
        pytest.param("benchmark", ["--state", "{file}"], state_with_nan_latency(),
                     "must be a finite number", id="state-nan-latency"),
        pytest.param("benchmark", ["--state", "{file}"], state_with_sector("-"),
                     "no letter or digit", id="state-sector-id-dash"),
        pytest.param("oracle", ["--intent", "x", "--state", "{file}"], state_with_sector(" "),
                     "no letter or digit", id="oracle-state-sector-id-blank"),
        *(
            pytest.param("oracle", ["--intent", "x", f"--{flag}={value}"], None, f"--{flag}",
                         id=f"oracle-{flag}-{case}")
            for flag in ("l-max", "kappa-max")
            for case, value in [("nan", "nan"), ("inf", "inf"), ("negative", "-1")]
        ),
        *(
            pytest.param("benchmark", ["--config", "{file}"], f'{{"{key}": {value}}}',
                         f"--{key.replace('_', '-')}", id=f"config-{key}-{case}")
            for key in ("l_max", "kappa_max")
            for case, value in [("nan", "NaN"), ("inf", "Infinity"), ("negative", "-0.5")]
        ),
        pytest.param("benchmark", ["--config", "{file}"], DEEPLY_NESTED, "not valid JSON",
                     id="config-deeply-nested"),
        pytest.param("benchmark", ["--scenarios", "{file}"], DEEPLY_NESTED, "not valid JSON",
                     id="scenarios-deeply-nested"),
        pytest.param("benchmark", ["--backend", "scripted:{file}"], DEEPLY_NESTED,
                     "not valid JSON", id="fixture-deeply-nested"),
        pytest.param("run-intent", ["x", "--backend", "scripted:{file}"], DEEPLY_NESTED,
                     "not valid JSON", id="run-intent-fixture-deeply-nested"),
        # Every JSON input refuses an object that repeats a key, naming the key.
        pytest.param("benchmark", ["--system", "oracle", "--config", "{file}"],
                     '{"repeats": 0, "repeats": 1}', "repeats the key 'repeats'",
                     id="config-repeated-key"),
        pytest.param("benchmark", ["--system", "oracle", "--scenarios", "{file}"],
                     one_scenario_suite().replace('"id": "x"', '"id": "x", "id": "y"'),
                     "repeats the key 'id'", id="scenarios-repeated-key"),
        pytest.param("benchmark", ["--backend", "scripted:{file}"],
                     '{"scenarios": {}, "scenarios": {}}', "repeats the key 'scenarios'",
                     id="fixture-repeated-key"),
        pytest.param("run-intent", ["x", "--backend", "scripted:{file}"],
                     '[{"response": "x", "response": "y"}]', "repeats the key 'response'",
                     id="run-intent-fixture-repeated-key"),
        pytest.param("benchmark", ["--state", "{file}"], '{"sectors": {}, "sectors": {}}',
                     "duplicate id or key 'sectors'", id="state-repeated-key"),
        *(
            pytest.param(command, [*args, "--backend", ""], None,
                         "--backend must be 'live' or 'scripted:<fixture>', got ''",
                         id=f"{command}-backend-empty")
            for command, args in [("run-intent", ["x"]), ("benchmark", [])]
        ),
        pytest.param("run-intent", ["   ", "--backend", trace_backend()], None,
                     "no intent text given", id="run-intent-whitespace-intent"),
        pytest.param("oracle", ["--intent", "   "], None, "no intent text given",
                     id="oracle-whitespace-intent"),
        *(
            pytest.param("benchmark", ["--system", "oracle", "--scenarios", "{file}"],
                         one_scenario_suite(**fields), needle, id=f"scenarios-{case}")
            for case, fields, needle in [
                ("beta-number", {"declared_beta": 5}, "BandwidthCategory"),
                ("beta-unknown", {"declared_beta": "huge"}, "BandwidthCategory"),
                ("notes-list", {"notes": ["x"]}, "'notes' must be a string"),
                ("provenance-null", {"provenance": None}, "'provenance' must be a string"),
                ("intent-blank", {"intent_text": " \n\t"}, "'intent_text' must not be blank"),
                ("golden-unknown-key", {"golden": {**GOLDEN, "weight": 1}},
                 "golden: unknown field(s) ['weight']"),
                ("golden-string", {"golden": "industrial_park_a"},
                 "golden: entry must be an object"),
                ("golden-sector-number", {"golden": {**GOLDEN, "sector": 5}},
                 "golden: sector must be a string, got 5"),
                ("golden-band-json-key", {"golden": {**GOLDEN, "band": "mmWave"}},
                 "golden: unknown band 'mmWave'"),
                ("golden-band-without-spectrum",
                 {"golden": {**GOLDEN, "sector": "rural_highway", "band": "mmwave"}},
                 "band 'mmwave' has no available spectrum at sector 'rural_highway'"),
                ("golden-no-node", {"golden": {"sector": "industrial_park_a", "band": "mid_band"}},
                 "golden: missing field(s) ['node']"),
                ("unknown-key", {"provenence": "authored"},
                 "scenario entry 0: entry: unknown field(s) ['provenence']"),
            ]
        ),
        *(
            pytest.param("benchmark", ["--system", "oracle", "--scenarios", "{file}"],
                         json.dumps([entry]), "scenario entry 0: entry must be an object",
                         id=f"scenarios-entry-{case}")
            for case, entry in [("string", "x"), ("null", None), ("list", [])]
        ),
    ],
)
def test_bad_flags_and_config_files_exit_2(capsys, tmp_path, command, flags, file_text, needle):
    path, directory = tmp_path / "input.json", tmp_path / "prompts"
    directory.mkdir()
    if file_text is not None:
        data = file_text.encode() if isinstance(file_text, str) else file_text
        path.write_bytes(data)
        for role in PROMPT_ROLES:
            (directory / f"{role}.md").write_bytes(data)
    flags = [flag.replace("{file}", str(path)).replace("{dir}", str(directory)) for flag in flags]
    code, out, err = run_cli(capsys, command, *flags)
    assert code == 2
    assert err.startswith("error: ")
    assert needle in err
    assert out == ""


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=20),
    lambda children: (
        st.lists(children, max_size=4)
        | st.dictionaries(st.text(max_size=12), children, max_size=4)
    ),
    max_leaves=12,
)
FILE_CONTENTS = st.binary(max_size=80) | JSON_VALUES.map(lambda v: json.dumps(v).encode())


@pytest.mark.parametrize(
    "command, flags",
    [
        pytest.param("benchmark", ["--state", "{file}"], id="benchmark-state"),
        pytest.param("benchmark", ["--config", "{file}"], id="benchmark-config"),
        pytest.param("benchmark", ["--scenarios", "{file}"], id="benchmark-scenarios"),
        pytest.param("benchmark", ["--backend", "scripted:{file}"], id="benchmark-fixture"),
        pytest.param("run-intent", ["x", "--backend", "scripted:{file}"], id="run-intent-fixture"),
    ],
)
@settings(max_examples=25, deadline=None)
@given(content=FILE_CONTENTS)
def test_arbitrary_input_files_end_with_a_documented_exit_code(
    tmp_path_factory, command, flags, content
):
    path = tmp_path_factory.mktemp("fuzz") / "input.json"
    path.write_bytes(content)
    argv = [command, *(flag.replace("{file}", str(path)) for flag in flags)]
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in {0, 1, 2, 3}
