from __future__ import annotations

import pytest

from sliceweaver import data as bundled
from sliceweaver.agents import load_prompts
from sliceweaver.gateway import SuiteFixture
from sliceweaver.harness import HarnessConfig, load_scenarios


@pytest.fixture(scope="session")
def state():
    return bundled.default_state()


@pytest.fixture(scope="session")
def lexicon():
    return bundled.default_lexicon()


@pytest.fixture(scope="session")
def prompts():
    return load_prompts(bundled.default_prompts_dir())


@pytest.fixture(scope="session")
def scenarios(state):
    return load_scenarios(bundled.default_scenarios_path(), state)


@pytest.fixture()
def suite_fixture():
    # Function-scoped: scripted backends are consumed as they replay.
    return SuiteFixture.from_file(bundled.default_suite_fixture_path())


# How a JSON input file can fail before its document is read: each case's
# bytes, or None where the path is missing or names a directory.
BAD_JSON_FILES = {
    "missing": None,
    "directory": None,
    "not-utf8": b"\xff\xfe{}",
    "malformed": b'{"a": 1',
    "repeated-key": b'{"a": 1, "a": 2}',
    "deeply-nested": b"[" * 100000 + b"]" * 100000,
}


@pytest.fixture(params=list(BAD_JSON_FILES))
def bad_json_file(request, tmp_path):
    """A path that cannot be read as a JSON document, one way per param."""
    path = tmp_path / "input.json"
    if request.param == "directory":
        path.mkdir()
    elif BAD_JSON_FILES[request.param] is not None:
        path.write_bytes(BAD_JSON_FILES[request.param])
    return path


@pytest.fixture()
def harness_config(state, prompts):
    # Function-scoped: a config keeps the referee profiles it classifies, so
    # each test starts from an empty memo.
    return HarnessConfig(state=state, prompts=prompts)


FACTORY_INTENT = (
    "Configure network slice for automated robotic assembly line at industrial_park_a. "
    "Requires ultra-low latency (<5ms) for real-time control and high reliability for "
    "safety-critical operations."
)


@pytest.fixture(scope="session")
def factory_intent():
    return FACTORY_INTENT
