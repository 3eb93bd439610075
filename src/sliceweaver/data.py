"""Access to the data files bundled with the package: the metropolitan
topology, classifier lexicons, agent prompts, the benchmark scenario suite,
and scripted replay fixtures.

The fixed inputs of the experiment are read once per process: the full
lexicon (the referee's), the strict lexicon (the rule-based baseline's) and
the generic prompts (the `no_prompts` ablation's).
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import cache
from importlib import resources
from pathlib import Path
from types import MappingProxyType

from .agents import load_prompts
from .intent import Lexicon
from .model import NetworkState, load_state


# The package's data directory, resolved once at import.
_DATA_ROOT = Path(str(resources.files("sliceweaver") / "data"))


def data_path(*parts: str) -> Path:
    return _DATA_ROOT.joinpath(*parts)


def default_state_path() -> Path:
    return data_path("topology", "metro_6g.json")


def default_lexicon_path() -> Path:
    return data_path("config", "lexicon.json")


def strict_lexicon_path() -> Path:
    return data_path("config", "lexicon_strict.json")


def default_prompts_dir() -> Path:
    return data_path("prompts")


def generic_prompts_dir() -> Path:
    return data_path("prompts", "ablation_generic")


def default_scenarios_path() -> Path:
    return data_path("scenarios", "benchmark12.json")


def default_suite_fixture_path() -> Path:
    return data_path("fixtures", "benchmark12.json")


def industrial_trace_fixture_path() -> Path:
    return data_path("fixtures", "industrial_automation_trace.json")


def default_state() -> NetworkState:
    return load_state(default_state_path().read_text(encoding="utf-8"))


@cache
def default_lexicon() -> Lexicon:
    return Lexicon.from_file(default_lexicon_path())


@cache
def strict_lexicon() -> Lexicon:
    return Lexicon.from_file(strict_lexicon_path())


@cache
def generic_prompts() -> Mapping[str, str]:
    """The generic role prompts, read-only: every caller shares one mapping."""
    return MappingProxyType(load_prompts(generic_prompts_dir(), require_markers=False))
