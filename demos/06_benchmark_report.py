"""The deterministic evaluation harness end to end.

Replays the bundled 12-scenario suite against the scripted fixture, prints
the per-scenario table, the four-system comparison, and the ablation summary.
Everything here is hermetic: no network, byte-reproducible output.
"""

from sliceweaver import load_prompts, load_scenarios
from sliceweaver.data import (
    default_prompts_dir,
    default_scenarios_path,
    default_state,
    default_suite_fixture_path,
)
from sliceweaver.gateway import SuiteFixture
from sliceweaver.harness import (
    ABLATION_VARIANTS,
    COMPARE_SYSTEMS,
    HarnessConfig,
    ablation_table,
    compare_table,
    emit_report,
    run_benchmark,
)

state = default_state()
config = HarnessConfig(state=state, prompts=load_prompts(default_prompts_dir()))
scenarios = load_scenarios(default_scenarios_path(), state)
fixture = SuiteFixture.from_file(default_suite_fixture_path())

report = run_benchmark(scenarios, "multi_agent", fixture, config)
print(emit_report(report))

print("Baseline comparison:")
reports = {s: run_benchmark(scenarios, s, fixture, config) for s in COMPARE_SYSTEMS}
print(compare_table(reports))

print("Ablations:")
reports = {v: run_benchmark(scenarios, v, fixture, config) for v in ABLATION_VARIANTS}
print(ablation_table(reports))
