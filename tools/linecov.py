#!/usr/bin/env python3
"""List the lines of `src/sliceweaver` that no tier-1 test reaches.

    python3 tools/linecov.py

Runs the tier-1 suite (`pytest -q --continue-on-collection-errors`, from
the repository root) in this process with `pytest.main`, under a line
collector set with `sys.settrace` and `threading.settrace` that records
only the frames of the package's own files. It then prints, for each
module, the executable lines (those its code objects' `co_lines()` name)
that no frame ran, as `src/sliceweaver/harness.py: 12, 40-42` (runs of
lines joined), and last pytest's exit code, which is also the tool's. Only the standard library is used; no coverage package is needed.

Two limits:
- A line that runs only in a child process, such as one the CLI
  subprocess tests or the benchmark smoke test reach, is not seen, and is
  listed as unreached.
- Tracing makes the suite more than twice as slow, so a test that bounds
  its own time or size can fail under it. The pytest result is printed
  rather than hidden, so read the list knowing which tests failed.
"""

from __future__ import annotations

import os
import sys
import threading
import types
from collections import defaultdict
from collections.abc import Iterable
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sliceweaver"


class LineCollector:
    """A trace function that records, by file, each line run in a frame
    whose code lives under `package`; frames elsewhere run untraced."""

    def __init__(self, package: Path):
        self._prefix = str(package) + os.sep
        self.reached: dict[str, set[int]] = defaultdict(set)
        self._local_tracers: dict[str, object] = {}

    def __call__(self, frame, event, arg):
        filename = frame.f_code.co_filename
        try:
            return self._local_tracers[filename]
        except KeyError:
            tracer = None
            if filename.startswith(self._prefix):
                tracer = self._line_tracer(self.reached[filename])
            self._local_tracers[filename] = tracer
            return tracer

    @staticmethod
    def _line_tracer(lines: set[int]):
        def trace_line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return trace_line
        return trace_line


def executable_lines(path: Path) -> set[int]:
    """The lines of the module at `path` that hold code, from its code
    objects and those nested in them."""
    lines: set[int] = set()
    pending = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while pending:
        code = pending.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        pending.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return lines


def spans(lines: Iterable[int]) -> str:
    """Sorted line numbers with each run of consecutive ones joined:
    `[3, 4, 5, 9]` -> `3-5, 9`."""
    runs: list[list[int]] = []
    for line in sorted(lines):
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(first) if first == last else f"{first}-{last}" for first, last in runs)


def unreached_lines(package: Path, reached: dict[str, set[int]]) -> dict[Path, set[int]]:
    """Each module under `package` with the executable lines not in
    `reached`; a module with none is left out."""
    report = {}
    for path in sorted(package.rglob("*.py")):
        missed = executable_lines(path) - reached.get(str(path), set())
        if missed:
            report[path] = missed
    return report


def run(package: Path, pytest_args: list[str]) -> int:
    """Run pytest with `pytest_args` under a `LineCollector` of `package`,
    print the lines of `package` it did not reach and pytest's exit code,
    and return that code. The trace functions in place before are put back
    after."""
    collector = LineCollector(package)
    previous = sys.gettrace(), threading.gettrace()
    threading.settrace(collector)
    sys.settrace(collector)
    try:
        code = int(pytest.main(pytest_args))
    finally:
        sys.settrace(previous[0])
        threading.settrace(previous[1])
    report = unreached_lines(package, collector.reached)
    for path, missed in report.items():
        shown = path.relative_to(ROOT) if path.is_relative_to(ROOT) else path
        print(f"{shown}: {spans(missed)}")
    if not report:
        print(f"every executable line of {package} was reached")
    print(f"pytest exit code: {code}")
    return code


def main() -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    return run(PACKAGE, ["-q", "--continue-on-collection-errors"])


if __name__ == "__main__":
    sys.exit(main())
