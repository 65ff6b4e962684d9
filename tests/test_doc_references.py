"""Docs, CI and docstrings name only bench files that exist; and the
performance harness's section table runs.

A bench script or a committed report that is deleted or renamed must
take its mentions with it: a doc that says "regenerate
``BENCH_gateway.json``" after the file is gone sends the reader nowhere.
"""

from __future__ import annotations

import ast
import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARKS = ROOT / "benchmarks"
REPORTS = BENCHMARKS / "reports"

sys.path.insert(0, str(BENCHMARKS))

import perf_harness  # noqa: E402

PROSE = [
    ROOT / "README.md", ROOT / "DESIGN.md", ROOT / "EXPERIMENTS.md",
    *sorted((ROOT / "docs").glob("*.md")),
    ROOT / ".github" / "workflows" / "ci.yml",
]
DOCSTRINGED = [*sorted(BENCHMARKS.glob("*.py")), *sorted((ROOT / "src").rglob("*.py"))]

#: (what a mention looks like, the directory the captured name must be
#: in). Globs and placeholders (``BENCH_*.json``, ``BENCH_<name>.json``)
#: and what a run leaves behind uncommitted (``TRACE_*.jsonl``,
#: ``conform_failures/``) do not match.
MENTIONS = [
    (re.compile(r"\bbenchmarks/((?:e2e/)?\w+\.py)\b"), BENCHMARKS),
    # A bench script by its bare name, as EXPERIMENTS.md's headings and
    # the bench docstrings give it.
    (re.compile(r"(?<![\w/])(bench_\w+\.py)\b"), BENCHMARKS),
    (re.compile(r"\b(BENCH_\w+\.json)\b"), REPORTS),
    (re.compile(r"\breports/([\w.-]+\.(?:txt|csv|json))\b"), REPORTS),
]


def _docstrings(path: Path) -> str:
    nodes = ast.walk(ast.parse(path.read_text()))
    documented = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    return "\n".join(
        ast.get_docstring(node) or "" for node in nodes if isinstance(node, documented)
    )


def _sources():
    for path in PROSE:
        yield path, path.read_text()
    for path in DOCSTRINGED:
        yield path, _docstrings(path)


def test_every_bench_file_a_doc_names_exists():
    dangling = sorted(
        f"{path.relative_to(ROOT)}: {match.group(0)}"
        for path, text in _sources()
        for pattern, home in MENTIONS
        for match in pattern.finditer(text)
        if not (home / match.group(1)).exists()
    )
    assert not dangling, "\n".join(dangling)


@pytest.mark.parametrize("section", ["memory", "adversary"])
def test_harness_section_runs_and_writes_its_report(section, tmp_path, monkeypatch):
    """The two cheapest sections, through the one ``main``: the gate
    passes and the report lands where ``REPORT_DIR`` points."""
    monkeypatch.setattr(perf_harness, "REPORT_DIR", tmp_path)
    assert perf_harness.main(["--smoke", "--only", section]) == 0
    report = json.loads((tmp_path / f"BENCH_{section}.json").read_text())
    assert report["config"]["smoke"] is True
    assert [p.name for p in tmp_path.iterdir()] == [f"BENCH_{section}.json"]
