"""Benchmark harness plumbing.

Each benchmark regenerates one table/figure of the paper. Regenerated
rows are registered through the ``report`` fixture and printed in the
terminal summary, so ``pytest benchmarks/ --benchmark-only`` shows both
the timings and the paper-vs-measured tables without needing ``-s``.

The harness is wired to the staged pipeline: ``make_portfolio_spec``
builds a ready :class:`repro.pipeline.SynthesisSpec` for any assay of
the shared :mod:`repro.assay.catalog`, so portfolio/batch benchmarks
use the same registry and construction path as the CLI.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

_SECTIONS: list[tuple[str, str]] = []

#: Machine-readable benchmark results land here (CI uploads the file as
#: an artifact); override with REPRO_BENCH_JSON.
BENCH_JSON_DEFAULT = "BENCH_placement.json"


def write_bench_json(section: str, payload: dict, default: str = BENCH_JSON_DEFAULT) -> Path:
    """Merge *payload* under *section* into the benchmark JSON file.

    Read-modify-write so several benchmark modules (throughput, area
    parity, portfolio) can contribute sections to one artifact.
    *default* names the artifact a benchmark family writes when
    ``REPRO_BENCH_JSON`` is unset (placement benches share one file,
    the routing-engine bench writes ``BENCH_routing.json``).
    """
    path = Path(os.environ.get("REPRO_BENCH_JSON", default))
    data: dict = {}
    if path.exists():
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            data = {}
    data[section] = payload
    path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def bench_json():
    """Fixture handle on :func:`write_bench_json`."""
    return write_bench_json


@pytest.fixture
def make_portfolio_spec():
    """Factory: a pipeline SynthesisSpec for a named bundled assay."""
    from repro.pipeline import SynthesisSpec

    def make(assay: str, *, route: bool = False, fast: bool = True, **kwargs):
        return SynthesisSpec(assay=assay, fast=fast, route=route, **kwargs)

    return make


@pytest.fixture
def report():
    """Register a titled text block for the end-of-run report."""

    def add(title: str, text: str) -> None:
        _SECTIONS.append((title, text))

    return add


def pytest_terminal_summary(terminalreporter):
    if not _SECTIONS:
        return
    terminalreporter.write_sep("=", "paper-vs-measured report")
    for title, text in _SECTIONS:
        terminalreporter.write_sep("-", title)
        for line in text.splitlines():
            terminalreporter.write_line(line)
    _SECTIONS.clear()
