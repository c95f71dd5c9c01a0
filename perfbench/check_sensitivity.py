"""Sensitivity self-check: a slower layer must move its own workload only.

Each test injects a real slower implementation through a public
parameter, with no sleeps, and compares one plain and one traced pass
against the unmodified program on the same seed:

* a placer with twice the ``iterations_per_module`` must raise
  synth-corpus ``placement.s`` and ``wall_s``, and leave defect-route's
  timed phase (``wall_s``, with ``placement.s`` at zero) within the
  bound of ``BENCHMARK.json``, since defect-route places only in set-up;
* ``RoutingSynthesizer(reference=True)``, the engine
  ``RouteStage(reference=True)`` builds, must raise defect-route
  ``routing.s`` and ``wall_s``, and leave synth-corpus ``wall_s`` within
  its bound, since routing is about 1% of synthesis.

Both workloads run on every other job of their lists to keep the check
to a few minutes. Run from the repository root::

    python3 -m pytest perfbench/check_sensitivity.py -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from harness import end_to_end, per_layer, run_phase  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Options  # noqa: E402

SEED = 1
STRIDE = 2


def bounds() -> dict[str, float]:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


def measure(name: str, **options) -> dict[str, float]:
    """End-to-end metrics of one plain pass plus per-layer metrics of
    one traced pass."""
    workload = WORKLOADS[name](SEED, Options(job_stride=STRIDE, **options))
    workload.setup()
    workload.warmup()
    plain = run_phase(workload, 1, None)
    tracer = Tracer()
    traced = run_phase(workload, 1, tracer)
    return {**end_to_end(plain, 0.0), **per_layer(tracer, traced, plain)}


def within(bound: float, base: float, other: float) -> bool:
    return abs(other - base) <= bound * base


def show(label: str, base: dict, slow: dict, *names: str) -> None:
    """Print the compared metrics (visible with ``pytest -s``)."""
    for name in names:
        print(f"{label:<34} {name:<20} {base[name]:12.4f} -> {slow[name]:12.4f}")


def test_slower_placer_moves_synth_corpus_only():
    bound = bounds()
    base, slow = measure("synth-corpus"), measure("synth-corpus", iterations_scale=2)
    show("synth-corpus, 2x iterations", base, slow, "placement.s", "wall_s")
    assert slow["placement.proposals"] > 1.8 * base["placement.proposals"]
    assert slow["placement.s"] > 1.5 * base["placement.s"]
    assert slow["wall_s"] > (1 + bound["wall_s"]) * base["wall_s"]

    base, slow = measure("defect-route"), measure("defect-route", iterations_scale=2)
    show("defect-route, 2x iterations", base, slow, "placement.s", "wall_s")
    assert base["placement.s"] == slow["placement.s"] == 0.0
    assert within(bound["wall_s"], base["wall_s"], slow["wall_s"])


def test_reference_routing_moves_defect_route_only():
    bound = bounds()
    base, slow = measure("defect-route"), measure("defect-route", reference_routing=True)
    show("defect-route, reference routing", base, slow, "routing.s", "wall_s")
    assert slow["routing.s"] > 1.5 * base["routing.s"]
    assert slow["wall_s"] > (1 + bound["wall_s"]) * base["wall_s"]

    base, slow = measure("synth-corpus"), measure("synth-corpus", reference_routing=True)
    show("synth-corpus, reference routing", base, slow, "routing.s", "wall_s")
    assert slow["routing.s"] > base["routing.s"]
    assert within(bound["wall_s"], base["wall_s"], slow["wall_s"])
