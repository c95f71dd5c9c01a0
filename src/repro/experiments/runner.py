"""Run every experiment and render the paper-vs-measured report.

``python -m repro.experiments.runner`` regenerates the content of
EXPERIMENTS.md (to stdout, or to a file with ``--out``). Individual
experiments stay importable for the benchmark harness.
"""

from __future__ import annotations

import argparse
import time

from repro.experiments import paper_constants as paper
from repro.experiments.fig2 import demonstrate_3d_reduction
from repro.experiments.fig4 import run_reconfiguration_example
from repro.experiments.fig5 import describe_pcr_graph
from repro.experiments.fig7 import run_min_area_experiment
from repro.experiments.fig8 import run_enhanced_experiment
from repro.experiments.pcr import pcr_case_study, verify_table1
from repro.experiments.table2 import run_beta_sweep
from repro.fault.fti import compute_fti
from repro.pipeline import BUILTIN_FAULT_PATTERNS, BatchScenarioRunner, SynthesisSpec
from repro.util.tables import format_table
from repro.viz.ascii_art import render_fti_map, render_gantt, render_placement


def run_scenario_grid(seed: int = 7, fast: bool = True, jobs: int = 1):
    """The standard fault-scenario grid over the bundled assays.

    Three assays x (fault-free, center-fault) through the staged
    pipeline with routing — the batch extension the paper's Section 7
    anticipates ("defect/fault scenarios layered on the flow"). Kept as
    its own entry point so the benchmark harness can time it.
    """
    runner = BatchScenarioRunner(
        SynthesisSpec(fast=fast, route=True, seed=seed),
        assays=("pcr", "dilution", "ivd"),
        fault_patterns=[
            BUILTIN_FAULT_PATTERNS["none"],
            BUILTIN_FAULT_PATTERNS["center"],
        ],
    )
    return runner.run(jobs=jobs)


def run_all_experiments(seed: int = 7, fast: bool = True, jobs: int = 1) -> str:
    """Execute every experiment; returns the full markdown-ish report."""
    params = SynthesisSpec(fast=fast).annealing
    sections = []
    t0 = time.perf_counter()

    study = pcr_case_study()
    sections.append("## Table 1 — resource binding in PCR\n")
    sections.append(study.table1_text())
    mismatches = verify_table1()
    sections.append(
        "\nLibrary matches the paper's Table 1 exactly."
        if not mismatches
        else "\nMISMATCHES: " + "; ".join(mismatches)
    )

    sections.append("\n\n## Figure 5 — PCR sequencing graph\n")
    facts = describe_pcr_graph()
    sections.append(
        f"{facts.node_count} mix operations, {facts.edge_count} dependencies; "
        f"balanced binary tree: {facts.is_balanced_binary_tree}; "
        f"critical path: {' -> '.join(facts.critical_path)}"
    )

    sections.append("\n\n## Figure 6 — schedule of module usage\n")
    sections.append(render_gantt(study.schedule))
    sections.append(
        f"\nmakespan {study.makespan:g} s, peak concurrent demand "
        f"{study.peak_cell_demand} cells"
    )

    sections.append("\n\n## Figure 2 — 3-D packing reduced to modified 2-D placement\n")
    demo = demonstrate_3d_reduction(seed=seed)
    sections.append(
        f"time planes (cuts): {[f'{t:g}' for t in demo.time_planes]}; every cut "
        f"overlap-free: {all(demo.cut_is_overlap_free(t) for t in demo.time_planes)}"
    )

    sections.append("\n\n## Figure 7 — min-area placement vs greedy baseline\n")
    exp7 = run_min_area_experiment(seed=seed, params=params)
    sections.append(
        format_table(("metric", "paper", "measured"), exp7.rows())
    )
    sections.append("\nmeasured min-area placement:\n")
    sections.append(render_placement(exp7.sa.placement))

    sections.append("\n\n## FTI map of the min-area placement (Section 5.3)\n")
    sections.append(render_fti_map(compute_fti(exp7.sa.placement)))

    sections.append("\n\n## Figure 4 — partial reconfiguration example\n")
    exp4 = run_reconfiguration_example(seed=seed)
    sections.append(
        f"faulty cell {exp4.faulty_cell}; relocated {list(exp4.moved_modules)} "
        f"(total migration distance {exp4.migration_distance} cells)"
    )

    sections.append("\n\n## Figure 8 — enhanced two-stage placement (beta=30)\n")
    exp8 = run_enhanced_experiment(seed=seed, stage1_params=params)
    sections.append(format_table(("metric", "paper", "measured"), exp8.rows()))
    sections.append("\nmeasured enhanced placement:\n")
    sections.append(render_placement(exp8.result.placement))

    sections.append("\n\n## Table 2 — beta sweep\n")
    sweep = run_beta_sweep(seed=seed, stage1_params=params)
    sections.append(sweep.table_text())
    sections.append(
        f"\nFTI monotone in beta: {sweep.fti_is_monotone()}; reaches FTI 1.0: "
        f"{sweep.reaches_full_coverage()}"
    )

    sections.append("\n\n## Fault-scenario grid (pipeline extension)\n")
    grid = run_scenario_grid(seed=seed, fast=fast, jobs=jobs)
    sections.append(grid.table_text())
    sections.append(
        f"\n{grid.ok_count}/{len(grid.records)} scenarios synthesized and "
        f"routed; upstream bind/schedule/place stages reused across fault "
        f"patterns ({grid.wall_s:.1f} s wall, jobs={grid.jobs})"
    )

    elapsed = time.perf_counter() - t0
    sections.append(
        f"\n\n(total experiment runtime {elapsed:.1f} s; paper's CPU anecdotes: "
        f"{paper.PAPER_PLACEMENT_CPU_MIN:g} min placement / "
        f"{paper.PAPER_FTI_CPU_S:g} s FTI / "
        f"{paper.PAPER_TWO_STAGE_CPU_MIN:g} min two-stage on a 1 GHz Pentium-III)"
    )
    return "\n".join(sections)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--full", action="store_true", help="use the larger annealing preset"
    )
    parser.add_argument("--out", type=str, default=None, help="write report here")
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the fault-scenario grid",
    )
    args = parser.parse_args()
    report = run_all_experiments(seed=args.seed, fast=not args.full, jobs=args.jobs)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report + "\n")
    else:
        print(report)


if __name__ == "__main__":
    main()
