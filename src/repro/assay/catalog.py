"""The assay catalog: one registry for every entry point.

Maps a protocol name to a zero-argument builder returning
``(sequencing graph, explicit_binding_or_None)``. The CLI, the
experiments runner, the campaign runner, and the benchmark harness all
draw from this single mapping, so adding or re-parameterizing a bundled
assay is a one-line change.

Beyond the bundled names, any generator spec string
(``gen:<family>:n=<modules>[:seed=S][:param=V...]``, see
:mod:`repro.workload.generator`) resolves through :func:`build_assay`
to a synthesized sequencing graph — every ``--protocol`` flag therefore
accepts an unbounded family of workloads, not just the five demos.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping

from repro.assay.graph import SequencingGraph
from repro.assay.protocols.dilution import build_serial_dilution_graph
from repro.assay.protocols.glucose import build_multiplexed_diagnostics_graph
from repro.assay.protocols.pcr import PCR_BINDING, build_pcr_mixing_graph
from repro.assay.synthetic import build_mix_tree
from repro.util.errors import UsageError

AssayBuilder = Callable[[], tuple[SequencingGraph, Mapping[str, str] | None]]

BUNDLED_ASSAYS: dict[str, AssayBuilder] = {
    "pcr": lambda: (build_pcr_mixing_graph(), PCR_BINDING),
    "dilution": lambda: (build_serial_dilution_graph(4), None),
    "ivd": lambda: (build_multiplexed_diagnostics_graph(2, 2), None),
    "tree8": lambda: (build_mix_tree(8), None),
    "tree16": lambda: (build_mix_tree(16), None),
}


def is_generator_spec(name: str) -> bool:
    """True when *name* addresses the workload generator, not a bundle."""
    # Inline prefix check: the generator package imports the synthesis
    # pipeline, so a module-level import here would be circular.
    return name.startswith("gen:")


def check_assay(name: str) -> None:
    """Raise :class:`~repro.util.errors.UsageError` unless *name* is a
    bundled assay or a well-formed ``gen:`` spec (parsed, not built)."""
    if is_generator_spec(name):
        from repro.workload.generator import GeneratorSpec

        try:
            GeneratorSpec.parse(name)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    elif name not in BUNDLED_ASSAYS:
        raise UsageError(
            f"unknown protocol {name!r}; choose from {sorted(BUNDLED_ASSAYS)} "
            "or a generator spec like 'gen:dilution-ladder:n=128:seed=7'"
        )


def build_assay(name: str) -> tuple[SequencingGraph, Mapping[str, str] | None]:
    """Build the named bundled assay or ``gen:`` spec.

    Unknown names and malformed generator specs raise
    :class:`~repro.util.errors.UsageError` (CLI exit code 2) listing
    the available choices — a user typo, not an internal failure.
    """
    check_assay(name)
    if is_generator_spec(name):
        from repro.workload.generator import generate

        try:
            return generate(name), None
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    return BUNDLED_ASSAYS[name]()
