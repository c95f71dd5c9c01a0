"""One recipe for every synthesis: :class:`SynthesisSpec`.

The paper's flow — bind, schedule, fault-aware SA placement (-> route
-> droplet replay) — runs from the CLI commands, from each portfolio
instance, and from each batch and campaign unit. All of them
describe it with the same few choices, so the spec names those choices
once, resolves their defaults in one place, and builds the pipeline
through :func:`~repro.pipeline.pipeline.build_default_pipeline`. It
holds only strings and numbers: it pickles into pool workers, and
``dataclasses.replace`` derives a grid unit's spec from a template.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from repro.assay.catalog import build_assay, check_assay, is_generator_spec
from repro.geometry import Point
from repro.pipeline.context import SynthesisContext
from repro.pipeline.pipeline import Pipeline, build_default_pipeline
from repro.placement.annealer import AnnealingParams
from repro.placement.cost import FaultAwareCost
from repro.placement.sa_placer import SimulatedAnnealingPlacer
from repro.placement.two_stage import TwoStagePlacer
from repro.synthesis.flow import SynthesisResult
from repro.util.errors import UsageError


@dataclass(frozen=True)
class SynthesisSpec:
    """A picklable description of one seeded synthesis run."""

    #: Bundled assay name or ``gen:`` spec (:mod:`repro.assay.catalog`).
    assay: str = "pcr"
    #: Placement core ``(width, height)``; ``None`` sizes it to the modules.
    array: tuple[int, int] | None = None
    #: The ``fast`` annealing preset, else ``balanced``.
    fast: bool = True
    #: Fault-aware two-stage placement at this beta; ``None`` = area only.
    beta: float | None = None
    max_concurrent: int | None = 3
    #: Bound on parked product droplets; ``None`` resolves per assay
    #: (see :attr:`parked`).
    max_parked: int | None = None
    route: bool = False
    verify: bool = False
    #: The placer's seed.
    seed: int = 7

    def __post_init__(self) -> None:
        # Reject bad input here, in the caller's process, rather than
        # inside a pool worker after a stage-1 anneal.
        check_assay(self.assay)
        if self.beta is not None:
            FaultAwareCost(beta=self.beta)
        for name in ("max_concurrent", "max_parked"):
            bound = getattr(self, name)
            if bound is not None and bound < 1:
                raise UsageError(f"{name} must be >= 1, got {bound}")

    @property
    def annealing(self) -> AnnealingParams:
        """The placement preset."""
        return AnnealingParams.fast() if self.fast else AnnealingParams.balanced()

    @property
    def recovery_annealing(self) -> AnnealingParams | None:
        """The recovery re-placement preset: ``fast``, or ``None`` for
        the recovery engine's own (low-temperature) default."""
        return AnnealingParams.fast() if self.fast else None

    @property
    def parked(self) -> int | None:
        """The scheduler's parked-droplet bound.

        Generated workloads default to 2: wide random graphs otherwise
        park product droplets into routing obstacles (DESIGN.md, drain
        chains). Bundled assays keep their unbounded golden schedules.
        An explicit ``max_parked`` wins either way.
        """
        if self.max_parked is not None:
            return self.max_parked
        return 2 if is_generator_spec(self.assay) else None

    def build(self, *, routing_synthesizer=None, **placer_options) -> Pipeline:
        """The pipeline this spec describes.

        *placer_options* (``cross_check``, ``record_history``) pass to
        the placer; *routing_synthesizer* replaces the route stage's
        default router.
        """
        core_w, core_h = self.array or (None, None)
        if self.beta is not None:
            placer = TwoStagePlacer(
                beta=self.beta, stage1_params=self.annealing,
                core_width=core_w, core_height=core_h, seed=self.seed,
                **placer_options,
            )
        else:
            placer = SimulatedAnnealingPlacer(
                params=self.annealing, core_width=core_w, core_height=core_h,
                seed=self.seed, **placer_options,
            )
        return build_default_pipeline(
            placer=placer,
            max_concurrent_ops=self.max_concurrent,
            max_parked=self.parked,
            route=self.route,
            routing_synthesizer=routing_synthesizer,
            verify=self.verify,
        )

    def context(
        self, faulty_cells: Iterable[Point | tuple[int, int]] = ()
    ) -> SynthesisContext:
        """A fresh context holding the assay's graph and explicit binding."""
        graph, binding = build_assay(self.assay)
        return SynthesisContext(
            graph=graph, explicit_binding=binding, faulty_cells=tuple(faulty_cells)
        )

    def run(
        self, faulty_cells: Iterable[Point | tuple[int, int]] = (), **build_options
    ) -> SynthesisResult:
        """Build and run the pipeline; *build_options* go to :meth:`build`."""
        pipeline = self.build(**build_options)
        return pipeline.run(self.context(faulty_cells)).result()
