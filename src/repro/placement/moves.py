"""The annealer's generation functions (paper Section 4(b)).

New placements are generated four ways:

(i)   a randomly selected module is displaced to a random location;
(ii)  a module is displaced *and* its orientation is changed;
(iii) a random pair of modules is interchanged;
(iv)  a pair is interchanged with at least one orientation change.

Single-module moves (i/ii) are drawn with probability ``p`` and pair
moves (iii/iv) with ``1 - p``; the effective ratio is experimentally
determined (paper), defaulting to 0.8 here. Displacements respect the
controlling window and all moves keep footprints inside the core area.

Proposals are emitted as lightweight :class:`~repro.placement.
incremental.Move` objects (op id + new origin/orientation per touched
module); :meth:`MoveGenerator.propose` wraps that in a copied placement
for the generic full-recompute path, consuming the *identical* RNG
sequence, so the incremental and reference annealing paths explore the
same trajectory for the same seed.

The generator caches each placement's candidate order and per-module
footprint geometry, so a displacement is O(1) (a pair move adds
``Random.sample``'s own pool copy). It draws its integers with the
``_randbelow`` calls that ``Random.choice`` and ``Random.randint``
reduce to (CPython 3.11-3.13), so the stream stays draw-for-draw the
one those public calls would consume.
"""

from __future__ import annotations

import random
from collections.abc import Collection

from repro.placement.incremental import Move, ModuleUpdate, apply_move
from repro.placement.model import Placement
from repro.placement.window import ControllingWindow
from repro.util.rng import ensure_rng


class MoveGenerator:
    """Proposes neighbor placements for the annealer."""

    def __init__(
        self,
        window: ControllingWindow,
        p_single: float = 0.8,
        p_rotate: float = 0.5,
        single_only: bool = False,
        seed: int | random.Random | None = None,
        movable: Collection[str] | None = None,
    ) -> None:
        if not 0.0 <= p_single <= 1.0:
            raise ValueError(f"p_single must be in [0, 1], got {p_single}")
        if not 0.0 <= p_rotate <= 1.0:
            raise ValueError(f"p_rotate must be in [0, 1], got {p_rotate}")
        self.window = window
        self.p_single = p_single
        self.p_rotate = p_rotate
        #: LTSA mode (paper Section 6.1): pair interchanges disabled.
        self.single_only = single_only
        #: When set, only these op ids are ever touched by a move — the
        #: online-recovery warm restart anneals the not-yet-started
        #: modules around frozen in-flight ones. ``None`` (default)
        #: leaves every module movable and consumes the RNG stream
        #: identically to the historical generator.
        self.movable = None if movable is None else frozenset(movable)
        self._rng = ensure_rng(seed)
        self._randbelow = self._rng._randbelow
        # Cache for the last placement seen (see _refresh).
        self._placement: Placement | None = None
        self._size = -1
        self._core: tuple[int, int] = (0, 0)
        self._ids: list[str] = []
        #: Per op: ``(spec, is_square, orient)``, where ``orient[rotated]``
        #: is ``(max_x, max_y, fits)`` for that orientation in the core.
        self._geom: dict[str, tuple] = {}
        # Window span of the last temperature, and its randint width.
        self._span_temp: float | None = None
        self._span = 0
        self._span_width = 1

    # -- public API -----------------------------------------------------------------

    def propose_move(self, placement: Placement, temperature: float) -> Move:
        """Return a :class:`Move` one step away from *placement*."""
        modules = placement._modules
        if placement is not self._placement or len(modules) != self._size:
            self._refresh(placement)
        ids = self._ids
        n = len(ids)
        if not n:
            raise ValueError("cannot propose moves: no movable modules")
        rng = self._rng
        if self.single_only or n < 2 or rng.random() < self.p_single:
            # Types (i) and (ii): displace one module, maybe re-oriented.
            op = ids[self._randbelow(n)]  # rng.choice(ids)
            pm = modules[op]
            rotated = pm.rotated
            _spec, square, orient = self._geom[op]
            if not square and rng.random() < self.p_rotate and orient[not rotated][2]:
                rotated = not rotated  # type (ii)
            if temperature != self._span_temp:
                self._span = self.window.span(temperature)
                self._span_width = 2 * self._span + 1
                self._span_temp = temperature
            # Uniform origin within the controlling window, clamped to
            # the core: rng.randint(-span, span) per axis.
            max_x, max_y, _fits = orient[rotated]
            nx = pm.x - self._span + self._randbelow(self._span_width)
            if nx > max_x:
                nx = max_x
            if nx < 1:
                nx = 1
            ny = pm.y - self._span + self._randbelow(self._span_width)
            if ny > max_y:
                ny = max_y
            if ny < 1:
                ny = 1
            return Move(updates=(ModuleUpdate(op, nx, ny, rotated),))

        # Types (iii) and (iv): swap two modules' origins.
        a, b = rng.sample(ids, 2)
        pa, pb = modules[a], modules[b]
        rot_a, rot_b = pa.rotated, pb.rotated
        geom = self._geom
        if rng.random() < self.p_rotate:
            # Type (iv): at least one of the pair changes orientation.
            if rng.random() < 0.5:
                _spec, square, orient = geom[a]
                if not square and orient[not rot_a][2]:
                    rot_a = not rot_a
            else:
                _spec, square, orient = geom[b]
                if not square and orient[not rot_b][2]:
                    rot_b = not rot_b
        # Clamp each origin so the (possibly rotated) footprint stays
        # inside the core area.
        return Move(updates=(
            _update_at(a, pb.x, pb.y, geom[a][2][rot_a], rot_a),
            _update_at(b, pa.x, pa.y, geom[b][2][rot_b], rot_b),
        ))

    def propose(self, placement: Placement, temperature: float) -> Placement:
        """Return a new placement one move away from *placement*."""
        return apply_move(placement, self.propose_move(placement, temperature))

    # -- cache ------------------------------------------------------------------------

    def _refresh(self, placement: Placement) -> None:
        """Cache *placement*'s candidate order and per-op geometry.

        Keyed on the placement object and its length: Placement has no
        remove, so an unchanged length means an unchanged op set, and
        the schedule fixes every op's spec. Geometry of ops whose spec
        and core are unchanged carries over from the previous
        placement, which keeps the generic path (a fresh placement copy
        per proposal) at O(n) dict lookups per refresh.
        """
        modules = placement._modules
        movable = self.movable
        ids = list(modules) if movable is None else [
            op for op in modules if op in movable
        ]
        core = (placement.core_width, placement.core_height)
        old = self._geom if core == self._core else {}
        cw, ch = core
        geom = {}
        for op in ids:
            spec = modules[op].spec
            g = old.get(op)
            if g is None or g[0] is not spec:
                orient = []
                for rotated in (False, True):
                    w, h = spec.dims(rotated)
                    orient.append((cw - w + 1, ch - h + 1, w <= cw and h <= ch))
                g = (spec, spec.is_square, tuple(orient))
            geom[op] = g
        self._placement = placement
        self._size = len(modules)
        self._core = core
        self._ids = ids
        self._geom = geom


def _update_at(
    op: str, x: int, y: int, limits: tuple[int, int, bool], rotated: bool
) -> ModuleUpdate:
    """*op* at ``(x, y)`` clamped to the orientation's ``(max_x, max_y)``."""
    max_x, max_y, _fits = limits
    if x > max_x:
        x = max_x
    if x < 1:
        x = 1
    if y > max_y:
        y = max_y
    if y < 1:
        y = 1
    return ModuleUpdate(op, x, y, rotated)
