"""Incremental delta-cost evaluation for the placement annealers.

The paper's annealer (Figure 3) runs ``Na x Nm`` Metropolis proposals
per temperature round, and a naive transcription pays full price for
each one: an O(n^2) pairwise overlap recomputation, a bounding-box
rebuild, and a whole-placement copy per proposal. This module exploits
the key structural fact of the modified-2D formulation — module time
spans are **fixed by the schedule** — to make a single-module move,
rotate, or pair interchange cost O(time-neighbors) to delta-evaluate
and O(1) to apply:

* **Static time-neighbor lists.** Whether two modules can ever conflict
  is decided by their (schedule-fixed) time spans. The evaluator
  precomputes, once, the list of time-overlapping partners of every
  module together with the pair's shared duration ``dt``; a move only
  re-examines those partners.
* **Edge count arrays.** Footprint edges are integers inside the core
  area, so each of the four edge multisets (x1/x2/y1/y2) is a list of
  per-coordinate counts sized to the core, next to the cached bounding
  box. A candidate box after a move keeps the cached edge unless a
  moved module was its only holder; only then does a scan walk to the
  next occupied coordinate, stopping at the moved module's new edge and
  at the array's end, so an out-of-core candidate is priced without
  indexing past the array. :meth:`IncrementalCostEvaluator.apply`
  moves one count per edge and takes the box the delta already found.
* **Running sums.** The total overlap volume, an *integer* count of
  conflicting pairs (the exact feasibility gate — immune to float
  drift), and the integer corner-pull sum are maintained under apply;
  :meth:`IncrementalCostEvaluator.resync` rebuilds them from scratch on
  a fixed cadence so float error cannot accumulate across millions of
  applies.

Proposals travel as lightweight :class:`Move` objects (op id + new
origin/orientation per touched module) instead of copied placements;
the cost classes in :mod:`repro.placement.cost` combine the evaluator's
component deltas into their own objective deltas. :meth:`apply` returns
nothing; a caller that needs to revert asks :meth:`inverse` for the
undo move *before* applying.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.placement.model import PlacedModule, Placement
from repro.util.errors import CrossCheckError, PlacementError

__all__ = [
    "CrossCheckError",  # re-exported; the class lives in repro.util.errors
    "IncrementalCostEvaluator",
    "ModuleUpdate",
    "Move",
]


@dataclass(frozen=True, slots=True)
class ModuleUpdate:
    """One module's new origin and orientation inside a :class:`Move`."""

    op_id: str
    x: int
    y: int
    rotated: bool


@dataclass(frozen=True, slots=True)
class Move:
    """A proposed state change: one update (displace/rotate) or two (swap)."""

    updates: tuple[ModuleUpdate, ...]

    def __post_init__(self) -> None:
        if not self.updates:
            raise ValueError("a Move needs at least one module update")


@dataclass(frozen=True, slots=True)
class MoveDelta:
    """Component-wise effect of a :class:`Move` on the evaluator's state.

    The cost classes weigh these into an objective delta; keeping the
    components raw lets several costs share one evaluation.
    """

    d_area_mm2: float
    d_overlap: float
    #: Integer corner-pull change, sum of (x2 + y2) deltas.
    d_pull: int
    #: Integer change in the number of space-and-time conflicting pairs.
    d_conflict_pairs: int


class _Rec:
    """Mutable per-module footprint record (coordinates + orientation)."""

    __slots__ = ("x1", "y1", "x2", "y2", "rotated")

    def __init__(self, x1: int, y1: int, x2: int, y2: int, rotated: bool) -> None:
        self.x1 = x1
        self.y1 = y1
        self.x2 = x2
        self.y2 = y2
        self.rotated = rotated


def edge_counts(size: int, values) -> list[int]:
    """Count array of the edge coordinates *values*, all in ``[1, size]``."""
    counts = [0] * (size + 1)
    for v in values:
        counts[v] += 1
    return counts


def edge_min_after(counts: list[int], lo: int, removed, added) -> int:
    """Minimum of the count-array multiset *counts* (current minimum
    *lo*) with the values in *removed* taken out and those in *added*
    put in, without mutating anything.

    The scan stops at the first coordinate whose count outlives the
    removals, at ``min(added)``, or at the end of the array, whichever
    comes first; *added* may lie outside the array.
    """
    best = min(added)
    stop = best if best < len(counts) else len(counts)
    v = lo
    while v < stop:
        c = counts[v]
        if c and c > removed.count(v):
            return v
        v += 1
    return best


def edge_max_after(counts: list[int], hi: int, removed, added) -> int:
    """Mirror of :func:`edge_min_after` for the maximum edge."""
    best = max(added)
    stop = best if best > 0 else 0
    v = hi
    while v > stop:
        c = counts[v]
        if c and c > removed.count(v):
            return v
        v -= 1
    return best


class IncrementalCostEvaluator:
    """Maintains O(1)-queryable cost components of a mutating placement.

    The evaluator *owns* the placement it is given: :meth:`apply`
    mutates it in place (module records, edge count arrays, bounding
    box, and running sums all stay in lock-step), while
    :meth:`delta_components` is pure — it prices a :class:`Move`
    without touching any state, caching the evaluation so an
    immediately following :meth:`apply` of the same move is free.

    Invariants (see DESIGN.md for the full argument):

    * time-neighbor lists and per-pair shared durations are computed
      once in ``__init__`` and never change — the schedule fixes them;
    * ``conflict_pairs`` is an exact integer, so the feasibility gate
      (``overlap > 0``) used by the fault-aware cost can never be
      corrupted by float drift;
    * every ``resync_every`` applies, the float ``overlap_total`` is
      rebuilt from scratch, bounding accumulated error to the round-off
      of at most ``resync_every`` additions.
    """

    def __init__(
        self,
        placement: Placement,
        resync_every: int = 2048,
        warm_from: IncrementalCostEvaluator | None = None,
    ) -> None:
        if len(placement) == 0:
            raise PlacementError("cannot evaluate an empty placement")
        if resync_every < 1:
            raise ValueError(f"resync_every must be >= 1, got {resync_every}")
        self.placement = placement
        self.resync_every = resync_every

        pitch = placement.pitch_mm
        self._pitch2 = pitch * pitch

        self._recs: dict[str, _Rec] = {}
        for pm in placement:
            fp = pm.footprint
            self._recs[pm.op_id] = _Rec(fp.x, fp.y, fp.x2, fp.y2, pm.rotated)

        if warm_from is not None and self._warm_compatible(warm_from, placement):
            # Same operation set, spans, specs, and pitch: every
            # schedule-fixed structure (the O(n^2) time-neighbor lists,
            # the per-pair durations, the dims cache) and the FTI memo
            # (keyed by translation-normalized signature — position- and
            # fault-independent) carry over verbatim. Only the
            # position-dependent records, edge counts, and running sums
            # below are rebuilt. The shared structures are never
            # mutated after construction, so aliasing them is safe.
            self._specs = warm_from._specs
            self._spans = warm_from._spans
            self._dims = warm_from._dims
            self._nbrs = warm_from._nbrs
            self._pair_dt = warm_from._pair_dt
            self.memo = warm_from.memo
        else:
            #: Scratch space for cost-side memoization (FTI by signature).
            self.memo = {}
            self._specs = {}
            self._spans = {}
            #: Per-op ``(normal_dims, rotated_dims)`` — dims() is a hot call.
            self._dims = {}
            for pm in placement:
                self._specs[pm.op_id] = pm.spec
                self._spans[pm.op_id] = (pm.start, pm.stop)
                self._dims[pm.op_id] = (pm.spec.dims(False), pm.spec.dims(True))

            # Static time-overlap structure: fixed by the schedule forever.
            ids = list(self._recs)
            self._nbrs = {op: [] for op in ids}
            self._pair_dt = {}
            for i, a in enumerate(ids):
                a_start, a_stop = self._spans[a]
                for b in ids[i + 1:]:
                    b_start, b_stop = self._spans[b]
                    dt = min(a_stop, b_stop) - max(a_start, b_start)
                    if dt > 0:
                        self._nbrs[a].append((b, dt))
                        self._nbrs[b].append((a, dt))
                        self._pair_dt[(a, b)] = dt
                        self._pair_dt[(b, a)] = dt

        # Edge count arrays (index = coordinate) and the cached box.
        # Placement keeps every module inside the core, which bounds
        # the indices.
        core_w, core_h = placement.core_width, placement.core_height
        recs = self._recs.values()
        self._cx1 = edge_counts(core_w, (r.x1 for r in recs))
        self._cx2 = edge_counts(core_w, (r.x2 for r in recs))
        self._cy1 = edge_counts(core_h, (r.y1 for r in recs))
        self._cy2 = edge_counts(core_h, (r.y2 for r in recs))
        self._bx1 = min(r.x1 for r in recs)
        self._by1 = min(r.y1 for r in recs)
        self._bx2 = max(r.x2 for r in recs)
        self._by2 = max(r.y2 for r in recs)

        # The last evaluation, reused by an apply of the same Move:
        # its components, its new footprints as
        # ``(op, x1, y1, x2, y2, rotated)`` rows, and its bounding box.
        self._pend_move: Move | None = None
        self._pend_delta: MoveDelta | None = None
        self._pend_rows: tuple = ()
        self._pend_bbox: tuple[int, int, int, int] = (0, 0, 0, 0)
        self._sig: tuple | None = None
        self._applies_since_resync = 0
        self.overlap_total = 0.0
        self.conflict_pairs = 0
        self.pull_sum = 0
        self._rebuild_sums()

    @staticmethod
    def _warm_compatible(
        warm: IncrementalCostEvaluator, placement: Placement
    ) -> bool:
        """True when *warm*'s schedule-fixed structures apply verbatim:
        identical op set, module specs (by identity), time spans, and
        pitch. Placements that differ only in module positions — a
        recovery campaign's per-scenario layouts — qualify."""
        if warm._pitch2 != placement.pitch_mm * placement.pitch_mm:
            return False
        if len(warm._specs) != len(placement):
            return False
        for pm in placement:
            if warm._specs.get(pm.op_id) is not pm.spec:
                return False
            if warm._spans[pm.op_id] != (pm.start, pm.stop):
                return False
        return True

    # -- component queries --------------------------------------------------------

    @property
    def area_cells(self) -> int:
        """Bounding-array area in cells (exact, from the cached box)."""
        return (self._bx2 - self._bx1 + 1) * (self._by2 - self._by1 + 1)

    @property
    def area_mm2(self) -> float:
        """Bounding-array area in mm^2 at the placement's pitch."""
        return self.area_cells * self._pitch2

    @property
    def is_feasible(self) -> bool:
        """Exact feasibility — gated by the integer conflict counter."""
        return self.conflict_pairs == 0

    def bounding_box(self) -> tuple[int, int, int, int]:
        """Current ``(x1, y1, x2, y2)`` of the bounding array."""
        return self._bx1, self._by1, self._bx2, self._by2

    def signature(self) -> tuple:
        """Translation-normalized identity of the current configuration.

        Two placements that differ only by a rigid translation have the
        same signature (and the same FTI), which is what makes this a
        good memoization key for the fault-aware cost. Cached between
        applies — the LTSA loop asks for it on every feasible proposal.
        """
        if self._sig is None:
            dx, dy = self._bx1, self._by1
            self._sig = tuple(sorted(
                (op, r.x1 - dx, r.y1 - dy, r.rotated)
                for op, r in self._recs.items()
            ))
        return self._sig

    def candidate_signature(self, move: Move) -> tuple:
        """The signature the placement would have after *move*."""
        if move is not self._pend_move:
            self._evaluate(move)
        dx, dy = self._pend_bbox[0], self._pend_bbox[1]
        moved = {row[0]: row for row in self._pend_rows}
        rows = []
        for op, r in self._recs.items():
            c = moved.get(op)
            if c is None:
                rows.append((op, r.x1 - dx, r.y1 - dy, r.rotated))
            else:
                rows.append((op, c[1] - dx, c[2] - dy, c[5]))
        return tuple(sorted(rows))

    def candidate_placement(self, move: Move) -> Placement:
        """A fresh :class:`Placement` with *move* applied (for FTI runs)."""
        out = self.placement.copy()
        for u in move.updates:
            out.replace(out.get(u.op_id).moved_to(u.x, u.y, rotated=u.rotated))
        return out

    def inverse(self, move: Move) -> Move:
        """The move that undoes *move* from the current state.

        Pure: ask for it before :meth:`apply`, which records no undo
        information of its own.
        """
        recs = self._recs
        updates = []
        for u in move.updates:
            rec = recs.get(u.op_id)
            if rec is None:
                raise PlacementError(f"no placed module for op {u.op_id!r}")
            updates.append(ModuleUpdate(u.op_id, rec.x1, rec.y1, rec.rotated))
        return Move(updates=tuple(updates))

    # -- delta evaluation ---------------------------------------------------------

    def delta_components(self, move: Move) -> MoveDelta:
        """Price *move* in O(time-neighbors) without mutating anything."""
        if move is not self._pend_move:
            self._evaluate(move)
        return self._pend_delta

    def _evaluate(self, move: Move) -> None:
        updates = move.updates
        if len(updates) == 1:
            self._eval_single(move, updates[0])
        else:
            self._eval_multi(move)

    def _eval_single(self, move: Move, u: ModuleUpdate) -> None:
        """Specialized hot path: one module displaced and/or rotated."""
        op = u.op_id
        recs = self._recs
        old = recs.get(op)
        if old is None:
            raise PlacementError(f"no placed module for op {op!r}")
        w, h = self._dims[op][1 if u.rotated else 0]
        nx1 = u.x
        ny1 = u.y
        nx2 = nx1 + w - 1
        ny2 = ny1 + h - 1
        ox1, oy1, ox2, oy2 = old.x1, old.y1, old.x2, old.y2

        d_overlap = 0.0
        d_pairs = 0
        for other, dt in self._nbrs[op]:
            b = recs[other]
            bx1, by1, bx2, by2 = b.x1, b.y1, b.x2, b.y2
            ox = (ox2 if ox2 < bx2 else bx2) - (ox1 if ox1 > bx1 else bx1) + 1
            if ox > 0:
                oy = (oy2 if oy2 < by2 else by2) - (oy1 if oy1 > by1 else by1) + 1
                if oy > 0:
                    d_overlap -= ox * oy * dt
                    d_pairs -= 1
            ox = (nx2 if nx2 < bx2 else bx2) - (nx1 if nx1 > bx1 else bx1) + 1
            if ox > 0:
                oy = (ny2 if ny2 < by2 else by2) - (ny1 if ny1 > by1 else by1) + 1
                if oy > 0:
                    d_overlap += ox * oy * dt
                    d_pairs += 1

        # Bounding-box peek: a cached edge moves only when this module
        # was its sole holder; then scan to the next occupied coordinate.
        cur_x1, cur_y1, cur_x2, cur_y2 = self._bx1, self._by1, self._bx2, self._by2
        if ox1 == cur_x1 and self._cx1[ox1] == 1:
            bx1 = edge_min_after(self._cx1, ox1, (ox1,), (nx1,))
        else:
            bx1 = nx1 if nx1 < cur_x1 else cur_x1
        if oy1 == cur_y1 and self._cy1[oy1] == 1:
            by1 = edge_min_after(self._cy1, oy1, (oy1,), (ny1,))
        else:
            by1 = ny1 if ny1 < cur_y1 else cur_y1
        if ox2 == cur_x2 and self._cx2[ox2] == 1:
            bx2 = edge_max_after(self._cx2, ox2, (ox2,), (nx2,))
        else:
            bx2 = nx2 if nx2 > cur_x2 else cur_x2
        if oy2 == cur_y2 and self._cy2[oy2] == 1:
            by2 = edge_max_after(self._cy2, oy2, (oy2,), (ny2,))
        else:
            by2 = ny2 if ny2 > cur_y2 else cur_y2
        new_area_cells = (bx2 - bx1 + 1) * (by2 - by1 + 1)
        d_area_mm2 = new_area_cells * self._pitch2 - self.area_cells * self._pitch2

        self._pend_delta = MoveDelta(
            d_area_mm2=d_area_mm2,
            d_overlap=d_overlap,
            d_pull=nx2 + ny2 - ox2 - oy2,
            d_conflict_pairs=d_pairs,
        )
        self._pend_rows = ((op, nx1, ny1, nx2, ny2, u.rotated),)
        self._pend_bbox = (bx1, by1, bx2, by2)
        self._pend_move = move

    def _eval_multi(self, move: Move) -> None:
        recs = self._recs

        # New footprint coordinates per moved module.
        new_coords: dict[str, tuple[int, int, int, int, bool]] = {}
        for u in move.updates:
            if u.op_id in new_coords:
                raise PlacementError(f"move updates op {u.op_id!r} twice")
            dims = self._dims.get(u.op_id)
            if dims is None:
                raise PlacementError(f"no placed module for op {u.op_id!r}")
            w, h = dims[1 if u.rotated else 0]
            new_coords[u.op_id] = (u.x, u.y, u.x + w - 1, u.y + h - 1, u.rotated)

        d_overlap = 0.0
        d_pairs = 0
        d_pull = 0
        for op, (nx1, ny1, nx2, ny2, _rot) in new_coords.items():
            old = recs[op]
            d_pull += nx2 + ny2 - old.x2 - old.y2
            for other, dt in self._nbrs[op]:
                if other in new_coords:
                    continue  # moved-moved pairs handled once, below
                b = recs[other]
                # old contribution
                ox = (old.x2 if old.x2 < b.x2 else b.x2) - (
                    old.x1 if old.x1 > b.x1 else b.x1
                ) + 1
                if ox > 0:
                    oy = (old.y2 if old.y2 < b.y2 else b.y2) - (
                        old.y1 if old.y1 > b.y1 else b.y1
                    ) + 1
                    if oy > 0:
                        d_overlap -= ox * oy * dt
                        d_pairs -= 1
                # new contribution
                ox = (nx2 if nx2 < b.x2 else b.x2) - (
                    nx1 if nx1 > b.x1 else b.x1
                ) + 1
                if ox > 0:
                    oy = (ny2 if ny2 < b.y2 else b.y2) - (
                        ny1 if ny1 > b.y1 else b.y1
                    ) + 1
                    if oy > 0:
                        d_overlap += ox * oy * dt
                        d_pairs += 1

        # Pairs where both endpoints moved (the swap case).
        moved_ids = list(new_coords)
        for i, a in enumerate(moved_ids):
            for b in moved_ids[i + 1:]:
                dt = self._pair_dt.get((a, b))
                if dt is None:
                    continue
                ra, rb = recs[a], recs[b]
                ox = min(ra.x2, rb.x2) - max(ra.x1, rb.x1) + 1
                oy = min(ra.y2, rb.y2) - max(ra.y1, rb.y1) + 1
                if ox > 0 and oy > 0:
                    d_overlap -= ox * oy * dt
                    d_pairs -= 1
                na, nb = new_coords[a], new_coords[b]
                ox = min(na[2], nb[2]) - max(na[0], nb[0]) + 1
                oy = min(na[3], nb[3]) - max(na[1], nb[1]) + 1
                if ox > 0 and oy > 0:
                    d_overlap += ox * oy * dt
                    d_pairs += 1

        # Candidate bounding box via the edge count arrays.
        olds = [recs[op] for op in new_coords]
        add = list(new_coords.values())
        bx1 = edge_min_after(
            self._cx1, self._bx1, [r.x1 for r in olds], [c[0] for c in add]
        )
        by1 = edge_min_after(
            self._cy1, self._by1, [r.y1 for r in olds], [c[1] for c in add]
        )
        bx2 = edge_max_after(
            self._cx2, self._bx2, [r.x2 for r in olds], [c[2] for c in add]
        )
        by2 = edge_max_after(
            self._cy2, self._by2, [r.y2 for r in olds], [c[3] for c in add]
        )
        new_area_cells = (bx2 - bx1 + 1) * (by2 - by1 + 1)
        d_area_mm2 = new_area_cells * self._pitch2 - self.area_cells * self._pitch2

        self._pend_delta = MoveDelta(
            d_area_mm2=d_area_mm2,
            d_overlap=d_overlap,
            d_pull=d_pull,
            d_conflict_pairs=d_pairs,
        )
        self._pend_rows = tuple((op, *c) for op, c in new_coords.items())
        self._pend_bbox = (bx1, by1, bx2, by2)
        self._pend_move = move

    # -- state transitions --------------------------------------------------------

    def apply(self, move: Move) -> None:
        """Commit *move* (see :meth:`inverse` for reverting it)."""
        if move is not self._pend_move:
            self._evaluate(move)
        rows = self._pend_rows
        placement = self.placement
        core_w, core_h = placement.core_width, placement.core_height
        for op, x1, y1, x2, y2, _rot in rows:
            if x1 < 1 or y1 < 1 or x2 > core_w or y2 > core_h:
                self._pend_move = None
                raise PlacementError(
                    f"move puts op {op!r} at ({x1},{y1})..({x2},{y2}), outside "
                    f"the {core_w}x{core_h} core area"
                )
        modules = placement._modules
        recs = self._recs
        cx1, cy1, cx2, cy2 = self._cx1, self._cy1, self._cx2, self._cy2
        for op, x1, y1, x2, y2, rotated in rows:
            rec = recs[op]
            cx1[rec.x1] -= 1
            cy1[rec.y1] -= 1
            cx2[rec.x2] -= 1
            cy2[rec.y2] -= 1
            cx1[x1] += 1
            cy1[y1] += 1
            cx2[x2] += 1
            cy2[y2] += 1
            rec.x1, rec.y1, rec.x2, rec.y2, rec.rotated = x1, y1, x2, y2, rotated
            # Direct record swap: the in-core check above is replace()'s
            # precondition, and building the footprint Rect eagerly (as
            # replace would) is wasted work for a state the annealer may
            # leave within a microsecond.
            start, stop = self._spans[op]
            modules[op] = PlacedModule(
                op_id=op, spec=self._specs[op], x=x1, y=y1,
                start=start, stop=stop, rotated=rotated,
            )
        self._bx1, self._by1, self._bx2, self._by2 = self._pend_bbox
        c = self._pend_delta
        self.overlap_total += c.d_overlap
        self.conflict_pairs += c.d_conflict_pairs
        self.pull_sum += c.d_pull
        self._pend_move = None
        self._sig = None
        self._applies_since_resync += 1
        if self._applies_since_resync >= self.resync_every:
            self.resync()

    def resync(self) -> float:
        """Rebuild the running sums from scratch; returns the float drift
        that had accumulated in ``overlap_total`` (diagnostics)."""
        before = self.overlap_total
        self._rebuild_sums()
        self._applies_since_resync = 0
        return abs(before - self.overlap_total)

    def _rebuild_sums(self) -> None:
        recs = self._recs
        total = 0.0
        pairs = 0
        seen = set()
        for a, nbrs in self._nbrs.items():
            ra = recs[a]
            for b, dt in nbrs:
                if (b, a) in seen:
                    continue
                seen.add((a, b))
                rb = recs[b]
                ox = min(ra.x2, rb.x2) - max(ra.x1, rb.x1) + 1
                if ox <= 0:
                    continue
                oy = min(ra.y2, rb.y2) - max(ra.y1, rb.y1) + 1
                if oy <= 0:
                    continue
                total += ox * oy * dt
                pairs += 1
        self.overlap_total = total
        self.conflict_pairs = pairs
        self.pull_sum = sum(r.x2 + r.y2 for r in recs.values())

    # -- cross-check support -------------------------------------------------------

    def check_consistency(self, tolerance: float = 1e-6) -> None:
        """Assert every running structure matches a from-scratch rebuild.

        Used by the cross-check mode and the property tests; raises
        :class:`CrossCheckError` on any disagreement.
        """
        reference = self.placement.overlap_volume()
        if abs(self.overlap_total - reference) > tolerance:
            raise CrossCheckError(
                f"overlap drift {abs(self.overlap_total - reference):g} "
                f"exceeds {tolerance:g} (running {self.overlap_total!r}, "
                f"reference {reference!r})"
            )
        if (self.conflict_pairs > 0) != (reference > 0):
            raise CrossCheckError(
                f"conflict-pair counter ({self.conflict_pairs}) disagrees "
                f"with reference overlap {reference!r}"
            )
        bb = self.placement.bounding_box()
        if (bb.x, bb.y, bb.x2, bb.y2) != self.bounding_box():
            raise CrossCheckError(
                f"bounding box desync: cached {self.bounding_box()}, "
                f"placement says {(bb.x, bb.y, bb.x2, bb.y2)}"
            )
        pull = sum(pm.footprint.x2 + pm.footprint.y2 for pm in self.placement)
        if pull != self.pull_sum:
            raise CrossCheckError(
                f"pull-sum desync: running {self.pull_sum}, reference {pull}"
            )
        for op, rec in self._recs.items():
            fp = self.placement.get(op).footprint
            if (fp.x, fp.y, fp.x2, fp.y2) != (rec.x1, rec.y1, rec.x2, rec.y2):
                raise CrossCheckError(f"record desync for op {op!r}")
        recs = self._recs.values()
        core_w, core_h = self.placement.core_width, self.placement.core_height
        for name, counts, size, edge in (
            ("x1", self._cx1, core_w, lambda r: r.x1),
            ("y1", self._cy1, core_h, lambda r: r.y1),
            ("x2", self._cx2, core_w, lambda r: r.x2),
            ("y2", self._cy2, core_h, lambda r: r.y2),
        ):
            if counts != edge_counts(size, map(edge, recs)):
                raise CrossCheckError(f"{name} edge-count desync")


def apply_move(placement: Placement, move: Move) -> Placement:
    """Return a copy of *placement* with *move* applied.

    The slow-path twin of :meth:`IncrementalCostEvaluator.apply`, used
    by the generic (full-recompute) annealing path and the tests.
    """
    out = placement.copy()
    for u in move.updates:
        pm: PlacedModule = out.get(u.op_id)
        out.replace(pm.moved_to(u.x, u.y, rotated=u.rotated))
    return out
