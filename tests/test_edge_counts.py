"""The evaluator's edge count arrays against a sorted-list oracle.

The bounding box of the incremental evaluator lives in four per-
coordinate count arrays plus the cached box. The oracle kept here is
the plain design: four sorted multisets maintained with ``bisect``.
Both must agree on every candidate box a delta prices and on every box
and count an apply leaves behind, including duplicate coordinates, a
single-module placement and swaps whose two removed edges are equal.
"""

import random
from bisect import bisect_left, insort

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.modules.kinds import ModuleKind
from repro.modules.module import ModuleSpec
from repro.placement.annealer import AnnealingParams, SimulatedAnnealing
from repro.placement.cost import AreaCost
from repro.placement.incremental import (
    CrossCheckError,
    IncrementalCostEvaluator,
    Move,
    ModuleUpdate,
    edge_counts,
    edge_max_after,
    edge_min_after,
)
from repro.placement.model import PlacedModule, Placement
from repro.placement.moves import MoveGenerator
from repro.util.errors import PlacementError

CORE = 10


def make_spec(fw: int, fh: int) -> ModuleSpec:
    return ModuleSpec(
        name=f"mix-{fw}x{fh}",
        kind=ModuleKind.MIXER,
        functional_width=fw,
        functional_height=fh,
        duration_s=5.0,
    )


SPECS = [make_spec(1, 1), make_spec(1, 2), make_spec(2, 2)]


class SortedEdges:
    """Oracle: the four edge multisets as sorted lists."""

    def __init__(self, rects):
        self.lists = [sorted(r[i] for r in rects) for i in range(4)]

    def replace(self, old, new):
        for lst, o, n in zip(self.lists, old, new):
            i = bisect_left(lst, o)
            assert lst[i] == o
            lst.pop(i)
            insort(lst, n)

    def box_after(self, olds, news):
        """``(x1, y1, x2, y2)`` with the *olds* rects swapped for *news*."""
        out = []
        for i, lst in enumerate(self.lists):
            vals = list(lst)
            for o in olds:
                vals.remove(o[i])
            vals.extend(n[i] for n in news)
            out.append(min(vals) if i < 2 else max(vals))
        return tuple(out)

    def box(self):
        x1s, y1s, x2s, y2s = self.lists
        return x1s[0], y1s[0], x2s[-1], y2s[-1]


class GuardedCounts(list):
    """A count array that fails on any index outside ``[0, len)``,
    negative ones included (a plain list would wrap those)."""

    def __getitem__(self, i):
        assert 0 <= i < len(self), f"edge count index {i} outside [0, {len(self)})"
        return super().__getitem__(i)


def rect(ev, op):
    r = ev._recs[op]
    return (r.x1, r.y1, r.x2, r.y2)


def new_rect(ev, u):
    w, h = ev._dims[u.op_id][1 if u.rotated else 0]
    return (u.x, u.y, u.x + w - 1, u.y + h - 1)


def assert_counts_match(ev, oracle):
    for counts, lst in zip((ev._cx1, ev._cy1, ev._cx2, ev._cy2), oracle.lists):
        assert counts == edge_counts(CORE, lst)


def build(layout) -> Placement:
    """layout: ``(spec_idx, x, y, rotated)`` per module, all co-timed."""
    p = Placement(CORE, CORE)
    for i, (spec_idx, x, y, rotated) in enumerate(layout):
        spec = SPECS[spec_idx]
        rotated = rotated and not spec.is_square
        w, h = spec.dims(rotated)
        p.add(PlacedModule(
            op_id=f"m{i}", spec=spec,
            x=min(x, CORE - w + 1), y=min(y, CORE - h + 1),
            start=0.0, stop=10.0, rotated=rotated,
        ))
    return p


def legal(placement, op, x, y, rotated):
    spec = placement.get(op).spec
    rotated = rotated and not spec.is_square
    w, h = spec.dims(rotated)
    return ModuleUpdate(op, max(1, min(x, CORE - w + 1)), max(1, min(y, CORE - h + 1)), rotated)


# Small coordinate ranges make shared edges the common case.
layout_st = st.tuples(
    st.integers(0, len(SPECS) - 1), st.integers(1, 4), st.integers(1, 4), st.booleans()
)
step_st = st.tuples(
    st.integers(0, 10 ** 6), st.integers(1, 5), st.integers(1, 5),
    st.booleans(), st.booleans(),
)


@settings(max_examples=60, deadline=None)
@given(layout=st.lists(layout_st, min_size=1, max_size=6),
       steps=st.lists(step_st, min_size=1, max_size=40))
@example(layout=[(0, 1, 1, False)], steps=[(0, 5, 5, False, False), (0, 1, 3, True, True)])
@example(  # two modules with equal edges swapped: both removed values equal
    layout=[(0, 2, 2, False), (0, 2, 2, False), (2, 4, 4, False)],
    steps=[(0, 3, 3, False, True), (1, 1, 1, False, True)],
)
def test_counts_track_sorted_oracle(layout, steps):
    placement = build(layout)
    ev = IncrementalCostEvaluator(placement)
    ops = placement.op_ids()
    oracle = SortedEdges([rect(ev, op) for op in ops])
    assert ev.bounding_box() == oracle.box()
    assert_counts_match(ev, oracle)

    for selector, x, y, rotated, swap in steps:
        op = ops[selector % len(ops)]
        updates = [legal(placement, op, x, y, rotated)]
        other = ops[(selector // len(ops)) % len(ops)]
        if swap and other != op:
            a, b = placement.get(op), placement.get(other)
            updates = [legal(placement, op, b.x, b.y, rotated),
                       legal(placement, other, a.x, a.y, False)]
        move = Move(updates=tuple(updates))
        olds = [rect(ev, u.op_id) for u in updates]
        news = [new_rect(ev, u) for u in updates]

        expected = oracle.box_after(olds, news)
        ex1, ey1, ex2, ey2 = expected
        d = ev.delta_components(move)
        area_before = ev.area_cells
        area_after = (ex2 - ex1 + 1) * (ey2 - ey1 + 1)
        assert d.d_area_mm2 == pytest.approx(
            (area_after - area_before) * placement.pitch_mm ** 2
        )

        ev.apply(move)
        for o, n in zip(olds, news):
            oracle.replace(o, n)
        assert ev.bounding_box() == expected == oracle.box()
        assert_counts_match(ev, oracle)
    ev.check_consistency()


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(st.integers(1, 6), min_size=1, max_size=8),
    picks=st.lists(st.integers(0, 7), min_size=1, max_size=2, unique=True),
    added=st.lists(st.integers(-3, 12), min_size=1, max_size=2),
)
@example(values=[3, 3, 5], picks=[0, 1], added=[6, 6])
@example(values=[4, 4], picks=[0, 1], added=[1, 2])
def test_min_max_after_match_sorted_oracle(values, picks, added):
    """Multi-update queries, removed values equal or not, added values
    inside or outside the array."""
    # Each removed value is a distinct element of the multiset.
    removed = [values[i] for i in sorted({i % len(values) for i in picks})]
    rest = list(values)
    for v in removed:
        rest.remove(v)
    want_min = min(rest + added)
    want_max = max(rest + added)
    counts = GuardedCounts(edge_counts(6, values))
    assert edge_min_after(counts, min(values), removed, added) == want_min
    assert edge_max_after(counts, max(values), removed, added) == want_max


def test_single_module_box_follows_the_module():
    placement = build([(1, 3, 3, False)])
    ev = IncrementalCostEvaluator(placement)
    rng = random.Random(0)
    for _ in range(50):
        u = legal(placement, "m0", rng.randint(1, CORE), rng.randint(1, CORE),
                  rng.random() < 0.5)
        ev.apply(Move(updates=(u,)))
        assert ev.bounding_box() == rect(ev, "m0")
        assert ev.area_cells == placement.get("m0").footprint.area
    ev.check_consistency()


@pytest.mark.parametrize("updates", [
    (ModuleUpdate("m0", 9, 9, False),),            # past the high edge
    (ModuleUpdate("m0", -4, -7, False),),          # below index 0
    (ModuleUpdate("m0", 40, 2, True),),            # far past the array
    (ModuleUpdate("m0", -12, 1, False), ModuleUpdate("m1", 1, 30, False)),
    (ModuleUpdate("m0", 1, 1, False), ModuleUpdate("m1", 25, 25, False)),
])
def test_out_of_core_delta_stays_inside_the_arrays(updates):
    """Pricing an out-of-core move reads only valid indices; apply then
    rejects it and leaves every structure intact."""
    placement = build([(2, 1, 1, False), (1, 4, 4, False), (0, 7, 2, False)])
    ev = IncrementalCostEvaluator(placement)
    for name in ("_cx1", "_cy1", "_cx2", "_cy2"):
        setattr(ev, name, GuardedCounts(getattr(ev, name)))

    def state():
        return ev.bounding_box(), [list(ev._cx1), list(ev._cy1),
                                   list(ev._cx2), list(ev._cy2)]

    before = state()
    move = Move(updates=updates)
    ev.delta_components(move)
    ev.candidate_signature(move)
    with pytest.raises(PlacementError, match="outside"):
        ev.apply(move)
    assert state() == before
    ev.check_consistency()


def test_corrupted_count_fails_cross_checked_anneal():
    """check_consistency reads the count arrays: one bad cell stops a
    cross-checked anneal with CrossCheckError."""
    placement = build([(2, 1, 1, False), (1, 4, 4, False), (0, 6, 1, False)])
    ev = IncrementalCostEvaluator(placement)
    ev._cx1[CORE] += 1  # no module in this set has its x1 edge at CORE
    params = AnnealingParams(initial_temp=50.0, cooling=0.5,
                             iterations_per_module=2, max_rounds=3)
    engine = SimulatedAnnealing(params, seed=0)
    mover = MoveGenerator(params.make_window(CORE), seed=0)
    with pytest.raises(CrossCheckError, match="x1 edge-count desync"):
        engine.optimize_incremental(
            ev, AreaCost(), mover.propose_move, 6, cross_check=True
        )
