"""The cached move generator emits the reference generator's Move stream.

:class:`MoveGenerator` caches each placement's candidate order and
per-module geometry and draws through ``Random._randbelow`` directly.
The oracle below is the straightforward generator it replaced, written
with the public ``Random.choice``/``randint``/``sample``/``random``
calls; for any seed both must emit identical moves, which is what keeps
annealing trajectories unchanged.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.modules.kinds import ModuleKind
from repro.modules.module import ModuleSpec
from repro.placement.incremental import Move, ModuleUpdate
from repro.placement.model import PlacedModule, Placement
from repro.placement.moves import MoveGenerator
from repro.placement.window import ControllingWindow


def make_spec(fw: int, fh: int) -> ModuleSpec:
    return ModuleSpec(
        name=f"mix-{fw}x{fh}",
        kind=ModuleKind.MIXER,
        functional_width=fw,
        functional_height=fh,
        duration_s=5.0,
    )


SQUARE_SPECS = [make_spec(1, 1), make_spec(2, 2)]
#: Footprints 3x4, 4x8 and 3x10; the last one fits a 9-wide core only
#: unrotated, which exercises the rotation ``fits`` check.
RECT_SPECS = [make_spec(1, 2), make_spec(2, 6), make_spec(1, 8)]


def clamp(v: int, lo: int, hi: int) -> int:
    return max(lo, min(hi, v))


def oracle_propose(rng, placement, temperature, window, *, p_single=0.8,
                   p_rotate=0.5, single_only=False, movable=None) -> Move:
    """The reference generator, one public RNG call per decision."""
    candidates = placement.modules()
    if movable is not None:
        candidates = [pm for pm in candidates if pm.op_id in movable]
    if not candidates:
        raise ValueError("no movable modules")

    def fits(pm, rotated):
        w, h = pm.spec.dims(rotated)
        return w <= placement.core_width and h <= placement.core_height

    def update_at(pm, x, y, rotated):
        w, h = pm.spec.dims(rotated)
        return ModuleUpdate(
            pm.op_id,
            clamp(x, 1, placement.core_width - w + 1),
            clamp(y, 1, placement.core_height - h + 1),
            rotated,
        )

    if single_only or len(candidates) < 2 or rng.random() < p_single:
        pm = rng.choice(candidates)
        rotated = pm.rotated
        if not pm.spec.is_square and rng.random() < p_rotate and fits(pm, not rotated):
            rotated = not rotated
        span = window.span(temperature)
        dx = rng.randint(-span, span)
        dy = rng.randint(-span, span)
        return Move(updates=(update_at(pm, pm.x + dx, pm.y + dy, rotated),))
    a, b = rng.sample(candidates, 2)
    rot_a, rot_b = a.rotated, b.rotated
    if rng.random() < p_rotate:
        flip_a = rng.random() < 0.5
        target = a if flip_a else b
        if not target.spec.is_square and fits(target, not target.rotated):
            if flip_a:
                rot_a = not rot_a
            else:
                rot_b = not rot_b
    return Move(updates=(
        update_at(a, b.x, b.y, rot_a), update_at(b, a.x, a.y, rot_b),
    ))


def random_module(rng: random.Random, op: str, specs, core_w: int, core_h: int):
    spec = rng.choice(specs)
    rotated = not spec.is_square and rng.random() < 0.5
    w, h = spec.dims(rotated)
    if w > core_w or h > core_h:
        rotated = False
        w, h = spec.dims(False)
    start = float(rng.randint(0, 20))
    return PlacedModule(
        op_id=op, spec=spec,
        x=rng.randint(1, core_w - w + 1), y=rng.randint(1, core_h - h + 1),
        start=start, stop=start + rng.randint(1, 10), rotated=rotated,
    )


def random_placement(rng: random.Random, n: int, specs, core_w=9, core_h=14,
                     prefix="m") -> Placement:
    p = Placement(core_w, core_h)
    for i in range(n):
        p.add(random_module(rng, f"{prefix}{i}", specs, core_w, core_h))
    return p


def apply_in_place(placement: Placement, move: Move) -> None:
    for u in move.updates:
        placement.replace(placement.get(u.op_id).moved_to(u.x, u.y, rotated=u.rotated))


def drive(mover, oracle_rng, placement, steps, temps, **oracle_kwargs):
    """Propose *steps* moves from both generators and walk the stream."""
    for i in range(steps):
        temperature = temps[i % len(temps)]
        got = mover.propose_move(placement, temperature)
        want = oracle_propose(
            oracle_rng, placement, temperature, mover.window, **oracle_kwargs
        )
        assert got == want, f"step {i}: {got} != {want}"
        apply_in_place(placement, got)


WINDOW = ControllingWindow(initial_temp=100.0, max_span=8, gamma=0.5)
#: Repeats and revisits, so the per-temperature span cache is exercised.
TEMPS = [100.0, 100.0, 40.0, 40.0, 7.5, 100.0, 0.01, 0.01, 3.0]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=1, max_value=30),
    single_only=st.booleans(),
    p_rotate=st.sampled_from([0.0, 0.5, 1.0]),
    all_square=st.booleans(),
    restrict=st.booleans(),
)
def test_stream_matches_oracle(seed, n, single_only, p_rotate, all_square, restrict):
    """Sizes up to 30 cover both of ``sample``'s branches (pool <= 21, set)."""
    rng = random.Random(seed)
    specs = SQUARE_SPECS if all_square else SQUARE_SPECS + RECT_SPECS
    placement = random_placement(rng, n, specs)
    movable = None
    if restrict:
        movable = {op for op in placement.op_ids() if rng.random() < 0.6}
        movable.add(placement.op_ids()[-1])
        movable.add("not-placed")
    mover = MoveGenerator(
        WINDOW, p_rotate=p_rotate, single_only=single_only,
        seed=seed, movable=movable,
    )
    drive(mover, random.Random(seed), placement, 60, TEMPS,
          p_rotate=p_rotate, single_only=single_only, movable=movable)


def test_stream_matches_oracle_above_sample_pool_limit():
    """More than 21 candidates: ``sample`` takes its set branch."""
    placement = random_placement(random.Random(5), 26, SQUARE_SPECS + RECT_SPECS,
                                 core_w=20, core_h=20)
    mover = MoveGenerator(WINDOW, p_single=0.3, seed=11)
    drive(mover, random.Random(11), placement, 300, TEMPS, p_single=0.3)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_one_mover_across_two_placements(seed):
    """Switching placements (another core; the same core with other
    specs for the same op ids) and switching back must rebuild the
    cache each time."""
    rng = random.Random(seed)
    first = random_placement(rng, 6, SQUARE_SPECS + RECT_SPECS)
    second = random_placement(rng, 9, RECT_SPECS, core_w=16, core_h=11)
    third = random_placement(rng, 6, RECT_SPECS[::-1])
    mover = MoveGenerator(WINDOW, seed=seed)
    oracle_rng = random.Random(seed)
    for placement in (first, second, first, third, first, second):
        drive(mover, oracle_rng, placement, 15, TEMPS)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       restrict=st.booleans())
def test_placement_grown_through_add(seed, restrict):
    """A module added between proposals becomes a candidate at once."""
    rng = random.Random(seed)
    placement = random_placement(rng, 3, SQUARE_SPECS + RECT_SPECS)
    movable = {"m0", "m2", "late1", "late3"} if restrict else None
    mover = MoveGenerator(WINDOW, seed=seed, movable=movable)
    oracle_rng = random.Random(seed)
    for k in range(4):
        drive(mover, oracle_rng, placement, 12, TEMPS, movable=movable)
        placement.add(random_module(rng, f"late{k}", RECT_SPECS, 9, 14))
    drive(mover, oracle_rng, placement, 12, TEMPS, movable=movable)


def test_generic_path_consumes_the_same_stream():
    """propose() (a fresh copy per call) walks the stream of propose_move."""
    placement = random_placement(random.Random(2), 8, SQUARE_SPECS + RECT_SPECS)
    mover = MoveGenerator(WINDOW, seed=4)
    oracle_rng = random.Random(4)
    current = placement
    for i in range(80):
        temperature = TEMPS[i % len(TEMPS)]
        want = oracle_propose(oracle_rng, current, temperature, WINDOW)
        nxt = mover.propose(current, temperature)
        apply_in_place(current, want)
        assert {pm.op_id: (pm.x, pm.y, pm.rotated) for pm in nxt} == {
            pm.op_id: (pm.x, pm.y, pm.rotated) for pm in current
        }
        current = nxt
