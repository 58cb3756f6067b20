"""Property-based tests over the core invariants (hypothesis)."""

from hypothesis import assume, given, settings, strategies as st

from repro.debug import ERROR_KINDS, apply_correction, inject_error
from repro.errors import DebugFlowError
from repro.generators.random_logic import (
    random_combinational_netlist,
    random_sequential_netlist,
)
from repro.netlist import check_netlist
from repro.netlist.blif import read_blif, write_blif
from repro.netlist.simulate import replay_outputs
from repro.rng import make_rng
from repro.synth import map_to_luts, pack_netlist
from tests.conftest import comb_outputs


@given(seed=st.integers(0, 10_000))
@settings(max_examples=15, deadline=None)
def test_random_netlists_always_validate(seed):
    n = random_sequential_netlist(
        f"p{seed}", n_inputs=6, n_outputs=4, n_ffs=5, n_gates=30, seed=seed
    )
    assert check_netlist(n) == []


@given(seed=st.integers(0, 10_000))
@settings(max_examples=10, deadline=None)
def test_blif_roundtrip_property(seed):
    """write_blif . read_blif preserves combinational behaviour."""
    n = random_combinational_netlist(
        f"b{seed}", n_inputs=6, n_outputs=4, n_gates=25, seed=seed
    )
    parsed = read_blif(write_blif(n))
    rng = make_rng(seed, "stim")
    ins = {f"in{i}": rng.getrandbits(32) for i in range(6)}
    assert comb_outputs(n, ins, 32) == comb_outputs(parsed, ins, 32)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=10, deadline=None)
def test_mapping_then_packing_preserves_instances(seed):
    n = random_sequential_netlist(
        f"m{seed}", n_inputs=6, n_outputs=4, n_ffs=4, n_gates=25, seed=seed
    )
    mapped = map_to_luts(n)
    packed = pack_netlist(mapped)
    placed_instances = {
        name
        for block in packed.blocks
        for name in block.instances
    }
    expected = {i.name for i in mapped.instances()}
    assert placed_instances == expected


@given(
    kind=st.sampled_from(ERROR_KINDS),
    seed=st.integers(0, 1000),
)
@settings(max_examples=15, deadline=None)
def test_inject_then_correct_is_identity(kind, seed):
    """Correction is the exact inverse of injection, functionally."""
    golden = map_to_luts(
        random_sequential_netlist(
            f"e{seed}", n_inputs=5, n_outputs=4, n_ffs=3, n_gates=24,
            seed=seed,
        )
    )
    dut = golden.copy()
    try:
        record = inject_error(dut, kind, seed=seed)
    except DebugFlowError:
        # e.g. a netlist with only symmetric LUTs cannot host input_swap
        assume(False)
    apply_correction(dut, record)
    check_netlist(dut)
    rng = make_rng(seed, "verify")
    stimulus = [
        {f"in{i}": rng.getrandbits(32) for i in range(5)} for _ in range(3)
    ]
    assert replay_outputs(dut, stimulus, 32) == replay_outputs(
        golden, stimulus, 32
    )


@given(seed=st.integers(0, 500), n_tiles=st.integers(2, 8))
@settings(max_examples=8, deadline=None)
def test_tile_partition_conserves_blocks(seed, n_tiles):
    from repro.arch import pick_device
    from repro.pnr import EFFORT_PRESETS, full_place_and_route
    from repro.tiling import TilingOptions, assign_blocks_to_tiles, plan_tile_grid

    mapped = map_to_luts(
        random_sequential_netlist(
            f"t{seed}", n_inputs=5, n_outputs=4, n_ffs=4, n_gates=30,
            seed=seed,
        )
    )
    packed = pack_netlist(mapped)
    device = pick_device(
        packed.n_clbs, area_overhead=0.8, min_io=len(packed.io_blocks())
    )
    layout = full_place_and_route(
        packed, device, seed=seed, preset=EFFORT_PRESETS["fast"],
        strict_routing=False,
    )
    rects = plan_tile_grid(
        packed.n_clbs, device,
        TilingOptions(n_tiles=n_tiles, area_overhead=0.3),
    )
    tiles = assign_blocks_to_tiles(packed, layout.placement, rects)
    assigned = sorted(b for t in tiles for b in t.blocks)
    assert assigned == sorted(b.index for b in packed.clb_blocks())
    assert all(t.used <= t.capacity for t in tiles)
