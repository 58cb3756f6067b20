#!/usr/bin/env python
"""Test-logic budgeting on the MIPS R2000 core (Figures 3 & 4 hands-on).

The paper's §4 asks two planning questions before inserting control and
observation logic into an emulated design:

* how many tiles does a piece of test logic of a given size pull into
  the re-place-and-route? (Figure 3)
* with many test points spread over the design, how big can each
  point's logic be? (Figure 4)

This example answers both on the real MIPS core layout, then actually
inserts a 16-CLB counter probe (the paper's "large counter" example)
next to the register file and commits it tile-confined.

Run:  python examples/observability_mips.py          (a few seconds)
      REPRO_SMALL=1 ... (reduced 8-bit core)
"""

import os
import time

from repro.api import RunSpec, device_for, load_bundle
from repro.debug.instrument import test_logic_block
from repro.pnr.effort import EFFORT_PRESETS
from repro.tiling import TiledLayout, TilingOptions


def build_core():
    """Design resolution through the facade's shared loader."""
    if os.environ.get("REPRO_SMALL"):
        spec = RunSpec(
            design="mips",
            design_params={"name": "mips_small", "width": 8, "n_regs": 4},
        )
    else:
        spec = RunSpec(design="mips")
    bundle = load_bundle(spec)
    return bundle.mapped, bundle.packed


def main() -> None:
    t0 = time.time()
    mapped, packed = build_core()
    device = device_for(packed, area_overhead=0.35, min_io_extra=8)
    print(f"MIPS core: {packed.n_clbs} CLBs on {device.name}")

    tiled = TiledLayout.create(
        packed, device, TilingOptions(n_tiles=10, area_overhead=0.2),
        seed=3, preset=EFFORT_PRESETS["fast"],
    )
    stats = tiled.stats()
    print(f"tiled into {stats.n_tiles} tiles, "
          f"slack {stats.total_slack} CLBs "
          f"({stats.area_overhead:.1%} overhead)\n")

    print("Figure-3 view: tiles affected by one insertion of size k")
    for k in (1, 5, 10, 20, 40):
        if k > tiled.total_slack():
            break
        affected = tiled.affected_tiles_for_logic(k, start_tile=0)
        print(f"   k={k:>3} CLBs -> {len(affected)} tile(s): {affected}")

    print("\nFigure-4 view: per-point budget for p test points")
    for p in (1, 2, 5, 10, 25, 50):
        budget = tiled.max_logic_for_test_points(p)
        print(f"   p={p:>3} points -> max {budget} CLBs each")

    print("\ninserting a 16-CLB observation counter at the PC...")
    anchor = next(
        inst for inst in mapped.instances()
        if inst.name.startswith("pc") and inst.output is not None
    )
    test_logic_block(
        mapped, n_clbs=16, attach_net=anchor.output.name, name="pc_probe"
    )
    report = tiled.apply_changeset(
        "test logic pc_probe (16 CLBs)", seed=4,
        preset=EFFORT_PRESETS["fast"],
        anchor_instance=anchor.name,
    )
    print(f"   affected tiles: {report.affected_tiles} "
          f"(neighbor expansion: {report.expanded})")
    print(f"   commit effort: {report.effort.work_units:.0f} work units, "
          f"{report.effort.wall_seconds:.1f} s")
    print(f"\ntotal runtime: {time.time() - t0:.0f} s")


if __name__ == "__main__":
    main()
