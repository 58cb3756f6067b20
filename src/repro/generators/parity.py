"""9sym and friends: symmetric-function benchmarks.

MCNC ``9sym`` computes a totally symmetric function of nine inputs: the
output is 1 exactly when the input weight (number of ones) is between
three and six.  Because the function is symmetric it is implemented the
canonical way — a popcount adder tree followed by a range comparator —
which is also how the original benchmark is structured after synthesis.

The paper lists 9sym at 56 CLBs, far more than the bare function needs;
MCNC's two-level original is heavily redundant.  We reach the published
footprint by instantiating the function over several disjoint input
replicas and OR-combining them (preserving total symmetry per replica);
the registry (:mod:`repro.generators.registry`) sets the replica count.
"""

from __future__ import annotations

from repro.netlist.builder import NetlistBuilder, Word
from repro.netlist.core import Net, Netlist


def symmetric_range_function(
    builder: NetlistBuilder, inputs: Word, low: int, high: int
) -> Net:
    """Output 1 iff ``low <= popcount(inputs) <= high``."""
    count = builder.popcount(inputs)
    width = len(count)
    ge_low = builder.not_(
        builder.less_than_unsigned(count, builder.const_word(low, width))
    )
    le_high = builder.less_than_unsigned(
        count, builder.const_word(high + 1, width)
    )
    return builder.and_(ge_low, le_high)


def make_9sym(name: str = "9sym", replicas: int = 6, seed: int = 0) -> Netlist:
    """The 9sym benchmark, calibrated to the paper's 56-CLB footprint.

    ``replicas`` independent 9-input symmetric cones are OR-combined;
    each replica computes weight-in-[3,6] on its own nine inputs.
    """
    netlist = Netlist(name)
    builder = NetlistBuilder(netlist)
    cone_outputs = []
    for r in range(replicas):
        bits = builder.input_word(f"x{r}", 9)
        cone_outputs.append(symmetric_range_function(builder, bits, 3, 6))
    if len(cone_outputs) == 1:
        result = cone_outputs[0]
    else:
        result = builder.or_(*cone_outputs)
    netlist.add_output("f", result)
    # per-replica outputs keep every cone observable (prevents the
    # mapper from sharing logic across replicas)
    for r, cone in enumerate(cone_outputs):
        netlist.add_output(f"f{r}", cone)
    return netlist


def reference_9sym_value(bits: list[int]) -> int:
    """Golden scalar model for one 9-input replica."""
    weight = sum(bits)
    return 1 if 3 <= weight <= 6 else 0
