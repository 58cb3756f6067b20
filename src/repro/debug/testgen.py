"""Test-pattern generation (step 10 of the paper's flow).

Patterns are bit-parallel words (bit ``i`` of each input word = pattern
``i``), matching the simulator and emulator engines.  Three generators:

* :func:`random_patterns` — uniform random vectors for combinational
  sweeps;
* :func:`exhaustive_patterns` — the full input space, capped to a
  sensible width (the paper's "exhaustive tests ... necessary for
  maximum design confidence" applied to small cones);
* :func:`random_stimulus` — multi-cycle sequences for sequential
  designs.
"""

from __future__ import annotations

from repro.errors import DebugFlowError
from repro.netlist.core import Netlist
from repro.rng import make_rng


def _input_names(netlist: Netlist) -> list[str]:
    names = []
    for pi in netlist.primary_inputs():
        name = pi.name.split(":", 1)[-1]
        names.append(name)
    return sorted(names)


def random_patterns(
    netlist: Netlist, n_patterns: int, seed: int = 0
) -> dict[str, int]:
    """One word per primary input, ``n_patterns`` random vectors."""
    if n_patterns < 1:
        raise DebugFlowError("need at least one pattern")
    rng = make_rng(seed, "patterns", netlist.name, n_patterns)
    return {
        name: rng.getrandbits(n_patterns)
        for name in _input_names(netlist)
    }


def exhaustive_patterns(
    netlist: Netlist, max_inputs: int = 16
) -> tuple[dict[str, int], int]:
    """Every input combination; returns (words, n_patterns).

    Refuses designs with more than ``max_inputs`` primary inputs — at
    that point the paper's controllability logic exists precisely to
    drive interior states instead.
    """
    names = _input_names(netlist)
    if len(names) > max_inputs:
        raise DebugFlowError(
            f"{len(names)} inputs is too many for exhaustive patterns "
            f"(cap {max_inputs})"
        )
    n_patterns = 1 << len(names)
    words: dict[str, int] = {}
    for bit, name in enumerate(names):
        word = 0
        for p in range(n_patterns):
            if (p >> bit) & 1:
                word |= 1 << p
        words[name] = word
    return words, n_patterns


def random_stimulus(
    netlist: Netlist, n_cycles: int, n_patterns: int, seed: int = 0
) -> list[dict[str, int]]:
    """Per-cycle random input words for sequential emulation."""
    if n_cycles < 1:
        raise DebugFlowError("need at least one cycle")
    rng = make_rng(seed, "stimulus", netlist.name, n_cycles, n_patterns)
    names = _input_names(netlist)
    return [
        {name: rng.getrandbits(n_patterns) for name in names}
        for _ in range(n_cycles)
    ]

