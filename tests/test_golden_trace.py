"""One golden simulation per stimulus.

Every verdict of a run (detection, probe verdicts, SAT observations,
CEGIS checks, the oracle fallback's scratch comparison) reads the
golden model's response through one :class:`GoldenTrace` per stimulus.
These tests record every netlist a simulation engine is built on during
a run and check that the golden netlist is simulated only inside a
trace, and only once per distinct stimulus.
"""

import sys
from functools import cached_property

import pytest

from repro.api import RunSpec
from repro.api.pipeline import DebugPipeline, RunContext
from repro.debug import detect
from repro.netlist import simulate
from repro.sat import equiv


def _stimulus_key(trace):
    return (
        tuple(tuple(sorted(cycle.items())) for cycle in trace.stimulus),
        trace.n_patterns,
    )


class _CounterexampleTrace(detect.GoldenTrace):
    """Marks the one-pattern traces a failed proof's replay builds."""


@pytest.fixture
def golden_simulations(monkeypatch):
    """Run a spec while recording every engine built, per netlist.

    Returns ``run(spec) -> (ctx, builds, passes)``: ``builds`` lists
    ``(netlist, inside_trace)`` for every ``make_engine`` call and
    ``SequentialSimulator`` built during the run; ``passes`` lists
    ``(stimulus key, is_counterexample)`` for every golden trace
    simulation.
    """
    builds: list = []
    passes: list = []
    inside = [False]

    real_make_engine = simulate.make_engine

    def make_engine(netlist, engine="compiled"):
        builds.append((netlist, inside[0]))
        return real_make_engine(netlist, engine)

    for name, module in list(sys.modules.items()):
        if (name.startswith("repro")
                and getattr(module, "make_engine", None) is real_make_engine):
            monkeypatch.setattr(module, "make_engine", make_engine)

    real_init = simulate.SequentialSimulator.__init__

    def init(self, netlist, engine="compiled"):
        builds.append((netlist, inside[0]))
        real_init(self, netlist, engine)

    monkeypatch.setattr(simulate.SequentialSimulator, "__init__", init)

    real_nets = vars(detect.GoldenTrace)["nets"].func

    def nets(trace):
        passes.append((
            _stimulus_key(trace), isinstance(trace, _CounterexampleTrace)
        ))
        inside[0] = True
        try:
            return real_nets(trace)
        finally:
            inside[0] = False

    recorded = cached_property(nets)
    recorded.__set_name__(detect.GoldenTrace, "nets")
    monkeypatch.setattr(detect.GoldenTrace, "nets", recorded)
    monkeypatch.setattr(equiv, "GoldenTrace", _CounterexampleTrace)

    def run(spec):
        ctx = RunContext.from_spec(spec, tile_cache=None)
        builds.clear()
        passes.clear()
        DebugPipeline().execute(ctx)
        return ctx, list(builds), list(passes)

    return run


def _run_stimulus_passes(ctx, builds, passes):
    """The golden passes over the run's own stimuli, checked to be the
    only golden simulations besides counterexample replays."""
    golden = [inside for netlist, inside in builds if netlist is ctx.golden]
    assert golden, "the golden model was never simulated"
    assert all(golden), "the golden model was simulated outside GoldenTrace"
    assert len(golden) == len(passes)
    stimuli = [key for key, counterexample in passes if not counterexample]
    assert len(stimuli) == len(set(stimuli)), (
        "the golden model was simulated twice over one stimulus"
    )
    return stimuli


@pytest.mark.parametrize("error_seed, widens", [(1, False), (2, True)])
def test_single_fault_run_simulates_golden_once_per_stimulus(
    golden_simulations, error_seed, widens,
):
    ctx, builds, passes = golden_simulations(RunSpec(
        design="9sym", error_seed=error_seed, preset="fast", max_probes=6,
        cache="private",
    ))
    # seed 1 is detected and localized on the first stimulus; seed 2's
    # error is never excited, so detection retries on a widened one
    assert ctx.detected != widens
    assert (ctx.localization is not None) != widens
    stimuli = _run_stimulus_passes(ctx, builds, passes)
    assert len(stimuli) == len(passes) == 1 + widens


@pytest.mark.parametrize("error_seed, n_patterns, rearms", [
    (6, 64, False),
    # two pattern words miss the second fault; the in-loop proof's
    # counterexample re-arms detection (seed 1 also runs the oracle
    # fallback's scratch comparison after a CEGIS repair)
    (10, 2, True),
    (1, 2, True),
])
def test_two_fault_cegis_run_simulates_golden_once_per_stimulus(
    golden_simulations, error_seed, n_patterns, rearms,
):
    ctx, builds, passes = golden_simulations(RunSpec(
        design="9sym", error_seed=error_seed, n_errors=2, strategy="sat",
        correction="cegis", verify="prove", preset="fast", max_probes=6,
        cache="private", n_patterns=n_patterns,
    ))
    assert ctx.detected and len(ctx.rounds) == 2
    assert any("re-armed" in note for note in ctx.notes) == rearms
    # a re-arm widens the stimulus by one pattern word
    assert ctx.trace.n_patterns == n_patterns + rearms
    stimuli = _run_stimulus_passes(ctx, builds, passes)
    assert len(stimuli) == 1 + rearms
