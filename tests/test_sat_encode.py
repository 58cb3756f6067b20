"""GateBuilder folding/hashing and the unrolled netlist encoder."""

import itertools
import random

from repro.netlist.cells import CellKind
from repro.netlist.core import Netlist
from repro.netlist.simulate import SequentialSimulator, simulate_words
from repro.sat.cnf import CNF, GateBuilder, _cofactor, _flip_var
from repro.sat.encode import CircuitEncoder
from repro.sat.solver import Solver


class TestGateBuilderFolding:
    def test_and_folding(self):
        gb = GateBuilder()
        x, y = gb.cnf.new_var(), gb.cnf.new_var()
        assert gb.lit_and([]) == gb.true
        assert gb.lit_and([x]) == x
        assert gb.lit_and([x, gb.true]) == x
        assert gb.lit_and([x, gb.false]) == gb.false
        assert gb.lit_and([x, x, y]) == gb.lit_and([y, x])
        assert gb.lit_and([x, -x]) == gb.false

    def test_xor_normalization(self):
        gb = GateBuilder()
        x, y = gb.cnf.new_var(), gb.cnf.new_var()
        assert gb.lit_xor([x, x]) == gb.false
        assert gb.lit_xor([x, -x]) == gb.true
        assert gb.lit_xor([x, gb.false]) == x
        assert gb.lit_xor([x, gb.true]) == -x
        assert gb.lit_xor([x, y]) == gb.lit_xor([y, x])
        assert gb.lit_xor([-x, y]) == -gb.lit_xor([x, y])

    def test_mux_folding(self):
        gb = GateBuilder()
        s, x, y = (gb.cnf.new_var() for _ in range(3))
        assert gb.lit_mux(gb.true, x, y) == y
        assert gb.lit_mux(gb.false, x, y) == x
        assert gb.lit_mux(s, x, x) == x
        assert gb.lit_mux(s, -x, x) == gb.lit_xor([s, -x])
        assert gb.lit_mux(-s, x, y) == gb.lit_mux(s, y, x)

    def test_structural_hashing_shares_nodes(self):
        gb = GateBuilder()
        x, y = gb.cnf.new_var(), gb.cnf.new_var()
        before = gb.cnf.n_vars
        a1 = gb.lit_and([x, y])
        a2 = gb.lit_and([y, x])
        assert a1 == a2
        assert gb.cnf.n_vars == before + 1

    def test_lut_canonicalizes_to_gate_nodes(self):
        gb = GateBuilder()
        x, y = gb.cnf.new_var(), gb.cnf.new_var()
        assert gb.lit_lut(0b0110, [x, y]) == gb.lit_xor([x, y])
        assert gb.lit_lut(0b1000, [x, y]) == gb.lit_and([x, y])
        assert gb.lit_lut(0b1110, [x, y]) == gb.lit_or([x, y])
        assert gb.lit_lut(0b0111, [x, y]) == -gb.lit_and([x, y])
        # constant input cofactors away; don't-care input drops
        assert gb.lit_lut(0b1000, [x, gb.true]) == x
        assert gb.lit_lut(0b1010, [x, y]) == x  # ignores y
        assert gb.lit_lut(0b0101, [x, y]) == -x

    def test_cofactor_and_flip_helpers(self):
        table = 0b0110  # xor2
        assert _cofactor(table, 2, 0, 0) == 0b10  # xor(0, b) = b
        assert _cofactor(table, 2, 0, 1) == 0b01  # xor(1, b) = ~b
        assert _flip_var(table, 2, 0) == 0b1001  # xnor

    def test_every_lut_semantics_exhaustively(self):
        for k in (1, 2, 3):
            for table in range(1 << (1 << k)):
                gb = GateBuilder()
                ins = [gb.cnf.new_var() for _ in range(k)]
                out = gb.lit_lut(table, ins)
                solver = Solver(gb.cnf)
                for bits in itertools.product([0, 1], repeat=k):
                    assume = [
                        v if b else -v for v, b in zip(ins, bits)
                    ]
                    minterm = sum(b << j for j, b in enumerate(bits))
                    want = (table >> minterm) & 1
                    assert solver.solve(
                        assume + [out if want else -out]
                    ), (k, table, bits)
                    assert not solver.solve(
                        assume + [-out if want else out]
                    ), (k, table, bits)


class _ReferenceLutBuilder(GateBuilder):
    """``lit_lut`` with the per-call reduction loop it had before the
    reduction became a cached pure function — the reference the
    cached encoding must match clause for clause."""

    def lit_lut(self, table, lits):
        lits = list(lits)
        j = 0
        while j < len(lits):
            value = self.const_value(lits[j])
            if value is None:
                j += 1
                continue
            table = _cofactor(table, len(lits), j, value)
            del lits[j]
        j = 0
        while j < len(lits):
            if (_cofactor(table, len(lits), j, 0)
                    == _cofactor(table, len(lits), j, 1)):
                table = _cofactor(table, len(lits), j, 0)
                del lits[j]
            else:
                j += 1
        for j, lit in enumerate(lits):
            if lit < 0:
                table = _flip_var(table, len(lits), j)
                lits[j] = -lit
        k = len(lits)
        size = 1 << k
        full = (1 << size) - 1
        if k == 0:
            return self.const(table & 1)
        if table == 0:
            return self.false
        if table == full:
            return self.true
        if k == 1:
            return lits[0] if table == 0b10 else -lits[0]
        if k == 2:
            ones = table & 0b1111
            if ones == 0b0110:
                return self._xor2(lits[0], lits[1])
            if ones == 0b1001:
                return -self._xor2(lits[0], lits[1])
            count = bin(ones).count("1")
            if count == 1:
                m = ones.bit_length() - 1
                return self.lit_and([lits[0] if m & 1 else -lits[0],
                                     lits[1] if m & 2 else -lits[1]])
            if count == 3:
                m = (~ones & 0b1111).bit_length() - 1
                return -self.lit_and([lits[0] if m & 1 else -lits[0],
                                      lits[1] if m & 2 else -lits[1]])
        key = ("lut", k, table, tuple(lits))
        hit = self._nodes.get(key)
        if hit is not None:
            return hit
        out = self.cnf.new_var()
        for minterm in range(size):
            clause = [-lits[j] if (minterm >> j) & 1 else lits[j]
                      for j in range(k)]
            clause.append(out if (table >> minterm) & 1 else -out)
            self.cnf.add_clause(tuple(clause))
        self._nodes[key] = out
        return out


def _lut_pattern_lits(gb, pattern, free):
    """Literals for a pattern of input classes (0/1 constant,
    2 positive, 3 negative) over the builder's free variables."""
    lits = []
    for cls, var in zip(pattern, free):
        if cls < 2:
            lits.append(gb.true if cls else gb.false)
        else:
            lits.append(var if cls == 2 else -var)
    return lits


def _assert_lut_encodings_match(cases, with_true=True):
    """Both builders see the same calls in the same order; every
    returned literal and the whole clause database must agree."""
    new, ref = GateBuilder(), _ReferenceLutBuilder()
    for gb in (new, ref):
        if with_true:
            gb.cnf.true
        for _ in range(4):
            gb.cnf.new_var()
    first = 2 if with_true else 1
    for table, pattern, aliases in cases:
        free = [first + a for a in aliases]
        got = new.lit_lut(table, _lut_pattern_lits(new, pattern, free))
        want = ref.lit_lut(table, _lut_pattern_lits(ref, pattern, free))
        assert got == want, (table, pattern, aliases)
    assert new.cnf.clauses == ref.cnf.clauses
    assert new.cnf.n_vars == ref.cnf.n_vars
    assert new._nodes == ref._nodes


class TestLutReduction:
    def test_every_table_up_to_three_inputs_on_every_pattern(self):
        for k in (1, 2, 3):
            cases = [
                (table, pattern, tuple(range(k)))
                for table in range(1 << (1 << k))
                for pattern in itertools.product(range(4), repeat=k)
            ]
            _assert_lut_encodings_match(cases)

    def test_every_four_input_table_on_sampled_patterns(self):
        rng = random.Random(4)
        cases = []
        for table in range(1 << 16):
            pattern = tuple(rng.choice((0, 1, 2, 2, 3, 3))
                            for _ in range(4))
            # a repeated variable now and then: both encoders treat
            # the inputs as independent positions
            aliases = tuple(rng.choice((j, j, j, 0)) for j in range(4))
            cases.append((table, pattern, aliases))
        _assert_lut_encodings_match(cases)

    def test_free_inputs_before_the_constant_exists(self):
        cases = [
            (table, pattern, (0, 1))
            for table in range(16)
            for pattern in itertools.product((2, 3), repeat=2)
        ]
        _assert_lut_encodings_match(cases, with_true=False)


def _solve_inputs(enc, solver, stimulus, pattern):
    """Assumption literals fixing every encoded input to the pattern."""
    assume = []
    for (port, frame), var in sorted(enc.input_vars.items()):
        bit = (stimulus[frame].get(port, 0) >> pattern) & 1
        assume.append(var if bit else -var)
    return assume


class TestCircuitEncoder:
    def _comb_netlist(self):
        nl = Netlist("comb")
        a, b, c = nl.add_input("a"), nl.add_input("b"), nl.add_input("c")
        g1 = nl.add_gate(CellKind.AND, [a, b])
        g2 = nl.add_gate(CellKind.XOR, [g1, c])
        lut = nl.add_lut([a, g2], 0b0111, name="l0")
        nl.add_output("y", g2)
        nl.add_output("z", lut.output)
        return nl

    def test_combinational_agrees_with_simulator(self):
        nl = self._comb_netlist()
        gb = GateBuilder(CNF())
        enc = CircuitEncoder(nl, gb)
        lits = {name: enc.output_lit(name, 0) for name in ("y", "z")}
        solver = Solver(gb.cnf)
        for bits in itertools.product([0, 1], repeat=3):
            inputs = dict(zip("abc", bits))
            want = simulate_words(nl, inputs, 1)
            stim = [inputs]
            assert solver.solve(_solve_inputs(enc, solver, stim, 0))
            for name, lit in lits.items():
                assert int(solver.lit_true(lit)) == want[name]

    def test_sequential_frames_match_simulator(self):
        nl = Netlist("seq")
        a = nl.add_input("a")
        q0 = nl.add_net("q0")
        q1 = nl.add_net("q1")
        x = nl.add_gate(CellKind.XOR, [a, q0])
        nl.add_dff(x, name="ff0", output=q0, init=1)
        nl.add_dff(q0, name="ff1", output=q1)
        nl.add_output("y", q1)
        frames = 4
        stimulus = [{"a": p & 1} for p in (1, 0, 1, 1)]
        sim = SequentialSimulator(nl, engine="interpreted")
        sim.reset(1)
        outs = sim.run(stimulus, 1)
        gb = GateBuilder(CNF())
        enc = CircuitEncoder(nl, gb)
        lits = [enc.output_lit("y", t) for t in range(frames)]
        solver = Solver(gb.cnf)
        assert solver.solve(_solve_inputs(enc, solver, stimulus, 0))
        for t in range(frames):
            assert int(solver.lit_true(lits[t])) == outs[t]["y"]

    def test_frame_zero_uses_init_state(self):
        nl = Netlist("init")
        a = nl.add_input("a")
        q = nl.add_net("q")
        nl.add_dff(a, name="ff", output=q, init=1)
        nl.add_output("y", q)
        gb = GateBuilder(CNF())
        enc = CircuitEncoder(nl, gb)
        assert enc.output_lit("y", 0) == gb.true

    def test_constant_stimulus_folds_everything(self):
        nl = self._comb_netlist()
        gb = GateBuilder(CNF())
        enc = CircuitEncoder(
            nl, gb, inputs=lambda port, frame: gb.const(port == "a")
        )
        # a=1, b=0, c=0: the whole cone is constant — no clauses needed
        assert gb.const_value(enc.output_lit("y", 0)) == 0
        assert gb.const_value(enc.output_lit("z", 0)) == 1

    def test_relax_hook_replaces_instance_output(self):
        nl = self._comb_netlist()
        gb = GateBuilder(CNF())
        free = {}

        def relax(inst, frame, in_lits, lit):
            if inst.name != "l0":
                return lit
            return free.setdefault(frame, gb.cnf.new_var())

        enc = CircuitEncoder(nl, gb, relax=relax)
        z = enc.output_lit("z", 0)
        assert z == free[0]
