"""CNF construction: variables, clauses, and a hashing gate builder.

Literals are DIMACS-style signed ints: ``+v`` is variable ``v`` true,
``-v`` is it false.  :class:`CNF` owns the variable counter and the
clause list; solvers attach to a CNF and *sync* — clauses appended
after a solve are picked up by the next solve, which is what makes the
CEGIS and per-output-miter loops incremental.

:class:`GateBuilder` is the construction discipline every encoder goes
through.  It never emits a gate blindly:

* **constant folding** — operands equal to the constant-true literal
  (allocated lazily, asserted by a unit clause) are folded away, so a
  circuit applied to a concrete stimulus collapses to the tiny cone
  that actually depends on free variables;
* **structural hashing** — each (operation, operand-literals) node is
  built once and memoized, so two structurally identical circuits
  encoded through one builder share variables.  A miter between a
  corrected netlist and its golden twin then reduces to constant-false
  difference bits *before the solver ever runs* — the SAT-sweeping
  effect the formal verify mode leans on.

Truth-table (LUT) nodes additionally normalize input polarity and drop
constant and don't-care inputs, so the common post-ECO patterns
(inverter absorbed into a table, retabled LUT) still hash onto their
twins.
"""

from __future__ import annotations

from functools import lru_cache

from repro.errors import ReproError


class SatError(ReproError):
    """The SAT layer was driven with inconsistent inputs."""


class CNF:
    """A growing clause database over ``1..n_vars``.

    ``clauses`` is append-only; :class:`repro.sat.solver.Solver` keeps a
    cursor into it so late additions are solved incrementally.
    """

    __slots__ = ("n_vars", "clauses", "_true")

    def __init__(self) -> None:
        self.n_vars = 0
        self.clauses: list[tuple[int, ...]] = []
        self._true: int | None = None

    def new_var(self) -> int:
        self.n_vars += 1
        return self.n_vars

    @property
    def true(self) -> int:
        """The constant-true literal (allocated and asserted lazily)."""
        if self._true is None:
            self._true = self.new_var()
            self.clauses.append((self._true,))
        return self._true

    def add_clause(self, lits) -> None:
        """Append one clause (an iterable of non-zero signed ints)."""
        clause = tuple(lits)
        for lit in clause:
            if lit == 0 or abs(lit) > self.n_vars:
                raise SatError(f"literal {lit} out of range (n_vars={self.n_vars})")
        self.clauses.append(clause)


class GateBuilder:
    """Structurally-hashed, constant-folding gate construction over a CNF."""

    def __init__(self, cnf: CNF | None = None) -> None:
        self.cnf = cnf if cnf is not None else CNF()
        self._nodes: dict[tuple, int] = {}

    # -- constants -----------------------------------------------------

    @property
    def true(self) -> int:
        return self.cnf.true

    @property
    def false(self) -> int:
        return -self.cnf.true

    def const(self, bit: int) -> int:
        return self.true if bit else self.false

    def is_const(self, lit: int) -> bool:
        return self.cnf._true is not None and abs(lit) == self.cnf._true

    def const_value(self, lit: int) -> int | None:
        """0/1 for a constant literal, ``None`` for a free one."""
        if not self.is_const(lit):
            return None
        return 1 if lit > 0 else 0

    # -- clause emission -----------------------------------------------

    def clause(self, lits) -> None:
        """Add a clause, folding constant literals first."""
        out = []
        t = self.cnf._true
        for lit in lits:
            if t is not None:
                if lit == t:
                    return  # satisfied by the constant
                if lit == -t:
                    continue  # dropped
            out.append(lit)
        self.cnf.add_clause(out)

    # -- primitive nodes -----------------------------------------------

    def lit_and(self, lits) -> int:
        """Conjunction with folding: drops trues, dedupes, spots a&~a."""
        kept: list[int] = []
        seen: set[int] = set()
        for lit in lits:
            value = self.const_value(lit)
            if value == 0:
                return self.false
            if value == 1:
                continue
            if lit in seen:
                continue
            if -lit in seen:
                return self.false
            seen.add(lit)
            kept.append(lit)
        if not kept:
            return self.true
        if len(kept) == 1:
            return kept[0]
        kept.sort()
        key = ("and", tuple(kept))
        hit = self._nodes.get(key)
        if hit is not None:
            return hit
        out = self.cnf.new_var()
        for lit in kept:
            self.cnf.add_clause((-out, lit))
        self.cnf.add_clause(tuple([out] + [-lit for lit in kept]))
        self._nodes[key] = out
        return out

    def lit_or(self, lits) -> int:
        return -self.lit_and([-lit for lit in lits])

    def lit_xor(self, lits) -> int:
        """Parity, built as a hashed chain of 2-input XOR nodes."""
        acc = self.false
        for lit in lits:
            acc = self._xor2(acc, lit)
        return acc

    def _xor2(self, a: int, b: int) -> int:
        va, vb = self.const_value(a), self.const_value(b)
        if va is not None:
            return -b if va else b
        if vb is not None:
            return -a if vb else a
        if a == b:
            return self.false
        if a == -b:
            return self.true
        # normalize: xor(-a, b) == -xor(a, b); operands unordered
        sign = 1
        if a < 0:
            a, sign = -a, -sign
        if b < 0:
            b, sign = -b, -sign
        if a > b:
            a, b = b, a
        key = ("xor", a, b)
        hit = self._nodes.get(key)
        if hit is not None:
            return sign * hit
        out = self.cnf.new_var()
        self.cnf.add_clause((-a, -b, -out))
        self.cnf.add_clause((a, b, -out))
        self.cnf.add_clause((a, -b, out))
        self.cnf.add_clause((-a, b, out))
        self._nodes[key] = out
        return sign * out

    def lit_mux(self, sel: int, d0: int, d1: int) -> int:
        """``sel ? d1 : d0`` (the MUX2 port convention)."""
        vs = self.const_value(sel)
        if vs is not None:
            return d1 if vs else d0
        if d0 == d1:
            return d0
        if sel < 0:
            sel, d0, d1 = -sel, d1, d0
        v0, v1 = self.const_value(d0), self.const_value(d1)
        if v0 is not None:
            return self.lit_and([sel, d1]) if v0 == 0 else self.lit_or([-sel, d1])
        if v1 is not None:
            return self.lit_and([-sel, d0]) if v1 == 0 else self.lit_or([sel, d0])
        if d0 == -d1:
            return self._xor2(sel, d0)
        key = ("mux", sel, d0, d1)
        hit = self._nodes.get(key)
        if hit is not None:
            return hit
        out = self.cnf.new_var()
        self.cnf.add_clause((-sel, -d1, out))
        self.cnf.add_clause((-sel, d1, -out))
        self.cnf.add_clause((sel, -d0, out))
        self.cnf.add_clause((sel, d0, -out))
        # redundant but propagation-strengthening
        self.cnf.add_clause((-d0, -d1, out))
        self.cnf.add_clause((d0, d1, -out))
        self._nodes[key] = out
        return out

    def lit_lut(self, table: int, lits) -> int:
        """A k-input truth table applied to literals.

        Bit ``m`` of ``table`` is the output for minterm ``m`` (input
        ``j`` contributing bit ``j``, matching
        :func:`repro.netlist.cells.eval_lut`).  Constant inputs are
        cofactored away, don't-care inputs dropped, and input polarity
        normalized (:func:`_reduce_lut`) before hashing.
        """
        t = self.cnf._true
        lits = tuple(lits)
        table, kept = _reduce_lut(table, tuple(
            int(lit > 0) if abs(lit) == t else (_POS if lit > 0 else _NEG)
            for lit in lits
        ))
        lits = [abs(lits[j]) for j in kept]
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
            # after constant/support/polarity normalization every
            # remaining 2-input table is an AND or XOR shape; canonical
            # nodes let mapped LUTs hash onto plain-gate encodings
            ones = table & 0b1111
            if ones == 0b0110:
                return self._xor2(lits[0], lits[1])
            if ones == 0b1001:
                return -self._xor2(lits[0], lits[1])
            count = bin(ones).count("1")
            if count == 1:
                m = ones.bit_length() - 1
                return self.lit_and(
                    [lits[0] if m & 1 else -lits[0],
                     lits[1] if m & 2 else -lits[1]]
                )
            if count == 3:
                m = (~ones & 0b1111).bit_length() - 1
                return -self.lit_and(
                    [lits[0] if m & 1 else -lits[0],
                     lits[1] if m & 2 else -lits[1]]
                )
        key = ("lut", k, table, tuple(lits))
        hit = self._nodes.get(key)
        if hit is not None:
            return hit
        out = self.cnf.new_var()
        for minterm in range(size):
            clause = [
                -lits[j] if (minterm >> j) & 1 else lits[j] for j in range(k)
            ]
            clause.append(out if (table >> minterm) & 1 else -out)
            self.cnf.add_clause(tuple(clause))
        self._nodes[key] = out
        return out


def add_at_most_k(cnf: CNF, lits, k: int) -> None:
    """Constrain at most ``k`` of ``lits`` to be true.

    Sinz's sequential-counter encoding (LTseq): auxiliary registers
    ``s[i][j]`` mean "at least ``j+1`` of the first ``i+1`` literals are
    true"; one clause per (literal, count) pair propagates the partial
    sums and one blocks the overflow.  O(n·k) variables and clauses,
    and unit propagation alone enforces the bound — which is what the
    multi-error diagnosis queries lean on: with ``j`` selector
    assumptions already true, propagation immediately forces the other
    selectors false once ``j == k``.
    """
    lits = list(lits)
    n = len(lits)
    if k < 0:
        raise SatError(f"cardinality bound must be >= 0, got {k}")
    if k == 0:
        for lit in lits:
            cnf.add_clause((-lit,))
        return
    if n <= k:
        return  # vacuous
    s = [[cnf.new_var() for _ in range(k)] for _ in range(n - 1)]
    cnf.add_clause((-lits[0], s[0][0]))
    for j in range(1, k):
        cnf.add_clause((-s[0][j],))
    for i in range(1, n - 1):
        cnf.add_clause((-lits[i], s[i][0]))
        cnf.add_clause((-s[i - 1][0], s[i][0]))
        for j in range(1, k):
            cnf.add_clause((-lits[i], -s[i - 1][j - 1], s[i][j]))
            cnf.add_clause((-s[i - 1][j], s[i][j]))
        cnf.add_clause((-lits[i], -s[i - 1][k - 1]))
    cnf.add_clause((-lits[n - 1], -s[n - 2][k - 1]))


#: classes of a LUT input in a :func:`_reduce_lut` pattern; constant
#: inputs are classed by their value (0 or 1)
_POS, _NEG = 2, 3


# bounded for long-lived processes (a daemon worker encodes design after
# design); a two-fault campaign over 9sym and s9234 reads 877 entries
@lru_cache(maxsize=4096)
def _reduce_lut(table: int, pattern: tuple) -> tuple[int, tuple]:
    """``table`` normalized for the input classes in ``pattern``.

    Constant inputs are cofactored away, inputs the table does not
    depend on dropped, and negative inputs complemented.  Returns the
    reduced table and the indices of the inputs it still reads, in
    order.  A pure function of its arguments, so LUT encodings share
    one reduction per (table, pattern).
    """
    kept = list(range(len(pattern)))
    j = 0
    while j < len(kept):
        value = pattern[kept[j]]
        if value > 1:
            j += 1
            continue
        table = _cofactor(table, len(kept), j, value)
        del kept[j]
    j = 0
    while j < len(kept):
        low = _cofactor(table, len(kept), j, 0)
        if low == _cofactor(table, len(kept), j, 1):
            table = low
            del kept[j]
        else:
            j += 1
    for j, index in enumerate(kept):
        if pattern[index] == _NEG:
            table = _flip_var(table, len(kept), j)
    return table, tuple(kept)


def _cofactor(table: int, k: int, j: int, value: int) -> int:
    """The (k-1)-input table with input ``j`` fixed to ``value``."""
    out = 0
    for minterm in range(1 << (k - 1)):
        low = minterm & ((1 << j) - 1)
        high = minterm >> j
        source = low | (value << j) | (high << (j + 1))
        if (table >> source) & 1:
            out |= 1 << minterm
    return out


def _flip_var(table: int, k: int, j: int) -> int:
    """The table after complementing input variable ``j``."""
    out = 0
    for minterm in range(1 << k):
        if (table >> minterm) & 1:
            out |= 1 << (minterm ^ (1 << j))
    return out
