"""Bitset fanin-cone engine for error localization.

:meth:`Netlist.fanin_cone` answers one cone query with a BFS — fine in
isolation, but :class:`~repro.debug.localize.ConeLocalizer` needs the
cone of *every* candidate in *every* probe round, which makes probe
selection O(V·E) per round.  :class:`ConeIndex` instead computes every
instance's transitive fanin **once** as Python-int bitsets (bit ``i`` =
instance ``i`` in the cone), so each cone intersection, subtraction and
size query collapses to a single big-int operation.

The sequential fanin graph (``stop_at_ffs=False``) crosses flip-flop
boundaries and is therefore cyclic; cones are reachability sets, built
by condensing strongly connected components (iterative Tarjan) and
OR-propagating bitsets over the condensation in its reverse topological
emission order.  The acyclic single-cycle variant (``stop_at_ffs=True``)
falls out of the same pass because FF nodes simply keep no fanin edges.

The index snapshots the netlist at construction.  Inserting observation
logic only *adds* instances and sinks — it never rewires an existing
instance's fanin — so a localizer may keep using one index across probe
rounds; :attr:`revision` records the snapshot for staleness checks.
"""

from __future__ import annotations

from repro.netlist.core import Netlist


class ConeIndex:
    """All-instances fanin cones as int bitsets over a fixed indexing."""

    def __init__(self, netlist: Netlist, stop_at_ffs: bool = False) -> None:
        self.netlist = netlist
        self.stop_at_ffs = stop_at_ffs
        self.revision = netlist.revision
        adj = netlist.adjacency()
        self._names = adj.names
        self._index = adj.index
        if stop_at_ffs:
            order = netlist.topo_order()
            pred = tuple(
                () if order[i].is_ff else adj.fanin[i]
                for i in range(len(adj.names))
            )
        else:
            pred = adj.fanin
        self._cones = _reachability_bitsets(pred)
        self._all_mask = (1 << len(self._names)) - 1
        self._logic_mask = 0
        for i, inst in enumerate(netlist.topo_order()):
            if not inst.is_io:
                self._logic_mask |= 1 << i
        #: indices in instance-name sort order, for deterministic
        #: iteration matching the set-based localizer
        self.sorted_indices = sorted(
            range(len(self._names)), key=lambda i: self._names[i]
        )

    # -- indexing ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._names)

    def has(self, name: str) -> bool:
        return name in self._index

    def bit(self, name: str) -> int:
        """Bit position of one instance."""
        return self._index[name]

    def name_of(self, index: int) -> str:
        return self._names[index]

    def mask_of(self, names) -> int:
        """Bitset of a collection of instance names."""
        mask = 0
        for name in names:
            mask |= 1 << self._index[name]
        return mask

    def names_of(self, mask: int) -> set[str]:
        """Instance names of a bitset."""
        names = self._names
        out: set[str] = set()
        i = 0
        while mask:
            low = mask & -mask
            i = low.bit_length() - 1
            out.add(names[i])
            mask ^= low
        return out

    @property
    def all_mask(self) -> int:
        return self._all_mask

    @property
    def logic_mask(self) -> int:
        """Bits of every non-IO instance (the legal candidate universe)."""
        return self._logic_mask

    # -- cones ---------------------------------------------------------

    def fanin(self, name: str) -> int:
        """Bitset of the transitive fanin of ``name`` (self included)."""
        return self._cones[self._index[name]]

    def fanin_by_index(self, index: int) -> int:
        return self._cones[index]


def _reachability_bitsets(pred: tuple) -> list[int]:
    """Per-node ancestor bitsets (self included) of a possibly cyclic
    graph given per-node predecessor lists.

    Iterative Tarjan SCC; the condensation is processed in SCC emission
    order (each SCC completes after everything it reaches), so one pass
    suffices: ``cone(C) = members(C) | union(cone(D) for C→D)``.
    """
    n = len(pred)
    UNVISITED = -1
    index_of = [UNVISITED] * n
    low = [0] * n
    on_stack = bytearray(n)
    scc_of = [-1] * n
    stack: list[int] = []
    scc_cones: list[int] = []
    counter = 0
    n_sccs = 0
    cones = [0] * n

    for root in range(n):
        if index_of[root] != UNVISITED:
            continue
        # explicit DFS stack: (node, iterator position)
        work = [(root, 0)]
        while work:
            node, pi = work.pop()
            if pi == 0:
                index_of[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack[node] = 1
            recurse = False
            edges = pred[node]
            while pi < len(edges):
                nxt = edges[pi]
                pi += 1
                if index_of[nxt] == UNVISITED:
                    work.append((node, pi))
                    work.append((nxt, 0))
                    recurse = True
                    break
                if on_stack[nxt]:
                    if index_of[nxt] < low[node]:
                        low[node] = index_of[nxt]
            if recurse:
                continue
            if low[node] == index_of[node]:
                # pop one complete SCC; its successors are all emitted
                members = []
                while True:
                    w = stack.pop()
                    on_stack[w] = 0
                    scc_of[w] = n_sccs
                    members.append(w)
                    if w == node:
                        break
                bits = 0
                for m in members:
                    bits |= 1 << m
                for m in members:
                    for p in pred[m]:
                        if scc_of[p] != n_sccs:
                            bits |= scc_cones[scc_of[p]]
                scc_cones.append(bits)
                n_sccs += 1
            if work:
                parent = work[-1][0]
                if low[node] < low[parent]:
                    low[parent] = low[node]

    for node in range(n):
        cones[node] = scc_cones[scc_of[node]]
    return cones
