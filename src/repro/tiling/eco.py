"""Change descriptors: linking debugging changes to physical tiles.

A :class:`ChangeSet` records what a debugging step did to the *mapped*
netlist — functions altered, wiring moved, logic added or removed.  The
tiling manager turns the same edits, read from the netlist's edit log,
into the set of affected tiles via the packing's instance→block map and
the tile membership table; that is the mechanized form of the paper's
§5.1 back-annotation trace ("trace the debugging changes made at any
level ... down to the affected tiles").
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class ChangeSet:
    """The netlist delta of one debugging step.

    * ``changed_instances`` — existing cells an edit touched: truth
      table, kind or input wiring (including cells whose fanin net
      moved);
    * ``new_instances`` — freshly created cells (mapped primitives and
      IO markers), not yet known to the packing;
    * ``removed_instances`` — names of cells deleted from the netlist;
    * ``description`` — human-readable provenance, kept for reports.

    It is the record of one step, derived from the netlist's edit log
    (:meth:`~repro.netlist.core.Netlist.edits_since`).  Consumers that
    sync to the netlist (the packing, the compiled kernel) read the log
    themselves, so a commit absorbs every pending edit, recorded here or
    not.
    """

    description: str = ""
    changed_instances: set[str] = field(default_factory=set)
    new_instances: set[str] = field(default_factory=set)
    removed_instances: set[str] = field(default_factory=set)

    @property
    def is_empty(self) -> bool:
        return not (
            self.changed_instances or self.new_instances or self.removed_instances
        )


class ChangeRecorder:
    """Context helper that records the netlist edits of a block.

    The changeset is the netlist's edit log folded over the block
    (:meth:`~repro.netlist.core.Netlist.edits_since` its entry
    revision), so recording costs O(edits), not a walk over every
    instance.

    Example::

        with ChangeRecorder(mapped, "invert AND gate") as rec:
            mapped.change_kind(inst, CellKind.LUT, {"table": new_table})
        changeset = rec.changes
    """

    def __init__(self, netlist, description: str = "") -> None:
        self.netlist = netlist
        self.description = description
        self.changes: ChangeSet | None = None

    def __enter__(self) -> "ChangeRecorder":
        self._base = self.netlist.revision
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            return
        changed, new, removed = self.netlist.edits_since(self._base)
        self.changes = ChangeSet(self.description, changed, new, removed)
