"""Change descriptors: linking debugging changes to physical tiles.

A :class:`ChangeSet` records what a debugging step did to the *mapped*
netlist — functions altered, wiring moved, logic added or removed.  The
tiling manager turns it into the set of affected tiles via the packing's
instance→block map and the tile membership table; that is the mechanized
form of the paper's §5.1 back-annotation trace ("trace the debugging
changes made at any level ... down to the affected tiles").
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class ChangeSet:
    """The netlist delta of one debugging step.

    * ``changed_instances`` — existing cells whose truth table, kind or
      input wiring changed (including cells whose fanin net moved);
    * ``new_instances`` — freshly created cells (mapped primitives and
      IO markers), not yet known to the packing;
    * ``removed_instances`` — names of cells deleted from the netlist;
    * ``description`` — human-readable provenance, kept for reports;
    * ``base_revision`` — the netlist revision the delta starts from
      (``None`` when unknown); lets incremental consumers like the
      compiled simulation kernel verify the changeset covers every
      mutation since they last synchronized;
    * ``end_revision`` — the netlist revision right after the delta
      (``None`` when unknown); with ``base_revision`` it shows that no
      untracked mutation followed the delta either.
    """

    description: str = ""
    changed_instances: set[str] = field(default_factory=set)
    new_instances: set[str] = field(default_factory=set)
    removed_instances: set[str] = field(default_factory=set)
    base_revision: int | None = None
    end_revision: int | None = None

    @property
    def is_empty(self) -> bool:
        return not (
            self.changed_instances or self.new_instances or self.removed_instances
        )

    def stale_for(self, revision: int | None) -> bool:
        """True when this delta demonstrably does not start at ``revision``.

        Consumers that replay precomputed results (the compiled kernel,
        the tile-configuration cache) use this to detect netlist
        mutations that happened outside any recorded changeset: if the
        delta's ``base_revision`` does not line up with the revision
        they last synchronized to, they must fall back to their
        from-scratch path.  Unknown revisions (``None`` on either side)
        cannot prove staleness and return False.
        """
        return (
            self.base_revision is not None
            and revision is not None
            and self.base_revision != revision
        )

    def touched_existing(self) -> set[str]:
        """Existing instances whose tiles are affected."""
        return self.changed_instances | self.removed_instances


class ChangeRecorder:
    """Context helper that diffs a netlist across a mutation block.

    Example::

        with ChangeRecorder(mapped, "invert AND gate") as rec:
            mapped.change_kind(inst, CellKind.LUT, {"table": new_table})
        changeset = rec.changes
    """

    def __init__(self, netlist, description: str = "") -> None:
        self.netlist = netlist
        self.description = description
        self.changes: ChangeSet | None = None
        self._before: dict[str, tuple] | None = None

    def __enter__(self) -> "ChangeRecorder":
        self._before = self._snapshot()
        self._base_revision = self.netlist.revision
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            return
        after = self._snapshot()
        before = self._before or {}
        changed = {
            name
            for name in before.keys() & after.keys()
            if before[name] != after[name]
        }
        self.changes = ChangeSet(
            description=self.description,
            changed_instances=changed,
            new_instances=set(after) - set(before),
            removed_instances=set(before) - set(after),
            base_revision=getattr(self, "_base_revision", None),
            end_revision=self.netlist.revision,
        )

    def _snapshot(self) -> dict[str, tuple]:
        snap = {}
        for inst in self.netlist.instances():
            params = inst.params
            snap[inst.name] = (
                inst.kind,
                tuple([n.name for n in inst.inputs]),
                tuple(sorted(params.items())) if params else (),
            )
        return snap
