"""Per-core state after each decision: how change sets meet full maps.

The production reduction and the coordinated managers return what one
decision changes -- :meth:`~repro.core.packed_tree.PackedReduction.solve`
returns the walked ``(leaf slot, (c, f, w))`` pairs and ``on_interval``
the walked cores' allocations -- while the references return the whole
assignment every time.  :func:`fold` applies a decision to the per-core
state it leaves behind, which is what the simulation kernel holds, so
both sides compare as state after every decision: a full map folds to
itself, and a change set folds onto the state it changes.
"""

from __future__ import annotations

__all__ = ["fold"]


def fold(held: dict, decision) -> dict:
    """Apply ``decision`` to the per-core state ``held`` and return it.

    ``decision`` is a ``{core: setting}`` map or ``(core, setting)`` pairs
    for any subset of the cores, or None (nothing changes).  ``held`` is
    updated in place.
    """
    if decision is not None:
        held.update(decision)
    return held
