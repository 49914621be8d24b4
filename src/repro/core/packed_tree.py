"""Packed min-plus reduction over flat plan arrays: the managers' global optimiser.

The paper's optimiser recursively reduces pairs of per-core energy curves,
``E_ab(s) = min over s_a + s_b = s of E_a(s_a) + E_b(s_b)``, keeping the
argmin split for back-tracking; reducing pairs in a binary tree gives the
exact optimum in ``O(ncores * ways^2)``.  :class:`PackedReduction` is the
one implementation of that reduction on the production path, for the flat
manager (one group of all cores) and the clustered hierarchy alike.  It
is persistent across manager invocations -- only the root paths of leaves
whose curves changed are re-combined -- and stores the tree in flat
arrays:

* **one row id per node** -- the leaves first (row id = leaf slot), then
  the combine nodes level by level, so every parent sorts after its
  children and a bottom-up refresh is one ascending pass over the marked
  row ids (one root path in the steady state, the union of the dirty
  paths after a multi-leaf change).  Every node's stored values sit in
  one float64 buffer ``E``, row after row;
* **one plan buffer** -- an int64 array allocated once per reduction:
  a header (``_HEADER``: leaf and row counts, root row, root way total,
  whether a walk has run, and the cumulative
  ``rows_combined`` / ``splits`` work counters), then one column per
  row attribute (``_COLUMNS``): children ``src_a`` / ``src_b`` (-1 for a
  leaf), ``parent`` (-1 for the root), stored range ``nlo`` / ``nk``,
  offset ``off`` into ``E``, finite box ``flo`` / ``fhi`` (``flo > fhi``
  is an all-``inf`` row; every cell outside the box is ``inf``), the
  last back-track visit's way total ``stamp``, and the dirty ``mark`` a
  changed leaf sets; then the walk's output, ``(leaf slot, ways)``
  pairs, and its stack.  Refresh stores *values only*: the back-track
  walk reads exactly one split per visited row, recovered from the
  still-valid children instead of materialising ``O(ways)`` argmins per
  row per refresh;
* **needed-range truncation** -- the root is only ever read at one way
  total ``S`` (the full associativity), so each node stores just the
  column range its computed ancestors can read, propagated top-down:
  ``child_needed = [max(child_lo, parent_lo - sibling_hi),
  min(child_hi, parent_hi - sibling_lo)]``.  The root's row is a single
  column; at 256 cores this removes over half the DP cells without
  changing any computed value (every in-range ``(sl, s - sl)`` pair a
  computed parent column reads lies inside both children's needed
  ranges, so the finite candidate set -- and the ascending-``sl``
  first-minimum tie-break -- is exactly that of a full-range combine);
* **static meter totals** -- the modelled RMA cost of one invocation is
  the sum of every combine node's *untruncated* DP-cell count, a constant
  of the tree shape (:func:`_dp_cell_count` per combine), charged as one
  integer-exact
  :meth:`~repro.core.overhead_meter.OverheadMeter.charge_replay` per
  solve (integer DP-cell counts are exact in float64 and order-free, so
  this equals charging every combine separately);
* **one change set per solve** -- a solve returns the walk's
  ``(leaf slot, (c, f, w))`` pairs and nothing else: a subtree whose
  stamp already holds its incoming way total keeps its settings, so the
  pairs are exactly what this decision may change.  The manager
  translates them into allocations and the simulation kernel applies
  them as they are; no assignment map is kept or copied anywhere.

The node-graph reduction in ``tests/oracles/node_graph.py`` is the golden
reference: ``tests/test_packed_tree.py`` asserts bit-identity --
assignments (each solve's pairs folded into the previous ones), splits,
meter charges -- across random widths, odd leaf counts, way caps and
splice orders.

One call into the compiled kernel (``_kernels.c``, built and loaded by
:mod:`repro.kernels`) does a whole solve: ``minplus_solve(plan, E)``
marks the dirty leaves' root paths, recombines the marked rows in row-id
order, returns -1 if the root way total is unset or its cell is ``inf``
(infeasible) and -2 if the root kept its last walk's way total (nothing
changed), and otherwise walks the back-track -- left child first,
skipping a row whose stamp already holds its incoming way total -- and
returns the number of ``(leaf slot, ways)`` pairs it wrote.  Each row is
recombined over its children's finite boxes ``a`` (``na`` entries),
``b`` (``nb``) into the output span ``out`` (``nout``), and each split
is the first minimum of its box-clipped candidates::

    out[t] = min  a[t + k0 - j] + b[j]    j in [0, nb), t + k0 - j in [0, na)
    split  = first i minimising a[i] + b[n - 1 - i]

with ``inf`` where no pair exists (``k0`` may put outputs before the
first pair or past the last).  Its values are exact: every cell is one
IEEE add of the same two entries the node-graph reference adds,
``min`` is exact in any order, and curves hold only finite values or
``+inf`` (never NaN), on which the kernel's ``v < o ? v : o`` is
``np.minimum``; the split scans ascending with a strict ``<``, which is
``np.argmin``'s first minimum.  Pairs outside the finite boxes are
infinite and can never win or tie a finite minimum, so restricting the
combine to the boxes changes no value.  The kernel is the one
implementation of the solve, so a working C compiler is required:
importing this module raises :class:`ImportError` when the library
cannot be built or loaded.  The node-graph reduction in
``tests/oracles/node_graph.py`` is the reference it is tested against.
"""

from __future__ import annotations

import numpy as np

from repro import kernels
from repro.core.curves import EnergyCurve
from repro.core.overhead_meter import OverheadMeter
from repro.util.validation import require

__all__ = ["PackedReduction"]

#: The compiled kernel, loaded (built if need be) once, at import.
_kernel = kernels.shared()

#: The plan buffer's header slots and then its per-row columns, in the
#: order ``_kernels.c``'s ``minplus_solve`` reads them.
_HEADER = ("nleaves", "nrows", "root", "root_s", "has_prev", "rows_combined", "splits")
_COLUMNS = ("src_a", "src_b", "parent", "nlo", "nk", "off", "flo", "fhi", "stamp", "mark")
_HAS_PREV, _ROWS_COMBINED, _SPLITS = 4, 5, 6

#: ``minplus_solve``'s result for an unchanged root (an infeasible one gives -1).
_UNCHANGED = -2

#: Memoised in-range DP cell counts per (left width, right width, sums):
#: the count is a pure function of the three shapes and recurs for every
#: combine at the same tree position, so planning a reduction looks most
#: of them up instead of summing them again.
_DP_CELLS_MEMO: dict[tuple[int, int, int], int] = {}


def _dp_cell_count(na: int, nb: int, nk: int) -> int:
    """DP work of one combine: the in-range (sl, s - sl) pairs per sum."""
    key = (na, nb, nk)
    cells = _DP_CELLS_MEMO.get(key)
    if cells is None:
        cells = sum(min(k + 1, na, nb, na + nb - 1 - k) for k in range(nk))
        _DP_CELLS_MEMO[key] = cells
    return cells


class _Rec:
    """One node of the reduction plan while it is being built."""

    __slots__ = ("lo", "hi", "nlo", "nhi", "src_a", "src_b")

    def __init__(self, lo, hi, src_a=None, src_b=None):
        self.lo = lo  # true combined range (the reference node's)
        self.hi = hi
        self.nlo = -1  # needed (stored) range, assigned top-down
        self.nhi = -1
        self.src_a = src_a  # child records (None for leaves)
        self.src_b = src_b


class _Columns:
    """The plan buffer's per-row columns, as int64 memoryviews (fast
    scalar reads and writes from Python)."""

    __slots__ = _COLUMNS

    def __init__(self, cols: np.ndarray) -> None:
        for name, col in zip(_COLUMNS, cols):
            setattr(self, name, memoryview(col))


class PackedReduction:
    """Min-plus reduction over grouped leaves in flat plan arrays.

    ``group_sizes``/``group_caps`` describe the hierarchy: each group's
    leaves reduce under its own way cap (the intra-cluster stage), then
    the group roots reduce under ``total_ways`` (the second-level stage).
    A single group of all leaves with ``cap == total_ways`` *is* the flat
    tree.  Pairing order within every stage is fixed -- adjacent pairs
    level by level, an odd trailing node carried up unchanged -- and
    mirrors the node-graph reference (``tests/oracles/node_graph.py``)
    exactly, so assignments, tie-breaks and metered charges are
    bit-identical to it over the same curves.

    Leaf curves must be at least as wide as their group's cap (the
    managers' curves always span the full associativity); this pins every
    node's true range statically, which is what lets the plan precompute
    needed ranges and the invocation's total DP-cell charge.
    """

    def __init__(
        self,
        group_sizes: tuple[int, ...],
        group_caps: tuple[int, ...],
        total_ways: int,
        min_ways: int = 1,
    ) -> None:
        require(len(group_sizes) >= 1, "need at least one group")
        require(len(group_sizes) == len(group_caps), "need exactly one way cap per group")
        self.total_ways = total_ways
        self.min_ways = min_ways
        self.nleaves = sum(group_sizes)
        self._group_sizes = tuple(int(n) for n in group_sizes)
        for size, cap in zip(self._group_sizes, group_caps):
            require(size >= 1, "every group needs at least one leaf")
            require(cap >= size * min_ways, "group way cap cannot satisfy the per-leaf minimum")
        self._leaf_caps: list[int] = []

        # ---- plan: build the node records stage by stage ------------------
        leaf_recs: list[_Rec] = []
        group_roots: list[_Rec] = []
        by_level: dict[int, list[_Rec]] = {}
        total_cells = 0

        def reduce_stage(nodes: list[_Rec], cap: int, lev0: int) -> tuple[_Rec, int]:
            """Pair ``nodes`` level by level; return (root, depth used)."""
            nonlocal total_cells
            depth = 0
            while len(nodes) > 1:
                depth += 1
                recs = by_level.setdefault(lev0 + depth, [])
                nxt: list[_Rec] = []
                for i in range(0, len(nodes) - 1, 2):
                    a, b = nodes[i], nodes[i + 1]
                    lo = a.lo + b.lo
                    hi = min(a.hi + b.hi, cap)
                    require(hi >= lo, "combined curve has empty range")
                    rec = _Rec(lo, hi, a, b)
                    recs.append(rec)
                    nxt.append(rec)
                    total_cells += _dp_cell_count(a.hi - a.lo + 1, b.hi - b.lo + 1, hi - lo + 1)
                if len(nodes) % 2:
                    nxt.append(nodes[-1])  # odd trailing node: carried up
                nodes = nxt
            return nodes[0], depth

        max_depth = 0
        for size, cap in zip(self._group_sizes, group_caps):
            members = [_Rec(min_ways, cap) for _ in range(size)]
            self._leaf_caps += [cap] * size
            leaf_recs.extend(members)
            root, depth = reduce_stage(members, cap, 0)
            max_depth = max(max_depth, depth)
            group_roots.append(root)
        root_rec, _ = reduce_stage(group_roots, total_ways, max_depth)
        self._total_cells = total_cells

        # ---- root way total (static) and needed-range propagation ---------
        if self.nleaves == 1:
            s = min(total_ways, root_rec.hi)
        else:
            s = total_ways
        root_s = s if root_rec.lo <= s <= root_rec.hi else None
        seed = s if root_s is not None else root_rec.lo
        root_rec.nlo = root_rec.nhi = seed
        nlevels = max(by_level, default=0)
        for lev in range(nlevels, 0, -1):
            for rec in by_level[lev]:
                a, b = rec.src_a, rec.src_b
                a.nlo = max(a.lo, rec.nlo - b.hi)
                a.nhi = min(a.hi, rec.nhi - b.lo)
                b.nlo = max(b.lo, rec.nlo - a.hi)
                b.nhi = min(b.hi, rec.nhi - a.lo)
        for rec in leaf_recs:
            if rec.nlo < 0:  # an unpaired leaf can only be the root
                rec.nlo, rec.nhi = rec.lo, rec.hi

        # ---- pack the plan: leaves first, then level by level -------------
        recs = leaf_recs + [rec for lev in range(1, nlevels + 1) for rec in by_level[lev]]
        nrows = len(recs)
        row_id = {rec: r for r, rec in enumerate(recs)}
        header = len(_HEADER)
        ncols = len(_COLUMNS)
        # Header, columns, the walk's (slot, ways) output, the walk's stack
        # (at most one entry per row on a root path, plus the root's).
        plan = np.zeros(header + ncols * nrows + 2 * self.nleaves + 2 * (nrows + 1), np.int64)
        root_way = -1 if root_s is None else root_s
        plan[:header] = (self.nleaves, nrows, row_id[root_rec], root_way, 0, 0, 0)
        cols = plan[header : header + ncols * nrows].reshape(ncols, nrows)
        src_a, src_b, parent, nlo, nk, off, flo, fhi, stamp, mark = cols
        src_a[:] = src_b[:] = parent[:] = -1
        for r, rec in enumerate(recs):
            nlo[r] = rec.nlo
            nk[r] = rec.nhi - rec.nlo + 1
            if rec.src_a is not None:
                src_a[r] = a = row_id[rec.src_a]
                src_b[r] = b = row_id[rec.src_b]
                parent[a] = parent[b] = r
        off[1:] = np.cumsum(nk[:-1])
        fhi[:] = stamp[:] = -1
        mark[: self.nleaves] = 1  # every leaf starts dirty
        self._plan = plan
        self._hdr = memoryview(plan[:header])
        self._cols = _Columns(cols)
        self._out = plan[header + ncols * nrows : header + ncols * nrows + 2 * self.nleaves]
        self._E = np.full(int(nk.sum()), np.inf)
        self._plan_addr = plan.ctypes.data
        self._E_addr = self._E.ctypes.data

        self._held: list[EnergyCurve | None] = [None] * self.nleaves
        self._nmissing = self.nleaves  # leaves still awaiting a first curve

    # ---- leaf installation ---------------------------------------------------
    @property
    def total_cells(self) -> int:
        """DP cells of a from-scratch rebuild: every combine node's in-range
        pair count at its *true* (untruncated) shape.  A constant of the
        plan, charged once per solve -- the packed equivalent of the
        node-graph path's per-node combine and replay charges."""
        return self._total_cells

    @property
    def rows_combined(self) -> int:
        """Rows recombined by every solve so far (a deterministic work
        counter: exactly the union of each solve's dirty root paths)."""
        return self._hdr[_ROWS_COMBINED]

    @property
    def splits(self) -> int:
        """Back-track splits recovered by every solve so far."""
        return self._hdr[_SPLITS]

    def _write_leaf(self, slot: int, curve: EnergyCurve) -> None:
        require(curve.max_ways >= self._leaf_caps[slot], "leaf curve must span its group's way cap")
        cols = self._cols
        nlo, nk, o = cols.nlo[slot], cols.nk[slot], cols.off[slot]
        if self._held[slot] is None:
            self._nmissing -= 1
        seg = self._E[o : o + nk]
        seg[:] = curve.epi[nlo - 1 : nlo - 1 + nk]
        fin = np.flatnonzero(np.isfinite(seg))
        if fin.size:
            cols.flo[slot] = nlo + int(fin[0])
            cols.fhi[slot] = nlo + int(fin[-1])
        else:
            cols.flo[slot] = 0
            cols.fhi[slot] = -1
        self._held[slot] = curve
        cols.mark[slot] = 1
        cols.stamp[slot] = -1

    def set_leaf(self, slot: int, curve: EnergyCurve) -> None:
        """Install a leaf curve, marking it dirty only if it changed."""
        prev = self._held[slot]
        if prev is not None and not self._cols.mark[slot]:
            if prev is curve or prev.same_curve(curve):
                self._held[slot] = curve
                return
        self._write_leaf(slot, curve)

    def holds(self, slot: int, curve: EnergyCurve) -> bool:
        """True when ``curve`` is the very object installed at ``slot``."""
        return self._held[slot] is curve

    def set_leaves(self, curves: list[EnergyCurve]) -> None:
        """Install one curve per leaf slot, in slot order (oracle refresh)."""
        require(len(curves) == self.nleaves, "need exactly one curve per leaf")
        set_leaf = self.set_leaf
        for slot, curve in enumerate(curves):
            set_leaf(slot, curve)

    def invalidate(self, slot: int) -> None:
        """Force the leaf dirty (the tenant behind it was spliced in/out)."""
        self._cols.mark[slot] = 1

    # ---- solve ---------------------------------------------------------------
    def solve(
        self, meter: OverheadMeter | None = None
    ) -> list[tuple[int, tuple[int, int, int]]] | None:
        """The solve's change set: walked ``(leaf slot, (c, f, w))`` pairs.

        Charges the invocation's static DP total, then makes one
        ``minplus_solve`` call (the module docstring has its contract):
        it recombines the dirty root paths and walks the back-track, and
        this method reads each walked ``(leaf slot, ways)`` pair's setting
        off the held curve, in walk order.  Returns None when the root is
        infeasible and ``[]`` when it kept its way total (nothing
        changed).  The first walk lists every slot; later walks list only
        the leaves below a row whose incoming way total moved, and every
        other leaf keeps its setting -- so folding each solve's pairs into
        the previous ones gives exactly the node-graph hierarchy's (or
        flat tree's) assignment over the same curves, tie-breaks and meter
        charges included.
        """
        if meter is not None and self._total_cells:
            meter.charge_replay(dp_cells=self._total_cells)
        # Every leaf starts dirty, so a missing one is always refreshed.
        require(not self._nmissing, "every leaf needs a curve")
        n = _kernel.minplus_solve(self._plan_addr, self._E_addr)
        if n < 0:
            return [] if n == _UNCHANGED else None
        self._hdr[_HAS_PREV] = 1
        held = self._held
        pairs = iter(self._out[: 2 * n].tolist())
        return [(slot, held[slot].setting_at(ways)) for slot, ways in zip(pairs, pairs)]
