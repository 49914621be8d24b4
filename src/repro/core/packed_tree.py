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
  whether a walk has run, the cumulative ``rows_combined`` / ``splits``
  / ``leaf_writes`` work counters, and the number of leaves still
  awaiting a first curve), then one column per row attribute
  (``_COLUMNS``): children ``src_a`` / ``src_b`` (-1 for a leaf),
  ``parent`` (-1 for the root), stored range ``nlo`` / ``nk``, offset
  ``off`` into ``E``, finite box ``flo`` / ``fhi`` (``flo > fhi`` is an
  all-``inf`` row; every cell outside the box is ``inf``), the last
  back-track visit's way total ``stamp``, and the dirty ``mark`` a
  changed leaf sets; then one column per leaf attribute
  (``_LEAF_COLUMNS``): the held curve's packed buffer address and the
  leaf's way cap; then the walk's output, ``(leaf slot, c, f, w)``
  quads, and its stack; and last the **settings**, the ``(core, freq)``
  pair of every stored leaf cell, which the install copies from the
  curve next to its ``epi`` values so the walk reads each walked leaf's
  setting without going back to the curve.  Refresh stores *values
  only*: the back-track walk reads exactly one split per visited row,
  recovered from the still-valid children instead of materialising
  ``O(ways)`` argmins per row per refresh;
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
  ``(leaf slot, (c, f, w))`` pairs, built from its quads with one
  ``tolist``, and nothing else: a subtree whose stamp already holds its
  incoming way total keeps its settings, so the pairs are exactly what
  this decision may change.  The manager
  translates them into allocations and the simulation kernel applies
  them as they are; no assignment map is kept or copied anywhere.

The node-graph reduction in ``tests/oracles/node_graph.py`` is the golden
reference: ``tests/test_packed_tree.py`` asserts bit-identity --
assignments (each solve's pairs folded into the previous ones), splits,
meter charges -- across random widths, odd leaf counts, way caps and
splice orders.

Two entry points of the compiled library (``_kernels.c``, built and
loaded by :mod:`repro.kernels`) do the work.  ``leaf_install(plan, E,
slot, curve)`` installs one leaf from the curve's packed buffer
(:attr:`~repro.core.curves.EnergyCurve.packed`): unless the leaf is
marked or holds no curve yet, a curve equal to the held one by value
(same length, ``==`` on every ``epi``, ``freq_idx`` and ``core_idx``
entry, so ``-0.0`` equals ``0.0``) is only recorded as held; otherwise
it copies the leaf's stored window of ``epi`` into ``E`` and of the
settings into the plan, sets the finite box, marks the leaf, clears its
stamp and counts a leaf write.  It changes nothing and returns an error
for a slot out of range or a curve shorter than the leaf's way cap.
:meth:`PackedReduction.set_leaf` calls it unless the very object is
already held at an unmarked leaf.
``minplus_solve(plan, E)`` does a whole solve: it returns -4 if a leaf
has no curve yet, marks the dirty leaves' root paths, recombines the
marked rows in row-id order, returns -1 if the root way total is unset
or its cell is ``inf`` (infeasible) and -2 if the root kept its last
walk's way total (nothing changed), and otherwise walks the back-track
-- left child first, skipping a row whose stamp already holds its
incoming way total -- and returns the number of ``(leaf slot, c, f,
w)`` quads it wrote, or -3 if the walk lands on an ``inf`` leaf cell
(the check ``EnergyCurve.setting_at`` makes).
:meth:`PackedReduction.solve` calls it unless no leaf was written or
invalidated since the last completed solve: with nothing marked the call
would recombine nothing and return -2 or -1 again, so most decisions (76%
of them on the 8-core paper workload) cost no call.  Each row is
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
combine to the boxes changes no value.  The library is the one
implementation of the install and the solve, so a working C compiler is
required: importing this module raises :class:`ImportError` when the
library cannot be built or loaded.
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
#: order ``_kernels.c``'s ``leaf_install`` and ``minplus_solve`` read them.
_HEADER = (
    "nleaves", "nrows", "root", "root_s", "has_prev", "rows_combined", "splits",
    "leaf_writes", "missing",
)
_COLUMNS = ("src_a", "src_b", "parent", "nlo", "nk", "off", "flo", "fhi", "stamp", "mark")
#: The per-leaf columns after the per-row ones: the held curve's packed
#: buffer address (0: none yet) and the leaf's way cap.
_LEAF_COLUMNS = ("held", "cap")
_ROWS_COMBINED, _SPLITS, _LEAF_WRITES = 5, 6, 7

#: ``minplus_solve``'s results besides the walk's quad count, and
#: ``leaf_install``'s result for a slot out of range (a short curve gives -1).
_INFEASIBLE, _UNCHANGED, _INF_LEAF_CELL, _NO_CURVE = -1, -2, -3, -4
_BAD_SLOT = -2

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
        # Header, row columns, leaf columns, the walk's (slot, c, f, w)
        # output, its stack (at most one entry per row on a root path, plus
        # the root's), and a (core, freq) setting per stored leaf cell.
        leaf_cells = int(sum(rec.nhi - rec.nlo + 1 for rec in leaf_recs))
        body = header + ncols * nrows + len(_LEAF_COLUMNS) * self.nleaves
        plan = np.zeros(body + 4 * self.nleaves + 2 * (nrows + 1) + 2 * leaf_cells, np.int64)
        root_way = -1 if root_s is None else root_s
        plan[:header] = (self.nleaves, nrows, row_id[root_rec], root_way, 0, 0, 0, 0, self.nleaves)
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
        plan[body - self.nleaves : body] = self._leaf_caps
        self._plan = plan
        self._hdr = memoryview(plan[:header])
        self._cols = _Columns(cols)
        self._mark = self._cols.mark
        self._out = plan[body : body + 4 * self.nleaves]
        self._E = np.full(int(nk.sum()), np.inf)
        self._plan_addr = plan.ctypes.data
        self._E_addr = self._E.ctypes.data

        #: The installed curves, which keep the plan's held addresses valid.
        self._held: list[EnergyCurve | None] = [None] * self.nleaves
        #: Whether the last solve completed and no leaf was written or
        #: invalidated since, and whether its root was feasible: a clean
        #: solve returns ``[]`` or ``None`` without recombining.
        self._clean = False
        self._feasible = False

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

    @property
    def leaf_writes(self) -> int:
        """Installs that wrote a leaf so far (a deterministic work counter:
        an install that keeps an equal unmarked leaf does not count)."""
        return self._hdr[_LEAF_WRITES]

    def set_leaf(self, slot: int, curve: EnergyCurve) -> None:
        """Install a leaf curve, marking it dirty only if it changed.

        The very object already held at an unmarked leaf returns at once;
        otherwise one ``leaf_install`` call compares ``curve`` with the held
        curve by value and writes the leaf only if they differ (the module
        docstring has its contract).
        """
        if self._held[slot] is curve and not self._mark[slot]:
            return
        wrote = _kernel.leaf_install(self._plan_addr, self._E_addr, slot, curve.packed[0])
        if wrote < 0:
            if wrote == _BAD_SLOT:
                raise IndexError(f"leaf slot {slot} out of range")
            raise ValueError("leaf curve must span its group's way cap")
        if wrote:
            self._clean = False
        self._held[slot] = curve

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
        self._clean = False

    # ---- solve ---------------------------------------------------------------
    def solve(
        self, meter: OverheadMeter | None = None
    ) -> list[tuple[int, tuple[int, int, int]]] | None:
        """The solve's change set: walked ``(leaf slot, (c, f, w))`` pairs.

        Charges the invocation's static DP total, then makes one
        ``minplus_solve`` call (the module docstring has its contract):
        it recombines the dirty root paths and walks the back-track,
        writing each walked leaf's ``(slot, c, f, w)`` quad, in walk order.
        Returns None when the root is infeasible and ``[]`` when it kept
        its way total (nothing changed); raises :class:`ValueError` when a
        leaf has no curve yet, or when the walk lands on an ``inf`` leaf
        cell.  A clean solve -- no leaf written (an install that keeps an
        equal leaf writes nothing) or invalidated since the last solve,
        which completed -- makes no call: over unchanged rows the call
        would recombine nothing and return the last solve's verdict, so
        it returns ``[]`` after a feasible solve and None after an
        infeasible one.  The first walk lists every slot; later walks list only
        the leaves below a row whose incoming way total moved, and every
        other leaf keeps its setting -- so folding each solve's pairs into
        the previous ones gives exactly the node-graph hierarchy's (or
        flat tree's) assignment over the same curves, tie-breaks and meter
        charges included.
        """
        if meter is not None and self._total_cells:
            meter.charge_replay(dp_cells=self._total_cells)
        if self._clean:
            return [] if self._feasible else None
        n = _kernel.minplus_solve(self._plan_addr, self._E_addr)
        if n == _INFEASIBLE:
            self._clean, self._feasible = True, False
            return None
        if n == _UNCHANGED:
            self._clean, self._feasible = True, True
            return []
        if n < 0:
            if n == _INF_LEAF_CELL:
                raise ValueError(f"ways={int(self._out[1])} is infeasible")
            raise ValueError("every leaf needs a curve")  # _NO_CURVE
        self._clean, self._feasible = True, True
        quads = iter(self._out[: 4 * n].tolist())
        return [(slot, (c, f, w)) for slot, c, f, w in zip(quads, quads, quads, quads)]
