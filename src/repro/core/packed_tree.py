"""Packed level-synchronous min-plus reduction: the managers' global optimiser.

The paper's optimiser recursively reduces pairs of per-core energy curves,
``E_ab(s) = min over s_a + s_b = s of E_a(s_a) + E_b(s_b)``, keeping the
argmin split for back-tracking; reducing pairs in a binary tree gives the
exact optimum in ``O(ncores * ways^2)``.  :class:`PackedReduction` is the
one implementation of that reduction on the production path, for the flat
manager (one group of all cores) and the clustered hierarchy alike.  It
is persistent across manager invocations -- only the root paths of leaves
whose curves changed are re-combined -- and stores the tree in a packed
struct-of-arrays layout:

* **level-synchronous storage** -- all combine nodes of one tree level
  live in one padded ``(nodes, ways)`` float64 matrix, and a hierarchy
  stacks every cluster's level-l nodes into the same matrix.  A refresh
  recombines each dirty row once, bottom-up (one root path in the steady
  state, the sorted union of the dirty paths after a multi-leaf change).
  Refresh stores *values only*: the back-track walk reads exactly one
  split index per visited row, so splits are recovered lazily
  (:meth:`PackedReduction._split_at`) from the still-valid children
  instead of materialising ``O(ways)`` argmins per row per refresh;
* **needed-range truncation** -- the root is only ever read at one way
  total ``S`` (the full associativity), so each node stores just the
  column range its computed ancestors can read, propagated top-down:
  ``child_needed = [max(child_lo, parent_lo - sibling_hi),
  min(child_hi, parent_hi - sibling_lo)]``.  The root's "matrix" is a
  single column; at 256 cores this removes over half the DP cells without
  changing any computed value (every in-range ``(sl, s - sl)`` pair a
  computed parent column reads lies inside both children's needed
  ranges, so the finite candidate set -- and the ascending-``sl``
  first-minimum tie-break -- is exactly that of a full-range combine);
* **static meter totals** -- the modelled RMA cost of one invocation is
  the sum of every combine node's *untruncated* DP-cell count, a constant
  of the tree shape, charged as one integer-exact
  :meth:`~repro.core.overhead_meter.OverheadMeter.charge_replay` per
  solve (integer DP-cell counts are exact in float64 and order-free, so
  this equals charging every combine separately).

The node-graph reduction in ``tests/oracles/node_graph.py`` is the golden
reference: ``tests/test_packed_tree.py`` asserts bit-identity --
assignments, splits, meter charges -- across random widths, odd leaf
counts, way caps and splice orders.

The min-plus kernel (``_minplus.c``, built and loaded by
:mod:`repro.core.minplus`) does every combine and every split.  Its
contract, over a row's box-local children ``a`` (``na`` entries), ``b``
(``nb``) and output span ``out`` (``nout``)::

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
combine to the boxes changes no value.  Where no C compiler works, the
band-blocked NumPy sweep (``_numpy_row``) computes the same values; the
choice is made once, at import.
"""

from __future__ import annotations

import numpy as np

from repro.core import minplus
from repro.core.curves import EnergyCurve
from repro.core.global_opt import _dp_cell_count
from repro.core.overhead_meter import OverheadMeter
from repro.util.validation import require

__all__ = ["PackedReduction"]

#: Candidates per band block of the NumPy fallback sweep.  On the level-7
#: rows of a 256-core manycore_s7 tree (350-405-wide boxes, 685 outputs;
#: 2-CPU Xeon, NumPy 2.4), widths 64-96 took 290-330 us per row against
#: 465-620 us for one block per box; 32 or less, and 192, give part of the
#: gain back to NumPy call overhead.
SWEEP_BLOCK = 64

#: The compiled kernel, or None where it could not be built: then every
#: combine and split runs the NumPy sweep.  Chosen once, at import.
_kernel = minplus.load()


class _Rec:
    """One node of the reduction plan while it is being built."""

    __slots__ = ("lev", "row", "lo", "hi", "nlo", "nhi", "src_a", "src_b")

    def __init__(self, lev, row, lo, hi, src_a=None, src_b=None):
        self.lev = lev
        self.row = row
        self.lo = lo  # true combined range (the reference node's)
        self.hi = hi
        self.nlo = -1  # needed (stored) range, assigned top-down
        self.nhi = -1
        self.src_a = src_a  # child records (None for leaves)
        self.src_b = src_b


class _Rows:
    """Packed rows of one tree level (level 0 holds the leaves)."""

    __slots__ = ("E", "pos", "nlo", "flo", "fhi", "stamp")

    def __init__(self, nlo: list[int], width: int) -> None:
        nrows = len(nlo)
        self.nlo = nlo  # way count stored in each row's column 0
        self.E = np.full((nrows, width), np.inf)
        # Address of each row's (virtual) way-0 cell, so way w of row r
        # sits at pos[r] + 8 * w; E is never reallocated.
        base, step = self.E.ctypes.data, self.E.strides[0]
        self.pos = [base + r * step - 8 * lo for r, lo in enumerate(nlo)]
        # Finite-support bounding box per row (absolute way counts,
        # flo > fhi = all-inf row).  Idle and QoS-pruned curves leave most
        # of a row infinite; combines restrict to the box (see _compute_row).
        self.flo = [0] * nrows
        self.fhi = [-1] * nrows
        self.stamp = [-1] * nrows  # way total of the last back-track visit


class _Level(_Rows):
    """Packed storage plus per-row metadata for one combine level."""

    __slots__ = ("src", "alo", "blo", "nk", "M", "width", "_one")

    def __init__(self, recs: list[_Rec]) -> None:
        nrows = len(recs)
        self.src = [None] * nrows  # ((lev_a, row_a), (lev_b, row_b))
        self.alo = [0] * nrows  # children's stored (needed) lo
        self.blo = [0] * nrows
        nlo = [0] * nrows  # this row's stored lo
        self.nk = [0] * nrows  # this row's stored width
        #: NumPy sweeps orient the *narrower* child onto the candidate axis
        #: (min-plus convolution commutes), so their buffers are sized by
        #: the widest narrow side of the level.
        self.M = 0
        for rec in recs:
            r = rec.row
            a, b = rec.src_a, rec.src_b
            self.src[r] = ((a.lev, a.row), (b.lev, b.row))
            self.alo[r] = a.nlo
            self.blo[r] = b.nlo
            nlo[r] = rec.nlo
            self.nk[r] = rec.nhi - rec.nlo + 1
            self.M = max(self.M, min(a.nhi - a.nlo, b.nhi - b.nlo) + 1)
        self.width = max(self.nk)
        super().__init__(nlo, self.width)
        self._one = None  # lazy NumPy sweep buffers

    def one_buffers(self):
        """Per-level NumPy sweep buffers, built once per level and sized for
        the worst (unrestricted) box; box-restricted sweeps use a prefix.

        They belong to this level of one :class:`PackedReduction`, and a
        reduction is driven by one simulation at a time, so the replay
        service's thread executor can run reductions concurrently without
        a thread local.
        """
        one = self._one
        if one is None:
            # Building the (width, M) window view once per level lets each
            # sweep take a plain slice instead of paying as_strided's
            # dispatch: window cell (t, j) reads L1[t + j].
            M = self.M
            L1 = np.full(self.width + M - 1, np.inf)
            (s,) = L1.strides
            win = np.lib.stride_tricks.as_strided(L1, (self.width, M), (s, s))
            R1 = np.empty(M)
            # One block's sums, and one block's minima; _split_at borrows
            # the first M cells of tflat.
            tflat = np.empty(max(min(M, SWEEP_BLOCK) * self.width, M))
            part = np.empty(self.width)
            one = self._one = (L1, R1, tflat, win, part)
        return one


class PackedReduction:
    """Min-plus reduction over grouped leaves in packed level matrices.

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
                lev = lev0 + depth
                recs = by_level.setdefault(lev, [])
                nxt: list[_Rec] = []
                for i in range(0, len(nodes) - 1, 2):
                    a, b = nodes[i], nodes[i + 1]
                    lo = a.lo + b.lo
                    hi = min(a.hi + b.hi, cap)
                    require(hi >= lo, "combined curve has empty range")
                    rec = _Rec(lev, len(recs), lo, hi, a, b)
                    recs.append(rec)
                    nxt.append(rec)
                    total_cells += _dp_cell_count(a.hi - a.lo + 1, b.hi - b.lo + 1, hi - lo + 1)
                if len(nodes) % 2:
                    nxt.append(nodes[-1])  # odd trailing node: carried up
                nodes = nxt
            return nodes[0], depth

        slot = 0
        max_depth = 0
        for size, cap in zip(self._group_sizes, group_caps):
            members = []
            for _ in range(size):
                members.append(_Rec(0, slot, min_ways, cap))
                self._leaf_caps.append(cap)
                slot += 1
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
        self._root_s: int | None = s if root_rec.lo <= s <= root_rec.hi else None
        seed = s if self._root_s is not None else root_rec.lo
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
        self._root_ref = (root_rec.lev, root_rec.row)

        # ---- pack the levels ---------------------------------------------
        # Leaf boxes: idle/pinned curves are finite at a single way count,
        # so boxes collapse the combines above them to a few columns.
        self._leaf_nhi = [rec.nhi for rec in leaf_recs]
        w0 = max(rec.nhi - rec.nlo + 1 for rec in leaf_recs)
        self._levels: list[_Rows] = [_Rows([rec.nlo for rec in leaf_recs], w0)]
        self._levels += [_Level(by_level[lev]) for lev in range(1, nlevels + 1)]
        # Parent slot of every materialised node, to build the root paths.
        parent: dict[tuple[int, int], tuple[int, int]] = {}
        for lev in range(1, nlevels + 1):
            for rec in by_level[lev]:
                parent[(rec.src_a.lev, rec.src_a.row)] = (lev, rec.row)
                parent[(rec.src_b.lev, rec.src_b.row)] = (lev, rec.row)
        # Root path of every leaf slot, bottom-up: a refresh re-sweeps the
        # dirty leaves' paths.
        self._path: list[list[tuple[int, int]]] = []
        for s0 in range(self.nleaves):
            path: list[tuple[int, int]] = []
            up = parent.get((0, s0))
            while up is not None:
                path.append(up)
                up = parent.get(up)
            self._path.append(path)

        self._held: list[EnergyCurve | None] = [None] * self.nleaves
        self._nmissing = self.nleaves  # leaves still awaiting a first curve
        self._dirty_slots: set[int] = set(range(self.nleaves))
        self._last_assignment: dict[int, tuple[int, int, int]] | None = None
        #: Core ids whose assignment entry the last solve's walk rewrote
        #: (None until a walk has run).  Every other entry of the returned
        #: dict is object-identical to the previous solve's, which is what
        #: lets the manager translate only the touched cores.
        self.last_touched: list[int] | None = None

    # ---- leaf installation ---------------------------------------------------
    @property
    def total_cells(self) -> int:
        """DP cells of a from-scratch rebuild: every combine node's in-range
        pair count at its *true* (untruncated) shape.  A constant of the
        plan, charged once per solve -- the packed equivalent of the
        node-graph path's per-node combine and replay charges."""
        return self._total_cells

    def _write_leaf(self, slot: int, curve: EnergyCurve) -> None:
        require(curve.max_ways >= self._leaf_caps[slot], "leaf curve must span its group's way cap")
        leaves = self._levels[0]
        nlo, nhi = leaves.nlo[slot], self._leaf_nhi[slot]
        if self._held[slot] is None:
            self._nmissing -= 1
        seg = leaves.E[slot, : nhi - nlo + 1]
        seg[:] = curve.epi[nlo - 1 : nhi]
        fin = np.flatnonzero(np.isfinite(seg))
        if fin.size:
            leaves.flo[slot] = nlo + int(fin[0])
            leaves.fhi[slot] = nlo + int(fin[-1])
        else:
            leaves.flo[slot] = 0
            leaves.fhi[slot] = -1
        self._held[slot] = curve
        self._dirty_slots.add(slot)
        leaves.stamp[slot] = -1

    def set_leaf(self, slot: int, curve: EnergyCurve) -> None:
        """Install a leaf curve, marking it dirty only if it changed."""
        prev = self._held[slot]
        if prev is not None and slot not in self._dirty_slots:
            if prev is curve or prev.same_curve(curve):
                self._held[slot] = curve
                return
        self._write_leaf(slot, curve)

    def set_leaves(self, curves: list[EnergyCurve]) -> None:
        """Install one curve per leaf slot, in slot order (oracle refresh)."""
        require(len(curves) == self.nleaves, "need exactly one curve per leaf")
        set_leaf = self.set_leaf
        for slot, curve in enumerate(curves):
            set_leaf(slot, curve)

    def invalidate(self, slot: int) -> None:
        """Force the leaf dirty (the tenant behind it was spliced in/out)."""
        self._dirty_slots.add(slot)

    # ---- the refresh ----------------------------------------------------------
    def _compute_row(self, lev: int, r: int) -> None:
        """Recombine one row from its children, over their finite boxes.

        The combine runs only where a total can be finite: outputs limited
        to ``[a_flo + b_flo, a_fhi + b_fhi]`` (clipped to the stored
        range), candidates to the children's boxes.  Every excluded cell is
        the sum of at least one infinite child entry, so its value is
        ``inf`` either way: the row is exactly the full min-plus combine of
        its children.  One kernel call writes the new box and, where the
        row's previous box reached past it, the ``inf`` cells that clear
        the rest (no pair reaches them).  Splits are not materialised at
        all -- :meth:`_split_at` recovers the one split per row the
        back-track walk actually reads.
        """
        levels = self._levels
        meta = levels[lev]
        (la, ra), (lb, rb) = meta.src[r]
        ma, mb = levels[la], levels[lb]
        aflo, afhi = ma.flo[ra], ma.fhi[ra]
        bflo, bfhi = mb.flo[rb], mb.fhi[rb]
        nlo = meta.nlo[r]
        plo = aflo + bflo
        if plo < nlo:
            plo = nlo
        phi = afhi + bfhi
        nhi = nlo + meta.nk[r] - 1
        if phi > nhi:
            phi = nhi
        # Cells outside the previously recorded box are inf already (every
        # write path maintains that invariant), so clearing the old box's
        # span re-establishes an all-inf row without touching full width.
        oflo, ofhi = meta.flo[r], meta.fhi[r]
        meta.stamp[r] = -1
        if aflo > afhi or bflo > bfhi or plo > phi:
            if oflo <= ofhi:
                meta.E[r, oflo - nlo : ofhi - nlo + 1].fill(np.inf)
            meta.flo[r] = 0
            meta.fhi[r] = -1
            return
        meta.flo[r] = plo
        meta.fhi[r] = phi
        if _kernel is None:
            self._numpy_row(meta, r, ma, ra, mb, rb, plo, phi, oflo, ofhi)
            return
        if oflo <= ofhi:
            if oflo < plo:
                plo = oflo
            if ofhi > phi:
                phi = ofhi
        # Every box and span lies inside its row's stored range (each
        # write path clips to it), so the kernel touches only level cells.
        _kernel.minplus_band(
            ma.pos[ra] + 8 * aflo,
            afhi - aflo + 1,
            mb.pos[rb] + 8 * bflo,
            bfhi - bflo + 1,
            meta.pos[r] + 8 * plo,
            phi - plo + 1,
            plo - aflo - bflo,
        )

    def _numpy_row(self, meta, r, ma, ra, mb, rb, plo, phi, oflo, ofhi) -> None:
        """:meth:`_compute_row`'s combine where no compiled kernel loaded:
        the band-blocked NumPy sweep over the output box ``[plo, phi]``.

        Width-1 child boxes (pinned or idle subtrees) collapse the sweep to
        a single vector add, and a single output cell to one add-and-min.
        The general case orients the narrower child box onto the candidate
        axis and sweeps it ``SWEEP_BLOCK`` candidates at a time, each block
        only over the band of outputs it can reach.
        """
        aflo, afhi, a = ma.flo[ra], ma.fhi[ra], ma.E[ra]
        bflo, bfhi, b = mb.flo[rb], mb.fhi[rb], mb.E[rb]
        nlo = meta.nlo[r]
        E_row = meta.E[r]
        NKp = phi - plo + 1
        k0p = plo - (aflo + bflo)
        t0 = plo - nlo
        a0 = aflo - meta.alo[r]
        b0 = bflo - meta.blo[r]
        if oflo <= ofhi and (oflo < plo or ofhi > phi):
            E_row[oflo - nlo : ofhi - nlo + 1].fill(np.inf)
        out = E_row[t0 : t0 + NKp]
        if bflo == bfhi:
            # Width-1 b box: output n = wa + bflo is the only candidate
            # that can be finite, so the sweep is a's diagonal plus one
            # scalar.  Cells whose a entry is inf stay inf exactly like
            # the full sweep's.
            np.add(a[a0 + k0p : a0 + k0p + NKp], b[b0], out=out)
        elif aflo == afhi:
            # Width-1 a box: the mirror case.
            np.add(b[b0 + k0p : b0 + k0p + NKp], a[a0], out=out)
        elif NKp == 1:
            # Single output cell (the needed-range-truncated root): the
            # exact candidate overlap is one vector add, no rectangle.
            lo = plo - bfhi
            if lo < aflo:
                lo = aflo
            hi = plo - bflo
            if hi > afhi:
                hi = afhi
            va = a[a0 + lo - aflo : a0 + hi - aflo + 1]
            vb = b[b0 + plo - hi - bflo : b0 + plo - lo - bflo + 1]
            E_row[t0] = np.add(va, vb[::-1]).min() if lo < hi else va[0] + vb[0]
        else:
            if afhi - aflo < bfhi - bflo:
                # Min-plus convolution commutes, so orient the narrower
                # child onto the candidate axis: the swept band spans
                # min(box widths) candidates instead of b's width.
                a, b = b, a
                a0, b0 = b0, a0
                aflo, afhi, bflo, bfhi = bflo, bfhi, aflo, afhi
            L1, R1, tflat, win, part = meta.one_buffers()
            # Box-local sweep geometry over the sliced children a' = a[box],
            # b' = b[box]: window t, candidate j reads
            # L1[t + j] = a'[t + j - (NBp-1) + k0p], entries below index
            # k0p - (NBp-1) are outside every window.
            naa = afhi - aflo + 1
            NBp = bfhi - bflo + 1
            WLp = NKp + NBp - 1
            start = k0p - (NBp - 1)
            if start < 0:
                start = 0
            ofs = (NBp - 1) - k0p + start
            n = min(naa - start, WLp - ofs)
            L1[:WLp].fill(np.inf)
            L1[ofs : ofs + n] = a[a0 + start : a0 + start + n]
            R1[:NBp] = b[b0 : b0 + NBp][::-1]
            # Band-blocked sweep: candidates j0..j1-1 can only pair with a
            # placed a' entry for t in [ofs - (j1-1), ofs + n - j0), so each
            # block adds and reduces just that column range (the band of
            # pairs where both children can be finite) and folds its
            # minima into the inf-filled output.  Every cell is the same
            # fl(a + b) as a full-rectangle sweep and min is exact and
            # order-free, so the values are bit-identical to it.  The
            # transposed window puts candidates on the outer axis, so the
            # add and the min both stream contiguous L1 slices.
            out.fill(np.inf)
            for j0 in range(0, NBp, SWEEP_BLOCK):
                j1 = j0 + SWEEP_BLOCK
                if j1 > NBp:
                    j1 = NBp
                t_lo = ofs - (j1 - 1)
                if t_lo < 0:
                    t_lo = 0
                t_hi = ofs + n - j0
                if t_hi > NKp:
                    t_hi = NKp
                tw = t_hi - t_lo
                if tw <= 0:
                    continue
                tot = tflat[: (j1 - j0) * tw].reshape(j1 - j0, tw)
                np.add(win[t_lo:t_hi, j0:j1].T, R1[j0:j1, None], out=tot)
                seg = out[t_lo:t_hi]
                np.minimum(seg, np.minimum.reduce(tot, axis=0, out=part[:tw]), out=seg)

    def _refresh(self) -> bool:
        """Recombine every root path with a dirty leaf, one row at a time
        through :meth:`_compute_row`; True if the root was rebuilt (every
        dirty leaf's path ends at the root)."""
        dirty_slots = self._dirty_slots
        if not dirty_slots:
            return False
        require(not self._nmissing, "every leaf needs a curve")
        if len(dirty_slots) == 1:
            # Steady state: one core's curve changed, so the dirty region
            # is exactly that leaf's precomputed root path.
            (slot,) = dirty_slots
            rows = self._path[slot]
        else:
            # The union of the dirty paths, level by level (rows of one
            # level are independent; every child level precedes its
            # parent's).
            paths = self._path
            rows = sorted({node for slot in dirty_slots for node in paths[slot]})
        for lev, row in rows:
            self._compute_row(lev, row)
        dirty_slots.clear()
        return True

    # ---- solve ---------------------------------------------------------------
    def _split_at(self, meta: _Level, r: int, sh: int) -> int:
        """Left-child way count of the finite cell ``(r, sh)``, recovered
        lazily from the children.

        Refresh stores only min values; the back-track walk reads exactly
        one split per visited row, so that split is recomputed here as the
        first minimum over the cell's box-clipped candidates in ascending
        ``sl`` order -- the reference's tie-break.  Valid because dirty
        propagation rebuilds every ancestor of a changed node before any
        solve, so the child rows read here are the ones the cell's value
        was combined from; candidates outside the finite boxes are
        infinite and cannot win or tie the (finite) minimum the cell
        holds, so clipping preserves the first-minimum choice exactly.
        """
        (la, ra), (lb, rb) = meta.src[r]
        ma, mb = self._levels[la], self._levels[lb]
        aflo, afhi = ma.flo[ra], ma.fhi[ra]
        bflo, bfhi = mb.flo[rb], mb.fhi[rb]
        lo = sh - bfhi
        if lo < aflo:
            lo = aflo
        hi = sh - bflo
        if hi > afhi:
            hi = afhi
        if lo == hi:
            return lo
        if _kernel is not None:
            return lo + _kernel.minplus_split(
                ma.pos[ra] + 8 * lo, mb.pos[rb] + 8 * (sh - hi), hi - lo + 1
            )
        alo = meta.alo[r]
        blo = meta.blo[r]
        va = ma.E[ra, lo - alo : hi - alo + 1]
        vb = mb.E[rb, sh - hi - blo : sh - lo - blo + 1]
        tmp = meta.one_buffers()[2][: hi - lo + 1]
        np.add(va, vb[::-1], out=tmp)
        return lo + int(tmp.argmin())

    def refresh(self, meter: OverheadMeter | None = None) -> bool:
        """Charge the invocation's static DP total and recombine dirty paths."""
        if meter is not None and self._total_cells:
            meter.charge_replay(dp_cells=self._total_cells)
        return self._refresh()

    def solve(self, meter: OverheadMeter | None = None) -> dict[int, tuple[int, int, int]] | None:
        """Optimal assignment over the current leaves (or None if infeasible).

        Bit-identical -- assignment, tie-breaks, meter charges -- to the
        node-graph hierarchy (or flat tree) over the same curves.  Like the
        reference, an unchanged root returns the previous assignment *dict
        object*, preserving the downstream identity short-circuits
        (allocation-map cache, kernel apply skip).
        """
        self.refresh(meter)
        s = self._root_s
        if s is None:
            return None
        levels = self._levels
        lev, row = self._root_ref
        root = levels[lev]
        if root.E[row, s - root.nlo[row]] == np.inf:  # never NaN: curves are finite or inf
            return None
        prev = self._last_assignment
        if prev is not None and root.stamp[row] == s:
            self.last_touched = []
            return prev
        # Start from the previous assignment (one C-speed dict copy: the
        # leaf set is fixed, so its keys are exactly the output keys) and
        # overwrite only the re-walked paths; a subtree whose stamp matches
        # the incoming way total kept its previous assignment verbatim.
        out: dict[int, tuple[int, int, int]] = {} if prev is None else dict(prev)
        touched: list[int] = []
        held = self._held
        stack = [(lev, row, s)]
        while stack:
            lv, r, sh = stack.pop()
            meta = levels[lv]
            if meta.stamp[r] == sh and prev is not None:
                continue
            meta.stamp[r] = sh
            if lv == 0:
                curve = held[r]
                out[curve.core_id] = curve.setting_at(sh)
                touched.append(curve.core_id)
                continue
            sl = self._split_at(meta, r, sh)
            (la, ra), (lb, rb) = meta.src[r]
            stack.append((lb, rb, sh - sl))
            stack.append((la, ra, sl))
        self._last_assignment = out
        self.last_touched = touched
        return out
