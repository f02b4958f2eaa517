"""The far field of the tree Cauchy transform: local series on a quadtree of
target cells, built by a dual walk (Dehnen 2002) over (cell, cluster) pairs.

:mod:`nonremovable` imports this module on the first transform over an IFS
tree (``ImageIFS._targets``), and uses three methods of :class:`Targets`:
``locate`` (each point's leaf cell), ``evaluate`` (its cell's series at the
point, L2P) and ``pairs`` (the leaf clusters near its cell, which
``_cauchy_values`` sums, ``width`` of them at most).  The module docstring
of :mod:`nonremovable` states the accuracy and batch-invariance rules.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .nonremovable import _BAND_ORDERS, _BAND_RATIOS, _PAIRS, _SLACK, P, THETA, _leaf_levels

if TYPE_CHECKING:
    from .nonremovable import ImageIFS

#: Most levels of target cells below the box: at most ``4**7`` cells of
#: ``P + 1`` local coefficients each, 14 MB.
_CELL_LEVELS = 7


def _powers(x: np.ndarray, order: int) -> np.ndarray:
    """``x**l`` for ``l <= order``, one row per ``l``, by repeated multiplication."""
    out = np.empty((order + 1, x.size), dtype=np.complex128)
    out[0] = 1.0
    for row, last in zip(out[1:], out):
        np.multiply(last, x, out=row)
    return out


def _band(ratio: np.ndarray) -> np.ndarray:
    """The band of each ``ratio <= THETA``: ``b`` where it lies in
    ``(THETA/2**(b+1), THETA/2**b]``, the last band all smaller ones."""
    return (ratio[None, :] <= _BAND_RATIOS[1:, None]).sum(axis=0)


def _shift_matrices() -> np.ndarray:
    """L2L as one real matrix acting on real parts stacked over imaginary
    ones: for each child cell in turn, coefficients in ``s`` to coefficients
    in ``t`` for ``s = d + t/2``, with ``d = (+-1 +- 1j)/2`` the child's offset."""
    n = np.arange(P + 1)
    binom = np.array([[math.comb(l, k) for l in n] for k in n], dtype=float)
    gap = n[None, :] - n[:, None]
    out = []
    for q in range(4):
        d = ((q & 1) - 0.5) + 1j * ((q >> 1) - 0.5)
        t = np.where(gap >= 0, binom * d ** np.maximum(gap, 0), 0.0) * 0.5 ** n[:, None]
        out.append(np.block([[t.real, -t.imag], [t.imag, t.real]]))
    return np.concatenate(out)


#: ``C(n+l, l)`` for ``n, l <= P``: the moment-to-local translation (M2L).
_PASCAL = np.array([[math.comb(n + l, l) for l in range(P + 1)] for n in range(P + 1)], dtype=float)
#: The local-to-local shifts to the four children of a cell (L2L).
_SHIFTS = _shift_matrices()


class Targets:
    """Leaf cells of a quadtree over the box ``|Re z|, |Im z| <= half``, with
    the local series of the atoms translated to each and the leaf clusters
    left near it.

    Leaf cell ``i``, of centre ``c = centre[i]`` and half-width
    ``h = size[i]``, holds the Taylor coefficients ``local[:, i]``, in
    ``(z - c)/h``, of the sum of ``1/(z - p)`` over the atoms ``p`` of every
    cluster well separated from the cell or from one of its ancestors;
    ``node[near[i]:near[i+1]]`` numbers the leaf clusters, centred at
    ``at[...]``, that are not.  ``table`` gives the leaf of each cell of the
    finest level ``top``, row by row.
    """

    def __init__(self, ifs: ImageIFS) -> None:
        """The dual walk over (cell, cluster) pairs (Dehnen 2002), level by
        level of cells from the box down.

        A pair whose cluster of radius ``R`` lies at least ``(R + rho)/THETA``
        from the centre of a cell of half-diagonal ``rho`` is translated into
        the cell's local series (M2L); otherwise a cluster wider than the cell
        is replaced by its children, and what is left passes to the four
        children of the cell, each of which receives its parent's local
        series shifted to its centre (L2L).  A cell left with no pair, or at
        the finest level, is a leaf.  At the finest level every cluster not
        translated is opened down to the leaf clusters, however narrow: the
        cap :data:`_CELL_LEVELS` can leave those cells wider than clusters
        above the leaves.  The leaf clusters left are the cell's near field.
        """
        N, m = ifs.generation, ifs.m
        depth = N - _leaf_levels(m)
        scales = np.array([ifs.ratio**d for d in range(depth + 1)])
        radii = np.array([ifs.radius(N - d) for d in range(depth + 1)])
        half = ifs.radius(N) / THETA
        top = 0
        while top < _CELL_LEVELS and half * math.sqrt(2.0) / 2**top > scales[depth] * radii[depth]:
            top += 1
        ix = iy = cell = d = node = np.zeros(1, dtype=np.intp)
        at = np.zeros(1, dtype=np.complex128)
        local = np.zeros((P + 1, 1), dtype=np.complex128)
        leaves = []
        for level in range(top + 1):
            h = half / 2**level
            rho = h * math.sqrt(2.0)
            centre = (2 * ix + 1) * h - half + 1j * ((2 * iy + 1) * h - half)
            while True:
                # pairs (cell, cluster of depth d, number node, centred at at)
                u = (centre[cell] - at) / scales[d]
                dist, reach = np.abs(u), radii[d] + rho / scales[d]
                far = reach * (1.0 + _SLACK) <= THETA * dist
                f = np.flatnonzero(far)
                _translate(ifs, local, cell[f], d[f], u[f], reach[f] / dist[f],
                           h / scales[d[f]], scales[d[f]])
                # at the finest level every cluster left is opened down to the leaves
                wide = ~far & (d < depth) & ((scales[d] * radii[d] > rho) | (level == top))
                stay, go = np.flatnonzero(~far & ~wide), np.flatnonzero(wide)
                cell, d, node, at = (
                    np.concatenate([cell[stay], np.repeat(cell[go], m)]),
                    np.concatenate([d[stay], np.repeat(d[go] + 1, m)]),
                    np.concatenate([node[stay], (node[go, None] * m + np.arange(m)).ravel()]),
                    np.concatenate([at[stay], (at[go, None] + scales[d[go], None] * ifs.centers).ravel()]),
                )
                if go.size == 0:
                    break
            busy = np.bincount(cell, minlength=ix.size) > 0
            done = np.flatnonzero(~busy) if level < top else np.arange(ix.size)
            leaves.append((level, ix[done], iy[done], centre[done], np.full(done.size, h), local[:, done]))
            if level == top:
                break
            # each busy cell splits into four, with its pairs and its local series shifted to each
            split, rank, q = np.flatnonzero(busy), np.cumsum(busy) - 1, np.arange(4)
            ix = (2 * ix[split, None] + (q & 1)).ravel()
            iy = (2 * iy[split, None] + (q >> 1)).ravel()
            parts = _SHIFTS @ np.concatenate([local.real[:, split], local.imag[:, split]])
            parts = parts.reshape(4, 2, P + 1, -1)
            local = (parts[:, 0] + 1j * parts[:, 1]).transpose(1, 2, 0).reshape(P + 1, -1)
            cell = (4 * rank[cell, None] + q).ravel()
            d, node, at = np.repeat(d, 4), np.repeat(node, 4), np.repeat(at, 4)
        # the near field of the finest cells, each in cluster order
        order = np.lexsort((node, cell))
        cell, node, at = cell[order], node[order], at[order]
        offset = sum(len(leaf[1]) for leaf in leaves[:-1])
        near = np.zeros(offset + ix.size + 1, dtype=np.intp)
        near[offset + 1 :] = np.cumsum(np.bincount(cell, minlength=ix.size))
        n = 2**top
        table = np.empty((n, n), dtype=np.intp)
        first = 0
        for level, lx, ly, _, _, _ in leaves:
            f = 2 ** (top - level)
            cells = table.reshape(2**level, f, 2**level, f)
            cells[ly, :, lx, :] = np.arange(first, first + lx.size)[:, None, None]
            first += lx.size
        self.half, self.top, self.table = half, top, table.ravel()
        self.centre = np.concatenate([leaf[3] for leaf in leaves])
        self.size = np.concatenate([leaf[4] for leaf in leaves])
        self.local = np.concatenate([leaf[5] for leaf in leaves], axis=1)
        self.near, self.node, self.at = near, node, at

    @property
    def width(self) -> int:
        """Most leaf clusters near one cell."""
        return int(np.diff(self.near).max(initial=1))

    def locate(self, z: np.ndarray) -> np.ndarray:
        """The leaf cell of each point of the box (rounding clipped into it)."""
        n = 2**self.top
        step = 2.0 * self.half / n
        ix = np.clip(np.floor((z.real + self.half) / step), 0, n - 1).astype(np.intp)
        iy = np.clip(np.floor((z.imag + self.half) / step), 0, n - 1).astype(np.intp)
        return self.table[iy * n + ix]

    def evaluate(self, z: np.ndarray, leaf: np.ndarray) -> np.ndarray:
        """The local series of each point's leaf cell at the point (L2P)."""
        s = (z - self.centre[leaf]) / self.size[leaf]
        acc = self.local[P].take(leaf)
        for coef in self.local[P - 1 :: -1]:
            acc *= s
            acc += coef.take(leaf)
        return acc

    def pairs(self, pt: np.ndarray, leaf: np.ndarray):
        """``(pt, node, centre)`` for each point and each leaf cluster near its cell."""
        lo, count = self.near[leaf], self.near[leaf + 1] - self.near[leaf]
        which = np.repeat(np.arange(pt.size), count)
        k = np.arange(which.size) - np.repeat(np.cumsum(count) - count, count) + lo[which]
        return pt[which], self.node[k], self.at[k]


def _translate(ifs: ImageIFS, local, cell, d, u, ratio, tau, scale) -> None:
    """M2L: add to ``local[:, cell]`` the series of each depth-``d`` cluster,
    of frame ``scale``, about a cell centre at ``u`` in the cluster's frame,
    in ``s = (z - centre)/h`` with ``h = tau*scale``:

        sum_p 1/(u + tau*s - p) = v * sum_l (-tau*v*s)**l * sum_n C(n+l, l) mu_n v**n,

    ``v = 1/u``, over the cluster's atoms ``p`` of moments ``mu``, divided by
    ``scale``.  Each pair is summed to the order of the band of ``ratio``,
    (cluster radius + cell half-diagonal)/distance, whose truncation bound
    the Laurent series share; the Pascal sums of a band's chunk are one real
    matrix product.
    """
    band, moments = _band(ratio), np.array(ifs.moments)
    for b, order in enumerate(_BAND_ORDERS):
        idx = np.flatnonzero(band == b)
        idx = idx[np.argsort(cell[idx], kind="stable")]
        for i in range(0, idx.size, _PAIRS // (P + 1)):
            j = idx[i : i + _PAIRS // (P + 1)]
            v = 1.0 / u[j]
            x = _powers(v, order)
            x *= moments[ifs.generation - d[j], : order + 1].T
            y = (_PASCAL[: order + 1, : order + 1] @ x.view(float)).view(np.complex128)
            y *= _powers(-tau[j] * v, order)
            y *= v / scale[j]
            c, first = np.unique(cell[j], return_index=True)
            local[: order + 1, c] += np.add.reduceat(y, first, axis=1)
