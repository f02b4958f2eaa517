"""Both descent kernels at one point, for assertions that must hold on each."""

import numpy as np

from cantorqc.qcmap import _descend, _descend_one


def descents(z, params, depth_max=1, side="source"):
    """The scalar kernel's result and the batch kernel's result at ``z``."""
    one = _descend_one(z, params, side, depth_max)
    batch = tuple(v[0] for v in _descend(np.array([z]), params, side, depth_max))
    return one, batch


def assert_twins_agree(zs, params, depth_max=1, side="source"):
    """At each point of ``zs`` the scalar kernel ends where one batch call does:
    the same level, index and seam flag.  Its distance has the bits of
    ``np.abs`` at its own frame point, so the batch's bits where the two
    frames agree, as they do at level 0.  Below level 0 the frames may differ
    in the last bit: the scalar kernel divides by the ratio, the batch
    multiplies by its inverse."""
    zs = np.asarray(zs, dtype=np.complex128).ravel()
    level, x, d, idx, _, _, seam = (v.tolist() for v in _descend(zs, params, side, depth_max))
    points = params.packing._grid.points
    for k, z in enumerate(zs.tolist()):
        lv, xo, do, io, _, _, so = _descend_one(z, params, side, depth_max)
        assert (lv, io, so) == (level[k], idx[k], seam[k]), z
        if lv < depth_max:
            assert do == float(np.abs(np.complex128(xo - points[io]))), z
        if xo == x[k]:
            assert do == d[k], z
