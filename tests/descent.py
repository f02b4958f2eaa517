"""Both descent kernels at one point, for assertions that must hold on each.

The scalar kernel returns the batch kernel's bits: it sets each frame by
multiplying by ``1/ratio``, as the batch does."""

import numpy as np

from cantorqc.qcmap import _descend, _descend_one


def descents(z, params, depth_max=1, side="source"):
    """The scalar kernel's result and the batch kernel's result at ``z``."""
    one = _descend_one(z, params, side, depth_max)
    batch = tuple(v[0] for v in _descend(np.array([z]), params, side, depth_max))
    return one, batch


def assert_twins_agree(zs, params, depth_max=1, side="source"):
    """At each point of ``zs`` the scalar kernel returns the bits of one batch
    call: level, frame point, distance, index, affine pair and seam flag.
    ``repr`` rounds trip exactly and tells signed zeros apart."""
    zs = np.asarray(zs, dtype=np.complex128).ravel()
    level, x, d, idx, a, b, seam = (v.tolist() for v in _descend(zs, params, side, depth_max))
    for k, z in enumerate(zs.tolist()):
        batch = (level[k], x[k], d[k], idx[k], a[k], complex(b[k]), seam[k])
        assert repr(_descend_one(z, params, side, depth_max)) == repr(batch), z
