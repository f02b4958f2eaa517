"""Both descent kernels at one point, for assertions that must hold on each."""

import numpy as np

from cantorqc.qcmap import _descend, _descend_one


def descents(z, params, depth_max=1, side="source"):
    """The scalar kernel's result and the batch kernel's result at ``z``."""
    one = _descend_one(z, params, side, depth_max)
    batch = tuple(v[0] for v in _descend(np.array([z]), params, side, depth_max))
    return one, batch
