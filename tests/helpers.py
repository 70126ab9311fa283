"""Reference helpers shared by the test suites, kept out of the package."""

import numpy as np


def evaluate_entry(f, idx):
    """Entry ``idx`` of the composed ring: the trace of the slice product."""
    g1, g2, g3 = f.cores
    i1, i2, i3 = idx
    return float(np.trace(g1[:, i1, :] @ g2[:, i2, :] @ g3[:, i3, :]))


def cyclic_shift(t, steps):
    """Rotate the mode order by ``steps``: mode ``steps`` becomes mode 0.

    A shift by ``t.ndim`` (full rotation) is the identity.
    """
    t = np.asarray(t)
    if steps < 0:
        raise ValueError("shift steps must be nonnegative")
    s = steps % t.ndim
    if s == 0:
        return t.copy()
    perm = list(range(s, t.ndim)) + list(range(s))
    return np.ascontiguousarray(np.transpose(t, perm))
