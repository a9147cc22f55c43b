"""Central-difference Jacobian of a fit residual.

The fits differentiate their residuals in closed form (`calibrate`'s model
functions and `_make_residual`). The tests check those derivatives against
this independent route, the finite-difference rule the fits used before:
step h_j = eps^(1/3) max(|x_j|, scale_j), which balances the truncation
error (about h^2) against rounding (about eps / h), both near eps^(2/3).
"""

import numpy as np

_STEP = float(np.cbrt(np.finfo(float).eps))


def central_difference(residual, x, scale):
    """J^T of `residual` at `x`: dr_i/dx_j at [j, i], by central differences."""
    x = np.asarray(x, dtype=float)
    rows = []
    for j in range(len(x)):
        h = _STEP * max(abs(x[j]), scale[j])
        up, down = x.copy(), x.copy()
        up[j] += h
        down[j] -= h
        rows.append((residual(up) - residual(down)) / (2.0 * h))
    return np.array(rows)
