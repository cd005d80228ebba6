"""The calibration loop that converts wall time to reference seconds.

No chaoslab code runs here, so a change to chaoslab cannot change the loop's
time.  The loop mixes what the jobs do most: numpy 2x2 products, singular
values and eigenvalues of a 4x4 matrix (the norms and spectral radii of the
kernels), float arithmetic and float-to-text formatting.  The small LAPACK
calls matter: without them the loop slows down more than the jobs do when
the machine is busy, and busy runs read faster than quiet ones.
"""

import math
import time

import numpy as np

STEPS = 600
# Time of one loop at the reference speed.  A fixed scale: about the loop's
# time on a 2 GHz Xeon core shared with other tenants (Python 3.11, numpy 2.4).
REFERENCE_S = 0.0094

SQUARE = np.array([[0.9, 0.1, -0.3, 0.2], [0.2, 1.1, 0.4, -0.1],
                   [-0.5, 0.3, 0.8, 0.6], [0.1, -0.2, 0.7, 1.0]])


def calibrate() -> float:
    """Seconds one calibration loop takes now."""
    g = np.array([[0.9, 0.1], [0.2, 1.1]])
    start = time.perf_counter()
    a = np.eye(2)
    rows = []
    for i in range(STEPS):
        a = g @ a
        a = a / math.sqrt(float(a[0, 0] * a[0, 0] + a[1, 0] * a[1, 0]))
        rows.append(",".join((str(i), repr(float(a[0, 0])), repr(float(a[1, 0])))))
        if i % 3 == 0:
            np.linalg.svd(SQUARE, compute_uv=False)
            np.abs(np.linalg.eigvals(SQUARE)).max()
    "\n".join(rows)
    return time.perf_counter() - start
