"""Suite-wide setup: BLAS on one thread unless the caller set a count.

A dense eigensolve on a 33² crack cube took 10-17 s with free BLAS
threads on a busy 2-core box, against 0.32 s on one thread.  This file
runs before any test module imports NumPy, and setdefault leaves a
thread count from the environment in place.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
