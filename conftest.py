"""Pin the BLAS libraries to one thread before any test imports numpy.

The dense eigensolver's deviation from integers, which `analyze` prints and
`tests/test_golden.py` pins by digest, depends on the BLAS thread count; one
thread is also what `rookbench/run.py` gives its children.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
