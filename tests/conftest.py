"""Suite setup: BLAS runs on one thread unless OPENBLAS_NUM_THREADS is already set.

pytest imports this file before any test module, so the variable is in place
before numpy loads OpenBLAS, which reads it once, at load.  At the package's
sizes a second thread only costs time: on a 2-vCPU machine the suite took
68 s with OpenBLAS's default two threads and 34 s with one.  Child processes
inherit the variable; a test that needs another count sets it in the child.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
