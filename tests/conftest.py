import os

# The search's products are small; OpenBLAS's extra threads only spin on
# them.  Set before any test module imports numpy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
