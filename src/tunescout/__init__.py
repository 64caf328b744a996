"""tunescout: on-device continuous music recognition.

A low-cost gatekeeper detector decides when music is present, a neural
fingerprinter emits one compact embedding per second, and a partitioned,
product-quantized fingerprint database with density-adaptive sequence
matching identifies the song. Everything runs offline.
"""

import os

# CPU time is battery on the device. A second OpenBLAS thread saves no wall
# time on any tunescout workload and doubles the CPU, so the product runs
# OpenBLAS on one thread. OpenBLAS reads this once, when numpy first loads
# it, so it takes effect only if tunescout is imported before numpy; a value
# the user has already set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
