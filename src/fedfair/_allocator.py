"""Keep large arrays out of glibc's brk heap.

A run allocates and frees arrays of tens of MB (the generated federation,
the round log). glibc raises its mmap threshold to the size of every mmapped
block it frees, up to 32 MiB, so after the first such array later ones come
from the brk heap instead, and a hole they leave there stays resident.
Pinning the threshold turns that adjustment off: every block of at least
``MMAP_THRESHOLD`` bytes gets its own mapping and goes back to the system
when freed. On the device-wide bench workload (``bench/run.py --workload
device-wide --seconds 25``, a 2-core Xeon), 3 alternating pairs read a
``peak_rss_mb`` of 86.2-86.3 MB with the pin and 89.3-89.6 MB without it:
+4.0 % at the median and higher in every pair, close to that metric's 5 %
bound.

glibc's trim threshold stays at its default. Freed blocks that leave more
than 128 KiB free at the top of the brk heap are given back, and an array
allocated there again faults its pages back in: cross-silo training did so
every round, about 780 minor faults on the silo-wide bench workload. Pinning
``M_TRIM_THRESHOLD`` high removed those faults, but it also kept every freed
block of a process resident. In 3 of 3 alternating runs of the bench,
device-wide ``peak_rss_mb`` rose from 105.1-105.7 MB to 111.1-111.3 MB
(+5.6-6 %), more than that metric's 5 % bound. A run instead trains one
``federation.Cohort``, refilled with each cross-device sample, and the
cohort holds every per-round array of its training, so nothing is freed to
trim.
"""

from __future__ import annotations

import ctypes
import sys

MMAP_THRESHOLD = 1 << 20
_M_MMAP_THRESHOLD = -3  # mallopt parameter number in glibc's malloc.h


def pin_mmap_threshold(size: int = MMAP_THRESHOLD) -> bool:
    """Set glibc's mmap threshold to ``size`` bytes; True if glibc took it.

    A no-op returning False off Linux or where the C library has no
    ``mallopt``.
    """
    if not sys.platform.startswith("linux"):
        return False
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return mallopt(_M_MMAP_THRESHOLD, size) == 1
