"""Keep large arrays out of glibc's brk heap.

A run allocates and frees arrays of tens of MB (the generated federation, its
standardized copy, the round log). glibc raises its mmap threshold to the
size of every mmapped block it frees, up to 32 MiB, so after the first such
array later ones come from the brk heap instead. Whether the next one fits a
hole the last one left there depends on the address-space layout and the
string hash seed, so a process that runs several federations kept a peak
resident set that moved by about 14 MB from one process to the next.
Pinning the threshold turns that adjustment off: every block of at least
``MMAP_THRESHOLD`` bytes gets its own mapping and goes back to the system
when freed.
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
