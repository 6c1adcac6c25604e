"""Keep freed array buffers in the process heap on glibc.

A sweep allocates and frees a 1 MiB slab for every chunk of the cube,
and every evaluation on a tile of a chunk allocates and frees a handful
of temporaries of up to 512 KiB. glibc's default heap returns its free
top to the kernel as soon as that exceeds twice the largest buffer freed
so far (about 2 MiB once a 1 MiB slab has been freed), so the next
evaluation faults every page back in. On in-process passes of the
benchmark's seed-1 job lists (1 vCPU Intel Xeon, Python 3.11.7, numpy
2.4.6, glibc 2.36), the default thresholds cost 14,000-34,000 minor page
faults per triple-expr pass, varying from pass to pass, and 6,619 per
classify-catalog pass; with the thresholds set here, at most 26. The
fastest classify-catalog pass was 42% slower with the defaults, the
fastest triple-expr pass 1-30% slower over three runs.

``keep_freed_buffers`` fixes the two thresholds instead: buffers under
4 MiB come from the heap, and up to 16 MiB of free heap top stays
mapped. Buffers of 4 MiB and more keep a mapping of their own, which
numpy backs with huge pages and which goes back to the kernel on free.
The settings are process-wide; they are left alone where glibc is not
the C library or where the environment already tunes its allocator.
"""

from __future__ import annotations

import ctypes
import os

#: mallopt parameter numbers, from glibc's <malloc.h>
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3

#: buffers smaller than this come from the heap, not a mapping of their own
MMAP_THRESHOLD = 4 << 20

#: free heap top kept mapped before glibc returns it to the kernel
TRIM_THRESHOLD = 16 << 20

#: environment variables through which glibc's allocator is tuned
TUNING_ENV = ("GLIBC_TUNABLES", "MALLOC_TRIM_THRESHOLD_", "MALLOC_MMAP_THRESHOLD_",
              "MALLOC_TOP_PAD_", "MALLOC_MMAP_MAX_")


def keep_freed_buffers() -> bool:
    """Set glibc's trim and mmap thresholds; True if both were set."""
    if any(name in os.environ for name in TUNING_ENV):
        return False
    try:
        if not (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc"):
            return False
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, ValueError):
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return bool(mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)
                and mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD))
