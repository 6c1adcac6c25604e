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
The settings are process-wide. They are left alone where glibc is not
the C library, and each threshold is left alone where the environment
sets it, by its ``MALLOC_*_THRESHOLD_`` variable or its
``GLIBC_TUNABLES`` entry. Other allocator settings in the environment do
not stop them: per mallopt(3), setting ``MALLOC_TOP_PAD_`` or
``MALLOC_MMAP_MAX_`` also switches off glibc's dynamic mmap threshold, so
without the settings here every slab would be a mapping of its own.
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

#: per threshold: mallopt parameter, value set here, and the environment
#: variable and GLIBC_TUNABLES entry through which glibc reads it
_THRESHOLDS = (
    (_M_MMAP_THRESHOLD, MMAP_THRESHOLD, "MALLOC_MMAP_THRESHOLD_", "glibc.malloc.mmap_threshold"),
    (_M_TRIM_THRESHOLD, TRIM_THRESHOLD, "MALLOC_TRIM_THRESHOLD_", "glibc.malloc.trim_threshold"),
)

#: environment variables through which glibc's two thresholds are set
TUNING_ENV = ("GLIBC_TUNABLES", "MALLOC_TRIM_THRESHOLD_", "MALLOC_MMAP_THRESHOLD_")


def _set_by_environment(variable: str, tunable: str) -> bool:
    entries = os.environ.get("GLIBC_TUNABLES", "").split(":")
    return variable in os.environ or any(e.split("=", 1)[0] == tunable for e in entries)


def keep_freed_buffers() -> bool:
    """Set glibc's trim and mmap thresholds, each unless the environment
    sets it; True if both were set here."""
    try:
        if not (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc"):
            return False
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, ValueError):
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    # a list, not a generator: one threshold the environment sets must not
    # stop the other from being set
    return all([not _set_by_environment(variable, tunable) and bool(mallopt(param, value))
                for param, value, variable, tunable in _THRESHOLDS])
