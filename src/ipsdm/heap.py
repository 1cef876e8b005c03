"""Keep freed heap memory mapped, so a process reuses it instead of
returning it to the system and faulting it back in.

A training step frees its cache and gradients, and the next step allocates
arrays of the same sizes again. By default glibc serves a block larger than
M_MMAP_THRESHOLD with its own mmap, unmapped when freed, and gives the top
of the heap back to the system once more than M_TRIM_THRESHOLD bytes of it
are free. Both thresholds follow the largest mmapped block freed so far, the
trim threshold at twice its size: 8 to 16 MiB at paper scale, less than
the 47 MiB of cache and gradients a step frees. So each step's pages would
go back to the system and the next step would page-fault them in again.
`reuse_freed_memory` fixes both thresholds above what a stage allocates.
Where the C library has no mallopt (it is not glibc), it does nothing.

The CLI calls it when `train` and `evaluate` start: they run a loop of
batches, and freed pages stay mapped from one batch to the next. `balance`
and `classify` keep glibc's defaults. They free a large block once, not
once a batch, and under fixed thresholds it stays in the heap as a hole
that later allocations do not fill: paper-scale `balance` peaked at 115.6
instead of 109.7 MB, and `classify` on the `sms` benchmark workload at
41.3 instead of 40.7 MB. This module imports no numpy.
"""

import ctypes

_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3

# Twice the largest array a stage allocates at paper scale, 8 MiB: a
# training batch's attention probabilities in one layer (32 sequences x 4
# heads x 128 x 128 float32) and a validation batch's feed-forward u and
# gelu(u) (64 x 128 rows x 256 float32). Attention runs in chunks, so no
# stage builds the validation pass's (64, 4, 128, 128) scores any more.
# Every array of a step then comes from the heap. The former 32 MiB
# measured the same: paper-scale `train` peaked at 131.2-131.6 MB with
# 26-27 thousand minor faults, against 131.4-131.5 MB and 25-26 thousand
# at 16 MiB, and `evaluate` at 85.0-85.1 MB either way.
MMAP_THRESHOLD = 2 * 8 * 2**20

# A paper-scale training step (batch 32 x 128 tokens, the default model,
# vocab 8192) allocates and frees at most 47 MiB (tracemalloc's peak over
# one step, 46.7 MiB with attention in chunks as before, 40.3 MiB on a
# batch 17 % padded): backward consumes the 42 MiB cache as it writes the
# 5 MiB of gradients. Any trim threshold above twice that, 94 MiB, keeps a step's
# freed memory mapped, whatever else lies free at the top of the heap. The
# least such power of two, 128 MiB, trimmed a little more: paper-scale
# `train` took 25.7 instead of 25.4 thousand minor faults and peaked at
# 129.4 instead of 129.9 MB, with wall inside the runs' 25-37 s spread
# (medians of 8 alternated runs on a 2-vCPU machine). Faults are what the
# threshold is for, so it stays at the next power of two.
TRIM_THRESHOLD = 256 << 20


def reuse_freed_memory() -> bool:
    """Set glibc's mmap and trim thresholds for this process. Returns
    whether the C library took both; without mallopt it changes nothing and
    returns False."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    return bool(
        mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD) and mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)
    )
