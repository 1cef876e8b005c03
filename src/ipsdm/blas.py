"""Run a block of numpy work on one OpenBLAS thread.

A batch-1 forward multiplies 128-row matrices, too small for a second BLAS
thread to pay off: the pool's threads hand each product back and forth, and
on a busy machine one that is preempted stalls the others, so single
requests take several times their median now and then. `single_thread`
caps OpenBLAS at one thread for the block and restores the previous count
when the last block still open in the process exits. Where numpy is not
linked against OpenBLAS, or its library cannot be found, it does nothing.
"""

import contextlib
import ctypes
import threading

import numpy  # noqa: F401  (loads the BLAS library that _find_openblas looks for)

_SET_SYMBOLS = ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
                "openblas_set_num_threads")
_GET_SYMBOLS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                "openblas_get_num_threads")


def _find_openblas():
    """(get, set) thread-count functions of the OpenBLAS numpy loaded, or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.rsplit("/", 1)[-1].lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        get = next((getattr(lib, s) for s in _GET_SYMBOLS if hasattr(lib, s)), None)
        set_ = next((getattr(lib, s) for s in _SET_SYMBOLS if hasattr(lib, s)), None)
        if get is not None and set_ is not None:
            get.restype = ctypes.c_int
            set_.argtypes = [ctypes.c_int]
            return get, set_
    return None


_openblas = _find_openblas()
_lock = threading.Lock()
_open_blocks = 0
_saved_threads = 1


@contextlib.contextmanager
def single_thread():
    global _open_blocks, _saved_threads
    if _openblas is None:
        yield
        return
    get, set_ = _openblas
    with _lock:
        if _open_blocks == 0:
            _saved_threads = get()
            set_(1)
        _open_blocks += 1
    try:
        yield
    finally:
        with _lock:
            _open_blocks -= 1
            if _open_blocks == 0:
                set_(_saved_threads)
