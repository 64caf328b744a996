"""Read the thread count of the OpenBLAS loaded in this process.

The product sets the count through OPENBLAS_NUM_THREADS and never reads it
back; only the tests look, through the getter the library exports.
"""

import ctypes

_GETTERS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
            "openblas_get_num_threads")


def blas_threads() -> int | None:
    """Threads of the loaded OpenBLAS, or None when no getter symbol is found."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in _GETTERS:
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None
