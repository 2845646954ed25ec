"""How much runs at once: numpy's bundled OpenBLAS single-threaded, one
pool helper that maps independent work over threads, and the package's only
reads of the machine's cores and physical memory, behind check_memory and
worker_count.

The elements of a GEMM product can depend on OpenBLAS's thread count: the
skip layer's weight-gradient product in loss_gradients changes bits with it,
so training runs single-threaded and its seeded results do not depend on the
machine's core count or OPENBLAS_NUM_THREADS.  The forward shapes measured
give the same bits at every thread count; pooled work runs single-threaded
at every worker count, so it shares the cores instead of contending with
BLAS's own threads, whose start can also stall a fresh process's first GEMM.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np


@functools.cache
def _set_threads():
    """`openblas_set_num_threads_local` of the OpenBLAS that numpy bundles
    (numpy.libs in pip wheels), or None where there is none.  It returns
    the count it replaces; in pthreads builds the count is process-wide."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        with contextlib.suppress(OSError, AttributeError):
            fn = ctypes.CDLL(path).openblas_set_num_threads_local
            fn.argtypes = [ctypes.c_int]
            fn.restype = ctypes.c_int
            return fn
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with OpenBLAS single-threaded, then restore the old
    count.  Does nothing where numpy bundles no OpenBLAS: BLAS then uses
    whatever thread count its own settings give.  Also a decorator."""
    set_threads = _set_threads()
    if set_threads is None:
        yield
        return
    old = set_threads(1)
    try:
        yield
    finally:
        set_threads(old)


def usable_cores() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else os.cpu_count()."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def physical_memory():
    """Bytes of physical memory, or None where sysconf cannot tell."""
    try:
        size = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None
    return size if size > 0 else None


def check_memory(need: int, error, subject: str, purpose: str = "") -> None:
    """Raise error("<subject> needs <need> bytes<purpose>, more than the <P>
    bytes of physical memory") if need exceeds the P bytes there are."""
    phys = physical_memory()
    if phys is not None and need > phys:
        raise error(f"{subject} needs {need} bytes{purpose}, "
                    f"more than the {phys} bytes of physical memory")


def worker_count(peak_bytes: int = 0) -> int:
    """Threads for a pool whose items each peak at peak_bytes: one per usable
    core, no more than fit in physical memory together, at least 1."""
    cores, phys = usable_cores(), physical_memory()
    if phys is None or peak_bytes <= 0:
        return cores
    return max(1, min(cores, phys // peak_bytes))


def pool_map(fn, items, workers: int) -> list:
    """[fn(item) for item in items], in item order, with OpenBLAS
    single-threaded.  One worker is a plain serial map; more run a pool of
    that many threads, shut down before this returns.  If items fail, the
    lowest failing item's exception is raised, as the serial map would, and
    items not yet started are cancelled."""
    # the outer block serves the serial map and builds whose count is
    # process-wide, the items' own blocks builds whose count is per thread
    with one_blas_thread():
        if workers == 1:
            return list(map(fn, items))
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(one_blas_thread()(fn), items))
