"""The environment block: library versions, BLAS threads, cores, revision, triad."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import statistics
import time
from pathlib import Path

import numpy as np
import scipy

TRIAD_N = 1_000_000
L3_SIZE_FILE = Path("/sys/devices/system/cpu/cpu0/cache/index3/size")


def _openblas():
    """The OpenBLAS library numpy loaded, or None when it cannot be found."""
    libs_dir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs_dir / "*openblas*.so*"))):
        try:
            return ctypes.CDLL(path)
        except OSError:
            continue
    return None


def _blas_query(lib, suffixes, restype):
    for name in suffixes:
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.restype = restype
            return fn()
    return None


def blas_info() -> dict:
    lib = _openblas()
    if lib is None:
        return {"blas": "unknown", "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}
    config = _blas_query(
        lib, ("scipy_openblas_get_config64_", "openblas_get_config64_", "openblas_get_config"),
        ctypes.c_char_p,
    )
    threads = _blas_query(
        lib,
        ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"),
        ctypes.c_int,
    )
    return {"blas": config.decode() if config else "unknown", "blas_threads": threads}


def git_revision(root: Path) -> str:
    """HEAD of a git checkout, read from .git without starting git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none (not a git checkout)"


def l3_mib() -> float | None:
    """This machine's L3 size as the kernel reports it, or None when it does not."""
    try:
        text = L3_SIZE_FILE.read_text().strip()
    except OSError:
        return None
    scale = {"K": 2**10, "M": 2**20, "G": 2**30}.get(text[-1:], 1)
    try:
        return int(text.rstrip("KMG")) * scale / 2**20
    except ValueError:
        return None


def triad_gbps(reps: int = 15) -> dict:
    """Median bandwidth of a = b + s*c in numpy's two passes (computed).

    ``multiply(c, s, out=a)`` reads c and writes a; ``add(a, b, out=a)``
    reads a and b and writes a: 5 * 8n bytes per triad.
    """
    b = np.random.default_rng(0).standard_normal(TRIAD_N)
    c = b[::-1].copy()
    a = np.empty_like(b)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        np.multiply(c, 3.0, out=a)
        np.add(a, b, out=a)
        times.append(time.perf_counter() - t0)
    working_mib = 3 * a.nbytes / 2**20
    l3 = l3_mib()
    if l3 is None:
        where = "with an L3 size the kernel does not report"
    elif working_mib < l3:
        where = f"below this machine's {l3:.0f} MiB L3: a cache figure, not DRAM"
    else:
        where = f"above this machine's {l3:.0f} MiB L3"
    return {
        "triad_gbps_computed": 5 * a.nbytes / statistics.median(times) / 1e9,
        "triad_working_set_mib": working_mib,
        "l3_mib": l3,
        "triad_note": f"computed bandwidth of numpy a = b + s*c on {working_mib:.0f} MiB, {where}",
    }


def environment(root: Path, source_digest: str) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        **blas_info(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_revision": git_revision(root),
        "source_digest": source_digest,
        **triad_gbps(),
    }
