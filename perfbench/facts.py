"""Machine facts recorded with every result."""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

import numpy as np
import scipy

# Symbols that report OpenBLAS's thread count, by build flavour.
_OPENBLAS_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _loaded_libraries(fragment: str) -> list[str]:
    maps = Path("/proc/self/maps")
    if not maps.exists():
        return []
    found = set()
    for line in maps.read_text().splitlines():
        path = line.split()[-1]
        if fragment in Path(path).name.lower():
            found.add(path)
    return sorted(found)


def blas_threads() -> dict:
    """Thread count of every OpenBLAS library loaded in this process."""
    counts = {}
    for path in _loaded_libraries("openblas"):
        lib = ctypes.CDLL(path)
        for symbol in _OPENBLAS_THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                counts[Path(path).name] = int(fn())
                break
    return counts


def _blas_name() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()


def _cpu_model() -> str:
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def machine_facts(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_name(),
        "blas_threads": blas_threads(),
        "MSPC_THREADS": os.environ.get("MSPC_THREADS"),
        "workload_seed": seed,
    }
