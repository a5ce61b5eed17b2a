"""Process environment for benchmark runs.

Call :func:`pin_environment` before anything imports numpy: BLAS reads its
thread count once, when it loads.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_environment() -> None:
    """Single-threaded BLAS, serial sweeps and the checkout's own sources.

    On two cores a second BLAS thread made the AO slower and noisier, and
    ``IRSCRB_WORKERS`` would switch the sweep to its thread pool.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("IRSCRB_WORKERS", None)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def check_sources() -> str | None:
    """Why the checkout cannot be benchmarked, or None when it can."""
    package = SRC / "irscrb" / "__init__.py"
    if not package.is_file():
        return f"no irscrb sources under {SRC}"
    for name in ("point_p0.ini", "extended_k.ini"):
        if not (ROOT / "configs" / name).is_file():
            return f"missing shipped config configs/{name}"
    return None


def describe() -> dict:
    """Library versions, BLAS, cores and thread settings of this process."""
    import numpy as np
    import scipy

    blas = "unknown"
    try:
        config = np.show_config(mode="dicts")
        info = config["Build Dependencies"]["blas"]
        blas = f"{info.get('name', '?')} {info.get('version', '?')}"
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "IRSCRB_WORKERS": os.environ.get("IRSCRB_WORKERS"),
    }
