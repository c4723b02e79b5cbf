"""Shared helpers for benchmark scripts: host stamping, CPU counts and
output paths.

Benchmark JSONs are committed artifacts, so every emitted result must say
*where* it was measured: worker count, usable CPU cores, interpreter and
numpy versions, and a short host fingerprint.  Without the stamp, a
number measured on a 1-core container and one from an 8-core CI runner
look interchangeable -- and scaling gates would misfire on both.
"""

from __future__ import annotations

import hashlib
import os
import pathlib
import platform
import sys
from typing import Any, Dict, Optional, Tuple

import numpy as np


def cpu_count() -> int:
    """Usable CPU cores: the scheduler affinity mask when available
    (containers and CI runners routinely restrict it below the host's
    ``os.cpu_count``), else the host count."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def host_stamp(workers: Optional[int] = None) -> Dict[str, Any]:
    """A JSON-ready description of the measuring host.

    ``fingerprint`` is a stable short hash of the platform identity
    (machine, OS, Python, numpy) -- enough to tell two hosts' committed
    results apart without recording anything identifying.
    """
    identity = "|".join(
        (
            platform.system(),
            platform.release(),
            platform.machine(),
            platform.python_version(),
            np.__version__,
        )
    )
    stamp: Dict[str, Any] = {
        "platform": platform.system().lower(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": cpu_count(),
        "fingerprint": hashlib.blake2b(
            identity.encode("utf-8"), digest_size=6
        ).hexdigest(),
    }
    if workers is not None:
        stamp["workers"] = int(workers)
    return stamp


def output_paths(
    out: Optional[pathlib.Path], default_json: pathlib.Path, default_report: pathlib.Path
) -> Tuple[pathlib.Path, pathlib.Path]:
    """Where a benchmark writes its JSON result and its text report.

    Without ``--out`` (``out is None``) these are the committed defaults;
    with it, the JSON goes to ``out`` and the report beside it with a
    ``.txt`` suffix (``.report.txt`` when ``out`` itself ends in ``.txt``),
    so a measurement aimed elsewhere leaves the committed files alone.
    """
    if out is None:
        return default_json, default_report
    report = out.with_suffix(".txt")
    if report == out:
        report = out.with_name(out.stem + ".report.txt")
    return out, report


if __name__ == "__main__":  # pragma: no cover - debugging aid
    import json

    print(json.dumps(host_stamp(), indent=2))
    sys.exit(0)
