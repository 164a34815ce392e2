"""What produced a result: code version, libraries, machine."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys

from harness import ROOT, SRC, THREAD_VARS


def _git_commit():
    # The checkout the benchmark runs in need not be a git repository.
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def source_digest() -> str:
    """SHA-256 over the paths and bytes of every file under src/ehcr."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "ehcr").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance() -> dict:
    import numpy
    import scipy

    return {
        "commit": _git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": _cpu_model(),
        "platform": platform.platform(),
        "executable": os.path.basename(sys.executable),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }
