"""Machine fingerprint carried by every benchmark result.

Two results are comparable only when their fingerprints match on the
CPU, the interpreter, NumPy and its BLAS.  The source revision is the
git rev when the checkout is a git repository, and always a hash of the
``src/`` tree, so an exported checkout is still traceable.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
from pathlib import Path
from typing import Dict


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine() or "unknown"


def _blas() -> str:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = deps["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):  # NumPy < 1.26 has no dict mode
        return "unknown"


def _git_rev(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_hash(src: Path) -> str:
    """SHA-256 (first 12 hex) over the ``.py`` files under ``src``."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def fingerprint(root: Path) -> Dict[str, object]:
    """CPU model and count, Python, NumPy + BLAS, and source revision."""
    import numpy as np

    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        usable = os.cpu_count()
    return {
        "cpu_model": _cpu_model(),
        "cpu_count": os.cpu_count(),
        "cpu_usable": usable,
        "python": f"{platform.python_implementation()} "
        f"{platform.python_version()}",
        "numpy": np.__version__,
        "blas": _blas(),
        "git_rev": _git_rev(root),
        "src_sha": source_hash(root / "src"),
    }
