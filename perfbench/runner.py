"""Child processes: a fixed environment, wall time and max-RSS per invocation.

Every child runs the checkout's own ``src/`` through PYTHONPATH, with one
BLAS/OpenMP thread, a fixed hash seed and UTF-8 I/O, so both commits of a
comparison see the same environment.
"""

from __future__ import annotations

import os
import re
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout (span files, stdout hashes); gitignored.
WORK = ROOT / ".perfbench-work"

CLI = "from stefan_reciprocal.cli import entry; entry()"
#: No single invocation of any workload comes near this; a hang is killed.
INVOCATION_TIMEOUT_S = 120.0


def child_env() -> dict:
    return {
        "PATH": os.environ.get("PATH", os.defpath),
        "PYTHONPATH": str(SRC),
        "PYTHONHASHSEED": "0",
        "PYTHONUTF8": "1",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    }


@dataclass
class Result:
    returncode: int
    stdout: str
    stderr: str
    wall_s: float
    maxrss_mb: float


def spawn(args, timeout: float = INVOCATION_TIMEOUT_S) -> Result:
    """Run ``python *args`` to completion; time it from spawn to reaped exit."""
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryFile(dir=WORK) as out, tempfile.TemporaryFile(dir=WORK) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args],
            stdin=subprocess.DEVNULL,
            stdout=out,
            stderr=err,
            env=child_env(),
            cwd=ROOT,
        )
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Result(
            proc.returncode,
            out.read().decode("utf-8", "replace"),
            err.read().decode("utf-8", "replace"),
            wall,
            usage.ru_maxrss / 1024.0,  # Linux reports KiB
        )


def cli_args(argv) -> list:
    return ["-c", CLI, *argv]


def traced_args(argv, spans_path) -> list:
    return [str(BENCH / "trace_child.py"), str(spans_path), *argv]


#: What the host-speed calibration imports: the third-party modules the
#: package itself imports, and nothing of the package, so no commit of it
#: can change the calibration's time.
CALIBRATION_MODULES = "numpy, scipy.linalg, scipy.integrate"


def import_seconds(modules: str = "stefan_reciprocal.cli") -> float:
    """Wall time of ``import <modules>`` inside a fresh interpreter."""
    res = spawn([
        "-c",
        f"import time; t = time.perf_counter(); import {modules}; "
        "print(repr(time.perf_counter() - t))",
    ])
    if res.returncode != 0:
        raise RuntimeError(f"import failed: {res.stderr.strip()[-500:]}")
    return float(res.stdout)


_IMPORTTIME = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \| ( *)(\S+)")


def import_breakdown() -> dict:
    """Seconds from ``-X importtime``: total, scipy.linalg, scipy.integrate, package self."""
    res = spawn(["-X", "importtime", "-c", "import stefan_reciprocal.cli"])
    if res.returncode != 0:
        raise RuntimeError(f"import failed: {res.stderr.strip()[-500:]}")
    entries = [
        (int(m.group(1)), int(m.group(2)), len(m.group(3)), m.group(4))
        for m in map(_IMPORTTIME.match, res.stderr.splitlines())
        if m
    ]
    own = [e for e in entries if e[3].split(".")[0] == "stefan_reciprocal"]
    top = min(e[2] for e in own)

    def cumulative(name):
        return sum(e[1] for e in entries if e[3] == name)

    return {
        "cli.import_s": sum(e[1] for e in own if e[2] == top) * 1e-6,
        "cli.import.scipy_linalg_s": cumulative("scipy.linalg") * 1e-6,
        "cli.import.scipy_integrate_s": cumulative("scipy.integrate") * 1e-6,
        "cli.import.package_self_s": sum(e[0] for e in own) * 1e-6,
    }


def median_breakdown(repeats: int) -> dict:
    samples = [import_breakdown() for _ in range(repeats)]
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}
