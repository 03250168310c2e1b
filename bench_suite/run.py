#!/usr/bin/env python3
"""Build bench_suite from source and run it (the BENCHMARK.json command).

Usage, from the root of a checkout:
  python3 bench_suite/run.py --workload NAME --seed N --seconds S --trace 0|1

The library and bench_suite are configured and built under .bench_build/ in
the checkout (the first run builds; later runs reuse the build). Build output
goes to stderr, so the last line of standard output is bench_suite's JSON
result. Exits non-zero, without a result, when the library sources are not
there or the build fails.
"""

import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 170


def main():
    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        print(f"run.py: library sources not found under {root / 'src'}", file=sys.stderr)
        return 2
    build = root / ".bench_build" / "bench_suite"
    configure = ["cmake", "-S", str(root / "bench_suite"), "-B", str(build)]
    if shutil.which("ninja") and not (build / "CMakeCache.txt").exists():
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (configure, ["cmake", "--build", str(build), "--target", "bench_suite", "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("run.py: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2
    traces = root / ".bench_build" / "traces"
    cmd = [str(build / "bench_suite"), *sys.argv[1:], "--trace-dir", str(traces)]
    # Own process group: bench_suite forks its measuring processes, and a
    # timeout must stop them too.
    proc = subprocess.Popen(cmd, cwd=root, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: bench_suite did not finish within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
