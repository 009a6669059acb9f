"""One repetition of a workload in a fresh process.

Usage: python3 worker.py JOB_JSON

JOB_JSON holds `src` (the directory that contains the trapdiff package),
`commands` (argument lists for `trapdiff.cli.main`; empty for a set-up
probe) and `trace`. The worker imports numpy, scipy.integrate and
trapdiff.cli, noting when each import finishes, runs the commands in
order with their console output captured, times the calibration kernel
before the first command and after each one, and prints one JSON line
with its clock readings, CPU times, peak memory and kernel times. Clock readings use
`time.perf_counter`, the system-wide monotonic clock, so the parent can
subtract its own spawn time from them.
"""

import contextlib
import glob
import io
import json
import os
import resource
import sys
import time


def _blas_info() -> dict:
    """BLAS library name, version, configuration and thread count."""
    import ctypes

    import numpy

    info = {}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=deps.get("name"), version=deps.get("version"))
    except (TypeError, KeyError, AttributeError):
        pass
    # numpy wheels bundle OpenBLAS next to the package; other builds
    # report name and version only
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_", "64_"), ("", "64_"), ("", "")):
            try:
                threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}")
                config = getattr(lib, f"{prefix}openblas_get_config{suffix}")
            except AttributeError:
                continue
            threads.restype = ctypes.c_int
            config.restype = ctypes.c_char_p
            info.update(threads=threads(), config=config().decode())
            return info
    return info


def calibrate() -> float:
    """Seconds for a fixed mix of the work trapdiff does: small complex
    eigenvalue solves through the default BLAS and scalar complex
    arithmetic in the interpreter. It measures how fast this machine is
    right now; it runs nothing from trapdiff."""
    import numpy

    rng = numpy.random.default_rng(0)
    matrix = rng.standard_normal((60, 60)) + 1j * rng.standard_normal((60, 60))
    start = time.perf_counter()
    for _ in range(15):
        numpy.linalg.eigvals(matrix)
    acc = 0j
    for k in range(1, 250_000):
        acc += 1.0 / (k + 0.5j)
    return time.perf_counter() - start


def main() -> int:
    job = json.loads(sys.argv[1])
    t_start = time.perf_counter()
    import numpy
    t_numpy = time.perf_counter()
    import scipy
    import scipy.integrate  # noqa: F401  (trapdiff.fde needs it)
    t_scipy = time.perf_counter()
    sys.path.insert(0, job["src"])
    import trapdiff.cli as cli
    t_ready = time.perf_counter()

    if not os.path.realpath(cli.__file__).startswith(
            os.path.realpath(job["src"]) + os.sep):
        print(f"trapdiff imported from {cli.__file__}, not {job['src']}",
              file=sys.stderr)
        return 2

    calibration = [calibrate()]
    tracer = None
    if job["trace"]:
        import spans
        tracer = spans.install()

    commands = []
    for argv in job["commands"]:
        console = io.StringIO()
        a, cpu0 = time.perf_counter(), time.process_time()
        with contextlib.redirect_stdout(console):
            rc = cli.main(argv)
        commands.append({"rc": rc, "seconds": time.perf_counter() - a,
                         "cpu_s": time.process_time() - cpu0})
        calibration.append(calibrate())

    report = {
        "t_ready": t_ready,
        "import_numpy_s": t_numpy - t_start,
        "import_scipy_s": t_scipy - t_numpy,
        "import_trapdiff_s": t_ready - t_scipy,
        "commands": commands,
        "wall_s": sum(c["seconds"] for c in commands),
        "cpu_s": sum(c["cpu_s"] for c in commands),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "calibration_s": calibration,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    if tracer is not None:
        report["trace"] = tracer.metrics()
    if job.get("context"):
        report["blas"] = _blas_info()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
