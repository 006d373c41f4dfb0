"""treespec benchmark runner: one workload, one process, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory and nowhere else.  The runner measures set-up time in fresh
interpreters, then runs passes over the workload's operations until the next
pass would end after ``--seconds``.  With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
passes and reports the per-layer metrics plus the tracing overhead.  The last
line of standard output is the result object; the line before it records the
machine, the library versions and the raw timings.
"""

import os

# Pin BLAS and OpenMP pools before numpy can be imported by anything below.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_RUNS = 9          # timed fresh interpreters, after one untimed warm-up
SETUP_CODE = """\
import json, time
t0 = time.perf_counter()
import treespec, treespec.cli
t1 = time.perf_counter()
treespec.cli.validate_config({})
print(json.dumps({"import_s": t1 - t0, "file": treespec.__file__}))
"""
# Seed of the ARPACK start vectors (see pin_arpack_start).
ARPACK_SEED = 0
# Seconds the calibration kernel takes on the reference machine (2-CPU Intel
# Xeon VM, numpy 2.4.6, scipy 1.17.1, one BLAS thread) when it is not slowed.
CALIBRATION_REF_S = 0.04


class BenchError(RuntimeError):
    """The checkout cannot be benchmarked."""


class Clock:
    """Times work in reference seconds.

    The machine is shared: for stretches of seconds to minutes everything on
    it runs up to 1.5x slower, and not every kind of work by the same factor.
    A fixed kernel that mixes interpreter loops, dict and small-array
    allocation and LAPACK, timed before and after each measured block, gives
    the speed at that moment; a block's wall time is scaled by
    CALIBRATION_REF_S over the mean of the two kernel times.
    """

    def __init__(self):
        import numpy as np
        import scipy.linalg
        self._np = np
        self._eigh = scipy.linalg.eigh
        r = np.random.default_rng(0).random((300, 300))
        self._matrix = r + r.T
        self.last = self.kernel_s()

    def kernel_s(self) -> float:
        t0 = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i
        table = {i: i for i in range(100_000)}
        for i in range(0, 100_000, 3):
            total += table[i]
        arrays = [self._np.empty(3) for _ in range(20_000)]
        self._eigh(self._matrix)
        del table, arrays
        return time.perf_counter() - t0

    def measure(self, fn):
        """Run fn(); return (its result, raw seconds, reference seconds)."""
        before = self.last
        t0 = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - t0
        self.last = self.kernel_s()
        return result, raw, raw * CALIBRATION_REF_S / (0.5 * (before + self.last))


def pin_arpack_start() -> None:
    """Give every ``eigsh`` call that brings no start vector of its own one
    drawn from a generator seeded with ARPACK_SEED.

    scipy draws the ARPACK start vector from fresh OS entropy when neither
    ``v0`` nor ``rng`` is given, so an operation whose result depends on it
    (D5) would pass or fail at random and two runs of the same seed would
    disagree.  Pinned, each call is reproducible; the matrices and the solver
    settings are the program's own.  treespec calls ``spla.eigsh`` through the
    module attribute, so replacing that attribute reaches every call.
    """
    import numpy as np
    import scipy.sparse.linalg as spla
    original = spla.eigsh

    @functools.wraps(original)
    def eigsh(*args, **kwargs):
        if kwargs.get("v0") is None and kwargs.get("rng") is None:
            kwargs["rng"] = np.random.default_rng(ARPACK_SEED)
        return original(*args, **kwargs)

    spla.eigsh = eigsh


def _check_origin(path) -> None:
    if not Path(path).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"treespec imported from {path}, not from {SRC}")


def measure_setup(clock: Clock, env: dict) -> tuple:
    """Median time of a fresh interpreter importing treespec and the CLI and
    validating the empty config (reference and raw seconds), and the median
    import time reported from inside it."""
    def child():
        return subprocess.run([sys.executable, "-c", SETUP_CODE], env=env,
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
    refs, raws, imports = [], [], []
    for i in range(SETUP_RUNS + 1):
        proc, raw, ref = clock.measure(child)
        if proc.returncode != 0:
            raise BenchError(f"set-up interpreter failed:\n{proc.stderr}")
        rec = json.loads(proc.stdout.splitlines()[-1])
        _check_origin(rec["file"])
        if i:
            refs.append(ref)
            raws.append(raw)
            imports.append(rec["import_s"])
    return (statistics.median(refs), statistics.median(raws),
            statistics.median(imports))


def _attempt(op):
    try:
        op.run()
    except Exception as err:              # every operation failure is counted
        return err
    return None


def run_pass(clock: Clock, ops, known, seen: dict) -> tuple:
    """One pass over the operations.

    Returns (raw seconds per op, reference seconds per op, failed,
    unexpected failures).
    """
    raws, refs = [], []
    failed = unexpected = 0
    for op in ops:
        err, raw, ref = clock.measure(lambda: _attempt(op))
        raws.append(raw)
        refs.append(ref)
        if err is None:
            continue
        failed += 1
        expected = known.get(op.id)
        is_known = (expected is not None and type(err).__name__ == expected[1]
                    and expected[2] in str(err))
        unexpected += not is_known
        if op.id not in seen:
            seen[op.id] = f"{type(err).__name__}: {err}"
            tag = expected[0] if is_known else "UNEXPECTED"
            print(f"[{tag}] {op.id}: {seen[op.id]}", file=sys.stderr)
            if not is_known:
                traceback.print_exception(err)
    return raws, refs, failed, unexpected


def pass_seconds(passes: list) -> float:
    """Time of one pass: the sum over operations of each one's median time.

    A burst of interference that hit one pass is dropped by the
    per-operation median, where the median of whole-pass sums keeps part of it.
    """
    return sum(statistics.median(col) for col in zip(*passes))


def machine_info() -> dict:
    import numpy
    import scipy

    def blas(cfg):
        dep = cfg(mode="dicts")["Build Dependencies"]["blas"]
        return f"{dep.get('name')} {dep.get('version')}"

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config),
        "scipy_blas": blas(scipy.show_config),
        "thread_env": {v: os.environ[v] for v in THREAD_VARS},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "treespec" / "__init__.py").is_file():
        raise BenchError(f"no treespec sources under {SRC}")
    sys.path.insert(0, str(SRC))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)

    clock = Clock()
    setup_s, setup_raw_s, import_s = measure_setup(clock, env)

    import treespec
    _check_origin(treespec.__file__)
    pin_arpack_start()
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    ops = workload.ops(args.seed)
    known = workloads.KNOWN_FAILURES

    plain, traced, ratios, seen = [], [], [], {}
    attempted = failed = unexpected = 0
    start = time.perf_counter()
    while True:
        if args.trace and len(plain) > len(traced):
            tracer = tracing.Tracer()
            with tracer.installed():
                raws, refs, nfail, nbad = run_pass(clock, ops, known, seen)
            traced.append((raws, refs, tracing.layer_values(tracer)))
        else:
            raws, refs, nfail, nbad = run_pass(clock, ops, known, seen)
            plain.append((raws, refs))
        attempted += len(ops)
        failed += nfail
        unexpected += nbad
        # add-one ratio: never 0, and one more failing operation per pass
        # raises it by more than the metric's bound
        ratios.append((nfail + 1) / (len(ops) + 1))
        next_pass = pass_seconds([raw for raw, _ in plain])
        if (not args.trace or traced) and (
                time.perf_counter() - start + next_pass > args.seconds):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # the first pass warms caches and allocators; it is timed only when it is
    # the only untraced pass
    timed = plain[1:] or plain
    wall_s = pass_seconds([ref for _, ref in timed])

    if args.trace:
        layers = [values for _, _, values in traced]
        metrics = {name: {"value": statistics.median(v[name] for v in layers),
                          "unit": tracing.layer_unit(name)}
                   for name in layers[0]}
        traced_s = pass_seconds([ref for _, ref, _ in traced])
        metrics["cli.import_s"] = {"value": import_s, "unit": "s"}
        metrics["trace.wall_s"] = {"value": traced_s, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": traced_s - wall_s, "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
            "fail_ratio": {"value": statistics.median(ratios), "unit": "ratio"},
        }

    info = machine_info()
    info.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        trace=args.trace, ops_per_pass=len(ops), failures=seen,
        calibration_ref_s=CALIBRATION_REF_S, arpack_seed=ARPACK_SEED,
        raw_setup_s=setup_raw_s,
        raw_wall_s=pass_seconds([raw for raw, _ in timed]),
        raw_pass_s=[sum(raw) for raw, _ in plain],
        raw_traced_pass_s=[sum(raw) for raw, _, _ in traced],
        dominant=workload.dominant, bypassed=workload.bypassed)
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": unexpected == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.SubprocessError, OSError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        sys.exit(2)
