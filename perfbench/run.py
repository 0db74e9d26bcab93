"""activemc benchmark: one workload per process, results as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout and the benchmark writes only under
``.bench_work/`` there. BLAS is pinned to one thread before numpy loads.

After set-up, one untimed call of the workload's tiny twin warms imports
and caches. With ``--trace 0`` the timed public call then cycles over the
seeded input instances: one full pass, then more calls while the next is
expected to end within ``--seconds``. ``wall_s`` is the mean over instances
of each instance's median call time: a slow stretch of the host that
covers a minority of an instance's calls does not move it. With ``--trace 1`` the run
alternates an untraced pass with a pass through the layer wrappers of
``tracer.py`` until ``--seconds`` have passed; the last line carries the
per-layer metrics summed over the first traced pass and the median tracing
overhead. The line before the last is a JSON detail record: environment,
per-call times, problems, fingerprints.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402  (the clock starts before any import)
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".bench_work"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# Set-up runs this many times per run (this process plus fresh children,
# each importing from scratch); setup_s is their median.
SETUP_SAMPLES = 5

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
    "recon_rel": "ratio",
    "accuracy": "ratio",
    "auc": "ratio",
    "objective": "1",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up in this process and print it (internal)")
    return parser.parse_args(argv)


def import_program():
    """Put the checkout's ``src`` first on the path and import the benchmark modules."""
    package = ROOT / "src" / "activemc"
    if not (package / "__init__.py").is_file():
        raise FileNotFoundError(f"no activemc sources at {package}; run from a source checkout")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import activemc

    if Path(activemc.__file__).resolve().parent != package.resolve():
        raise ImportError(f"activemc imported from {activemc.__file__}, not {package}")
    import tracer
    import workloads

    return workloads, tracer


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "machine": platform.machine(),
    }


def setup_samples(args, first: float) -> list[float]:
    """This process's set-up time plus that of fresh child processes."""
    samples = [first]
    for _ in range(SETUP_SAMPLES - 1):
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(child.stdout.split()[-1]))
    return samples


def warm_up(workloads, name, workdir):
    """One untimed call of the workload's tiny twin: imports, lazy set-up, caches."""
    tiny = workloads.TINY_WORKLOADS[name]
    warm = workdir / "warm-up"
    warm.mkdir()
    tiny.call(tiny.setup(0, warm, 1)[0])


def timed_call(workload, instance):
    """Run one call; returns (seconds, cpu seconds, outcome or None, problems).

    Only ``workload.call`` is timed. An exception it raises is reported on
    stderr and becomes a problem, so it counts as a failed call.
    """
    start, cpu = time.perf_counter(), time.process_time()
    try:
        output = workload.call(instance)
    except Exception as exc:  # a failed call is counted, not fatal
        seconds, cpu = time.perf_counter() - start, time.process_time() - cpu
        traceback.print_exc(file=sys.stderr)
        return seconds, cpu, None, [f"instance {instance['index']}: {type(exc).__name__}: {exc}"]
    seconds, cpu = time.perf_counter() - start, time.process_time() - cpu
    outcome = workload.inspect(instance, output)
    return seconds, cpu, outcome, outcome.problems


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        workloads, tracer = import_program()
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]

    workdir = WORK_ROOT / args.workload / (f"seed{args.seed}" + ("-setup" if args.setup_only else ""))
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    instances = workload.setup(args.seed, workdir, workload.instances)
    first_setup = time.perf_counter() - _T0
    if args.setup_only:
        shutil.rmtree(workdir, ignore_errors=True)
        print(repr(first_setup))
        return 0
    setup = None if args.trace else setup_samples(args, first_setup)
    warm_up(workloads, args.workload, workdir)

    calls, outcomes = [], {}

    def call(instance, spans=None):
        """Time one call, through the layer wrappers when ``spans`` is given."""
        if spans is None:
            seconds, cpu, outcome, problems = timed_call(workload, instance)
        else:
            fits = len(spans.fit_results)
            with tracer.installed(spans):
                seconds, cpu, outcome, problems = timed_call(workload, instance)
            for k, result in enumerate(spans.fit_results[fits:]):
                problems += workloads.check_objective_trace(
                    result.objective_trace, f"instance {instance['index']} fit {k}")
        calls.append({"instance": instance["index"], "traced": spans is not None,
                      "s": seconds, "cpu_s": cpu, "problems": problems})
        if outcome is not None and outcome.quality:
            outcomes.setdefault(instance["index"], outcome)
        return seconds

    start = time.perf_counter()
    if args.trace:
        layer, overheads = None, []
        while not overheads or time.perf_counter() - start < args.seconds:
            untraced = sum(call(instance) for instance in instances)
            spans = tracer.Tracer()
            traced = sum(call(instance, spans) for instance in instances)
            overheads.append(traced / untraced - 1.0)
            layer = layer or spans
    else:
        per_instance = {instance["index"]: [] for instance in instances}
        index = 0
        while index < len(instances) or (time.perf_counter() - start
                                          + statistics.fmean(c["s"] for c in calls)
                                          <= args.seconds):
            instance = instances[index % len(instances)]
            per_instance[instance["index"]].append(call(instance))
            index += 1

    attempted = len(calls)
    failed = sum(1 for c in calls if c["problems"])
    if not outcomes:
        print("error: every timed call failed", file=sys.stderr)
        for c in calls:
            print(c["problems"], file=sys.stderr)
        return 1

    if args.trace:
        values = layer.layer_metrics()
        values["trace.overhead_frac"] = statistics.median(overheads)
        units = tracer.LAYER_UNITS
        layer.write_spans(WORK_ROOT / args.workload / f"spans_seed{args.seed}.jsonl")
    else:
        values = {
            "wall_s": statistics.fmean(statistics.median(v) for v in per_instance.values()),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "success_rate": 1.0 - failed / attempted,
            **{key: statistics.fmean(o.quality[key] for o in outcomes.values())
               for key in workloads.QUALITY_METRICS},
        }
        units = END_TO_END_UNITS
    shutil.rmtree(workdir, ignore_errors=True)

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(),
        "setup_samples_s": setup,
        "calls": calls,
        "fingerprints": {i: o.fingerprint for i, o in sorted(outcomes.items())},
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
