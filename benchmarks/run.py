"""netcov benchmark: one workload per process, end-to-end or traced.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload cell-path --seed 1 --seconds 36 --trace 0
    python3 benchmarks/run.py --workload all --seed 1

``--trace 0`` times untraced units, each unit measured against the
workload's probe, and reports the end-to-end metrics.
``--trace 1`` runs one untraced unit, then traced units, and reports the
per-layer metrics plus the tracing overhead.  ``--workload all`` runs every
workload in its own process, one after another, and prints a table.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

# One BLAS/OpenMP thread, set before numpy loads: with two OpenBLAS threads
# on two cores a path burns twice its wall time in CPU, and the numbers
# would depend on whatever else shares the machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("NETCOV_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_NAMES = ("cell-path", "atlas-prepare", "sweep-small")
SETUP_REPEATS = 3
PROBE_INTERVAL_S = 0.05
END_TO_END = (("setup_s", "s"), ("wall_ref", "ref"), ("peak_rss_mb", "MB"))
# exact counts that every traced unit of one invocation must repeat
DETERMINISTIC = ("solver.sweeps", "solver.points", "pipeline.prepare_calls",
                 "data.build_design_calls", "cli.files_written")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment():
    """Facts that decide how the numbers read: cores, BLAS, cache, versions."""
    import ctypes
    import numpy
    import scipy

    info = {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "numpy": numpy.__version__, "scipy": scipy.__version__}
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    # the thread count OpenBLAS actually runs with, read from the loaded library
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info[f"blas_threads[{os.path.basename(lib)}]"] = fn()
                break
    try:
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size") as fh:
            info["l3"] = fh.read().strip()
    except OSError:
        info["l3"] = "unknown"
    return info


def run_units(workload, inputs, workdir, seconds, trace):
    """Timed loop; returns (walls, wall/probe ratios, traced walls, layer
    dicts, failed, fingerprints).

    Runs whole units: one, then another while the next is predicted to end
    within ``seconds``.  Without ``trace`` a timer signal samples the
    workload's probe every ``PROBE_INTERVAL_S`` while a unit runs, and each
    unit's wall time over its median probe time is returned.  With
    ``trace`` nothing is sampled, the first unit is untraced and at least
    one traced unit follows.
    """
    from spans import Tracer
    from workloads import NO_FILES, Stopwatch

    walls, ratios, traced_walls, layers, fingerprints = [], [], [], [], []
    probe = None if trace else workload.make_probe()
    clock = None
    if probe:
        signal.signal(signal.SIGALRM, lambda signum, frame: clock.sample())
    failed = 0
    started = time.perf_counter()
    while True:
        traced = trace and len(walls) > 0
        tracer = Tracer() if traced else None
        clock = Stopwatch(probe)
        fingerprint, errors, layer = None, [], NO_FILES
        if tracer:
            tracer.install()
        if probe:
            signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S,
                             PROBE_INTERVAL_S)
        clock.start()
        try:
            fingerprint, errors, layer = workload.run_unit(inputs, workdir,
                                                           clock)
        except Exception:  # a unit that raises counts as failed
            errors = [traceback.format_exc()]
        finally:
            clock.stop()
            if probe:
                signal.setitimer(signal.ITIMER_REAL, 0)
            if tracer:
                tracer.uninstall()
        if fingerprints and fingerprint != fingerprints[0]:
            errors.append(f"unit {len(walls)} fingerprint {fingerprint!r} != "
                          f"{fingerprints[0]!r}")
        fingerprints.append(fingerprint)
        if tracer:
            layer = {**tracer.metrics(), **layer}
            if layers and any(layer.get(k) != layers[0].get(k)
                              for k in DETERMINISTIC):
                errors.append(f"unit {len(walls)} counts differ from the "
                              f"first traced unit")
            layers.append(layer)
            traced_walls.append(clock.elapsed)
        if probe:
            if clock.samples:
                ratios.append(clock.elapsed / statistics.median(clock.samples))
            else:
                errors.append(f"unit {len(walls)} took no probe samples")
        walls.append(clock.elapsed)
        if errors:
            failed += 1
            for err in errors:
                print(f"FAILED {workload.name} unit {len(walls) - 1}: {err}",
                      file=sys.stderr)
        elapsed = time.perf_counter() - started
        per_unit = elapsed / len(walls)
        if trace and not traced_walls:
            continue
        if elapsed + per_unit > seconds:
            return walls, ratios, traced_walls, layers, failed, fingerprints


def run_workload(args):
    """One workload in this process; prints the report and the JSON line."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "netcov")):
        print(f"netcov sources not found under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [src, HERE]
    import workloads
    import_s = time.perf_counter() - T_START

    workload = workloads.WORKLOADS[args.workload]
    workdir = os.path.join(ROOT, ".bench_build", "netcov",
                           f"{workload.name}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        gen_times = []
        for _ in range(SETUP_REPEATS):
            inputs = None  # drop the previous copy before building the next
            t0 = time.perf_counter()
            inputs = workload.make_inputs(args.seed, workdir)
            gen_times.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(gen_times)
        walls, ratios, traced_walls, layers, failed, fingerprints = run_units(
            workload, inputs, workdir, args.seconds, args.trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(walls)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"# workload {workload.name} seed {args.seed} trace {args.trace}")
    for key, value in environment().items():
        print(f"# env {key} = {value}")
    print(f"# units {attempted}: " + " ".join(f"{w:.3f}" for w in walls))
    print(f"# wall_s {statistics.median(walls):.4f} s (median)")
    if ratios:
        print(f"# units / probe median: "
              + " ".join(f"{r:.1f}" for r in ratios))
    print(f"# fingerprint {fingerprints[0]!r}")
    if args.trace:
        untraced = walls[0]
        metrics = {}
        for key in layers[0]:
            values = [layer[key] for layer in layers]
            metrics[key] = statistics.median(values)
        metrics["trace.overhead_s"] = statistics.median(traced_walls) - untraced
        units = {key: layer_unit(key) for key in metrics}
    else:
        wall_ref = statistics.median(ratios)
        metrics = {"setup_s": setup_s, "wall_ref": wall_ref,
                   "peak_rss_mb": peak_rss_mb}
        units = dict(END_TO_END)
    failed_frac = failed / attempted
    for key, value in metrics.items():
        print(f"{key:32s} {value:14.6g} {units[key]}")
    print(f"{'failed_frac':32s} {failed_frac:14.6g} ratio")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


def layer_unit(key):
    if key.endswith("_s"):
        return "s"
    if key == "solver.s_per_sweep":
        return "s/sweep"
    if key == "preprocess.u_mb":
        return "MB"
    if key == "cli.bytes_written":
        return "bytes"
    if key == "solver.kkt_max":
        return "ratio"
    return "count"


def run_all(args):
    """Each workload in its own process, so peak RSS does not carry over."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              check=False)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"# {name} exited with {proc.returncode}")
            return 1
        results[name] = json.loads(lines[-1])
    print("# summary")
    for name, res in results.items():
        frac = res["failed"] / res["attempted"]
        cells = [f"{k}={m['value']:.4g} {m['unit']}"
                 for k, m in res["metrics"].items()]
        print(f"{name:14s} " + "  ".join(cells) + f"  failed_frac={frac:.4g}")
    correct = all(res["correct"] for res in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{k}": m for name, res in results.items()
                    for k, m in res["metrics"].items()},
    }))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
