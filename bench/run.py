"""lconv benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload fixed_angle --seed 0 --seconds 40 --trace 0

Run from the repository root; the library is imported from `src/`.  The
workload repeats (set-up, run, check) until the next repetition would
overrun `--seconds`, always at least once, then prints each metric by
name with its unit and, as the last line, one JSON object
`{"correct", "attempted", "failed", "metrics"}`.  `attempted`/`failed`
count correctness checks; their ratio is the error rate.

--trace 0 reports the end-to-end metrics of BENCHMARK.json:
  run_s        median over repetitions of the wall time from the first
               call into lconv to a checked result, corrected to a
               fixed reference host speed (hostspeed.py)
  setup_s      median fresh-interpreter `import lconv` (all modules,
               timed in IMPORT_SAMPLES child interpreters run one after
               another) plus the median time to generate one
               repetition's inputs, each corrected the same way from
               probes just before and after it
  cpu_s        median process user+sys time of a repetition's run,
               the main thread's share corrected the same way
  peak_rss_mb  peak resident set size of the process
The host's speed swings by up to about 1.9x for seconds or minutes at a
time, so raw times depend on when a run happened (see NOTES.md, Noise).
Every repetition's raw and corrected times are in the result file.
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics of BENCHMARK.json (see spans.py), plus the traced run
time, the tracing overhead (traced minus untraced median raw run_s,
probe time taken out) and the run time outside every top-level span.

The SHA-256 digests that `hash_match` compares are taken after the timed
run.  Details (environment, every check, digests, per-repetition times, all
span statistics and, when tracing, the raw spans) are written under
`.bench_out/` in the repository root.
"""

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import hostspeed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.dirname(os.path.abspath(__file__))
IMPORT_SAMPLES = 5
_IMPORT_TIMER = """import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import lconv, lconv.approx, lconv.cli, lconv.discovery, lconv.fieldtheory
print(time.perf_counter() - t0)
"""


def _import_lconv():
    """Import every lconv module from ROOT/src; returns seconds taken."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "lconv", "__init__.py")):
        raise SystemExit(f"bench: no lconv sources under {src}")
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import lconv
    import lconv.approx, lconv.cli, lconv.discovery, lconv.fieldtheory  # noqa: E401,F401
    elapsed = time.perf_counter() - t0
    if not os.path.abspath(lconv.__file__).startswith(src + os.sep):
        raise SystemExit(f"bench: imported lconv from {lconv.__file__}, not {src}")
    return elapsed


def _child_import_s():
    """`_import_lconv`'s timing, in a fresh child interpreter."""
    out = subprocess.run([sys.executable, "-c", _IMPORT_TIMER,
                          os.path.join(ROOT, "src")], cwd=ROOT, check=True,
                         capture_output=True, text=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


def _environment(seed):
    """Machine and library facts recorded beside every result."""
    import ctypes
    import glob
    import platform

    import numpy as np
    import scipy

    env = {"seed": seed, "nproc": len(os.sched_getaffinity(0)),
           "python": platform.python_version(), "numpy": np.__version__,
           "scipy": scipy.__version__, "cpu_model": None, "l3": None}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
        for index in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
            with open(os.path.join(index, "level")) as fh:
                if fh.read().strip() == "3":
                    with open(os.path.join(index, "size")) as fh:
                        env["l3"] = fh.read().strip()
    except OSError:
        pass
    for mod, key in ((np, "numpy_blas"), (scipy, "scipy_blas")):
        blas = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env[key] = f"{blas.get('name')} {blas.get('version')}"
    # numpy's bundled OpenBLAS is already loaded; dlopen returns the same
    # handle, so this reads the thread count the run actually used
    env["blas_threads"] = None
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs",
                                      "libscipy_openblas*")):
        get = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if get is not None:
            get.restype = ctypes.c_int
            env["blas_threads"] = get()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        env[var] = os.environ.get(var)
    return env


def _repetition(workload, seed, rep, probe, tracer=None):
    """One set-up + run + check; returns a record of times and outcomes."""
    work_dir = os.path.join(ROOT, ".bench_out",
                            f"{workload.name}-{os.getpid()}-{rep}")
    if tracer is not None:
        tracer.phase = "setup"
    t0 = time.perf_counter()
    inputs, setup_s, setup_speed = hostspeed.speed_around(
        lambda: workload.setup(seed, work_dir), probe)
    if tracer is not None:
        tracer.phase = "run"
    # traced repetitions go unprobed: a probe would land inside the spans
    sampler = (hostspeed.Sampler(probe) if tracer is None
               else contextlib.nullcontext())
    with sampler:
        c0, m0 = time.process_time(), time.thread_time()
        t2 = time.perf_counter()
        checks, outputs = workload.run(inputs)
        t3 = time.perf_counter()
        c1, m1 = time.process_time(), time.thread_time()
    hashes = workload.digests(outputs)
    workload.teardown(inputs)
    return {"setup_s": setup_s, "setup_speed": setup_speed,
            "run_s": t3 - t2, "cpu_s": c1 - c0,
            "main_thread_cpu_s": m1 - m0,
            "wall_s": time.perf_counter() - t0, "checks": checks,
            "hashes": hashes, "traced": tracer is not None,
            "probes": sampler.samples if tracer is None else [],
            "inputs_provided": outputs.get("inputs_provided")}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    first_import_s = _import_lconv()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    import spans
    import workloads
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"bench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)

    probe = hostspeed.Probe(workload.probe_shape)
    # (seconds the child took to import, host speed around it)
    imports = ([hostspeed.speed_around(_child_import_s, probe)[::2]
                for _ in range(IMPORT_SAMPLES)] if not args.trace else [])
    tracer = spans.Tracer() if args.trace else None
    reps = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        reps.append(_repetition(workload, args.seed, len(reps), probe))
        if tracer is not None:
            tracer.install()
            try:
                reps.append(_repetition(workload, args.seed, len(reps), probe,
                                        tracer))
            finally:
                tracer.uninstall()
        now = time.perf_counter()
        if (now - start) + (now - began) > args.seconds:
            break

    untraced = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    checks = [c for r in reps for c in r["checks"]]
    first = untraced[0]["hashes"]
    checks.append(("reruns_hash_identical",
                   all(r["hashes"] == first for r in untraced), None))
    if tracer is not None:
        # wrappers must not change a single bit of what the program computes
        checks.append(("traced_hash_equals_untraced",
                       all(r["hashes"] == first for r in traced), None))
        stats = tracer.span_stats(len(traced))
        for name in workload.hits:
            calls = stats.get(name, {}).get("calls", 0)
            checks.append((f"span_hit:{name}", calls > 0, calls))

    with open(os.path.join(HERE, "reference_hashes.json")) as fh:
        reference = json.load(fh)
    ref = reference["hashes"].get(args.workload, {}).get(str(args.seed))
    key = workloads.REFERENCE_KEY[args.workload]
    digest = first[key]
    hash_match = None if ref is None else digest == ref

    failed = sum(1 for _, ok, _ in checks if not ok)
    for r in untraced:
        r["run_s_corrected"] = hostspeed.correct(r["run_s"], r["probes"])
        # only the main thread's CPU time is scaled: OpenBLAS workers spend
        # theirs mostly spin-waiting for a fixed wall time after each call
        main = r["main_thread_cpu_s"]
        r["cpu_s_corrected"] = (hostspeed.correct(main, r["probes"])
                                + r["cpu_s"] - main)
    if tracer is None:
        values = {
            "run_s": statistics.median([r["run_s_corrected"] for r in untraced]),
            "setup_s": statistics.median([s * v for s, v in imports])
                       + statistics.median([r["setup_s"] * r["setup_speed"]
                                            for r in untraced]),
            "cpu_s": statistics.median([r["cpu_s_corrected"] for r in untraced]),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        wanted = spec["end_to_end"]
    else:
        traced_run_s = statistics.median([r["run_s"] for r in traced])
        run_s = statistics.median([r["run_s"] - sum(r["probes"]) for r in untraced])
        top = tracer.run_top_level_s() / len(traced)
        direct = dict(tracer.ratios())
        direct.update({
            "trace.run_s": traced_run_s,
            "trace.overhead_s": traced_run_s - run_s,
            "trace.unattributed_s":
                sum(r["run_s"] for r in traced) / len(traced) - top,
        })
        values = {m["name"]: spans.per_layer_metric(stats, direct, m["name"])
                  for m in spec["per_layer"]}
        wanted = spec["per_layer"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "environment": _environment(args.seed),
        "first_import_s": first_import_s,
        "child_imports": [{"import_s": s, "speed": v} for s, v in imports],
        "probe_ref_s": hostspeed.REF_PROBE_S,
        "repetitions": [{k: v for k, v in r.items() if k != "checks"}
                        for r in reps],
        "checks": checks, "error_rate": failed / len(checks),
        "hash": {"key": key, "value": digest, "reference": ref,
                 "reference_commit": reference["commit"], "match": hash_match},
        "metrics": metrics,
    }
    if tracer is not None:
        detail["span_stats"] = stats
        spans_path = os.path.join(ROOT, ".bench_out", f"spans-{tag}.json")
        tracer.dump(spans_path)
        detail["spans_file"] = os.path.relpath(spans_path, ROOT)
    with open(os.path.join(ROOT, ".bench_out", f"result-{tag}.json"), "w") as fh:
        json.dump(detail, fh, indent=1, default=str)
        fh.write("\n")

    env = detail["environment"]
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"repetitions {len(untraced)} untraced, {len(traced)} traced")
    for name, ok, value in checks:
        if not ok:
            print(f"check FAILED {name}: {value}")
    print(f"error_rate {failed / len(checks)} ratio ({failed}/{len(checks)} checks)")
    print(f"hash_match {json.dumps(hash_match)} ({key} {digest[:16]}, "
          f"reference from commit {reference['commit']})")
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(checks),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
