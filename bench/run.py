#!/usr/bin/env python3
"""slvq benchmark: seeded end-to-end workloads and a traced per-layer breakdown.

Usage, from the repository root:

    python3 bench/run.py --workload fit-paper --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1          # every workload, one process each

Workloads (see bench/NOTES.md): fit-paper, archive-paper, distill-desk. Each
run sets up its inputs from ``--seed`` at least SETUP_MIN_REPEATS times and
until SETUP_MIN_SECONDS have passed (``setup_s`` is the median), then repeats
the workload's measured pass, one caller in a closed loop, for about
``--seconds``: it stops before a pass that would overrun. The two rates are
medians over every timed call of the run.
Every output is checked; failed checks count in ``failed`` and ``error_rate``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates untraced
and traced passes: traced passes run with slvq's public functions wrapped in
place (bench/tracer.py) and give the per-layer metrics, as self seconds per
pass; the untraced ones give the tracing overhead.

slvq is imported from ``src/`` of the checkout this file sits in, never from
an installed copy; without it the run exits with code 2 and prints no result.
The last line of standard output is one JSON object: correct, attempted,
failed and metrics. Run records and span dumps go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import fnmatch
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOAD_NAMES = ("fit-paper", "archive-paper", "distill-desk")
SETUP_MIN_REPEATS, SETUP_MAX_REPEATS = 3, 9
SETUP_MIN_SECONDS = 6.0       # short set-ups repeat more, for a steadier median
EXIT_NO_PROGRAM = 2

# End-to-end metrics every workload reports (the gated set in BENCHMARK.json).
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_s": "s",
    "compress_rows_per_s": "1/s",
    "serve_rows_per_s": "1/s",
    "recon_kl": "nats",
}
# Printed with the end-to-end metrics where the workload has them; not every
# workload can produce them, so they stay out of the gated set.
REPORTED = {
    "fit_steps_per_s": "1/s",
    "open_s": "s",
    "batch_p50_ms": "ms",
    "batch_p90_ms": "ms",
    "batch_p95_ms": "ms",
    "batch_p99_ms": "ms",
    "batch_samples": "count",
    "archive_bytes_per_label": "B",
    "distill_s": "s",
    "retention": "ratio",
    "error_rate": "ratio",
}

# Per-layer self time, in seconds per pass. A span charges its self time to
# the nearest ancestor-or-self matching one of these patterns; a layer that a
# workload never calls reads 0.
LAYERS = {
    "optim.adamw_step_s": ("optim.AdamW.step",),
    "vqae.loss_grads_s": ("vqae._cache_loss_grads_aux", "vqae.cache_loss_and_grads"),
    "vqae.model_build_s": ("vqae.VqaeModel.__post_init__",),
    "vqae.fit_init_s": ("vqae._init_model",),
    "vqae.fit_loop_s": ("vqae.fit",),
    "vqae.quantize_s": ("vqae.quantize_latent",),
    "vqae.encode_s": ("vqae.encode",),
    "vqae.lookup_s": ("vqae.decompress",),
    "vqae.decode_s": ("vqae.decode",),
    "vqae.renormalize_s": ("vqae.renormalize",),
    "vqae.refit_decoder_s": ("vqae.refit_decoder",),
    "labels.read_slab_s": ("labels.read_slab",),
    "labels.validate_s": ("labels.validate_simplex",),
    "archive.pack_s": ("archive.pack_indices",),
    "archive.write_s": ("archive.write_archive",),
    "archive.read_s": ("archive.read_archive",),
    "archive.unpack_s": ("archive.unpack_indices",),
    "archive.model_read_s": ("archive.read_model",),
    "cli.compress_self_s": ("cli.*",),
    "budget.solve_s": ("budget.*",),
    "baselines.topk_s": ("baselines.topk_*",),
    "baselines.pca_s": ("baselines.pca_*",),
    "baselines.scalar_quant_s": ("baselines.scalar_quant_*",),
    "harness.cache_labels_s": ("harness.cache_teacher_labels",),
    "harness.students_s": ("harness.compare",),
}
# Counts and ratios.
COUNTS = {
    "vqae.codes_used_ratio": "ratio",            # distinct codes used / k
    "budget.accounted_over_disk": "ratio",       # budget.vq_bytes / SLAR file size
    "vqae.segments_quantized": "count",
    "vqae.distance_flops": "flop",
    "vqae.fit_step_flops": "flop",
    "vqae.decode_batch_flops": "flop",
    "optim.params": "count",
    "optim.bytes_moved_per_step": "B",
    "archive.packed_bytes": "B",
    "archive.bytes_written": "B",                # SLAR file size, per pass
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_s": "s",
    "trace.spans_per_pass": "count",
}
# Computed from array shapes at the traced boundary (install_hooks); they
# repeat exactly from run to run. Per-pass sums, or the largest single value.
PER_PASS_COUNTERS = ("vqae.segments_quantized", "vqae.distance_flops", "archive.packed_bytes")
PEAK_COUNTERS = ("vqae.fit_step_flops", "vqae.decode_batch_flops", "optim.params",
                 "optim.bytes_moved_per_step")


def configure_threads():
    """Cap BLAS threads at the CPUs this process may use; returns that count."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= nproc):
            os.environ[var] = str(nproc)
    return nproc


def import_program():
    """Import slvq from this checkout's src/, or exit without a result."""
    if not os.path.isfile(os.path.join(SRC, "slvq", "__init__.py")):
        print(f"error: no slvq sources under {SRC}", file=sys.stderr)
        sys.exit(EXIT_NO_PROGRAM)
    sys.path.insert(0, SRC)
    import slvq
    if os.path.dirname(os.path.dirname(os.path.abspath(slvq.__file__))) != SRC:
        print(f"error: slvq imported from {slvq.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(EXIT_NO_PROGRAM)
    return slvq


def check_manifest():
    """The metric names here must be the ones BENCHMARK.json declares."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return
    with open(path) as f:
        spec = json.load(f)
    declared = ({m["name"]: m["unit"] for m in spec["end_to_end"]},
                {m["name"]: m["unit"] for m in spec["per_layer"]},
                [w["name"] for w in spec["workloads"]])
    here = (END_TO_END, {**{name: "s" for name in LAYERS}, **COUNTS}, list(WORKLOAD_NAMES))
    if declared != here:
        print("error: BENCHMARK.json does not match the metrics bench/run.py reports",
              file=sys.stderr)
        sys.exit(EXIT_NO_PROGRAM)


def environment(seed, nproc):
    import numpy as np
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        pass
    commit = "unknown: not a git checkout"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=30)
            dirty = subprocess.run(["git", "-C", ROOT, "status", "--porcelain", "src"],
                                   capture_output=True, text=True, timeout=30)
            commit = out.stdout.strip() + ("+dirty" if dirty.stdout.strip() else "")
        except (OSError, subprocess.SubprocessError) as err:
            commit = f"unknown: {err}"
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "slvq")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as f:
                digest.update(name.encode() + b"\0" + f.read())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": nproc,
        "machine": platform.machine(),
        "seed": seed,
        "git_commit": commit,
        "source_sha256": digest.hexdigest()[:16],
    }


# ---------------------------------------------------------------------------
# Counters recorded at traced boundaries, from argument shapes only.
# ---------------------------------------------------------------------------

def install_hooks(tracer):
    import numpy as np

    def arg(args, kwargs, i, name):
        return args[i] if len(args) > i else kwargs[name]

    def quantize(tr, args, kwargs):
        model = arg(args, kwargs, 1, "model")
        segments = np.asarray(args[0]).size // model.d_h * model.m
        tr.count("vqae.segments_quantized", segments)
        tr.count("vqae.distance_flops", 2 * segments * model.k * model.d_c)

    def loss_grads(tr, args, kwargs):
        batch, model, config = args[0], arg(args, kwargs, 1, "model"), arg(args, kwargs, 2, "config")
        b = getattr(batch, "data", batch).shape[0]
        gemms = 5 if config.gradient_mode == "straight_through" else 4
        tr.peak("vqae.fit_step_flops",
                2 * gemms * b * model.c * model.d_h + 2 * b * model.m * model.k * model.d_c)

    def decode(tr, args, kwargs):
        model = arg(args, kwargs, 1, "model")
        rows = np.asarray(args[0]).size // model.d_h
        tr.peak("vqae.decode_batch_flops", 2 * rows * model.d_h * model.c)

    def adamw_init(tr, args, kwargs):
        params = sum(v.size for v in arg(args, kwargs, 1, "params").values())
        tr.peak("optim.params", params)
        # read p, g, m, v and write p, m, v: seven float64 arrays per parameter
        tr.peak("optim.bytes_moved_per_step", 7 * 8 * params)

    def pack(tr, args, kwargs):
        n, m = np.asarray(args[0]).shape
        tr.count("archive.packed_bytes", n * ((m * arg(args, kwargs, 1, "bits") + 7) // 8))

    tracer.hook("vqae.quantize_latent", quantize)
    tracer.hook("vqae._cache_loss_grads_aux", loss_grads)
    tracer.hook("vqae.decode", decode)
    tracer.hook("optim.AdamW.__init__", adamw_init)
    tracer.hook("archive.pack_indices", pack)


# ---------------------------------------------------------------------------
# One workload run.
# ---------------------------------------------------------------------------

def median(values):
    return statistics.median(values) if values else float("nan")


def percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def end_to_end(results, setup_times, setup_fits, rss_mb, ledger):
    from workloads import BATCH_ROWS
    batches = [t for r in results for t in r["batch_times"]]
    fits = setup_fits or [(r["fit_steps"], r["fit_s"]) for r in results]
    metrics = {
        "setup_s": median(setup_times),
        "peak_rss_mb": rss_mb,
        "pass_s": median([r["pass_s"] for r in results]),
        # medians over every timed call of the run, not over its few passes
        "compress_rows_per_s": median([rows / secs for r in results
                                       for rows, secs in r["compress_samples"]]),
        "serve_rows_per_s": BATCH_ROWS / median(batches),
        "recon_kl": median([r["recon_kl"] for r in results]),
    }
    reported = {"error_rate": ledger.failed / max(1, ledger.attempted),
                "fit_steps_per_s": median([steps / secs for steps, secs in fits]),
                "batch_p50_ms": 1e3 * median(batches)}
    # the highest tail percentile with at least ten samples beyond it
    for q in (99, 95, 90):
        if len(batches) * (100 - q) / 100 >= 10:
            reported[f"batch_p{q}_ms"] = 1e3 * percentile(batches, q / 100)
            break
    reported["batch_samples"] = len(batches)
    for key in ("open_s", "archive_bytes_per_label", "retention"):
        if results and key in results[0]:
            reported[key] = median([r[key] for r in results])
    if results and "retention" in results[0]:
        reported["distill_s"] = metrics["pass_s"]
    return metrics, reported


def per_layer(tracer, traced, untraced):
    patterns = [(pattern, layer) for layer, pats in LAYERS.items() for pattern in pats]
    cache = {}

    def layer_of(name):
        if name not in cache:
            cache[name] = next((layer for pattern, layer in patterns
                                if fnmatch.fnmatchcase(name, pattern)), None)
        return cache[name]

    passes = len(traced)
    charged = tracer.charge(layer_of)
    metrics = {layer: charged.get(layer, 0.0) / passes for layer in LAYERS}
    counters = tracer.counters
    for key in PEAK_COUNTERS:
        metrics[key] = counters.get(key, 0)
    for key in PER_PASS_COUNTERS:
        metrics[key] = counters.get(key, 0) // passes
    metrics["vqae.codes_used_ratio"] = median([r["codes_used_ratio"] for r in traced])
    metrics["budget.accounted_over_disk"] = median([r.get("accounted_over_disk", 0.0)
                                                    for r in traced])
    metrics["archive.bytes_written"] = traced[0].get("archive_bytes", 0)
    metrics["trace.overhead_ratio"] = (median([r["pass_s"] for r in traced])
                                       / median([r["pass_s"] for r in untraced]) - 1.0)
    metrics["trace.unattributed_s"] = charged.get(None, 0.0) / passes
    metrics["trace.spans_per_pass"] = len(tracer.spans) // passes
    return metrics


def run_workload(name, seed, seconds, trace, nproc):
    import slvq
    from tracer import Tracer
    from workloads import Ledger, WORKLOADS

    workload = WORKLOADS[name]
    env = environment(seed, nproc)
    tracer = None
    if trace:
        tracer = Tracer(slvq)
        install_hooks(tracer)
    ledger = Ledger(tracer.paused) if tracer else Ledger()

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR)
    results, traced_flags = [], []
    try:
        setup_times, setup_fits, state = [], [], None
        setup_start = time.perf_counter()
        while len(setup_times) < SETUP_MIN_REPEATS or (
                len(setup_times) < SETUP_MAX_REPEATS
                and time.perf_counter() - setup_start < SETUP_MIN_SECONDS):
            state = None
            t0 = time.perf_counter()
            state = workload.setup(seed, workdir)
            setup_times.append(time.perf_counter() - t0)
            if "setup_fit_s" in state:
                setup_fits.append((state["setup_fit_steps"], state["setup_fit_s"]))
        if hasattr(workload, "prepare"):
            workload.prepare(state)

        start = time.perf_counter()
        min_passes = 2 if tracer else 1
        while True:
            pass_id = len(results)
            traced = tracer is not None and pass_id % 2 == 1
            if traced:
                tracer.pass_id = pass_id
                tracer.install()
            pass_start = time.perf_counter()
            try:
                result = workload.run_pass(state, ledger, pass_id)
            except Exception as err:  # a failing operation is counted, not fatal
                ledger.check(f"pass {pass_id}", False, f"{type(err).__name__}: {err}")
                traceback.print_exc(file=sys.stderr)
                break
            finally:
                if traced:
                    tracer.uninstall()
            results.append(result)
            traced_flags.append(traced)
            # stop before a pass as long as the last one would overrun --seconds
            now = time.perf_counter()
            if len(results) >= min_passes and now - start + (now - pass_start) > seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    untraced = [r for r, t in zip(results, traced_flags) if not t]
    traced_results = [r for r, t in zip(results, traced_flags) if t]
    complete = len(untraced) >= 1 and (not tracer or len(traced_results) >= 1)
    e2e, reported = ({}, {"error_rate": 1.0}) if not complete else \
        end_to_end(untraced, setup_times, setup_fits, rss_mb, ledger)
    layers = per_layer(tracer, traced_results, untraced) if tracer and complete else {}

    print(f"== {name}  seed {seed}  trace {trace}  passes {len(results)} "
          f"({sum(traced_flags)} traced)")
    print("   " + "  ".join(f"{k}={v}" for k, v in env.items()))
    for key, value in e2e.items():
        print(f"   {key:<24} {value:>16.6g} {END_TO_END[key]:<6} gated")
    for key, value in reported.items():
        print(f"   {key:<24} {value:>16.6g} {REPORTED[key]}")
    if results and "baseline_kl" in results[0]:
        print("   baseline recon_kl at the same byte budget: " + ", ".join(
            f"{k} {v:.4g}" for k, v in results[0]["baseline_kl"].items()))
    if layers:
        summary = tracer.summary()
        print(f"   {'per-layer (self s per pass)':<32}")
        for key in LAYERS:
            print(f"   {key:<28} {layers[key]:>12.6g} s")
        for key in COUNTS:
            label = " (computed)" if key in PER_PASS_COUNTERS + PEAK_COUNTERS else ""
            print(f"   {key:<28} {layers[key]:>12.6g} {COUNTS[key]}{label}")
        print(f"   {'span':<40} {'calls':>8} {'total_s':>10} {'self_s':>10}")
        for span, row in sorted(summary.items(), key=lambda kv: -kv[1]["self_s"])[:25]:
            print(f"   {span:<40} {row['calls']:>8} {row['total_s']:>10.4f} {row['self_s']:>10.4f}")
    for failure in ledger.failures:
        print(f"   FAILED {failure}")

    record = {"workload": name, "env": env, "seconds": seconds, "trace": trace,
              "setup_times": setup_times, "end_to_end": e2e, "reported": reported,
              "per_layer": layers, "attempted": ledger.attempted, "failed": ledger.failed,
              "failures": ledger.failures,
              "passes": [{k: v for k, v in r.items() if k != "batch_times"} | {"traced": t}
                         for r, t in zip(results, traced_flags)]}
    stem = os.path.join(OUT_DIR, f"{name}-seed{seed}-trace{trace}")
    with open(stem + ".json", "w") as f:
        json.dump(record, f, indent=1, default=float)
    if tracer:
        tracer.dump(stem + "-spans.json", {"workload": name, "env": env})

    metrics = layers if tracer else e2e
    units = {**{k: "s" for k in LAYERS}, **COUNTS} if tracer else END_TO_END
    correct = complete and ledger.failed == 0
    return {"correct": correct, "attempted": ledger.attempted, "failed": ledger.failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def run_all(args):
    """Each workload in its own process, one after the other."""
    combined, status = {}, 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            combined[name] = {"exit": proc.returncode}
            status = 1
            continue
        combined[name] = json.loads(lines[-1])
        status |= 0 if combined[name]["correct"] else 1
    print(json.dumps(combined))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nproc = configure_threads()
    import_program()
    check_manifest()
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    result = run_workload(args.workload, args.seed, args.seconds, args.trace, nproc)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
