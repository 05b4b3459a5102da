"""tprslab benchmark: one workload, timed end to end or traced layer by layer.

Usage (from the repository root):

    python3 bench/run.py --workload mc-resource --seed 1 --seconds 44 --trace 0

The package is imported from ``src/`` of the checkout; nothing is installed.
A run repeats the workload's fixed job list ("pass") in one closed loop, one
job at a time, while a typical pass still ends within ``--seconds``, and at
least three times. Every pass derives fresh CLI and library seeds from
``--seed``.

``--trace 0`` reports the end-to-end metrics: seconds per pass and
Monte-Carlo values per second, both from each job's upper-decile time over
the run's passes (see ``contended_seconds``); set-up time, the median over
fresh interpreters (three before the first pass, one after every pass) that
import ``tprslab`` and fill the caches the jobs use; and peak resident memory.
``--trace 1`` runs untraced passes for half the time and traced passes for
the rest, and reports the per-layer metrics of the traced passes (see
``bench/layers.json``); the spans of the latest traced run of each workload
are written to ``.bench_trace/<workload>.npz``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A job fails when its
exit code or its output check is wrong; ``failed / attempted`` is the
workload's fail ratio.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = ("mc-resource", "moments-exact", "hybrid-magic")
MIN_PASSES = 3
SETUP_REPEATS = 3  # before the first pass; one more follows every pass
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_SNIPPET = """
import importlib, json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import tprslab
for mod, fn, args in json.loads(sys.argv[2]):
    getattr(importlib.import_module("tprslab." + mod), fn)(*args)
print(time.perf_counter() - t0)
"""

# ROADMAP baseline table lines that the traced per-call means stand beside.
ROADMAP_SAMPLE_STATE_US = {
    ("subset-phase-keyed", 3): 232, ("subset-phase-keyed", 8): 101,
    ("subset-keyed", 3): 163, ("subset-keyed", 8): 65,
    ("subset-phase-true-random", 3): 25, ("subset-phase-true-random", 8): 25,
    ("haar", 3): 10, ("haar", 8): 21,
}
ROADMAP_PAULI_US = {2: 6.5, 3: 18, 4: 185}
ROADMAP_GENERATOR_US = 16.7
ROADMAP_EIG_1024_S = 1.4


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def cap_blas_threads() -> int:
    """Cap BLAS threads at the usable core count; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_ENV:
        current = os.environ.get(var, "")
        want = min(int(current), nproc) if current.isdigit() and int(current) > 0 else nproc
        os.environ[var] = str(want)
    return nproc


def bootstrap() -> int | None:
    """Cap BLAS threads and put the checkout's ``src/`` first on the path.

    Returns the core count, or None (with a message) when the checkout has
    no package to benchmark.
    """
    if not (SRC / "tprslab" / "__init__.py").is_file():
        print(f"error: no tprslab package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return None
    nproc = cap_blas_threads()
    sys.path.insert(0, str(SRC))
    import tprslab

    if Path(tprslab.__file__).resolve().parent != (SRC / "tprslab").resolve():
        print(f"error: imported tprslab from {tprslab.__file__}, not {SRC}", file=sys.stderr)
        return None
    return nproc


def blas_threads() -> int | str:
    """Threads the loaded OpenBLAS will use, read from the library itself."""
    import ctypes

    import numpy as np

    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return f"unverified (OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']})"


def measure_setup(calls: list) -> float:
    """Set-up seconds of one fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_SNIPPET, str(SRC), json.dumps(calls)],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def derive_seed(seed: int, pass_index: int, key: int) -> int:
    import numpy as np

    return int(np.random.SeedSequence([seed, pass_index, key]).generate_state(1)[0])


@dataclass
class PassResult:
    index: int
    wall: float
    outcomes: list  # [(job, Outcome)] in job-list order

    def job_seconds(self, name: str) -> float | None:
        for job, o in self.outcomes:
            if job.name == name:
                return o.seconds
        return None


def run_pass(job_list, seed: int, index: int, tracer=None) -> PassResult:
    from jobs import Outcome

    ctx: dict = {}
    outcomes = []
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    t0 = time.perf_counter()
    with span("bench.pass"):
        for job in job_list:
            j0 = time.perf_counter()
            with span("bench.job"):
                try:
                    out = job.run(derive_seed(seed, index, job.seed_key), ctx)
                except Exception as exc:  # a crashing job is a failed job, not a crashed run
                    out = Outcome(time.perf_counter() - j0, problems=[f"raised {type(exc).__name__}: {exc}"])
            if tracer is not None:
                tracer.job_done()
            outcomes.append((job, out))
    return PassResult(index, time.perf_counter() - t0, outcomes)


def run_passes(job_list, seed, first_index, deadline, min_passes, tracer=None, between=None) -> list[PassResult]:
    """Passes until the deadline; ``between()`` runs after each pass, untimed."""
    passes = []
    # a pass starts only if a typical pass still ends before the deadline
    while len(passes) < min_passes or time.perf_counter() + statistics.median(p.wall for p in passes) < deadline:
        passes.append(run_pass(job_list, seed, first_index + len(passes), tracer))
        p = passes[-1]
        bad = sum(1 for _, o in p.outcomes if o.problems)
        jobs_s = " ".join(f"{o.seconds:.3f}" for _, o in p.outcomes)
        print(f"pass {p.index:3d} {'traced' if tracer else 'timed '} {p.wall:8.4f} s  failed jobs {bad}  jobs {jobs_s}",
              flush=True)
        if between is not None:
            between()
    return passes


def upper_decile(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8] if len(values) > 1 else values[0]


def contended_seconds(passes: list[PassResult]) -> list[tuple]:
    """(job, upper-decile seconds over the passes, values per pass) per job.

    On the shared host the same job runs up to 1.4x faster during spells of
    seconds to tens of seconds, and how much of a run falls into such spells
    varies from run to run. The upper decile of each job's times tracks the
    host's contended speed: over sets of ten 30-44 s runs on a 2-core shared
    VM its run-to-run spread was 6-16%, that of the median pass time 5-23%.
    """
    out = []
    for i, (job, first) in enumerate(passes[0].outcomes):
        out.append((job, upper_decile([p.outcomes[i][1].seconds for p in passes]), first.values))
    return out


def pass_seconds(passes: list[PassResult]) -> float:
    return sum(sec for _, sec, _ in contended_seconds(passes))


def mc_samples_per_s(passes: list[PassResult]) -> float:
    mc = [(sec, values) for job, sec, values in contended_seconds(passes) if job.monte_carlo]
    return sum(v for _, v in mc) / sum(sec for sec, _ in mc)


def high_percentile(values: list[float]) -> str:
    """Highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n <= 10:
        return f"n/a ({n} passes; needs more than 10)"
    k = n - 11  # ten values lie above the k-th smallest
    return f"p{100.0 * (k + 1) / n:.1f} = {sorted(values)[k]:.4f} s"


def thread2_speedup(passes: list[PassResult]) -> float:
    ratios = []
    for p in passes:
        t1 = p.job_seconds("gap-coherence-threads1")
        t2 = p.job_seconds("gap-coherence-threads2")
        if t1 and t2:
            ratios.append(t1 / t2)
    return statistics.median(ratios) if ratios else 0.0


def layer_metrics(tracer, r, traced: list[PassResult], timed: list[PassResult]) -> dict:
    from tracer import LAYERS

    k = len(traced)
    c = tracer.counters

    def eq(name):
        return lambda nm: nm == name

    def pre(prefix):
        return lambda nm: nm.startswith(prefix)

    def among(*names):
        return lambda nm: nm in names

    requested = sum(o.requested for p in traced for _, o in p.outcomes)
    measure_fns = among(*(f"resources.{f}" for f in (
        "measure_pure_amps", "coherence_relative_entropy", "coherence_hs_distance", "entanglement_entropy",
        "reduced_purity", "collision_entanglement", "stabilizer_renyi_entropy",
    )))
    m = {
        "randprims.generator_calls": r.calls(eq("randprims.RngSeed.generator")) / k,
        "randprims.generator_s": r.inclusive_s(eq("randprims.RngSeed.generator")) / k,
        "randprims.feistel_builds": r.calls(eq("randprims.KeyedPermutation.__init__")) / k,
        "randprims.feistel_s": r.inclusive_s(pre("randprims.KeyedPermutation.")) / k,
        "randprims.phase_s": r.inclusive_s(pre("randprims.PhaseFunction.")) / k,
        "ensembles.sample_state_calls": r.calls(eq("ensembles.sample_state")) / k,
        "ensembles.sample_state_self_s": r.self_s(eq("ensembles.sample_state")) / k,
        "ensembles.sample_block_s": r.inclusive_s(eq("ensembles.sample_block")) / k,
        "ensembles.draws_per_sample": c["draws"] / requested if requested else 0.0,
        "ensembles.distinct_draw_ratio": c["distinct_draws"] / c["draws"] if c["draws"] else 0.0,
        "ensembles.exact_moment_s": r.inclusive_s(among(
            "ensembles.exact_subset_moment", "ensembles.exact_subset_phase_moment")) / k,
        "ensembles.exact_moment_terms": c["exact_moment_terms"] / k,
        "ensembles.mc_moment_self_s": r.self_s(pre("ensembles.mc_ensemble_moment")) / k,
        "ensembles.mc_moment_madds": c["mc_moment_madds"] / k,
        "ensembles.haar_moment_s": r.inclusive_s(eq("ensembles.haar_moment")) / k,
        "linalg.trace_distance_s": r.inclusive_s(eq("linalg.trace_distance")) / k,
        "linalg.eig_calls": c["eig_calls"] / k,
        "linalg.eig_dim_sum": c["eig_dim_sum"] / k,
        "linalg.pure_state_builds": r.calls(eq("linalg.PureState.__init__")) / k,
        "linalg.pure_state_s": r.inclusive_s(eq("linalg.PureState.__init__")) / k,
        "sampling.paired_value_means_self_s": r.self_s(pre("sampling.paired_value_means")) / k,
        "sampling.streams": c["streams"] / k,
        "sampling.chunks": c["chunks"] / k,
        "sampling.thread2_speedup": thread2_speedup(timed),
        "resources.measure_calls": r.calls(eq("resources.measure_pure_amps")) / k,
        "resources.measure_self_s": r.self_s(measure_fns) / k,
        "resources.schmidt_s": r.inclusive_s(eq("resources._schmidt_probs")) / k,
        "resources.pauli_calls": r.calls(eq("resources.pauli_expectations_pure")) / k,
        "resources.pauli_s": r.inclusive_s(eq("resources.pauli_expectations_pure")) / k,
        "resources.pauli_madds": c["pauli_madds"] / k,
        "distinguishers.estimate_advantage_calls": r.calls(eq("distinguishers.estimate_advantage")) / k,
        "distinguishers.estimate_advantage_self_s": r.self_s(pre("distinguishers.estimate_advantage")) / k,
        "distinguishers.hadamard_s": r.inclusive_s(eq("distinguishers.hadamard_test_prob")) / k,
        "bounds.verify_distance_bound_self_s": r.self_s(pre("bounds.verify_distance_bound")) / k,
        "bounds.prop_check_self_s": r.self_s(pre("bounds.empirical_prop_check")) / k,
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = r.layer_self_s(layer) / k
    m["bench.trace_overhead"] = pass_seconds(traced) / pass_seconds(timed)
    m["bench.outside_layers_share"] = r.layer_self_s("bench") / sum(p.wall for p in traced)
    return m


def print_baselines(tracer, r, workload: str) -> None:
    """Traced per-call means beside the ROADMAP baseline table lines."""
    calls, mean = r.mean_call_s("randprims.RngSeed.generator")
    line = f"{mean * 1e6:.1f} us/call over {calls} calls" if calls else "not exercised"
    print(f"baseline RngSeed.generator per sample: ROADMAP {ROADMAP_GENERATOR_US} us | traced {line}")
    for (fn, *key), (count, total) in sorted(tracer.per_call.items(), key=lambda kv: str(kv[0])):
        mean_us = total / count * 1e6
        if fn == "sample_state":
            kind, n = key
            ref = ROADMAP_SAMPLE_STATE_US.get((kind, n))
            ref_text = f"{ref} us" if ref is not None else "no line"
            print(f"baseline sample_state {kind} n={n}: ROADMAP {ref_text} | traced {mean_us:.1f} us/call over {count}")
        elif fn == "pauli_expectations_pure":
            (n,) = key
            ref = ROADMAP_PAULI_US.get(n)
            print(f"baseline pauli_expectations_pure n={n}: ROADMAP {ref} us | traced {mean_us:.1f} us/call over {count}")
        elif fn == "eig":
            (dim,) = key
            ref_text = f"{ROADMAP_EIG_1024_S} s" if dim == 1024 else "no line"
            print(f"baseline eigen-problem dim {dim}: ROADMAP {ref_text} | traced {mean_us / 1e6:.4f} s/call over {count}")
    for n in sorted(set(ROADMAP_PAULI_US) - {k[1] for k in tracer.per_call if k[0] == "pauli_expectations_pure"}):
        print(f"baseline pauli_expectations_pure n={n}: ROADMAP {ROADMAP_PAULI_US[n]} us | not exercised by {workload}")


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = bootstrap()
    if nproc is None:
        return 2

    import numpy as np

    import jobs
    import tracer as tracer_mod

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    context = {"nproc": nproc, "numpy": np.__version__, "blas_threads": blas_threads(),
               "python": sys.version.split()[0]}
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print(f"context {json.dumps(context)}", flush=True)

    calls = jobs.SETUP_CALLS[args.workload]
    jobs.setup(args.workload)
    job_list = jobs.build(args.workload)

    start = time.perf_counter()
    if args.trace == 0:
        # set-up samples spread over the run see the same host speeds as the passes
        setups = [measure_setup(calls) for _ in range(SETUP_REPEATS)]
        timed = run_passes(job_list, args.seed, 0, start + args.seconds, MIN_PASSES,
                           between=lambda: setups.append(measure_setup(calls)))
        all_passes = timed
    else:
        timed = run_passes(job_list, args.seed, 0, start + args.seconds / 2, 1)
        tr = tracer_mod.Tracer()
        tr.install()
        try:
            traced = run_passes(job_list, args.seed, len(timed), start + args.seconds, 1, tr)
        finally:
            tr.uninstall()
        all_passes = timed + traced

    attempted = sum(len(p.outcomes) for p in all_passes)
    failed = 0
    for p in all_passes:
        for job, o in p.outcomes:
            if o.problems:
                failed += 1
                print(f"FAILED pass {p.index} {job.name}: {'; '.join(o.problems)[:400]}", file=sys.stderr)
    print(f"jobs attempted {attempted} failed {failed} fail_ratio {failed / attempted:.4f}")

    if args.trace == 0:
        walls = [p.wall for p in timed]
        metrics = {
            "wall_s": pass_seconds(timed),
            "mc_samples_per_s": mc_samples_per_s(timed),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        print(f"set-up samples {' '.join(f'{t:.4f}' for t in setups)}")
        print(f"passes {len(walls)}; median pass {statistics.median(walls):.4f} s; "
              f"highest percentile with >=10 passes beyond it: {high_percentile(walls)}")
        declared = spec["end_to_end"]
    else:
        rollup = tr.rollup()
        metrics = layer_metrics(tr, rollup, traced, timed)
        print_baselines(tr, rollup, args.workload)
        out_dir = ROOT / ".bench_trace"
        out_dir.mkdir(exist_ok=True)
        dump = out_dir / f"{args.workload}.npz"  # the latest traced run of each workload
        tr.dump(dump)
        print(f"passes {len(timed)} timed + {len(traced)} traced; spans written to {dump.relative_to(ROOT)}")
        declared = spec["per_layer"]

    missing = [d["name"] for d in declared if d["name"] not in metrics]
    if missing:
        print(f"error: metrics {missing} declared in BENCHMARK.json were not measured", file=sys.stderr)
        return 2
    result = {}
    for d in declared:
        value = float(metrics[d["name"]])
        tag = " (computed)" if d["name"] in tracer_mod.COMPUTED else ""
        print(f"metric {d['name']} {value:.6g} {d['unit']}{tag}")
        result[d["name"]] = {"value": value, "unit": d["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
