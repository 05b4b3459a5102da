"""Shows that the benchmark's output checks catch wrong results.

Usage (from the repository root):

    python3 bench/selftest.py

Runs a few cheap jobs of the real workloads through the benchmark's own pass
runner: once as they are (the fail ratio must be 0), then with a perturbed
expected value, a swapped CSV, a wrong Haar reference, a non-Haar ensemble on
the Haar side, or a rejected invocation (the fail ratio must be above 0).
Exits 0 when every case behaves as stated, 1 otherwise.
"""

from __future__ import annotations

import copy
import sys

import run


def fail_ratio(job_list) -> float:
    result = run.run_pass(job_list, seed=7, index=0)
    for job, outcome in result.outcomes:
        for problem in outcome.problems:
            print(f"    {job.name}: {problem}")
    return sum(1 for _, o in result.outcomes if o.problems) / len(result.outcomes)


def main() -> int:
    if run.bootstrap() is None:
        return 2
    import jobs

    jobs.GAP_SAMPLES = 200  # the threads pair only needs to be byte-identical
    moments = {job.name: job for job in jobs.build("moments-exact")}
    mc = {job.name: job for job in jobs.build("mc-resource")}
    exact = [moments["distance-phase-n3"], moments["distance-subset-n3"]]
    pair = [mc["gap-coherence-threads1"], mc["gap-coherence-threads2"]]
    coh = ["gap", "--measure", "coherence-re", "--n", "8", "--e1", "haar", "--e2", "subset-phase-true-random:m=16",
           "--samples", "200"]
    prop7 = ["prop-check", "--prop", "7", "--n", "6", "--T", "log", "--e1", "haar", "--e2", "subset-phase-keyed:m=8",
             "--samples", "500"]

    def swap_csv(seed: int, ctx: dict) -> jobs.Outcome:
        # the threads-1 CSV of another seed stands in for this pass's
        code, text, seconds = jobs.run_cli(coh + ["--threads", "1", "--seed", str(seed + 1)])
        ctx["gap-coherence-threads1"] = text
        return jobs.Outcome(seconds)

    def perturbed(mutate):
        original = jobs.EXPECTED
        jobs.EXPECTED = copy.deepcopy(original)
        mutate(jobs.EXPECTED)
        try:
            return {job.name: job for job in jobs.build("moments-exact")}
        finally:
            jobs.EXPECTED = original

    def bump_frozen(e):
        e["frozen_phase"][4] = (e["frozen_phase"][4][0] + 1e-5, e["frozen_phase"][4][1])

    def bump_recorded(e):
        e["distance"]["subset n=3 t=2 m=2,4,6"][2]["rhs"] += 1e-8

    cases = [
        ("unchanged exact and threads jobs", exact + pair, False),
        ("frozen PHASE_LHS[4] moved by 1e-5", [perturbed(bump_frozen)["distance-phase-n3"]], True),
        ("recorded subset n=3 m=6 rhs moved by 1e-8", [perturbed(bump_recorded)["distance-subset-n3"]], True),
        ("threads-2 CSV compared with another seed's threads-1 CSV",
         [jobs.Job("swap", swap_csv, 3, False), pair[1]], True),
        ("low-side coherence expected 4 + 1e-6",
         [jobs.cli_job("gap-perturbed", coh, jobs.check_gap("coherence-re", 8, low_exact=4.000001),
                       requested=lambda rows: 200, streams=2)], True),
        ("prop 7 Haar acceptance checked against the n=5 value 2/33 instead of 2/65",
         [jobs.cli_job("prop7-wrong-reference", prop7, jobs.check_prop(7, 5, 8),
                       requested=lambda rows: 500, streams=3)], True),
        ("Haar side drawn from subset-phase-true-random:m=128",
         [jobs.cli_job("gap-not-haar", coh[:6] + ["subset-phase-true-random:m=128"] + coh[7:],
                       jobs.check_gap("coherence-re", 8, low_exact=4.0), requested=lambda rows: 200, streams=2)],
         True),
        ("unknown measure ends with exit code 2",
         [jobs.cli_job("gap-invalid", ["gap", "--measure", "nope", "--n", "3", "--e1", "haar", "--e2", "haar"],
                       jobs.check_gap("coherence-re", 3), requested=lambda rows: 1, streams=2)], True),
    ]
    ok = True
    for label, job_list, must_fail in cases:
        print(f"case: {label}")
        ratio = fail_ratio(job_list)
        good = (ratio > 0) == must_fail
        ok &= good
        print(f"  fail_ratio {ratio:.3f}, expected {'> 0' if must_fail else '0'}: {'ok' if good else 'WRONG'}")
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
