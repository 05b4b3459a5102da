"""The benchmark's workloads: fixed job lists, their inputs and output checks.

A job is one README CLI subcommand run in-process through
``tprslab.cli.main(argv)``, or one call of the exported library functions
where the CLI has no subcommand (``mc_ensemble_moment`` with
``trace_distance``). Every job checks its own output; a job whose check
finds a problem, or that raises, counts as failed.

Library functions are looked up on their module at call time, so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import csv
import importlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from tprslab import cli, ensembles, linalg, resources
from tprslab.randprims import RngSeed

EXPECTED_PATH = Path(__file__).with_name("expected.json")

# Library calls whose results the timed jobs reuse or could cache; run once
# per process before timing, and timed as set-up.
SETUP_CALLS = {
    "mc-resource": [],
    "moments-exact": [
        ("linalg", "symmetric_projector", [3, 2]),
        ("linalg", "symmetric_projector", [4, 2]),
        ("linalg", "symmetric_projector", [3, 3]),
        ("linalg", "symmetric_projector", [5, 2]),
    ],
    "hybrid-magic": [
        ("resources", "pauli_basis", [3]),
        ("resources", "pauli_basis", [4]),
    ],
}

GAP_SAMPLES = 2000
SWEEP_SAMPLES = 2000
HYBRID_SAMPLES = 1000
MAGIC_SAMPLES = 1000
HAAR_MOMENT_SAMPLES = 1000
PHASE_MOMENT_SAMPLES = 250

# Haar side of a Monte-Carlo job vs its analytic value, in stderr. The checked
# statistics are close to normal (over 300-400 seeds: prop 7's Haar acceptance
# mean -0.03, sd 0.95; n=8 Haar coherence mean 0.06, sd 1.03), and a set of
# benchmark runs makes thousands of such checks on fresh seeds. At 4 stderr
# (two-sided tail 6.3e-5) a correct program then fails one of them in a few
# sets of runs; one seed read 4.8 stderr on 2000 distinct Haar draws. At 6
# stderr (tail 2e-9) that is gone, while a wrong reference or a non-Haar
# ensemble still lands far outside (see bench/selftest.py).
STDERR_SLACK = 6.0
MOMENT_SLACK = 5.0  # max-entry deviation of a Monte-Carlo moment
EXACT_TOL = 1e-9


@dataclass
class Outcome:
    """What one job run produced."""

    seconds: float
    requested: int = 0  # Monte-Carlo samples the job asked for (0 for exact jobs)
    values: int = 0  # Monte-Carlo values delivered: requested x value streams
    problems: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class Job:
    name: str
    run: Callable[[int, dict], Outcome]  # (seed, pass context) -> outcome
    seed_key: int  # jobs with the same key get the same seed in a pass
    monte_carlo: bool


# ---------------------------------------------------------------------------
# Running


def run_cli(argv: list[str]) -> tuple[int, str, float]:
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    seconds = time.perf_counter() - t0
    return code, out.getvalue(), seconds


def parse_csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _f(row: dict, key: str) -> float:
    return float(row[key])


def _close(name: str, got: float, want: float, tol: float) -> list[str]:
    if not math.isfinite(got) or abs(got - want) > tol:
        return [f"{name}: {got!r} differs from {want!r} by more than {tol:g}"]
    return []


def _within(name: str, got: float, lo: float, hi: float) -> list[str]:
    if not (math.isfinite(got) and lo <= got <= hi):
        return [f"{name}: {got!r} outside [{lo:g}, {hi:g}]"]
    return []


def cli_job(name: str, argv: list[str], check, requested=None, streams: int = 0, seed_key: int = 0) -> Job:
    """A CLI run; ``check(code, rows, text, ctx) -> problems``.

    Monte-Carlo jobs give ``requested(rows)``, the samples asked for, and
    ``streams``, the value streams the report averages per sample; exact jobs
    give neither and get no ``--seed``.
    """

    def run(seed: int, ctx: dict) -> Outcome:
        full = argv + (["--seed", str(seed)] if requested else [])
        code, text, seconds = run_cli(full)
        rows = parse_csv(text) if code in (0, 4) else []
        problems = check(code, rows, text, ctx)
        asked = requested(rows) if requested else 0
        return Outcome(seconds, asked, asked * streams, problems)

    return Job(name, run, seed_key, requested is not None)


# ---------------------------------------------------------------------------
# Checks


def _exit_code(code: int, documented: int) -> list[str]:
    problems = []
    if code != documented:
        problems.append(f"exit code {code}, documented outcome is {documented}")
    if documented != 0:
        problems.append(f"job ended with exit code {documented}; every job of a workload must succeed")
    return problems


def check_distance(key: str, frozen: dict | None = None):
    """Rows equal the values recorded at the seed commit; frozen values too."""
    want = EXPECTED["distance"][key]

    def check(code, rows, text, ctx):
        documented = 0 if rows and all(r["passed"] == "true" for r in rows) else 4
        problems = _exit_code(code, documented)
        if len(rows) != len(want):
            return problems + [f"{len(rows)} rows, expected {len(want)}"]
        for row, ref in zip(rows, want):
            for col, value in ref.items():
                if isinstance(value, float):
                    got = float(row[col]) if row[col] else float("nan")
                    problems += _close(f"size {ref['size']} {col}", got, value, EXACT_TOL)
                elif row[col] != str(value):
                    problems.append(f"size {ref['size']} {col}: {row[col]!r} != {value!r}")
            if frozen and int(row["size"]) in frozen:
                lhs, tol = frozen[int(row["size"])]
                problems += _close(f"size {row['size']} frozen lhs", _f(row, "lhs"), lhs, tol)
        return problems

    return check


def _haar_bits(measure: str, n: int, part=None, alpha=None):
    """(exact value or None, band) of the Haar reference, in bits."""
    ref = resources.haar_expected(measure, n, part=part, alpha=alpha)
    value = ref.value / math.log(2) if ref.units.startswith("harmonic") else ref.value
    return (value if ref.exact else None), ref.band


def check_gap(measure: str, n: int, low_exact: float | None = None, low_range=None, part=None, alpha=None,
              same_as: str | None = None):
    """Haar side within 6 stderr of an exact reference or inside its band
    (widened by 6 stderr); low side exactly ``low_exact`` or in ``low_range``."""

    def check(code, rows, text, ctx):
        problems = _exit_code(code, 0)
        if len(rows) != 1:
            return problems + [f"{len(rows)} rows, expected 1"]
        row = rows[0]
        mean, se = _f(row, "mean_high"), _f(row, "se_high")
        exact, band = _haar_bits(measure, n, part, alpha)
        if exact is not None:
            problems += _close("Haar side", mean, exact, STDERR_SLACK * se)
        else:
            problems += _within("Haar side", mean, band[0] - STDERR_SLACK * se, band[1] + STDERR_SLACK * se)
        low = _f(row, "mean_low")
        if low_exact is not None:
            problems += _close("low side", low, low_exact, EXACT_TOL)
            problems += _close("low side stderr", _f(row, "se_low"), 0.0, EXACT_TOL)
        if low_range is not None:
            problems += _within("low side", low, *low_range)
        problems += _close("delta", _f(row, "delta"), abs(mean - low), EXACT_TOL)
        if same_as is not None:
            if text != ctx.get(same_as):
                problems.append(f"CSV differs from the {same_as} CSV of the same seed")
        return problems

    return check


def check_sweep(key: str):
    """Table columns equal the seed commit's; measured means are in range."""
    want = EXPECTED["sweep"][key]

    def check(code, rows, text, ctx):
        problems = _exit_code(code, 0)
        if len(rows) != len(want):
            return problems + [f"{len(rows)} rows, expected {len(want)}"]
        for row, ref in zip(rows, want):
            label = f"n={row['n']} T={row['T']}"
            for col in ("bound", "haar_ref"):
                problems += _close(f"{label} {col}", _f(row, col), ref[col], EXACT_TOL)
            problems += _within(f"{label} measured", _f(row, "measured"), 0.0, ref["haar_ref"] + EXACT_TOL)
            if not _f(row, "measured_se") > 0:
                problems.append(f"{label}: measured_se is not positive")
        return problems

    return check


def sweep_requested(rows: list[dict]) -> int:
    """Each measured row is its own estimate at the sweep's sample count."""
    return SWEEP_SAMPLES * sum(1 for r in rows if r["measured"])


def check_hybrid(n: int):
    """Haar acceptance of each test within 6 stderr of its exact value."""
    d = 2**n
    exact = {
        "coherence-projector": 2.0 / (d + 1),  # E sum_x p_x^2
        f"swap[1:{n - 1}]": 0.5 * (1.0 + (2 + 2 ** (n - 1)) / (d + 1)),  # (1 + E Tr rho_A^2) / 2
    }

    def check(code, rows, text, ctx):
        documented = 0 if rows and all(r["triangle_ok"] == "true" for r in rows) else 4
        problems = _exit_code(code, documented)
        if len(rows) != 6:
            return problems + [f"{len(rows)} rows, expected 6"]
        for row in rows:
            if row["pair"].endswith("-vs-haar"):
                label = f"{row['distinguisher']} {row['pair']} Haar side"
                problems += _close(label, _f(row, "p2"), exact[row["distinguisher"]], STDERR_SLACK * _f(row, "stderr"))
        return problems

    return check


def check_prop(prop: int, n: int, m: int, alpha: int = 3):
    """Haar acceptance recovered from the report within 6 stderr of its exact
    value; for prop 7 the subset-phase side is exact (C = log2 m, accept 1/m)."""
    d = 2**n

    def check(code, rows, text, ctx):
        if len(rows) != 1:
            return _exit_code(code, 4) + [f"{len(rows)} rows, expected 1"]
        row = rows[0]
        ok_verdicts = ("passed", "non-binding", "premise-violated")
        problems = _exit_code(code, 0 if row["verdict"] in ok_verdicts else 4)
        eta, eta_se = _f(row, "eta_hat"), _f(row, "eta_stderr")
        if prop == 7:
            problems += _close("low-side coherence", _f(row, "measured"), math.log2(m), EXACT_TOL)
            problems += _close("low-side sandwich", _f(row, "sandwich"), math.log2(m), EXACT_TOL)
            accept_low = 1.0 / m
            haar_accept = 2.0 / (d + 1)
        else:
            accept_low = 0.5 * (1.0 + 2.0 ** (-(alpha - 1) * _f(row, "sandwich")))
            mu = math.prod(2 * j - 1 for j in range(1, alpha + 1)) / math.prod(
                d + 2 * j - 1 for j in range(1, alpha + 1)
            )
            haar_accept = 0.5 * (1.0 + (1.0 + (d * d - 1) * mu) / d)
        problems += _close("Haar acceptance", accept_low - eta, haar_accept, STDERR_SLACK * eta_se)
        return problems

    return check


# ---------------------------------------------------------------------------
# Library jobs


def moment_job(name: str, spec_args: dict, samples: int, reference: np.ndarray) -> Job:
    """Monte-Carlo moment, its trace distance to the Haar moment, and a
    max-entry check against an independent reference operator."""

    def run(seed: int, ctx: dict) -> Outcome:
        spec = ensembles.EnsembleSpec(seed=RngSeed(seed), **spec_args)
        t0 = time.perf_counter()
        est = ensembles.mc_ensemble_moment(spec, samples)
        dist = linalg.trace_distance(est.operator, ensembles.haar_moment(spec.n, spec.t))
        seconds = time.perf_counter() - t0
        dev = float(np.max(np.abs(est.operator.mat - reference)))
        problems = []
        if not (est.stderr > 0 and dev <= MOMENT_SLACK * est.stderr):
            problems.append(f"max-entry deviation {dev:.3g} exceeds {MOMENT_SLACK} stderr ({est.stderr:.3g})")
        problems += _within("trace distance to Haar", dist, 1e-12, 1.0)
        return Outcome(seconds, samples, samples, problems)

    return Job(name, run, 0, True)


def haar_moment_reference(n: int, t: int) -> np.ndarray:
    return linalg.symmetric_projector(n, t) / linalg.symmetric_dimension(n, t)


def phase_moment_reference(n: int, m: int) -> np.ndarray:
    """Closed-form two-copy subset-phase moment.

    Entry <x1 x2|M|y1 y2> is C(d-k, m-k) / C(d, m) / m^2 when every value of
    the multiset {x1, x2, y1, y2} occurs an even number of times (k distinct
    values), and 0 otherwise.
    """
    d = 2**n
    idx = np.arange(d * d)
    x1, x2 = (idx // d)[:, None], (idx % d)[:, None]  # row index |x1 x2>
    y1, y2 = x1.T, x2.T  # column index <y1 y2|
    even = ((x1 == x2) & (y1 == y2)) | ((x1 == y1) & (x2 == y2)) | ((x1 == y2) & (x2 == y1))
    one_value = (x1 == x2) & (x2 == y1) & (y1 == y2)
    value = np.where(one_value, math.comb(d - 1, m - 1), math.comb(d - 2, m - 2)) / math.comb(d, m) / m**2
    return np.where(even, value, 0.0)


# ---------------------------------------------------------------------------
# Workloads


def _load_expected() -> dict:
    with open(EXPECTED_PATH) as fh:
        data = json.load(fh)
    frozen = data["frozen"]
    data["frozen_phase"] = {int(k): (v, frozen["tol"]) for k, v in frozen["PHASE_LHS"].items()}
    data["frozen_subset"] = {int(k): (v, frozen["tol"]) for k, v in frozen["SUBSET_LHS"].items()}
    return data


EXPECTED = _load_expected()


def build(workload: str) -> list[Job]:
    """The workload's fixed job list, in the order each pass runs it."""
    if workload == "mc-resource":
        coh = ["gap", "--measure", "coherence-re", "--n", "8", "--e1", "haar", "--samples", str(GAP_SAMPLES)]
        part = linalg.PartitionSpec(4, 4)
        return [
            cli_job(
                "gap-coherence-keyed",
                coh + ["--e2", "subset-phase-keyed:m=16"],
                check_gap("coherence-re", 8, low_exact=4.0),
                requested=lambda rows: GAP_SAMPLES,
                streams=2,
                seed_key=1,
            ),
            cli_job(
                "gap-entanglement-keyed",
                ["gap", "--measure", "entanglement-entropy", "--n", "8", "--e1", "haar",
                 "--e2", "subset-keyed:m=16", "--samples", str(GAP_SAMPLES)],
                check_gap("entanglement-entropy", 8, low_range=(0.0, 4.0), part=part),
                requested=lambda rows: GAP_SAMPLES,
                streams=2,
                seed_key=2,
            ),
            cli_job(
                "gap-coherence-threads1",
                coh + ["--e2", "subset-phase-true-random:m=16", "--threads", "1"],
                _remember("gap-coherence-threads1", check_gap("coherence-re", 8, low_exact=4.0)),
                requested=lambda rows: GAP_SAMPLES,
                streams=2,
                seed_key=3,
            ),
            cli_job(
                "gap-coherence-threads2",
                coh + ["--e2", "subset-phase-true-random:m=16", "--threads", "2"],
                check_gap("coherence-re", 8, low_exact=4.0, same_as="gap-coherence-threads1"),
                requested=lambda rows: GAP_SAMPLES,
                streams=2,
                seed_key=3,
            ),
            cli_job(
                "sweep-entanglement",
                ["sweep", "--measure", "entanglement-entropy", "--n", "8..10", "--classes", "log,linear",
                 "--samples", str(SWEEP_SAMPLES)],
                check_sweep("entanglement n=8..10 log,linear"),
                requested=sweep_requested,
                streams=1,
                seed_key=4,
            ),
        ]
    if workload == "moments-exact":
        return [
            cli_job(
                "distance-phase-n4",
                ["distance", "--kind", "subset-phase", "--n", "4", "--t", "2", "--mexp", "1,2"],
                check_distance("subset-phase n=4 t=2 mexp=1,2", {4: (EXPECTED["frozen"]["phase_4_4_2"], 1e-5)}),
            ),
            cli_job(
                "distance-subset-n4",
                ["distance", "--kind", "subset", "--n", "4", "--t", "2", "--m", "2,3"],
                check_distance("subset n=4 t=2 m=2,3"),
            ),
            cli_job(
                "distance-phase-n3",
                ["distance", "--kind", "subset-phase", "--n", "3", "--t", "2", "--mexp", "1,2"],
                check_distance("subset-phase n=3 t=2 mexp=1,2", EXPECTED["frozen_phase"]),
            ),
            cli_job(
                "distance-subset-n3",
                ["distance", "--kind", "subset", "--n", "3", "--t", "2", "--m", "2,4,6"],
                check_distance("subset n=3 t=2 m=2,4,6", EXPECTED["frozen_subset"]),
            ),
            moment_job(
                "moment-haar-n3-t3",
                {"kind": "haar", "n": 3, "t": 3},
                HAAR_MOMENT_SAMPLES,
                haar_moment_reference(3, 3),
            ),
            moment_job(
                "moment-phase-n5-m8",
                {"kind": "subset-phase-true-random", "n": 5, "m": 8, "t": 2},
                PHASE_MOMENT_SAMPLES,
                phase_moment_reference(5, 8),
            ),
        ]
    if workload == "hybrid-magic":
        return [
            cli_job(
                "hybrid-n3-m4",
                ["hybrid", "--n", "3", "--m", "4", "--distinguishers", "coherence,swap",
                 "--samples", str(HYBRID_SAMPLES)],
                check_hybrid(3),
                requested=lambda rows: HYBRID_SAMPLES,
                streams=2 * 3 * 2,  # two ensembles x three legs x two distinguishers
                seed_key=1,
            ),
            cli_job(
                "prop7-n6",
                ["prop-check", "--prop", "7", "--n", "6", "--T", "log", "--e1", "haar",
                 "--e2", "subset-phase-keyed:m=8", "--samples", str(GAP_SAMPLES)],
                check_prop(7, 6, 8),
                requested=lambda rows: GAP_SAMPLES,
                streams=3,
                seed_key=2,
            ),
            cli_job(
                "gap-magic-n4",
                ["gap", "--measure", "magic", "--n", "4", "--e1", "haar", "--e2", "subset-phase-keyed:m=4",
                 "--samples", str(MAGIC_SAMPLES)],
                check_gap("stabilizer-renyi", 4, low_range=(0.0, 4.0), alpha=3),
                requested=lambda rows: MAGIC_SAMPLES,
                streams=2,
                seed_key=3,
            ),
            cli_job(
                "prop9-n3",
                ["prop-check", "--prop", "9", "--n", "3", "--T", "log", "--e1", "haar",
                 "--e2", "subset-phase-true-random:m=4", "--samples", str(MAGIC_SAMPLES)],
                check_prop(9, 3, 4),
                requested=lambda rows: MAGIC_SAMPLES,
                streams=3,
                seed_key=4,
            ),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def _remember(key: str, check):
    """Keep this job's CSV in the pass context for a later comparison."""

    def wrapped(code, rows, text, ctx):
        ctx[key] = text
        return check(code, rows, text, ctx)

    return wrapped


def setup(workload: str) -> None:
    for mod, fn, args in SETUP_CALLS[workload]:
        getattr(importlib.import_module(f"tprslab.{mod}"), fn)(*args)

