"""Command-line harness producing reproducible machine-readable reports.

Subcommands: build, distance, gap, sweep, hybrid, negl-check, advise,
prop-check. Reports are CSV rows or a JSON document; identical config + seed
gives byte-identical CSV (JSON differs only in the wall_time_s field and, across
machines, in "workers", the usable-core count Monte-Carlo calls may fork to).
--threads is accepted and ignored: large Monte-Carlo chunks run in forked
processes, one per core of the CPU affinity mask (taskset -c 0 runs them
serially), and merge in index order, so results are the same bits for any
core count. Every route's declared peak bytes are checked, before anything is
allocated, against one budget, the TPRS_MEM_CAP environment variable (bytes,
default 2^30); a set TPRS_DIM_CAP, the retired dimension cap, exits 2. Exit
codes: 0 success, 2 validation, 3 resource limit, 4 bound-check failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import re
import sys
import time
from typing import TYPE_CHECKING

from . import __version__
from .config import DEFAULT_KAPPA, check_domain, mem_cap
from .errors import DimensionCapExceeded, DomainCapExceeded, TprsError, ValidationError
from .growth import (
    TABLE_CLASSES, GrowthClass, advise_copies, advise_subset_size, check_closure,
    check_repetition_consistency, is_negligible, parse_bound_expr, table_lower_bound,
)

# Every other module is imported by the subcommand that runs it, so a start-up
# loads only what its subcommand uses (a CSV negl-check never loads numpy).
if TYPE_CHECKING:
    from .ensembles import EnsembleSpec
    from .linalg import PartitionSpec
    from .resources import ResourceMeasure

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RESOURCE = 3
EXIT_BOUND_FAIL = 4

GLOBAL_DEFAULTS = {
    "seed": 0,
    "samples": 10000,
    "threads": 1,
    "format": "csv",
    "out": None,
    "kappa": DEFAULT_KAPPA,
    "alpha": 3,
}

_MEASURE_ALIASES = {"magic": "stabilizer-renyi", "entanglement": "entanglement-entropy"}


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v + 0.0, ".12g")  # +0.0 normalizes negative zero
    return str(v)


def _write_report(resolved: dict, columns: list[str], rows: list[dict], wall_time: float) -> str:
    if resolved["format"] == "json":
        from .sampling import usable_cores

        doc = {
            "config": {k: v for k, v in resolved.items() if k != "out"},
            "version": __version__,
            "rows": rows,
            "wall_time_s": wall_time,
            "workers": usable_cores(),
        }
        return json.dumps(doc, sort_keys=True, indent=2, default=str) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(row.get(c)) for c in columns])
    return buf.getvalue()


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _ints(text: str, sep: str, what: str, count: int | None = None) -> list[int]:
    """Integers of a ``sep``-separated list; malformed text is a validation error."""
    try:
        values = [int(x) for x in text.split(sep)]
    except ValueError:
        values = None
    if values is None or (count is not None and len(values) != count):
        raise ValidationError(f"{what}, got {text!r}")
    return values


def _parse_partition(text: str | None, n: int) -> PartitionSpec:
    from .linalg import PartitionSpec

    if text is None:
        return PartitionSpec(n // 2, n - n // 2) if n >= 2 else PartitionSpec(1, 1)
    return PartitionSpec(*_ints(text, ":", "partition must be A:B", 2))


def _parse_measure(name: str, n: int, partition: str | None, alpha: int) -> ResourceMeasure:
    from .resources import ResourceMeasure

    name = _MEASURE_ALIASES.get(name, name)
    # a given partition goes to every measure, whose rule refuses it where the measure takes none
    partitioned = partition is not None or name in ("entanglement-entropy", "collision-entanglement")
    part = _parse_partition(partition, n) if partitioned else None
    return ResourceMeasure(name, partition=part, alpha=alpha if name == "stabilizer-renyi" else None)


def _parse_ensemble(text: str, n: int, t: int, seed: int) -> EnsembleSpec:
    """kind[:m=VALUE], e.g. 'haar' or 'subset-phase-true-random:m=4'."""
    from .ensembles import ENSEMBLE_KINDS, EnsembleSpec

    kind, _, rest = text.partition(":")
    m = None
    if rest:
        for item in rest.split(","):
            key, _, val = item.partition("=")
            if key.strip() == "m":
                (m,) = _ints(val, ",", "ensemble parameter m must be an integer", 1)
            else:
                raise ValidationError(f"unknown ensemble parameter {key!r}")
    if kind not in ENSEMBLE_KINDS:
        raise ValidationError(f"unknown ensemble kind {kind!r}; choose from {ENSEMBLE_KINDS}")
    return EnsembleSpec(kind, n, m=m, t=t, seed=seed)


def _int_list(text: str) -> list[int]:
    if ".." in text:
        lo, hi = _ints(text, "..", "range must be lo..hi", 2)
        return list(range(lo, hi + 1))
    return _ints(text, ",", "expected a comma list of integers")


# ---------------------------------------------------------------------------
# Subcommand implementations (each returns (columns, rows, exit_code))


def _cmd_build(resolved: dict) -> tuple[list[str], list[dict], int]:
    import numpy as np

    from .ensembles import SubsetSpec, build_subset_phase_state, build_subset_state
    from .randprims import PhaseFunction, RngSeed

    n = resolved.get("n")
    kind = resolved["kind"]
    seed = RngSeed(resolved["seed"])
    if resolved.get("members"):
        spec = SubsetSpec.from_bitstrings(resolved["members"].split(","))
        if n and spec.n != n:
            raise ValidationError("member width disagrees with --n")
    else:
        if not resolved.get("m") or not n:
            raise ValidationError("provide --members, or both --n and --m")
        if n < 1 or not 1 <= resolved["m"] <= 2**n:
            raise ValidationError("need n >= 1 and 1 <= m <= 2^n")
        rng = seed.generator(0)
        members = rng.choice(check_domain(n), size=resolved["m"], replace=False)
        spec = SubsetSpec(n, tuple(int(x) for x in members))
    if kind == "subset":
        state = build_subset_state(spec)
    elif kind == "subset-phase":
        phase_kind = resolved.get("phase", "zero")
        if phase_kind == "zero":
            f = PhaseFunction.zero(spec.n)
        elif phase_kind == "table":
            f = PhaseFunction.random_table(spec.n, seed.generator(1))
        else:
            f = PhaseFunction.keyed_from_rng(spec.n, seed.generator(1))
        state = build_subset_phase_state(spec, f)
    else:
        raise ValidationError("kind must be subset or subset-phase")
    rows = []
    for idx in np.flatnonzero(np.abs(state.amps) > 0):
        amp = state.amps[idx]
        rows.append(
            {
                "index": int(idx),
                "bitstring": format(int(idx), f"0{spec.n}b"),
                "re": float(amp.real),
                "im": float(amp.imag),
            }
        )
    norm = float(np.linalg.norm(state.amps))
    for row in rows:
        row["norm"] = norm
        row["support"] = len(rows)
    return ["index", "bitstring", "re", "im", "norm", "support"], rows, EXIT_OK


def _cmd_distance(resolved: dict) -> tuple[list[str], list[dict], int]:
    from .bounds import verify_distance_bound

    kind = resolved["kind"]
    n, t = resolved["n"], resolved["t"]
    if kind == "subset-phase" and resolved.get("mexp"):
        sizes = [2**e for e in _int_list(resolved["mexp"])]
    elif resolved.get("m"):
        sizes = _int_list(resolved["m"])
    else:
        raise ValidationError("provide --m (or --mexp for the subset-phase kind)")
    report = verify_distance_bound(kind, n, sizes, t)
    rows = []
    for r in report.rows:  # the row's fields: size, lhs, rhs, margin, passed, fitted
        rows.append(
            {
                "kind": kind,
                "n": n,
                "t": t,
                **dataclasses.asdict(r),
                "c1": report.constants.get("c1", report.constants.get("c")),
                "c2": report.constants.get("c2"),
                "overall_slope": report.overall_slope,
                "dominated_slope": report.dominated_slope,
            }
        )
    code = EXIT_OK if report.all_passed else EXIT_BOUND_FAIL
    columns = ["kind", "n", "t", "size", "lhs", "rhs", "margin", "passed", "fitted", "c1", "c2", "overall_slope", "dominated_slope"]
    return columns, rows, code


def _cmd_gap(resolved: dict) -> tuple[list[str], list[dict], int]:
    from .resources import estimate_gap

    n, t, seed = resolved["n"], 1, resolved["seed"]
    measure = _parse_measure(resolved["measure"], n, resolved.get("partition"), resolved["alpha"])
    e1 = _parse_ensemble(resolved["e1"], n, t, seed)
    e2 = _parse_ensemble(resolved["e2"], n, t, seed)
    rep = estimate_gap(measure, e1, e2, resolved["samples"], seed=seed)
    table_bound = None
    if resolved.get("T"):
        try:
            table_bound = table_lower_bound(
                GrowthClass.parse(resolved["T"]), measure.resource, n, kappa=resolved["kappa"], alpha=resolved["alpha"]
            )
        except TprsError:
            table_bound = None
    row = {
        "measure": rep.measure,
        "n": n,
        "T": resolved.get("T") or "",
        "e1": resolved["e1"],
        "e2": resolved["e2"],
        "mean_high": rep.e_high[0],
        "se_high": rep.e_high[1],
        "mean_low": rep.e_low[0],
        "se_low": rep.e_low[1],
        "delta": rep.delta,
        "stderr": rep.stderr,
        "table_bound": table_bound,
        "samples": rep.samples,
        "seed": seed,
    }
    columns = list(row.keys())
    return columns, [row], EXIT_OK


def _sweep_source(T: GrowthClass, n: int, seed: int) -> EnsembleSpec | None:
    """The advised low ensemble of a sweep row, None where T advises no subset size."""
    from .ensembles import EnsembleSpec

    try:
        m = advise_subset_size(T, n).m
    except TprsError:
        return None
    return EnsembleSpec("subset-phase-true-random", n, m=m, t=1, seed=seed)


def _cmd_sweep(resolved: dict) -> tuple[list[str], list[dict], int]:
    from .resources import aggregate_measure, haar_expected
    from .sampling import paired_value_means

    classes = [c.strip() for c in resolved["classes"].split(",")]
    ns = _int_list(resolved["n"])
    kappa, alpha = resolved["kappa"], resolved["alpha"]
    rows = []
    measured = []  # (row index, measure, source) of the rows measured below
    chain_ok = True
    for n in ns:
        measure = _parse_measure(resolved["measure"], n, resolved.get("partition"), alpha)
        prev = None
        ordered = [c for c in TABLE_CLASSES if c in classes] + [c for c in classes if c not in TABLE_CLASSES]
        for cname in ordered:
            T = GrowthClass.parse(cname)
            bound = table_lower_bound(T, measure.resource, n, kappa=kappa, alpha=alpha)
            if prev is not None and cname in TABLE_CLASSES and bound < prev - 1e-12:
                chain_ok = False
            if cname in TABLE_CLASSES:
                prev = bound
            spec = _sweep_source(T, n, resolved["seed"])
            if spec is not None:
                measured.append((len(rows), measure, spec))
            ref = haar_expected(measure.name, n, part=measure.partition, alpha=measure.alpha)
            rows.append(
                {
                    "measure": measure.label(),
                    "T": cname,
                    "n": n,
                    "bound": bound,
                    "measured": None,
                    "measured_se": None,
                    "haar_ref": ref.value,
                    "haar_ref_units": ref.units,
                    "delta": None,
                    "kappa": kappa,
                    "alpha": measure.alpha,
                }
            )
    if measured:
        # one call for every measured row: each source draws from its own
        # per-chunk generators, so a row reads what a call of its own would
        _, measures, sources = zip(*measured)
        accs = paired_value_means(
            resolved["seed"], resolved["samples"], tuple(m.statistic for m in measures), sources=sources,
            costs=tuple(m.cost for m in measures),
        )
        for (i, measure, _), acc in zip(measured, accs):
            mean, se = aggregate_measure(measure, acc)
            rows[i].update(measured=mean, measured_se=se, delta=abs(rows[i]["haar_ref"] - mean))
    columns = ["measure", "T", "n", "bound", "measured", "measured_se", "haar_ref", "haar_ref_units", "delta", "kappa", "alpha"]
    return columns, rows, EXIT_OK if chain_ok else EXIT_BOUND_FAIL


def _cmd_hybrid(resolved: dict) -> tuple[list[str], list[dict], int]:
    from .distinguishers import hybrid_experiment

    names = None
    if resolved.get("distinguishers"):
        names = tuple(s.strip() for s in resolved["distinguishers"].split(","))
    rep = hybrid_experiment(
        n=resolved["n"],
        m=resolved["m"],
        t=resolved["t"],
        seed=resolved["seed"],
        samples=resolved["samples"],
        names=names,
    )
    rows = []
    for leg in rep.legs:
        rows.append(
            {
                "n": rep.n,
                "m": rep.m,
                "t": rep.t,
                "distinguisher": leg.report.distinguisher,
                "pair": leg.pair,
                "adv": leg.report.adv,
                "stderr": leg.report.stderr,
                "p1": leg.report.p1,
                "p2": leg.report.p2,
                "budget_ok": leg.report.budget_ok,
                "threshold": leg.report.threshold,
                "samples": leg.report.samples,
                "triangle_ok": rep.triangle_ok,
            }
        )
    columns = list(rows[0].keys())
    return columns, rows, EXIT_OK if rep.triangle_ok else EXIT_BOUND_FAIL


def _cmd_negl_check(resolved: dict) -> tuple[list[str], list[dict], int]:
    eta = parse_bound_expr(resolved["eta"])
    T = GrowthClass.parse(resolved["T"])
    rep = is_negligible(eta, T)
    rows = [
        {
            "check": "negligible",
            "subject": f"eta={resolved['eta']} vs T={resolved['T']}",
            "verdict": rep.verdict,
            "rule": rep.rule,
        }
    ]
    if resolved.get("repeats"):
        R = GrowthClass.parse(resolved["repeats"])
        cl = check_closure(T, R)
        rows.append(
            {
                "check": "closure",
                "subject": f"negl_{resolved['T']} with repeats {resolved['repeats']}",
                "verdict": "holds" if cl.holds else "fails",
                "rule": cl.rule if cl.holds else f"{cl.rule}; {cl.counterexample}",
            }
        )
        co = check_repetition_consistency(T, R)
        rows.append(
            {
                "check": "consistency",
                "subject": f"T={resolved['T']} with repeats {resolved['repeats']}",
                "verdict": "holds" if co.holds else "fails",
                "rule": co.rule if co.holds else f"{co.rule}; {co.counterexample}",
            }
        )
    return ["check", "subject", "verdict", "rule"], rows, EXIT_OK


def _cmd_advise(resolved: dict) -> tuple[list[str], list[dict], int]:
    T = GrowthClass.parse(resolved["T"])
    n = resolved["n"]
    advice = advise_subset_size(T, n)
    t = advise_copies(T, n)
    row = {"T": resolved["T"], "n": n, "m": advice.m, "m_exp": advice.m_exp, "t": t, "mem_cap": mem_cap()}
    return list(row.keys()), [row], EXIT_OK


def _cmd_prop_check(resolved: dict) -> tuple[list[str], list[dict], int]:
    from .bounds import empirical_prop_check

    n, seed = resolved["n"], resolved["seed"]
    T = GrowthClass.parse(resolved["T"])
    e_high = _parse_ensemble(resolved["e1"], n, 1, seed)
    e_low = _parse_ensemble(resolved["e2"], n, 1, seed)
    part = _parse_partition(resolved.get("partition"), n) if resolved.get("partition") else None
    rep = empirical_prop_check(
        resolved["prop"], e_high, e_low, T, resolved["samples"],
        seed=seed, part=part, alpha=resolved["alpha"],
    )
    row = dataclasses.asdict(rep)  # prop, measure, eta_hat, ..., verdict, threshold, samples
    code = EXIT_OK if rep.verdict in ("passed", "non-binding", "premise-violated") else EXIT_BOUND_FAIL
    return list(row.keys()), [row], code


# ---------------------------------------------------------------------------
# Argument parsing


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process (parsing leaves it unchanged)."""
    shared = argparse.ArgumentParser(add_help=False)
    # SUPPRESS keeps a subcommand's re-parse from clobbering values given
    # before the subcommand name; flags are accepted in either position
    shared.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    shared.add_argument("--samples", type=int, default=argparse.SUPPRESS)
    shared.add_argument(
        "--threads", type=int, default=argparse.SUPPRESS,
        help="accepted and ignored: chunks fork to every core of the CPU affinity mask",
    )
    shared.add_argument("--out", default=argparse.SUPPRESS)
    shared.add_argument("--format", choices=("csv", "json"), default=argparse.SUPPRESS)
    shared.add_argument("--config", default=argparse.SUPPRESS, help="JSON config file; flags override")
    shared.add_argument(
        "--print-config", action="store_true", default=argparse.SUPPRESS,
        help="print the resolved config and exit",
    )
    shared.add_argument("--kappa", type=float, default=argparse.SUPPRESS)
    shared.add_argument("--alpha", type=int, default=argparse.SUPPRESS)

    parser = argparse.ArgumentParser(prog="tprslab", description=__doc__, parents=[shared])
    sub = parser.add_subparsers(dest="command")

    def add_sub(name: str, help_text: str):
        return sub.add_parser(name, help=help_text, parents=[shared])

    p = add_sub("build", "build a state and print amplitudes")
    p.add_argument("--kind", default="subset", choices=("subset", "subset-phase"))
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--members", default=None, help="comma-separated bit strings")
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--phase", default="zero", choices=("zero", "table", "keyed"))

    p = add_sub("distance", "exact moment-to-Haar distances vs bound")
    p.add_argument("--kind", required=True, choices=("subset", "subset-phase"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--m", default=None, help="comma list or lo..hi of subset sizes")
    p.add_argument("--mexp", default=None, help="comma list of size exponents (phase kind)")

    p = add_sub("gap", "resource gap between two ensembles")
    p.add_argument("--measure", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--e1", required=True)
    p.add_argument("--e2", required=True)
    p.add_argument("--partition", default=None)
    p.add_argument("--T", default=None, help="runtime-class label echoed into the report rows")

    p = add_sub("sweep", "table of bounds across runtime classes")
    p.add_argument("--measure", required=True)
    p.add_argument("--classes", default=",".join(TABLE_CLASSES))
    p.add_argument("--n", required=True, help="comma list or lo..hi")
    p.add_argument("--partition", default=None)

    p = add_sub("hybrid", "pairwise advantages keyed/true-random/Haar")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--t", type=int, default=2)
    p.add_argument("--distinguishers", default=None, help="comma list of registry names (default: all two-copy)")

    p = add_sub("negl-check", "negligibility / closure / consistency verdicts")
    p.add_argument("--eta", required=True)
    p.add_argument("--T", required=True)
    p.add_argument("--repeats", default=None)

    p = add_sub("advise", "advised subset size and copy count")
    p.add_argument("--T", required=True)
    p.add_argument("--n", type=int, required=True)

    p = add_sub("prop-check", "empirical resource-bound pipeline check")
    p.add_argument("--prop", type=int, required=True, choices=(7, 8, 9))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--T", required=True)
    p.add_argument("--e1", required=True, help="high-resource ensemble")
    p.add_argument("--e2", required=True, help="low-resource ensemble")
    p.add_argument("--partition", default=None)
    return parser


_COMMANDS = {
    "build": _cmd_build,
    "distance": _cmd_distance,
    "gap": _cmd_gap,
    "sweep": _cmd_sweep,
    "hybrid": _cmd_hybrid,
    "negl-check": _cmd_negl_check,
    "advise": _cmd_advise,
    "prop-check": _cmd_prop_check,
}


_NOT_SETTINGS = ("help", "config", "print_config")


def _option_tables(parser: argparse.ArgumentParser) -> dict:
    """Option actions by dest: the top level's under None, each subcommand's under its name."""
    tables = {None: {}}
    for action in parser._actions:
        tables[None][action.dest] = action
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                tables[name] = {a.dest: a for a in sub._actions}
    return tables


def _config_value(key: str, value, action: argparse.Action | None):
    """A config-file value converted as the parser converts the same text on
    the command line; None only where the setting defaults to None."""
    if action is None:
        return value
    if value is None and GLOBAL_DEFAULTS.get(key, action.default) is None:
        return None
    if isinstance(value, (str, int, float)) and not isinstance(value, bool):
        try:
            converted = (action.type or str)(str(value))
        except ValueError:
            pass
        else:
            if action.choices is None or converted in action.choices:
                return converted
    raise ValidationError(f"config key {key!r} has an invalid value {value!r}")


def resolve_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> dict:
    """defaults < config file < explicit CLI flags.

    Config-file keys must be options of the parser (or the reported
    ``mem_cap``); values are typed by the resolved subcommand's option, else
    the shared one, and a key only another subcommand knows is kept as given.
    """
    resolved = dict(GLOBAL_DEFAULTS)
    if getattr(args, "config", None):
        with open(args.config) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValidationError("config file must hold a JSON object")
        tables = _option_tables(parser)
        known = set().union(*tables.values()).union(GLOBAL_DEFAULTS, ["mem_cap"]).difference(_NOT_SETTINGS)
        unknown = sorted(set(doc) - known)
        if unknown:
            raise ValidationError(f"unknown config keys {unknown}")
        command = args.command or _config_value("command", doc.get("command"), tables[None]["command"])
        own = tables.get(command, {})
        for key, value in doc.items():
            resolved[key] = _config_value(key, value, own.get(key, tables[None].get(key)))
    for key, value in vars(args).items():
        if key in ("config", "print_config"):
            continue
        if value is not None:
            resolved[key] = value
    resolved.setdefault("command", None)
    resolved["mem_cap"] = mem_cap()
    return resolved


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse reads a negative number other than -digits or -digits.digits (-1e-3, -inf)
    # as an option, so each value of that form is attached to the option before it
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1].startswith("--") and "=" not in argv[i - 1] and re.match(r"-\.?\d|-inf|-nan", argv[i], re.I):
            argv[i - 1 : i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    args = parser.parse_args(argv)
    try:
        resolved = resolve_config(args, parser)
    except (OSError, json.JSONDecodeError, TprsError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    if getattr(args, "print_config", False):
        print(json.dumps(resolved, sort_keys=True, indent=2, default=str))
        return EXIT_OK
    command = resolved.get("command")
    if not command:
        parser.print_help()
        return EXIT_VALIDATION
    start = time.perf_counter()
    try:
        columns, rows, code = _COMMANDS[command](resolved)
    except (DimensionCapExceeded, DomainCapExceeded) as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except TprsError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    wall = time.perf_counter() - start
    _emit(_write_report(resolved, columns, rows, wall), resolved.get("out"))
    return code


if __name__ == "__main__":
    sys.exit(main())
