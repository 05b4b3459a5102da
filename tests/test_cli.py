import contextlib
import csv
import io
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tprslab.cli import main
from tprslab.growth import GrowthClass, table_lower_bound


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestBuild:
    def test_subset_amplitudes(self, capsys):
        code, out, _ = run(["build", "--kind", "subset", "--n", "2", "--members", "00,11"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("index,bitstring,re,im")
        assert len(lines) == 3
        assert "0.707106781187" in lines[1]

    def test_phase_zero_matches_subset(self, capsys):
        _, plain, _ = run(["build", "--kind", "subset", "--n", "2", "--members", "01,10"], capsys)
        _, phased, _ = run(
            ["build", "--kind", "subset-phase", "--phase", "zero", "--n", "2", "--members", "01,10"],
            capsys,
        )
        assert plain == phased

    def test_duplicate_member_rejected(self, capsys):
        code, _, err = run(["build", "--kind", "subset", "--n", "2", "--members", "00,00"], capsys)
        assert code == 2
        assert "distinct" in err


class TestDistance:
    def test_subset_rows(self, capsys, tmp_path):
        out_file = tmp_path / "d.csv"
        code, _, _ = run(
            ["--out", str(out_file), "distance", "--kind", "subset", "--n", "3", "--t", "2", "--m", "2,4,6"],
            capsys,
        )
        assert code == 0
        lines = out_file.read_text().strip().splitlines()
        assert len(lines) == 4  # header + 3 rows
        assert all("true" in line for line in lines[1:])

    def test_phase_rows_decreasing(self, capsys):
        code, out, _ = run(
            ["distance", "--kind", "subset-phase", "--n", "3", "--t", "2", "--mexp", "1,2"], capsys
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        lhs = [float(r[4]) for r in rows]
        assert lhs[0] > lhs[1]

    def test_infeasible_exact_is_resource_error(self, capsys):
        # the t = 7 route declares about 17 GB of level arrays, past the default budget
        code, _, err = run(["distance", "--kind", "subset", "--n", "8", "--t", "7", "--m", "4"], capsys)
        assert code == 3
        assert "TPRS_MEM_CAP" in err

    def test_single_copy_distance_beyond_enumeration(self, capsys):
        # C(256, 4) subsets were too many to enumerate; at t = 1 the exact
        # distance to I/d is (m - 1) / 2^n
        code, out, _ = run(["distance", "--kind", "subset", "--n", "8", "--t", "1", "--m", "4"], capsys)
        assert code == 0
        row = dict(zip(*[line.split(",") for line in out.strip().splitlines()]))
        assert float(row["lhs"]) == pytest.approx(3 / 256, abs=1e-12)


class TestGapAndReproducibility:
    def test_same_ensemble_zero(self, capsys):
        code, out, _ = run(
            [
                "--samples", "300", "--seed", "5",
                "gap", "--measure", "coherence-re", "--n", "2", "--e1", "haar", "--e2", "haar",
            ],
            capsys,
        )
        assert code == 0
        header, row = (line.split(",") for line in out.strip().splitlines())
        assert float(row[header.index("delta")]) == 0.0

    def test_csv_byte_identical_across_threads(self, tmp_path, capsys):
        argv = [
            "--samples", "800", "--seed", "9",
            "gap", "--measure", "entanglement-entropy", "--n", "3",
            "--e1", "haar", "--e2", "subset-phase-true-random:m=4", "--partition", "1:2",
        ]
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["--threads", "1", "--out", str(f1)] + argv) == 0
        assert main(["--threads", "4", "--out", str(f2)] + argv) == 0
        assert f1.read_bytes() == f2.read_bytes()

    def test_gap_table_bound_column(self, capsys):
        code, out, _ = run(
            [
                "--samples", "300", "--seed", "8",
                "gap", "--measure", "coherence-re", "--n", "4",
                "--e1", "haar", "--e2", "subset-phase-true-random:m=4", "--T", "log",
            ],
            capsys,
        )
        assert code == 0
        header, row = (line.split(",") for line in out.strip().splitlines())
        assert row[header.index("T")] == "log"
        assert float(row[header.index("table_bound")]) == 2.0  # kappa + log2 log2 4

    @pytest.mark.parametrize("kappa", ["nan", "inf", "-inf"])
    def test_non_finite_kappa(self, kappa, tmp_path, capsys):
        # the sweep's bounds need kappa and exit 2; a gap's table_bound is empty, as for a class with no row
        sweep = ["sweep", "--measure", "coherence-re", "--n", "8", "--classes", "log", "--samples", "50"]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kappa": float(kappa)}))
        for argv in (sweep + [f"--kappa={kappa}"], ["--config", str(cfg)] + sweep):
            code, out, err = run(argv, capsys)
            assert code == 2 and out == "" and "kappa must be finite" in err
        gap = ["--samples", "50", "gap", "--measure", "coherence-re", "--n", "4", "--e1", "haar",
               "--e2", "subset-phase-true-random:m=4", "--T", "log", f"--kappa={kappa}"]
        code, out, _ = run(gap, capsys)
        header, row = (line.split(",") for line in out.strip().splitlines())
        assert code == 0 and row[header.index("table_bound")] == ""

    @pytest.mark.parametrize("value", ["-1e-3", "-1E+1", "-2.5e0"])
    def test_negative_values_parse_spaced(self, value, capsys):
        # argparse alone reads -1e-3 as an option; the spaced form must print what the "=" form does
        sweep = ["sweep", "--measure", "coherence-re", "--n", "4", "--classes", "log", "--samples", "20"]
        spaced = run(sweep + ["--kappa", value], capsys)
        assert spaced == run(sweep + [f"--kappa={value}"], capsys)
        assert spaced[0] == 0 and spaced[1].splitlines()[1].split(",")[-2] == format(float(value), ".12g")

    def test_negative_infinity_kappa_spaced(self, capsys):
        code, out, err = run(["sweep", "--measure", "coherence-re", "--n", "8", "--classes", "log", "--kappa", "-inf"],
                             capsys)
        assert code == 2 and out == "" and "kappa must be finite" in err

    def test_sweep_byte_identical_reruns(self, tmp_path):
        argv = [
            "--samples", "150", "--seed", "6",
            "sweep", "--measure", "coherence-re", "--n", "8", "--classes", "log,linear",
        ]
        f1, f2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        assert main(["--out", str(f1)] + argv) == 0
        assert main(["--threads", "2", "--out", str(f2)] + argv) == 0
        assert f1.read_bytes() == f2.read_bytes()

    def test_json_report_shape(self, capsys):
        code, out, _ = run(
            [
                "--format", "json", "--samples", "200",
                "gap", "--measure", "coherence-hs", "--n", "2", "--e1", "haar", "--e2", "stabilizer-orbit",
            ],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["samples"] == 200
        assert "wall_time_s" in doc
        assert len(doc["rows"]) == 1


class TestSweep:
    def test_ordering_and_columns(self, capsys):
        code, out, _ = run(
            ["--samples", "100", "sweep", "--measure", "coherence-re", "--n", "16"], capsys
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("measure,T,n,bound")
        bounds = [float(line.split(",")[3]) for line in lines[1:]]
        assert bounds == sorted(bounds)

    def test_entanglement_two_classes(self, capsys):
        code, out, _ = run(
            [
                "--samples", "100", "--seed", "2",
                "sweep", "--measure", "entanglement-entropy", "--n", "8", "--classes", "log,linear",
            ],
            capsys,
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert float(rows[0][3]) <= float(rows[1][3])

    def test_magic_alpha_scaling(self, capsys):
        # magic bounds are the coherence bounds divided by alpha - 1 = 2
        bounds = {}
        for measure in ("magic", "coherence-re"):
            code, out, _ = run(
                ["--samples", "100", "sweep", "--measure", measure, "--n", "8", "--classes", "log,linear"], capsys
            )
            assert code == 0
            bounds[measure] = [float(line.split(",")[3]) for line in out.strip().splitlines()[1:]]
        assert bounds["magic"] == pytest.approx([b / 2 for b in bounds["coherence-re"]])
        # the rows an n = 16 sweep printed before it measured magic only within reach
        magic = [table_lower_bound(GrowthClass.parse(c), "magic", 16, alpha=3) for c in ("log", "linear")]
        assert magic == pytest.approx([3.0 / 2, 5.0 / 2])

    def test_every_sample_asked_for_is_drawn(self, capsys):
        from tprslab import cli
        from tprslab.ensembles import EnsembleSpec
        from tprslab.growth import advise_subset_size
        from tprslab.resources import ResourceMeasure, aggregate_measure
        from tprslab.sampling import paired_value_means

        samples = 2500  # above the 2,000 an earlier sweep used at most
        code, out, _ = run(["--samples", str(samples), "--seed", "3", "sweep", "--measure", "coherence-re", "--n", "8",
                            "--classes", "log"], capsys)
        assert code == 0
        measure = ResourceMeasure("coherence-re")
        spec = EnsembleSpec("subset-phase-true-random", 8, m=advise_subset_size(GrowthClass("log"), 8).m, seed=3)
        (acc,) = paired_value_means(3, samples, (measure.statistic,), sources=(spec,), costs=(measure.cost,))
        assert acc.count == samples
        row = out.splitlines()[1].split(",")
        assert row[4:6] == [cli._fmt(v) for v in aggregate_measure(measure, acc)]

    def test_chain_violation_exits_4(self, capsys):
        # below n = 8 the rendered class chain genuinely inverts between the
        # linearithmic and poly rows; the sweep must surface that, not mask it
        code, out, _ = run(
            ["--samples", "50", "sweep", "--measure", "coherence-re", "--n", "4"], capsys
        )
        assert code == 4


class TestOtherCommands:
    def test_hybrid(self, capsys):
        code, out, _ = run(["--samples", "400", "--seed", "3", "hybrid", "--n", "2", "--m", "2"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) > 1
        assert all(line.endswith("true") for line in lines[1:])  # triangle_ok column

    def test_negl_check(self, capsys):
        code, out, _ = run(
            ["negl-check", "--eta", "1/(n*log2(n))", "--T", "linear", "--repeats", "const"], capsys
        )
        assert code == 0
        assert "yes" in out
        assert "holds" in out

    def test_readme_negl_check_line_writes_no_negative_zero(self, capsys):
        from .test_imports import readme_cli_line

        code, out, _ = run(readme_cli_line("negl-check"), capsys)
        assert code == 0
        (row, *_) = csv.DictReader(io.StringIO(out))
        assert row["rule"] == "eta * n tends to zero (order gap (0.0, 1.0, 0.0))"
        code, out, _ = run(["negl-check", "--eta", "1/n", "--T", "log"], capsys)
        assert code == 0 and "(order gap (1.0, -1.0, 0.0))" in out
        assert "-0.0" not in out

    def test_negl_check_fails_and_undecided_paths(self, capsys):
        code, out, _ = run(
            ["negl-check", "--eta", "1/(n*n)", "--T", "linear", "--repeats", "linear"], capsys
        )
        assert code == 0
        assert "fails" in out
        code, out, _ = run(["negl-check", "--eta", "1/log2(n+1)", "--T", "log"], capsys)
        assert code == 0
        assert "undecided" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["negl-check", "--eta", "(" * 3000 + "n" + ")" * 3000, "--T", "linear"],
            ["negl-check", "--eta", "+".join(["1/n"] * 1000), "--T", "linear"],
            ["negl-check", "--eta", "1/n", "--T", "polyf:" * 2000 + "log"],
        ],
        ids=["3000-nested-parentheses", "1000-term-sum", "2000-nested-polyf"],
    )
    def test_negl_check_over_deep_input_exits_2(self, argv, capsys):
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("validation error:") and "Traceback" not in err

    def test_negl_check_500_term_sum(self, capsys):
        eta = "+".join(["1/n"] * 500)
        code, out, _ = run(["negl-check", "--eta", eta, "--T", "polylog"], capsys)
        assert code == 0
        leaf = "decay order strictly dominates every power of log n"
        rule = leaf
        for _ in range(499):
            rule = f"additivity: [{rule}] + [{leaf}]"
        assert out == f"check,subject,verdict,rule\nnegligible,eta={eta} vs T=polylog,yes,{rule}\n"

    def test_advise(self, capsys):
        code, out, _ = run(["advise", "--T", "log", "--n", "16"], capsys)
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert row[2] == "16" and row[3] == "4"

    def test_readme_advise_line_advises_two_copies_at_least(self, capsys):
        from .test_imports import readme_cli_line

        code, out, _ = run(readme_cli_line("advise"), capsys)
        assert code == 0
        (row,) = csv.DictReader(io.StringIO(out))
        assert int(row["t"]) >= 2

    def test_prop_check(self, capsys):
        code, out, _ = run(
            [
                "--samples", "1200", "--seed", "4",
                "prop-check", "--prop", "7", "--n", "3", "--T", "log",
                "--e1", "haar", "--e2", "subset-phase-true-random:m=4",
            ],
            capsys,
        )
        assert code == 0
        assert "passed" in out


class TestConfigHandling:
    def test_print_config(self, capsys):
        code, out, _ = run(["--print-config"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["samples"] == 10000
        assert doc["format"] == "csv"
        assert doc["mem_cap"] == 2**30

    def test_config_file_and_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"samples": 123, "seed": 7}))
        code, out, _ = run(["--config", str(cfg), "--print-config"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["samples"] == 123 and doc["seed"] == 7
        code, out, _ = run(["--config", str(cfg), "--samples", "55", "--print-config"], capsys)
        assert json.loads(out)["samples"] == 55

    def test_flags_accepted_after_subcommand(self, capsys):
        code, out, _ = run(["advise", "--T", "log", "--n", "16", "--format", "json"], capsys)
        assert code == 0
        assert json.loads(out)["rows"][0]["m"] == 16

    def test_print_config_round_trips_as_config_file(self, tmp_path, capsys):
        code, out, _ = run(["--samples", "777", "--kappa", "1.5", "--print-config"], capsys)
        assert code == 0
        cfg = tmp_path / "resolved.json"
        cfg.write_text(out)
        code, out2, _ = run(["--config", str(cfg), "--print-config"], capsys)
        assert code == 0
        assert json.loads(out2) == json.loads(out)

    @pytest.mark.parametrize(
        "doc",
        [{"samples": "x"}, {"samples": 2.5}, {"samples": None}, {"samples": True}, {"format": "xml"},
         {"n": "x"}, {"command": "nope"}, {"bogus": 1}, {"print_config": True}, [1]],
    )
    def test_bad_config_file_exits_2(self, doc, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        code, _, err = run(["--config", str(cfg), "gap", "--measure", "coherence-re", "--n", "3",
                            "--e1", "haar", "--e2", "haar", "--samples", "10"], capsys)
        assert code == 2
        assert err.startswith("config error:")

    def test_config_values_take_the_parser_types(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"samples": "12", "kappa": 2, "n": "16", "T": "log", "command": "advise"}))
        code, out, _ = run(["--config", str(cfg), "--print-config"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["samples"] == 12 and doc["kappa"] == 2.0 and doc["n"] == 16
        code, out, _ = run(["--config", str(cfg)], capsys)
        assert code == 0
        assert out.splitlines()[1].startswith("log,16,16,")

    def test_threads_config_is_accepted_and_changes_nothing(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"threads": 4}))
        code, out, _ = run(["--config", str(cfg), "--print-config"], capsys)
        assert code == 0 and json.loads(out)["threads"] == 4
        argv = ["--samples", "600", "--seed", "4", "gap", "--measure", "coherence-re", "--n", "4",
                "--e1", "haar", "--e2", "subset-phase-keyed:m=4"]
        f1, f2 = tmp_path / "with.csv", tmp_path / "without.csv"
        assert main(["--config", str(cfg), "--out", str(f1)] + argv) == 0
        assert main(["--out", str(f2)] + argv) == 0
        assert f1.read_bytes() == f2.read_bytes()

    def test_budget_constant_is_not_an_option(self, tmp_path, capsys):
        # budget_ok always reads config.DEFAULT_BUDGET_CONSTANT, c = 10
        hybrid = ["hybrid", "--n", "3", "--m", "4", "--samples", "50"]
        for argv in (["--budget-constant", "0.001"] + hybrid, hybrid + ["--budget-constant", "0.001"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            out = capsys.readouterr()
            assert out.out == "" and "error:" in out.err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"budget_constant": 0.001}))
        code, out, err = run(["--config", str(cfg)] + hybrid, capsys)
        assert code == 2 and out == ""
        assert err.startswith("config error:") and "budget_constant" in err

    def test_unknown_ensemble_kind(self, capsys):
        code, _, err = run(
            ["gap", "--measure", "coherence-re", "--n", "2", "--e1", "haar", "--e2", "nope"], capsys
        )
        assert code == 2
        assert "kind" in err


class TestThreadIdentity:
    @pytest.mark.parametrize(
        "argv",
        [
            ["prop-check", "--prop", "7", "--n", "4", "--T", "log", "--e1", "haar", "--e2", "subset-phase-keyed:m=4"],
            ["prop-check", "--prop", "8", "--n", "4", "--T", "log", "--e1", "haar",
             "--e2", "subset-phase-true-random:m=4"],
            ["hybrid", "--n", "3", "--m", "4", "--distinguishers", "coherence,swap"],
        ],
    )
    def test_csv_byte_identical_for_1_2_4_threads(self, argv, tmp_path):
        outputs = []
        for threads in ("1", "2", "4"):
            path = tmp_path / f"t{threads}.csv"
            assert main(["--samples", "2500", "--seed", "13", "--threads", threads, "--out", str(path)] + argv) in (0, 4)
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]


class TestWorkerIdentity:
    """Forked chunk shares write the same CSV bytes as a serial run."""

    @pytest.fixture(autouse=True)
    def fork_every_chunk(self, monkeypatch):
        from tprslab import sampling

        monkeypatch.setattr(sampling, "FORK_MIN_MADDS", 0)
        self.monkeypatch = monkeypatch
        self.sampling = sampling

    def _csv(self, argv, workers, tmp_path):
        self.monkeypatch.setattr(self.sampling, "usable_cores", lambda: workers)
        path = tmp_path / f"w{workers}.csv"
        assert main(["--samples", "2500", "--seed", "17", "--out", str(path)] + argv) in (0, 4)
        return path.read_bytes()

    @pytest.mark.parametrize(
        "argv",
        [
            ["gap", "--measure", "coherence-re", "--n", "4", "--e1", "haar", "--e2", "subset-phase-keyed:m=4"],
            ["gap", "--measure", "entanglement-entropy", "--n", "4", "--e1", "haar", "--e2", "subset-keyed:m=4"],
            ["sweep", "--measure", "entanglement-entropy", "--n", "4..5", "--classes", "log,linear"],
            ["hybrid", "--n", "3", "--m", "4", "--distinguishers", "coherence,swap"],
            ["prop-check", "--prop", "7", "--n", "4", "--T", "log", "--e1", "haar", "--e2", "subset-phase-keyed:m=4"],
        ],
        ids=["gap-coherence", "gap-entanglement", "sweep", "hybrid", "prop-check-7"],
    )
    def test_csv_byte_identical_for_1_and_2_workers(self, argv, tmp_path):
        assert self._csv(argv, 1, tmp_path) == self._csv(argv, 2, tmp_path)

    def test_json_reports_workers_and_csv_does_not(self, tmp_path, capsys):
        argv = ["gap", "--measure", "coherence-re", "--n", "3", "--e1", "haar", "--e2", "subset-phase-keyed:m=4"]
        # the JSON run comes first: the report reads sampling.usable_cores, which _csv replaces
        code, out, _ = run(["--samples", "2500", "--seed", "17", "--format", "json"] + argv, capsys)
        doc = json.loads(out)
        assert code == 0 and doc["workers"] == len(os.sched_getaffinity(0))
        csv_text = self._csv(argv, 3, tmp_path).decode()
        assert "workers" not in csv_text.splitlines()[0].split(",")
        assert csv_text == self._csv(argv, 1, tmp_path).decode()


class TestErrorMapping:
    @pytest.mark.parametrize(
        "argv",
        [
            ["gap", "--measure", "entanglement-entropy", "--n", "4", "--e1", "haar", "--e2", "haar", "--partition", "a:b"],
            ["gap", "--measure", "entanglement-entropy", "--n", "4", "--e1", "haar", "--e2", "haar", "--partition", "1:1:2"],
            ["gap", "--measure", "coherence-re", "--n", "3", "--e1", "haar", "--e2", "subset-true-random:m=x"],
            ["sweep", "--measure", "coherence-re", "--n", "3..x"],
            ["distance", "--kind", "subset", "--n", "3", "--t", "2", "--m", "2,x"],
            ["distance", "--kind", "subset", "--n", "3", "--t", "2"],
            ["distance", "--kind", "subset", "--n", "3", "--t", "2", "--m", "2,2"],
            ["build", "--kind", "subset", "--n", "2", "--members", "0x,11"],
            ["build", "--kind", "subset", "--n", "2", "--m", "5"],
            ["--samples", "0", "gap", "--measure", "coherence-re", "--n", "3", "--e1", "haar", "--e2", "haar"],
            ["--samples", "0", "sweep", "--measure", "coherence-re", "--n", "4"],
        ],
    )
    def test_bad_input_exits_2(self, argv, capsys):
        code, _, err = run(argv, capsys)
        assert code == 2
        assert "validation error" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["gap", "--measure", "coherence-re", "--n", "4", "--e1", "haar", "--e2", "haar", "--partition", "2:3"],
            ["prop-check", "--prop", "7", "--n", "4", "--T", "log", "--e1", "haar",
             "--e2", "subset-phase-keyed:m=4", "--partition", "1:2"],
            ["sweep", "--measure", "coherence-re", "--n", "4", "--classes", "log", "--partition", "3:3"],
            ["gap", "--measure", "magic", "--n", "3", "--e1", "haar", "--e2", "haar", "--partition", "1:2"],
        ],
        ids=["gap", "prop-check", "sweep", "gap-magic"],
    )
    def test_partition_on_a_measure_without_one_exits_2(self, argv, capsys):
        code, out, err = run(argv + ["--samples", "20"], capsys)
        assert code == 2 and out == ""
        assert "takes no partition" in err and "Traceback" not in err

    def test_sweep_partition_that_misses_an_n_exits_2(self, capsys):
        code, out, err = run(["sweep", "--measure", "entanglement", "--n", "4..5", "--partition", "2:2"], capsys)
        assert code == 2
        assert out == ""
        assert "validation error: partition 2:2 does not cover 5 qubits" in err
        assert "Traceback" not in err

    def test_bad_budget_environment_exits_2(self, monkeypatch, capsys):
        monkeypatch.setenv("TPRS_MEM_CAP", "lots")
        code, _, err = run(["advise", "--T", "log", "--n", "16"], capsys)
        assert code == 2
        assert "TPRS_MEM_CAP" in err

    @pytest.mark.parametrize("value", ["4096", "lots"])
    def test_retired_dimension_cap_exits_2_naming_the_budget(self, value, monkeypatch, capsys):
        monkeypatch.setenv("TPRS_DIM_CAP", value)
        distance = ["distance", "--kind", "subset", "--n", "3", "--t", "2", "--m", "2"]
        for argv in (["advise", "--T", "log", "--n", "16"], distance):
            code, out, err = run(argv, capsys)
            assert code == 2 and out == ""
            assert "TPRS_DIM_CAP is retired; set TPRS_MEM_CAP" in err

    @pytest.mark.parametrize("exc", [ValueError, KeyError])
    def test_program_errors_are_not_relabelled(self, exc, monkeypatch):
        from tprslab import resources

        def broken(*args, **kwargs):
            raise exc("engine bug")

        monkeypatch.setattr(resources, "estimate_gap", broken)
        with pytest.raises(exc):
            main(["gap", "--measure", "coherence-re", "--n", "3", "--e1", "haar", "--e2", "haar"])

    def test_inconsistent_hybrid_leg_exits_4(self, monkeypatch, capsys):
        from tprslab import ensembles

        original = ensembles.sample_block

        def broken(spec, count, rng):
            # the direct leg's Haar draws come back as basis states
            block = original(spec, count, rng)
            if spec.kind == "haar" and spec.seed.seed == 1:
                block = 0 * block
                block[:, 0] = 1.0
            return block

        monkeypatch.setattr(ensembles, "sample_block", broken)
        code, out, _ = run(["--samples", "400", "--seed", "3", "hybrid", "--n", "2", "--m", "2"], capsys)
        assert code == 4
        assert all(line.endswith("false") for line in out.strip().splitlines()[1:])


class TestMagicReach:
    def test_gap_magic_beyond_dense_stack(self, capsys):
        code, out, _ = run(["--samples", "64", "gap", "--measure", "magic", "--n", "6", "--e1", "haar",
                            "--e2", "subset-phase-keyed:m=4"], capsys)
        assert code == 0
        row = out.splitlines()[1].split(",")
        assert row[0] == "stabilizer-renyi(3)" and float(row[5]) > float(row[7]) > 0.0

    def test_prop9_n5(self, capsys):
        code, out, _ = run(["--samples", "200", "prop-check", "--prop", "9", "--n", "5", "--T", "log",
                            "--e1", "haar", "--e2", "subset-phase-true-random:m=4"], capsys)
        assert code == 0
        assert out.splitlines()[1].split(",")[6] != ""

    def test_sweep_measures_magic_up_to_the_cap(self, monkeypatch, capsys):
        code, out, _ = run(["--samples", "2", "sweep", "--measure", "magic", "--n", "12", "--classes", "log"], capsys)
        assert code == 0
        assert out.splitlines()[1].split(",")[4] != ""
        from tprslab import ensembles

        def fail(*args):
            raise AssertionError("states drawn before every row was checked")

        monkeypatch.setattr(ensembles, "sample_block", fail)
        code, out, err = run(["--samples", "2", "sweep", "--measure", "magic", "--n", "12..13", "--classes", "log"], capsys)
        assert code == 3 and out == ""
        assert err.startswith("resource limit: Pauli power sums capped at n <= 12, got n = 13")

    def test_gap_magic_at_the_cap(self, capsys):
        code, out, _ = run(["--samples", "2", "gap", "--measure", "magic", "--n", "12", "--e1", "haar",
                            "--e2", "subset-phase-keyed:m=16"], capsys)
        assert code == 0
        row = out.splitlines()[1].split(",")
        assert float(row[5]) > float(row[7]) > 0.0

    @pytest.mark.parametrize(
        "argv",
        [
            ["gap", "--measure", "magic", "--n", "13", "--e1", "haar", "--e2", "haar"],
            ["prop-check", "--prop", "9", "--n", "13", "--T", "log", "--e1", "haar", "--e2", "haar"],
        ],
    )
    def test_magic_beyond_the_cap_exits_3(self, argv, monkeypatch, capsys):
        from tprslab import ensembles

        def fail(*args):
            raise AssertionError("states drawn beyond the cap")

        monkeypatch.setattr(ensembles, "sample_block", fail)
        code, _, err = run(["--samples", "4"] + argv, capsys)
        assert code == 3
        assert err.startswith("resource limit: Pauli power sums capped at n <= 12, got n = 13")


class TestSweepOneCall:
    """A sweep measures all its rows in one Monte-Carlo call, with the bits of one call per row."""

    @pytest.mark.parametrize(
        "measure,ns,classes",
        [
            ("magic", "4,5", "log,linear"),
            ("entanglement-entropy", "4..6", "log,linear,poly"),
            ("coherence-re", "4,6", "log,polylog,linear"),
        ],
    )
    def test_rows_match_one_call_per_row(self, measure, ns, classes, capsys):
        from tprslab import cli
        from tprslab.ensembles import EnsembleSpec
        from tprslab.growth import GrowthClass, advise_subset_size
        from tprslab.randprims import RngSeed
        from tprslab.resources import aggregate_measure, haar_expected
        from tprslab.sampling import paired_value_means

        seed, samples = 11, 300
        code, out, _ = run(["--samples", str(samples), "--seed", str(seed), "sweep", "--measure", measure,
                            "--n", ns, "--classes", classes], capsys)
        assert code in (0, 4)
        rows = [dict(zip(out.splitlines()[0].split(","), line.split(","))) for line in out.splitlines()[1:]]
        assert len(rows) == len(cli._int_list(ns)) * len(classes.split(","))
        for row in rows:
            n = int(row["n"])
            resource = cli._parse_measure(measure, n, None, 3)
            spec = EnsembleSpec("subset-phase-true-random", n, m=advise_subset_size(GrowthClass.parse(row["T"]), n).m,
                                seed=RngSeed(seed))
            (acc,) = paired_value_means(
                RngSeed(seed), samples, (resource.statistic,), sources=(spec,), costs=(resource.cost,)
            )
            mean, se = aggregate_measure(resource, acc)
            assert (row["measured"], row["measured_se"]) == (cli._fmt(mean), cli._fmt(se))
            ref = haar_expected(resource.name, n, part=resource.partition, alpha=resource.alpha)
            assert row["delta"] == cli._fmt(abs(ref.value - mean))


class TestParserBuiltOnce:
    """main() builds its parser once per process; a reused parser carries
    nothing from one call to the next."""

    def test_interleaved_calls_match_fresh_calls(self, tmp_path, capsys):
        from tprslab import cli

        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"samples": 300, "seed": 9, "kappa": 1.5}))
        gap = ["gap", "--measure", "coherence-re", "--n", "3", "--e1", "haar", "--e2", "subset-phase-keyed:m=4"]
        sweep = ["sweep", "--measure", "entanglement-entropy", "--n", "4..5", "--classes", "log,linear"]
        calls = [
            ["--format", "json", "--samples", "200"] + gap,
            ["--samples", "200"] + gap,
            ["--config", str(cfg)] + sweep,
            ["--samples", "300"] + sweep,
            ["advise", "--T", "log", "--n", "16", "--format", "json"],
            ["advise", "--T", "log", "--n", "16"],
            ["--config", str(cfg)] + gap,
            gap + ["--samples", "300"],
            ["distance", "--kind", "subset", "--n", "3", "--t", "2", "--m", "2,4"],
            ["build", "--kind", "subset-phase", "--n", "3", "--m", "4", "--phase", "keyed"],
        ]
        cli._build_parser.cache_clear()
        parser = cli._build_parser()
        interleaved = [run(argv, capsys) for argv in calls]
        assert cli._build_parser() is parser
        for argv, got in zip(calls, interleaved):
            cli._build_parser.cache_clear()
            want = run(argv, capsys)
            if "json" in argv:
                docs = [json.loads(out) for _, out, _ in (got, want)]
                for doc in docs:
                    doc.pop("wall_time_s")
                assert docs[0] == docs[1] and got[0] == want[0]
            else:
                assert got == want and got[1].count("\n") > 1
        # the config file's values reach only the calls that name it
        assert interleaved[2][1] != interleaved[3][1] and interleaved[6][1] != interleaved[7][1]


@st.composite
def _distance_argv(draw):
    n = draw(st.integers(1, 9))
    t = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["subset", "subset-phase"]))
    if kind == "subset-phase" and draw(st.booleans()):
        flag, value = "--mexp", st.one_of(st.just(0), st.integers(-1, n + 2))
    else:
        flag, value = "--m", st.one_of(st.just(0), st.integers(1, 2**n), st.integers(2**n + 1, 2**n + 4))
    values = draw(st.lists(value, min_size=1, max_size=3))
    if draw(st.booleans()):
        values.append(values[0])  # a duplicate size
    return ["distance", "--kind", kind, "--n", str(n), "--t", str(t), flag, ",".join(map(str, values))]


class TestStateVectorCap:
    @pytest.mark.parametrize(
        "argv",
        [
            ["gap", "--measure", "coherence-re", "--n", "40", "--e1", "haar", "--e2", "haar"],
            ["hybrid", "--n", "40", "--m", "4"],
            ["prop-check", "--prop", "7", "--n", "40", "--T", "log", "--e1", "haar", "--e2", "haar"],
            ["build", "--kind", "subset", "--n", "40", "--m", "2"],
            ["build", "--kind", "subset", "--n", "63", "--m", "2"],
            ["build", "--kind", "subset-phase", "--n", "64", "--m", "2"],
            ["build", "--kind", "subset", "--members", "0" * 21],
        ],
    )
    def test_beyond_the_table_cap_exits_3(self, argv, capsys):
        code, _, err = run(["--samples", "4"] + argv, capsys)
        assert code == 3
        assert err.startswith("resource limit: 2^") and "Traceback" not in err


class TestDistanceRobustness:
    @settings(max_examples=60, deadline=None)
    @given(argv=_distance_argv())
    def test_argument_vectors_end_in_a_documented_exit_code(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects "-1,-1" as an option
                assert exc.code == 2 and "usage:" in err.getvalue()
                return
        # 4 is the bound check failing at a size the fitted constant does not cover
        assert code in (0, 2, 3, 4), (argv, err.getvalue())
        if code in (2, 3):
            assert err.getvalue().startswith(("validation error:", "resource limit:"))

    @pytest.mark.parametrize("flag,value", [("--m", "4"), ("--mexp", "2")])
    def test_past_the_budget_exits_3_before_enumerating(self, flag, value, monkeypatch, capsys):
        from tprslab import linalg, symmetry

        # a budget of the t = 3 route: t = 3 runs, t = 4 is refused before any level is built
        need = symmetry.route_cost(7, 3)[0]
        monkeypatch.setenv("TPRS_MEM_CAP", str(need))
        argv = ["distance", "--kind", "subset-phase", "--n", "7", flag, value]
        assert run(argv + ["--t", "3"], capsys)[0] in (0, 4)

        def fail(*args):
            raise AssertionError("enumerated beyond the budget")

        monkeypatch.setattr(symmetry, "_level", fail)
        monkeypatch.setattr(linalg, "_symmetric_basis", fail)
        code, _, err = run(argv + ["--t", "4"], capsys)
        assert code == 3
        over = symmetry.route_cost(7, 4)[0]
        assert f"resource limit: exact distance route needs {over:,} bytes, over the TPRS_MEM_CAP budget of {need:,}" in err

    def test_n21_exits_3(self, capsys):
        code, _, err = run(["distance", "--kind", "subset", "--n", "21", "--t", "2", "--m", "4"], capsys)
        assert code == 3
        assert err.startswith("resource limit: 2^21 exceeds table cap")

    def test_n6_t2_phase_pin(self, capsys):
        # about 10^19 subset and sign terms to enumerate, and a D = 2080 block
        code, out, _ = run(["distance", "--kind", "subset-phase", "--n", "6", "--t", "2", "--mexp", "4"], capsys)
        assert code == 0
        row = dict(zip(*[line.split(",") for line in out.strip().splitlines()]))
        assert float(row["lhs"]) == pytest.approx(33 / 1040, abs=1e-12)
