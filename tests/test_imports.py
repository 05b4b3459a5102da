"""What each entry point imports, checked in fresh interpreters, the lazy
package namespace that makes ``import tprslab`` load nothing, and the README's
library quick tour, run as written."""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import tprslab

SRC = Path(tprslab.__file__).resolve().parent.parent
README = SRC.parent / "README.md"

EXPORTS = [
    "EnsembleSpec", "GrowthClass", "KeyedPermutation", "PartitionSpec", "PhaseFunction",
    "ResourceMeasure", "RngSeed", "SymmetricOperator", "advise_copies", "advise_subset_size",
    "bounds", "check_closure", "check_repetition_consistency",
    "coherence_bound_check", "config", "distinguishers", "empirical_prop_check", "ensembles",
    "entanglement_bound_check", "errors", "estimate_advantage", "estimate_gap", "forkmap", "growth",
    "haar_expected", "haar_moment", "hybrid_experiment",
    "is_negligible", "linalg", "magic_bound_check", "mc_ensemble_moment", "randprims", "resources", "sampling",
    "subset_distance_bound", "subset_phase_distance_bound", "symmetric_projector",
    "table_lower_bound", "trace_distance", "verify_distance_bound",
]


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def loaded_after(statement: str) -> set[str]:
    """Modules in sys.modules after ``statement`` runs in a fresh interpreter."""
    code = f"{statement}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def own(modules: set[str]) -> set[str]:
    return {m for m in modules if m.startswith("tprslab.")}


def readme_cli_line(command: str) -> list[str]:
    """Arguments of the README CLI example of ``command``, without the program name."""
    for line in README.read_text().splitlines():
        if line.startswith(f"tprslab {command} "):
            return shlex.split(line)[1:]
    raise AssertionError(f"README has no tprslab {command} line")


def readme_line_imports(command: str) -> tuple[str, set[str]]:
    """Standard output of the README CLI example of ``command``, run as
    ``python -X importtime -m tprslab.cli``, and the modules it imported."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "tprslab.cli", *readme_cli_line(command)],
        capture_output=True, text=True, env=_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    # -X importtime writes "import time: self | cumulative | name" for each module
    imported = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")}
    return proc.stdout, imported


class TestImportClosures:
    def test_package_loads_no_submodule_and_no_numpy(self):
        loaded = loaded_after("import tprslab")
        assert own(loaded) == set()
        assert "numpy" not in loaded

    def test_linalg_loads_config_and_errors_only(self):
        assert own(loaded_after("import tprslab.linalg")) == {"tprslab.config", "tprslab.errors", "tprslab.linalg"}

    def test_symmetry_loads_no_other_module(self):
        assert own(loaded_after("import tprslab.symmetry")) == {"tprslab.symmetry"}

    def test_resources_loads_no_ensemble_growth_bound_or_cli_module(self):
        loaded = own(loaded_after("import tprslab.resources"))
        assert "tprslab.resources" in loaded
        for name in ("ensembles", "growth", "bounds", "distinguishers", "cli"):
            assert f"tprslab.{name}" not in loaded

    def test_readme_negl_check_loads_no_numpy(self):
        out, imported = readme_line_imports("negl-check")
        assert out.startswith("check,subject,verdict,rule\n")
        assert "tprslab.growth" in imported  # the CLI itself runs as __main__
        assert not {m for m in imported if m == "numpy" or m.startswith("numpy.")}

    def test_readme_advise_loads_no_numpy(self):
        out, imported = readme_line_imports("advise")
        assert out.startswith("T,n,m,m_exp,t,mem_cap\n")
        assert "tprslab.growth" in imported
        assert not {m for m in imported if m == "numpy" or m.startswith("numpy.")}
        assert not {"tprslab.ensembles", "tprslab.linalg", "tprslab.randprims", "tprslab.sampling"} & imported


class TestLazyExports:
    def test_all_keeps_the_exported_names(self):
        assert tprslab.__all__ == EXPORTS
        assert dir(tprslab) == EXPORTS

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from tprslab import *", namespace)
        assert sorted(k for k in namespace if not k.startswith("__")) == EXPORTS

    def test_each_name_is_its_module_attribute(self):
        for name in EXPORTS:
            obj = getattr(tprslab, name)
            if name in ("bounds", "config", "distinguishers", "ensembles", "errors", "forkmap", "growth",
                        "linalg", "randprims", "resources", "sampling"):
                assert obj is sys.modules[f"tprslab.{name}"]
            else:
                assert obj.__module__.startswith("tprslab.")
                assert getattr(sys.modules[obj.__module__], name) is obj

    def test_names_are_looked_up_at_each_access(self, monkeypatch):
        from tprslab import resources

        def replacement(*args, **kwargs):
            raise AssertionError("not called")

        monkeypatch.setattr(resources, "estimate_gap", replacement)
        assert tprslab.estimate_gap is replacement
        monkeypatch.undo()
        assert tprslab.estimate_gap is resources.estimate_gap is not replacement

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
            tprslab.nonesuch  # noqa: B018
        assert not hasattr(tprslab, "DensityOperator")

    def test_states_are_amplitude_rows_only(self):
        # the single-state route is gone: no state type, builders or one-state wrappers
        for name in ("PureState", "SubsetSpec", "build_subset_state", "build_subset_phase_state",
                     "stabilizer_renyi_entropy"):
            assert not hasattr(tprslab, name)
        assert [k for k in vars(tprslab.PhaseFunction) if not k.startswith("__")] == ["keyed_bits"]

    def test_the_stabilizer_orbit_is_a_test_oracle(self):
        # stabilizer rows come from their canonical form; the enumerated orbit lives in tests/util.py
        assert not hasattr(tprslab.ensembles, "stabilizer_orbit")
        assert "stabilizer_orbit" not in tprslab.ensembles.__all__


class TestReadmeQuickTour:
    def test_runs_and_gives_the_exact_distance(self):
        (code,) = re.findall(r"## Library quick tour\n\n```python\n(.*?)```", README.read_text(), re.S)
        namespace = {}
        exec(compile(code, str(README), "exec"), namespace)
        # the exact two-copy subset-phase distance at n = 3, m = 4 is 7/72
        assert namespace["lhs"] == pytest.approx(7 / 72, abs=1e-12)
        assert namespace["report"].all_passed
        assert namespace["gap"].stderr > 0
