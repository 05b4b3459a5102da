"""The resource caps in config: the 2^n domain cap and the byte budget.

Both are checked before anything is allocated, so a request far beyond a cap
raises the package's own error instead of a MemoryError or an OverflowError.
The budget's one knob is the TPRS_MEM_CAP environment variable, in bytes.
"""

import pytest

from tprslab import config
from tprslab.config import DEFAULT_MEM_CAP, DEFAULT_TABLE_CAP, check_budget, check_domain, mem_cap
from tprslab.errors import DimensionCapExceeded, DomainCapExceeded, ValidationError


class TestCheckDomain:
    def test_at_the_cap_returns_the_size(self):
        assert DEFAULT_TABLE_CAP == 2**20
        assert check_domain(20) == 2**20
        assert check_domain(1) == 2

    @pytest.mark.parametrize("n", [21, 40, 63, 64])
    def test_beyond_the_cap_raises(self, n):
        with pytest.raises(DomainCapExceeded, match=rf"^2\^{n} exceeds table cap 1048576$"):
            check_domain(n)

    def test_explicit_cap(self, monkeypatch):
        monkeypatch.setattr(config, "DEFAULT_TABLE_CAP", 16)
        assert check_domain(4) == 16
        with pytest.raises(DomainCapExceeded):
            check_domain(5)


class TestCheckBudget:
    def test_at_and_beyond_the_budget(self, monkeypatch):
        monkeypatch.setenv("TPRS_MEM_CAP", "64")
        assert check_budget("a route", 64) == 64
        with pytest.raises(DimensionCapExceeded, match="^a route needs 65 bytes, over the TPRS_MEM_CAP budget of 64$"):
            check_budget("a route", 65)

    def test_default(self, monkeypatch):
        monkeypatch.delenv("TPRS_MEM_CAP", raising=False)
        assert mem_cap() == DEFAULT_MEM_CAP == 2**30

    def test_retired_dimension_cap_names_the_new_knob(self, monkeypatch):
        monkeypatch.setenv("TPRS_DIM_CAP", "4096")
        with pytest.raises(ValidationError, match="TPRS_DIM_CAP is retired; set TPRS_MEM_CAP"):
            check_budget("a route", 1)

    @pytest.mark.parametrize("value", ["1GB", "0", "-5", ""])
    def test_budget_must_be_a_positive_integer(self, value, monkeypatch):
        monkeypatch.setenv("TPRS_MEM_CAP", value)
        with pytest.raises(ValidationError, match="TPRS_MEM_CAP must be a positive integer"):
            mem_cap()
