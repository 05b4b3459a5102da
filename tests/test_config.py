"""The resource caps in config: the 2^n domain cap and the dense-dimension cap.

Both are checked before anything is allocated, so a request far beyond a cap
raises the package's own error instead of a MemoryError or an OverflowError.
The dimension cap's one knob is the TPRS_DIM_CAP environment variable.
"""

import pytest

from tprslab import config
from tprslab.config import DEFAULT_TABLE_CAP, check_dim, check_domain
from tprslab.errors import DimensionCapExceeded, DomainCapExceeded


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


class TestCheckDim:
    def test_at_and_beyond_the_cap(self, monkeypatch):
        monkeypatch.setenv("TPRS_DIM_CAP", "64")
        assert check_dim(3, 2) == 64
        with pytest.raises(DimensionCapExceeded):
            check_dim(3, 3)
