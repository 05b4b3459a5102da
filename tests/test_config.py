"""The resource caps in config: the 2^n domain cap and the dense-dimension cap.

Both are checked before anything is allocated, so a request far beyond a cap
raises the package's own error instead of a MemoryError or an OverflowError.
"""

import pytest

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

    def test_explicit_cap(self):
        assert check_domain(4, cap=16) == 16
        with pytest.raises(DomainCapExceeded):
            check_domain(5, cap=16)


class TestCheckDim:
    def test_at_and_beyond_the_cap(self):
        assert check_dim(3, 2, cap=64) == 64
        with pytest.raises(DimensionCapExceeded):
            check_dim(3, 3, cap=64)
