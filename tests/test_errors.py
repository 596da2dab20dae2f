import copy
import math
import pickle

import numpy as np
import pytest

from chebylift.errors import (Check, ChebyliftError, IncompatibleData,
                              NotMinimal, Report)
from chebylift.numerics import sup_check


class TestCheck:
    def test_passes_at_its_tolerance(self):
        assert Check("x", 1e-6, 1e-6).passed
        assert not Check("x", 1.5e-6, 1e-6).passed

    def test_nan_fails(self):
        assert not Check("x", math.nan, 1.0).passed
        assert not Check("x", math.nan).passed

    def test_inf_fails_even_an_unbounded_check(self):
        assert math.isinf(Check("x", 1.0).tol)
        assert Check("x", 1e300).passed
        assert not Check("x", math.inf).passed

    def test_sup_check_of_nan_fails_at_the_nan(self):
        vals = np.zeros((4, 5))
        vals[2, 3] = np.nan
        chk = sup_check("s", vals, axes=(np.arange(4.0), 10 + np.arange(5.0)))
        assert math.isnan(chk.value) and not chk.passed
        assert chk.where == ((2, 3), (2.0, 13.0))

    def test_message_names_value_tolerance_node_and_mask(self):
        chk = Check("h_sup", 2e-3, 1e-5, ((4, 7), (0.25, -0.5)), 3)
        s = str(chk)
        for part in ("h_sup", "2.000e-03", "1e-05", "(4, 7)", "0.25", "-0.5",
                     "3 nodes masked"):
            assert part in s


class TestReport:
    rep = Report((Check("a", 1.0, 2.0), Check("b", 3.0)), {"orientation": "ab"})

    def test_lookup(self):
        assert self.rep.a == 1.0 and self.rep.b == 3.0
        assert self.rep["a"] == Check("a", 1.0, 2.0)
        assert self.rep.orientation == "ab"
        assert self.rep.passed
        assert not Report((Check("a", 3.0, 2.0),)).passed

    def test_unknown_name(self):
        with pytest.raises(AttributeError):
            self.rep.missing
        with pytest.raises(KeyError):
            self.rep["missing"]
        assert not hasattr(self.rep, "missing")
        assert not hasattr(self.rep, "__missing_dunder__")

    def test_copy_and_pickle(self):
        assert copy.copy(self.rep) == self.rep
        assert copy.deepcopy(self.rep) == self.rep
        assert pickle.loads(pickle.dumps(self.rep)) == self.rep


class TestErrorCarriesCheck:
    def test_check_kept_and_printed(self):
        chk = Check("sup_dn3", 0.2, 1e-5, ((3,), (0.1,)))
        err = IncompatibleData("n3 varies along the curve", chk)
        assert err.check is chk
        assert str(err) == f"n3 varies along the curve: {chk}"
        assert isinstance(err, ChebyliftError)

    def test_without_check(self):
        err = NotMinimal("plain message")
        assert err.check is None and str(err) == "plain message"
