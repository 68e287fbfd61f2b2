"""Riesz characteristics against closed-form values.

All oracles follow from the spectrum of I - p e⊗e, which is 1-p once and 1
with multiplicity n-1:

    convexity cone      1 - p >= 0                        -> p* = 1
    trace (laplace)     n - p >= 0                        -> p* = n
    partial trace q     q - p >= 0                        -> p* = q
    pucci lam,Lam       lam (n-1) + Lam (1-p) >= 0        -> p* = 1 + (lam/Lam)(n-1)
    delta cone d        (1-p) + d (n-p) >= 0              -> p* = (1 + d n)/(1 + d)
"""

import numpy as np
import pytest

from subeq import parse_name
from subeq.core import Subequation
from subeq.errors import ConfigError
from subeq.riesz import (riesz_characteristic, pcone_inclusion_check,
                         directional_thresholds)

TOL = 1e-6

FROZEN = [
    ("branch:real:k=1:n=4", 1.0),
    ("laplace:n=3", 3.0),
    ("pcone:p=2.5:n=4", 2.5),
    ("pucci:lam=1:Lam=2:n=3", 2.0),
    ("delta:d=1:n=3", 2.0),
    ("delta:d=0.5:n=3", 5.0 / 3.0),
]


class TestCharacteristic:
    @pytest.mark.parametrize("name,want", FROZEN)
    def test_frozen_values(self, name, want):
        res = riesz_characteristic(parse_name(name), tol=TOL)
        assert not res.unbounded
        assert abs(res.p - want) <= 2 * TOL, (name, res.p)
        lo, hi = res.bracket
        assert lo <= res.p <= hi

    def test_monotone_in_the_cone(self):
        small = riesz_characteristic(parse_name("pcone:p=1.5:n=3")).p
        large = riesz_characteristic(parse_name("pcone:p=2.5:n=3")).p
        assert small < large

    def test_unbounded_cone(self):
        M = Subequation(2, lambda r, p, A: np.ones(len(np.atleast_1d(r))),
                        "everything", pure_second_order=True, reduced=True,
                        cone=True)
        res = riesz_characteristic(M)
        assert res.unbounded
        assert res.bracket[1] == np.inf

    def test_requires_reduced_cone(self):
        from subeq import make_monotonicity_cone
        M2 = make_monotonicity_cone(2, 2)      # depends on r
        with pytest.raises(ConfigError):
            riesz_characteristic(M2)

    def test_json_round_trip(self):
        import json
        res = riesz_characteristic(parse_name("laplace:n=2"))
        d = res.to_json_dict()
        json.dumps(d)
        assert set(d) == {"p", "unbounded", "directions_tested", "bracket",
                          "label"}


class TestDirectionalThresholds:
    def test_isotropic_cone_is_flat(self):
        th = directional_thresholds(parse_name("pucci:lam=1:Lam=2:n=3"),
                                    dirs=12)
        assert np.allclose(th, 2.0, atol=1e-5)

    def test_min_matches_characteristic(self):
        M = parse_name("delta:d=0.5:n=3")
        th = directional_thresholds(M, dirs=12)
        res = riesz_characteristic(M)
        assert abs(th.min() - res.p) <= 1e-5


class TestPConeInclusion:
    def test_nested_direction_passes(self):
        # the 1.5-cone sits inside the 2.5-cone
        rep = pcone_inclusion_check(parse_name("pcone:p=2.5:n=3"), 1.5,
                                    trials=500)
        assert rep.included and rep.violations == 0 and rep.witness is None

    def test_reverse_direction_fails_with_witness(self):
        rep = pcone_inclusion_check(parse_name("pcone:p=1.5:n=3"), 2.5,
                                    trials=500)
        assert not rep.included and rep.violations > 0
        A = np.array(rep.witness["A"])
        # the witness really is in the 2.5-cone but not in the 1.5-cone
        P = parse_name("pcone:p=2.5:n=3")
        M = parse_name("pcone:p=1.5:n=3")
        z = np.zeros(1), np.zeros((1, 3))
        assert P.value_batch(*z, A[None])[0] >= -1e-9
        assert M.value_batch(*z, A[None])[0] < 0

    def test_characteristic_is_the_cutoff(self):
        # p-cones embed in pucci exactly up to its characteristic p* = 2
        M = parse_name("pucci:lam=1:Lam=2:n=3")
        assert pcone_inclusion_check(M, 2.0, trials=300).included
        assert not pcone_inclusion_check(M, 2.2, trials=300).included

    def test_json_dict(self):
        import json
        rep = pcone_inclusion_check(parse_name("laplace:n=2"), 1.5, trials=50)
        json.dumps(rep.to_json_dict())


def test_geometric_thresholds_match_closed_form():
    # rho = min_w w^t A w over the frame lines w, so I - p e⊗e is a member
    # exactly while p <= 1 / max_w (e·w)^2, a value that varies with e
    from subeq.catalog import grassmann_sample
    from subeq.core import _unit_sphere_qmc
    W = grassmann_sample(1, 3, count=64).stack[:, :, 0]
    th = directional_thresholds(parse_name("geom:p=1:n=3:frames=64"),
                                dirs=16, seed=0)
    es = _unit_sphere_qmc(3, 16, seed=0)
    want = 1.0 / ((es @ W.T) ** 2).max(axis=1)
    assert np.ptp(want) > 1e-3
    assert np.allclose(th, want, rtol=0, atol=1e-7)
