"""Acceptance rules and validation-split threshold calibration."""

import numpy as np
import pytest

from cdp_authkit.decision import (
    Thresholds,
    calibrate,
    rule_ocsvm,
    rule_one_metric,
    rule_two_metric,
)
from cdp_authkit.errors import DataError, ParameterError
from cdp_authkit.ocsvm import decision_function, train_ocsvm
from cdp_authkit.rng import rng_for


def test_rule_one_metric_boundary_inclusive():
    rng = rng_for(0, "rule1")
    for _ in range(300):
        gamma1 = int(rng.integers(0, 25))
        h = int(rng.integers(0, 50))
        assert rule_one_metric(h, gamma1) == (h <= gamma1)
    assert rule_one_metric(7, 7) is True  # exact boundary accepts
    hs = np.array([0, 3, 4, 5])
    assert np.array_equal(rule_one_metric(hs, 4), np.array([True, True, True, False]))


def test_rule_two_metric_modes():
    thr = Thresholds(gamma1=3, gamma2=0.5)
    h = np.array([2, 2, 5, 5])
    r = np.array([0.4, 0.6, 0.4, 0.6])
    assert np.array_equal(
        rule_two_metric(h, r, thr), np.array([True, False, False, False])
    )
    assert np.array_equal(
        rule_two_metric(h, r, thr, mode="any"), np.array([True, True, True, False])
    )
    assert rule_two_metric(3, 0.5, thr) is True  # both boundaries inclusive
    with pytest.raises(ParameterError):
        rule_two_metric(h, r, thr, mode="both")


def test_calibrate_zero_miss_and_minimality():
    rng = rng_for(1, "cal")
    for _ in range(100):
        val = rng.integers(0, 40, size=int(rng.integers(3, 30)))
        thr = calibrate(val)
        assert rule_one_metric(val, thr.gamma1).all()  # P_miss = 0 on validation
        assert thr.gamma1 == int(val.max())  # smallest such threshold
        if (val == val.max()).sum() == 1:
            # unique maximum: one step tighter must reject exactly that point
            assert int(np.sum(~rule_one_metric(val, thr.gamma1 - 1))) == 1
        assert thr.gamma2 == 0.0


def test_calibrate_two_metric():
    rng = rng_for(2, "cal2")
    h = rng.integers(0, 20, size=15)
    r = rng.uniform(0.1, 0.9, size=15)
    thr = calibrate(h, r)
    assert thr.gamma1 == int(h.max())
    assert thr.gamma2 == float(r.max())
    assert rule_two_metric(h, r, thr).all()


def test_calibrate_validation():
    with pytest.raises(DataError):
        calibrate(np.array([], dtype=int))
    with pytest.raises(DataError):
        calibrate(np.array([-1, 3]))
    with pytest.raises(DataError):
        calibrate(np.array([1, 2]), np.array([0.5]))
    with pytest.raises(DataError):
        calibrate(np.array([1, 2]), np.array([0.5, np.nan]))


def test_thresholds_dataclass():
    assert Thresholds(gamma1=4, gamma2=0.25).to_dict() == {"gamma1": 4, "gamma2": 0.25}
    with pytest.raises(ParameterError):
        Thresholds(gamma1=-1)
    with pytest.raises(ParameterError):
        Thresholds(gamma1=0, gamma2=-0.5)


def test_rule_ocsvm_matches_decision_sign():
    rng = rng_for(3, "svm")
    model = train_ocsvm(rng.normal(size=(60, 2)), nu=0.1)
    probes = rng.normal(size=(25, 2)) * 1.5
    accept = rule_ocsvm(model, probes)
    assert np.array_equal(accept, decision_function(model, probes) >= 0.0)
    single = rule_ocsvm(model, probes[0])
    assert isinstance(single, bool)
    assert single == bool(accept[0])
