"""One-class SVM solver: constraints, KKT optimality, oracles, persistence."""

import numpy as np
import pytest

from cdp_authkit import checks
from cdp_authkit.errors import DataError, ParameterError
from cdp_authkit.ocsvm import (
    OcSvmModel,
    decision_function,
    dual_objective,
    load_model,
    save_model,
    select_nu,
    train_ocsvm,
)
from cdp_authkit.oracles import ocsvm_kkt_violation, pgd_dual, project_simplex_box
from cdp_authkit.rng import rng_for


def test_nu_one_closed_form():
    rng = rng_for(0, "nu1")
    pts = rng.normal(size=(12, 3))
    model = train_ocsvm(pts, nu=1.0)
    # upper bound 1/(nu n) = 1/n and sum = 1 force every alpha to 1/n
    assert np.allclose(model.alphas, 1.0 / 12, atol=1e-12)
    assert len(model.alphas) == 12


def test_constraints_and_kkt_on_random_problems():
    rng = rng_for(1, "problems")
    for i in range(10):
        n = int(rng.integers(5, 40))
        nu = float(rng.uniform(1.5 / n, 1.0))
        pts = rng.normal(size=(n, 2)) * rng.uniform(0.5, 3.0)
        model = train_ocsvm(pts, nu=nu)
        assert abs(model.alphas.sum() - 1.0) <= 1e-8
        upper = 1.0 / (nu * n)
        assert model.alphas.min() > 0.0
        assert model.alphas.max() <= upper + 1e-8
        assert ocsvm_kkt_violation(model, pts) <= 1e-6


def test_dual_matches_projected_gradient_oracle():
    rng = rng_for(2, "pgd")
    kernels, uppers, models = [], [], []
    for _ in range(10):
        n = int(rng.integers(4, 9))
        pts = rng.normal(size=(n, 2))
        nu = float(rng.uniform(1.0 / n, 1.0))
        model = train_ocsvm(pts, nu=nu)
        z = model.standardize(pts)
        sq = ((z[:, None, :] - z[None, :, :]) ** 2).sum(-1)
        kernels.append(np.exp(-model.rbf_gamma * sq))
        uppers.append(1.0 / (nu * n))
        models.append(model)
    oracle = pgd_dual(kernels, uppers)
    for model, target in zip(models, oracle):
        assert abs(dual_objective(model) - target) <= 1e-6


def test_projection_oracle_properties():
    rng = rng_for(3, "proj")
    for _ in range(50):
        n = int(rng.integers(2, 12))
        upper = np.full(n, float(rng.uniform(1.0 / n, 2.0)))
        v = rng.normal(size=n)
        p = project_simplex_box(v, upper)
        assert abs(p.sum() - 1.0) <= 1e-10
        assert p.min() >= -1e-12 and (p <= upper + 1e-12).all()
        # projection is the closest feasible point: no feasible q is closer
        q = project_simplex_box(v + rng.normal(size=n) * 0.1, upper)
        assert ((v - p) ** 2).sum() <= ((v - q) ** 2).sum() + 1e-10


def test_nu_property_on_blobs():
    rng = rng_for(4, "blobs")
    pts = rng.normal(size=(200, 2))
    for nu in (0.05, 0.1, 0.5):
        model = train_ocsvm(pts, nu=nu)
        outlier_frac = float(np.mean(decision_function(model, pts) < 0.0))
        sv_frac = len(model.alphas) / 200.0
        assert outlier_frac <= nu + 0.02
        assert sv_frac >= nu - 0.02


def test_nu_property_check_ignores_margin_support_vectors():
    # at this seed 10 margin support vectors sit within 1e-6 below f = 0 at nu 0.05;
    # counting them as outliers reads 0.08 > nu + 0.02
    checks.ocsvm_nu_property((42, "selftest"), 200)


def test_standardization_invariance():
    rng = rng_for(5, "std")
    pts = rng.normal(size=(60, 2))
    probes = rng.normal(size=(20, 2))
    base = decision_function(train_ocsvm(pts, nu=0.1), probes)
    shift, scale = np.array([100.0, -3.0]), np.array([50.0, 0.01])
    moved = decision_function(train_ocsvm(pts * scale + shift, nu=0.1), probes * scale + shift)
    # both solves stop at KKT violation <= 1e-6, so agreement is at that order
    assert np.allclose(base, moved, atol=1e-5)


def test_select_nu_prefers_low_val_miss_then_small_nu():
    rng = rng_for(6, "select")
    train = rng.normal(size=(100, 2))
    val = rng.normal(size=(30, 2)) * 0.5  # well inside: every nu gets 0 miss
    model, nu, table = select_nu(train, val)
    # nu=0.0005 is infeasible at n=100 (nu*n < 1) and silently skipped;
    # the zero-miss tie then resolves to the smallest feasible nu
    assert nu == 0.01
    assert model.nu == nu
    assert sorted(table) == [0.01, 0.03, 0.1]
    assert all(p_miss == 0.0 for p_miss in table.values())
    # infeasible entries are skipped, not fatal
    _, nu_small, table_small = select_nu(rng.normal(size=(12, 2)), val)
    assert nu_small == 0.1
    assert len(table_small) == 1
    with pytest.raises(ParameterError):
        select_nu(rng.normal(size=(5, 2)), val)  # every grid nu has nu*n < 1


def test_save_load_roundtrip(tmp_path):
    rng = rng_for(7, "persist")
    pts = rng.normal(size=(40, 2))
    model = train_ocsvm(pts, nu=0.2)
    save_model(model, tmp_path / "m.json")
    back = load_model(tmp_path / "m.json")
    probes = rng.normal(size=(15, 2))
    assert np.array_equal(decision_function(model, probes), decision_function(back, probes))
    assert back.nu == model.nu and back.n_train == model.n_train


def test_train_validation():
    rng = rng_for(9, "val")
    pts = rng.normal(size=(10, 2))
    for bad in (0.0, -0.5, 1.5):
        with pytest.raises(ParameterError):
            train_ocsvm(pts, nu=bad)
    with pytest.raises(ParameterError):
        train_ocsvm(pts, nu=0.05)  # nu*n = 0.5 < 1
    with pytest.raises(ParameterError):
        train_ocsvm(pts, nu=0.5, rbf_gamma=0.0)
    with pytest.raises(DataError):
        train_ocsvm(np.array([[np.inf, 0.0]]), nu=1.0)


def test_decision_respects_support_vector_sparsity():
    rng = rng_for(10, "sparse")
    pts = rng.normal(size=(80, 2))
    model = train_ocsvm(pts, nu=0.1)
    # most training points are interior and dropped from the model
    assert len(model.alphas) < 80
    assert isinstance(model, OcSvmModel)
    inside = decision_function(model, pts)
    assert float(np.mean(inside >= 0)) >= 0.88
