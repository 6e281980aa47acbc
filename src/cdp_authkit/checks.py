"""Correctness checklist shared by the acceptance tests and `cdp-authkit selftest`.

Each check compares a fast path against an independent oracle or a stated
property and raises CheckFailure with the failure detail when it does not
hold. Randomized checks take an rng stream prefix (root seed, *tags) and one
size; the acceptance tests pass their own prefix at full size, the selftest
passes (seed, "selftest") at the reduced sizes of SELFTEST_SUITES.

The network gradient checks share one mechanism: `fd_gradient` is the
central-difference loop, `gradient_error` compares it with the gradients a
pass left in the weighted layers, and `gradient_check` drives both over an
autoencoder's objectives. The ReLU masks of the analytic pass are recorded
and replayed at every probe (`nn.set_mask_mode`).

Only the test suite and the selftest command import this module.
"""

from __future__ import annotations

import numpy as np

from dataclasses import replace

from .channel import (
    AttackParams,
    acquire,
    default_attack_params,
    estimate_template_binary,
    print_template,
)
from .decision import Thresholds, calibrate, rule_one_metric, rule_two_metric
from .deepfeat import (
    SCENARIOS,
    AeConfig,
    AeModel,
    _disc_loss_and_grads,
    _generator_loss_and_grads,
    _x_side,
    build_ae_model,
    train_ae,
)
from .experiment import DatasetConfig, config_hash
from .metrics import hamming_symbols, lp_distances, otsu_threshold, pearson
from .nn import Dense, Relu, set_mask_mode, weighted_layers
from .ocsvm import decision_function, dual_objective, train_ocsvm
from .oracles import (
    hamming_naive,
    lp_naive,
    ocsvm_kkt_violation,
    otsu_exhaustive,
    pearson_naive,
    pgd_dual,
)
from .rng import derive_seed, rng_for
from .supervised import _ce_loss_and_grads, estimate_mi_lower_bound
from .template import Template, generate_template, upsample_symbols


FD_STEP = 1e-5  # central-difference step of the network gradient checks


class CheckFailure(AssertionError):
    """A fast path disagreed with its oracle or broke a stated property."""


def _require(ok: bool, detail: str) -> None:
    if not ok:
        raise CheckFailure(detail)


def _random_image(rng) -> np.ndarray:
    """Random 8-bit image; clumped palettes force threshold ties."""
    side_y = int(rng.integers(12, 49))
    side_x = side_y if rng.random() < 0.7 else int(rng.integers(12, 49))
    if rng.random() < 0.4:
        levels = rng.integers(0, 256, size=int(rng.integers(2, 9)))
        img = rng.choice(levels, size=(side_y, side_x))
    else:
        img = rng.integers(0, 256, size=(side_y, side_x))
    img = img.astype(np.float64) / 255.0
    if img.max() == img.min():  # degenerate draws are out of scope
        img.flat[0] = (img.flat[0] + 128 / 255.0) % 1.0
    return img


def otsu_oracle(prefix: tuple, size: int) -> None:
    """Otsu fast path equals the exhaustive argmax on `size` random images."""
    rng = rng_for(*prefix, "otsu")
    for i in range(size):
        img = _random_image(rng)
        if otsu_threshold(img) != otsu_exhaustive(img):
            raise CheckFailure(f"otsu mismatch on image {i}")


def metric_oracles(prefix: tuple, size: int) -> float:
    """Pearson, L1/L2 and symbol Hamming equal naive recomputations on `size` pairs.

    Returns the worst float gap, which must stay below 1e-12.
    """
    rng = rng_for(*prefix, "metrics")
    worst = 0.0
    for i in range(size):
        side = int(rng.integers(4, 25))
        a = rng.random((side, side))
        b = np.clip(a + rng.normal(0, 0.3, a.shape), 0, 1)
        b.flat[0] = 1.0 - a.flat[0]  # never constant, never identical
        l1, l2 = lp_distances(a, b)
        n1, n2 = lp_naive(a, b)
        worst = max(worst, abs(pearson(a, b) - pearson_naive(a, b)), abs(l1 - n1), abs(l2 - n2))

        t = generate_template(6, 3, 0.5, int(rng.integers(1 << 31)))
        grid = (rng.random((18, 18)) < 0.5).astype(np.uint8)
        # independent majority reduction, ties to ink
        reduced = (grid.reshape(6, 3, 6, 3).sum(axis=(1, 3)) * 2 >= 9).astype(np.uint8)
        _require(hamming_symbols(grid, t) == hamming_naive(reduced, t.symbols),
                 f"hamming mismatch on pair {i}")
    _require(worst < 1e-12, f"worst float gap {worst:.2e}")
    return worst


def ocsvm_dual_oracle(prefix: tuple, size: int) -> float:
    """SMO duals of `size` small problems meet the constraints, KKT and the PGD oracle.

    Returns the worst objective gap to the oracle, which must stay below 1e-6.
    """
    kernels, uppers, objectives = [], [], []
    for i in range(size):
        rng = rng_for(*prefix, "ocsvm", i)
        n = int(rng.integers(3, 9))
        x = rng.normal(size=(n, int(rng.integers(2, 5))))
        nu = float(rng.uniform(max(0.3, 1.0 / n), 1.0))
        model = train_ocsvm(x, nu=nu, rbf_gamma=float(rng.uniform(0.05, 2.0)))

        upper = 1.0 / (nu * model.n_train)
        _require(abs(model.alphas.sum() - 1.0) < 1e-8, f"sum constraint violated on problem {i}")
        _require(model.alphas.min() > -1e-8 and model.alphas.max() < upper + 1e-8,
                 f"box constraint violated on problem {i}")
        _require(ocsvm_kkt_violation(model, x) < 1e-6, f"kkt residual too large on problem {i}")

        z = model.standardize(x)
        d2 = ((z[:, None, :] - z[None, :, :]) ** 2).sum(axis=-1)
        kernels.append(np.exp(-model.rbf_gamma * d2))
        uppers.append(upper)
        objectives.append(dual_objective(model))

    oracle = pgd_dual(kernels, uppers)
    worst = max(abs(a - b) for a, b in zip(objectives, oracle))
    _require(worst < 1e-6, f"dual gap {worst:.2e} vs pgd oracle")
    return worst


def ocsvm_nu_property(prefix: tuple, size: int) -> list:
    """Outlier fraction <= nu <= support fraction (0.02 slack) on `size` two-blob points.

    Outliers are points with positive slack, f < -tol: margin support vectors
    sit within the solver tolerance of f = 0 on either side.
    Returns (nu, outlier fraction, support fraction) per nu.
    """
    fractions = []
    for nu in (0.05, 0.1, 0.5):
        rng = rng_for(*prefix, "blobs", str(nu))
        x = np.concatenate([
            rng.normal(loc=(0, 0), scale=0.6, size=(size * 3 // 4, 2)),
            rng.normal(loc=(4, 1), scale=0.8, size=(size // 4, 2)),
        ])
        model = train_ocsvm(x, nu=nu, rbf_gamma=0.5)
        outliers = float(np.mean(decision_function(model, x) < -model.tol))
        sv_frac = len(model.alphas) / len(x)
        _require(outliers <= nu + 0.02, f"outlier fraction {outliers:.3f} above nu {nu}")
        _require(sv_frac >= nu - 0.02, f"support fraction {sv_frac:.3f} below nu {nu}")
        fractions.append((nu, outliers, sv_frac))
    return fractions


def toy_batch(prefix: tuple, n: int) -> tuple:
    """n noisy 12x12 images that loosely follow random 4x4 symbol grids."""
    rng = rng_for(*prefix, "toy")
    symbols = (rng.random((n, 4, 4)) < 0.5).astype(np.uint8)
    # dark where ink, plus noise
    base = 0.9 - 0.7 * np.repeat(np.repeat(symbols, 3, axis=1), 3, axis=2)
    images = np.clip(base + rng.normal(0, 0.05, base.shape), 0, 1)
    return images, symbols


def fd_gradient(loss, param: np.ndarray, step: float = FD_STEP) -> np.ndarray:
    """Central differences of loss() over every entry of param, perturbed in place."""
    grad = np.zeros_like(param)
    flat, gflat = param.reshape(-1), grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        up = loss()
        flat[i] = orig - step
        down = loss()
        flat[i] = orig
        gflat[i] = (up - down) / (2.0 * step)
    return grad


def gradient_error(layers, loss) -> float:
    """||g - g_fd|| / max(||g||, ||g_fd||) over every w and b entry of layers.

    g is the gw/gb the weighted layers hold on entry, copied before the first
    probe, so loss may write them; g_fd is `fd_gradient` of loss.
    """
    weighted = weighted_layers(layers)
    analytic = np.concatenate([g.ravel() for layer in weighted for g in (layer.gw, layer.gb)])
    fd = np.concatenate([fd_gradient(loss, p).ravel()
                         for layer in weighted for p in (layer.w, layer.b)])
    denom = max(np.linalg.norm(analytic), np.linalg.norm(fd), 1e-12)
    return float(np.linalg.norm(analytic - fd) / denom)


def _replaying(layers, objective):
    """objective() as a probe that first rewinds every Relu in layers to replay
    the masks its analytic pass recorded."""
    def loss():
        set_mask_mode(layers, "replay")
        return objective()
    return loss


def gradient_check(model: AeModel, images: np.ndarray, symbols: np.ndarray) -> float:
    """Central finite differences vs analytic gradients for every active group.

    Each objective has one definition, the training step. The analytic
    gradients are the ones train_ae hands to Adam, from a grads-on call of
    _generator_loss_and_grads or _disc_loss_and_grads; the finite-difference
    probes call the same function with grads off. Each discriminator is
    probed on the real/fake batches of the generator's analytic pass: only
    that discriminator's weights move during its probes, so the batches
    cannot change. Walks every coordinate of every weight array, so call it
    on small nets only. Returns the maximum per-group `gradient_error`.

    The analytic pass records the ReLU masks per forward call; the
    finite-difference probes replay them. The comparison is then between two
    views of the same smooth branch, so units that happen to sit at or near
    the kink (guaranteed at initialization, where biases are exactly zero)
    cannot flip and fake a mismatch.
    """
    x = np.asarray(images, dtype=np.float64)[:, None, :, :]
    t = np.asarray(symbols, dtype=np.float64)[:, None, :, :]
    groups = model.groups()
    every = [layer for layers in groups.values() for layer in layers]

    set_mask_mode(every, "record")
    _, t_hat, x_hat = _generator_loss_and_grads(model, x, t)
    generator = _replaying(
        every, lambda: _generator_loss_and_grads(model, x, t, grads=False)[0]["total"])
    worst = max(gradient_error(groups[name], generator)
                for name in (("encoder", "decoder") if _x_side(model) else ("encoder",)))
    for name, real, fake in (("disc_t", t, t_hat), ("disc_x", x, x_hat)):
        if name in groups and fake is not None:
            disc = groups[name]
            set_mask_mode(every, "record")
            _disc_loss_and_grads(disc, real, fake)
            worst = max(worst, gradient_error(disc, _replaying(
                every, lambda: _disc_loss_and_grads(disc, real, fake, grads=False))))
    set_mask_mode(every, "normal")
    return worst


def ae_gradients(prefix: tuple, size: int) -> float:
    """Every scenario's loss gradients equal finite differences at `size` points each.

    Point p of scenario s is seeded with root + 100 s + p. Even points are
    fresh initializations, odd points are reached by two training steps.
    Returns the worst relative error, which must stay below 1e-4.
    """
    root, *tags = prefix
    worst = 0.0
    for scenario in SCENARIOS:
        for point in range(size):
            seed = root + 100 * scenario + point
            cfg = AeConfig(epochs=2, batch_size=4, channels=2, disc_hidden=4, beta=0.5, seed=seed)
            images, symbols = toy_batch((seed, *tags), 6)
            if point % 2:
                model = train_ae(images, symbols, scenario, cfg)
            else:
                model = build_ae_model(scenario, 4, 3, cfg)
            err = gradient_check(model, images, symbols)
            _require(err < 1e-4, f"scenario {scenario} point {point}: relative error {err:.2e}")
            worst = max(worst, err)
    return worst


def supervised_gradient(prefix: tuple, size: int) -> float:
    """Every classifier weight and bias gradient equals central finite differences
    on a `size`-row batch, with the analytic pass's ReLU masks replayed.

    Returns the relative error, which must stay below 1e-6.
    """
    rng = rng_for(*prefix, "grad")
    layers = [Dense(rng_for(*prefix, "h"), 6, 5), Relu(), Dense(rng_for(*prefix, "o"), 5, 3)]
    x = rng.random((size, 6))
    y = rng.integers(0, 3, size)
    set_mask_mode(layers, "record")
    _ce_loss_and_grads(layers, x, y)
    err = gradient_error(layers, _replaying(layers, lambda: _ce_loss_and_grads(layers, x, y)))
    _require(err < 1e-6, f"classifier gradient relative error {err:.2e}")
    return err


def mi_bounds(prefix: tuple, size: int) -> None:
    """MI bound is ln 2 for a perfect and 0 for a uniform binary predictor on `size`
    samples, and never exceeds H(C) on `size` random prediction sets."""
    y = np.repeat([0, 1], size // 2)
    perfect = np.full((y.size, 2), -np.inf)
    perfect[np.arange(y.size), y] = 0.0
    est = estimate_mi_lower_bound(y, perfect)
    _require(abs(est.lower_bound - np.log(2.0)) < 1e-9, "perfect binary bound != ln 2")
    uniform = np.full((y.size, 2), np.log(0.5))
    est = estimate_mi_lower_bound(y, uniform)
    _require(abs(est.lower_bound) < 1e-9, "uniform bound != 0")

    rng = rng_for(*prefix, "mi")
    for i in range(size):
        k = int(rng.integers(2, 7))
        n = int(rng.integers(20, 200))
        labels = rng.integers(0, k, size=n)
        probs = rng.dirichlet(np.full(k, 0.7), size=n)
        est = estimate_mi_lower_bound(labels, np.log(probs))
        _require(est.lower_bound <= est.h_c + 1e-12, f"bound exceeded H(C) on set {i}")


def decision_rules(prefix: tuple, size: int) -> None:
    """Rules accept exactly at their boundaries (`size` fixtures) and calibration
    is zero-miss and minimal (`size` / 5 fixtures)."""
    rng = rng_for(*prefix, "decision")
    for _ in range(size):
        gamma1 = int(rng.integers(0, 21))
        _require(rule_one_metric(gamma1, gamma1) is True
                 and rule_one_metric(gamma1 + 1, gamma1) is False,
                 f"one-metric boundary wrong at gamma1={gamma1}")
        thr = Thresholds(gamma1=gamma1, gamma2=float(rng.uniform(0.0, 2.0)))
        _require(rule_two_metric(gamma1, thr.gamma2, thr) is True
                 and rule_two_metric(gamma1, np.nextafter(thr.gamma2, np.inf), thr) is False,
                 f"two-metric boundary wrong at {thr}")

    for _ in range(size // 5):
        n = int(rng.integers(2, 51))
        h = rng.integers(0, 12, size=n)
        h[int(rng.integers(n))] = 13  # unique maximum
        r = rng.uniform(0.0, 1.0, size=n)
        thr = calibrate(h, r)
        _require(rule_two_metric(h, r, thr).all(), "calibrated thresholds miss validation points")
        # one step tighter rejects exactly the unique-max sample
        _require(int(np.sum(~rule_one_metric(h, thr.gamma1 - 1))) == 1,
                 f"calibrated gamma1={thr.gamma1} not minimal")


def dot_gain_asymmetry() -> tuple:
    """Strong dot gain closes an enclosed white symbol and grows an isolated black one.

    Returns (white area, black area) in pixels; the template symbol is 9.
    """
    symbols = np.ones((15, 15), dtype=np.uint8)
    symbols[7, 7] = 0  # white symbol fully enclosed by ink
    symbols[:6, 9:] = 0  # substrate patch clear of the enclosed symbol
    symbols[3, 11] = 1  # isolated black symbol on substrate
    t = Template(
        symbols=symbols, symbol_px=3, pixels=upsample_symbols(symbols, 3),
        seed=0, marker_width_px=0,
    )
    params = replace(default_attack_params("fake2", "white", seed=0, plane_jitter=0.0).reprint,
                     noise_sigma=0.0)
    observed = acquire(print_template(t, params, "asym"), params, "original")
    recovered = estimate_template_binary(observed, AttackParams(morph_cleanup=False))
    white_area = int((recovered[21:24, 21:24] == 0).sum())
    # window stays >= 4px from any other ink, so all its ink is this symbol's
    black_area = int((recovered[5:16, 29:43] == 1).sum())
    _require(white_area == 0, f"white symbol survived with area {white_area}")
    _require(black_area >= 9, f"black symbol shrank to area {black_area}")
    return white_area, black_area


def seed_stability() -> None:
    """Seed derivation and the default dataset config hash match recorded constants."""
    _require(derive_seed(0, "template", 0) == 12011422197716097752, "derive_seed drifted")
    _require(config_hash(DatasetConfig()) == "8f2799fcc5659df2", "dataset config hash drifted")


# (suite, check, size) as run by the selftest; size None marks a fixed-input check
SELFTEST_SUITES = (
    ("otsu-oracle", otsu_oracle, 100),
    ("metric-oracles", metric_oracles, 200),
    ("ocsvm-dual-oracle", ocsvm_dual_oracle, 10),
    ("ocsvm-nu-property", ocsvm_nu_property, 100),
    ("supervised-gradient", supervised_gradient, 10),
    ("ae-gradient", ae_gradients, 1),
    ("mi-bounds", mi_bounds, 200),
    ("decision-rules", decision_rules, 200),
    ("channel-asymmetry", dot_gain_asymmetry, None),
    ("seed-stability", seed_stability, None),
)
