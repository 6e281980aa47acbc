"""Independent reference implementations used to cross-check the fast paths.

Every routine here deliberately takes a different algorithmic route from the
production code it validates: exhaustive search instead of cumulative
moments, projected gradient descent instead of pair updates, plain-Python
accumulation instead of vectorized identities. They are slow on purpose and
serve the `selftest` checks (checks.py) and the tests. References that only
tests use (direct-loop convolution, the classifier's layer-chain SGD step)
live in tests/references.py.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateImageError
from .metrics import N_BINS


def otsu_exhaustive(image: np.ndarray) -> float:
    """Otsu threshold by brute-force scan over the split points at occupied bins.

    A split after an empty bin puts the same pixels below it as the split
    after the occupied bin before it, so it ties that split and can never win
    the strict comparison; skipping it leaves the result unchanged.
    """
    v = np.asarray(image, dtype=np.float64).ravel()
    bins = np.minimum((v * N_BINS).astype(np.int64), N_BINS - 1)
    best_k = -1
    best_var = -1.0
    for k in np.unique(bins).tolist():
        low = bins <= k
        n0 = int(low.sum())
        n1 = bins.size - n0
        if n0 == 0 or n1 == 0:
            continue
        w0 = n0 / bins.size
        w1 = n1 / bins.size
        mu0 = float(bins[low].mean())
        mu1 = float(bins[~low].mean())
        var = w0 * w1 * (mu0 - mu1) ** 2
        if var > best_var:
            best_var = var
            best_k = k
    if best_k < 0:
        raise DegenerateImageError("constant image: histogram occupies one bin")
    return (best_k + 1) / N_BINS


def pearson_naive(a, b) -> float:
    """Pearson correlation by direct definition with plain-Python floats."""
    xs = [float(x) for x in np.ravel(a)]
    ys = [float(y) for y in np.ravel(b)]
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx = sum((x - mx) ** 2 for x in xs)
    syy = sum((y - my) ** 2 for y in ys)
    return sxy / math.sqrt(sxx * syy)


def lp_naive(a, b) -> tuple[float, float]:
    """(mean absolute, root mean square) differences by direct loops."""
    xs = [float(x) for x in np.ravel(a)]
    ys = [float(y) for y in np.ravel(b)]
    n = len(xs)
    l1 = sum(abs(x - y) for x, y in zip(xs, ys)) / n
    l2 = math.sqrt(sum((x - y) ** 2 for x, y in zip(xs, ys)) / n)
    return l1, l2


def hamming_naive(sym_a, sym_b) -> int:
    """Symbol disagreements counted one cell at a time."""
    a = np.asarray(sym_a)
    b = np.asarray(sym_b)
    count = 0
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            count += int(a[i, j]) != int(b[i, j])
    return count


def project_simplex_box(v: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Euclidean projection of rows of v onto {0 <= a <= upper, sum(a) = 1}.

    Exact piecewise-linear solve: the shifted sum S(tau) = sum clip(v - tau,
    0, upper) is nonincreasing with breakpoints at v_i and v_i - upper_i, so
    the root of S(tau) = 1 is found by evaluating S at the sorted breakpoints
    and interpolating inside the crossing segment. Vectorized over rows.

    Args:
        v: (B, n) batch of points.
        upper: (B, n) per-coordinate upper bounds with row sums >= 1.
    """
    v = np.atleast_2d(np.asarray(v, dtype=np.float64))
    upper = np.broadcast_to(np.asarray(upper, dtype=np.float64), v.shape)
    bp = np.sort(np.concatenate([v, v - upper], axis=1), axis=1)  # (B, 2n)
    # S at every breakpoint: (B, 2n, n) -> (B, 2n), nonincreasing in k.
    s = np.clip(v[:, None, :] - bp[:, :, None], 0.0, upper[:, None, :]).sum(axis=2)
    ge1 = s >= 1.0  # always true at k=0 because S(bp_0) = sum(upper) >= 1
    k = ge1.shape[1] - 1 - np.argmax(ge1[:, ::-1], axis=1)  # last index with S >= 1
    rows = np.arange(v.shape[0])
    s_lo = s[rows, k]
    s_hi = s[rows, k + 1]
    bp_lo = bp[rows, k]
    bp_hi = bp[rows, k + 1]
    denom = s_lo - s_hi  # > 0: k is the last breakpoint with S >= 1
    frac = np.where(denom > 0.0, (s_lo - 1.0) / np.where(denom > 0, denom, 1.0), 0.0)
    tau = bp_lo + frac * (bp_hi - bp_lo)
    return np.clip(v - tau[:, None], 0.0, upper)


def pgd_dual(kernels: list[np.ndarray], uppers: list[float], iters: int = 100_000):
    """Projected gradient descent on (1/2) a'Ka over the simplex-box.

    Solves a batch of small problems simultaneously (padded to the largest
    n; padded coordinates get upper bound 0 and zero kernel rows, so they
    stay at 0). Returns the list of optimal dual objectives.

    Stops once the iterate is a numerical fixed point of the projected
    gradient map for 10 consecutive steps; a = P(a - s grad) is the exact
    optimality condition, so early exit never weakens the oracle.
    """
    batch = len(kernels)
    n_max = max(k.shape[0] for k in kernels)
    kk = np.zeros((batch, n_max, n_max))
    upper = np.zeros((batch, n_max))
    alpha = np.zeros((batch, n_max))
    steps = np.zeros(batch)
    for b, (k, c) in enumerate(zip(kernels, uppers)):
        n = k.shape[0]
        kk[b, :n, :n] = k
        upper[b, :n] = c
        alpha[b, :n] = 1.0 / n
        lam_max = float(np.linalg.eigvalsh(k).max())
        steps[b] = 1.0 / max(lam_max, 1e-12)
    settled = 0
    for _ in range(iters):
        grad = np.einsum("bij,bj->bi", kk, alpha)
        new = project_simplex_box(alpha - steps[:, None] * grad, upper)
        settled = settled + 1 if np.abs(new - alpha).max() <= 1e-15 else 0
        alpha = new
        if settled >= 10:
            break
    obj = 0.5 * np.einsum("bi,bij,bj->b", alpha, kk, alpha)
    return [float(o) for o in obj]


def ocsvm_kkt_violation(model, train_points: np.ndarray) -> float:
    """Maximal-violating-pair KKT residual of a trained one-class SVM.

    Reconstructs the full dual vector by matching stored support rows back
    to the (distinct) training points, then returns max g over coordinates
    that can give up mass minus min g over coordinates that can take mass;
    at optimality this is <= the solver tolerance.
    """
    z = model.standardize(train_points)
    n = z.shape[0]
    alphas = np.zeros(n)
    for sv, a in zip(model.support_points, model.alphas):
        matches = np.where((z == sv).all(axis=1))[0]
        if matches.size != 1:
            raise ValueError("training points must be distinct to match support rows")
        alphas[matches[0]] = a
    sq = (
        np.sum(z * z, axis=1)[:, None]
        + np.sum(z * z, axis=1)[None, :]
        - 2.0 * (z @ z.T)
    )
    np.maximum(sq, 0.0, out=sq)
    g = np.exp(-model.rbf_gamma * sq) @ alphas
    upper = 1.0 / (model.nu * n)
    eps = 1e-8
    up = g[alphas > eps]
    down = g[alphas < upper - eps]
    if up.size == 0 or down.size == 0:
        return 0.0
    return float(up.max() - down.min())
