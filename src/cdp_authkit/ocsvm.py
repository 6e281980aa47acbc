"""One-class support vector machine with an RBF kernel, trained in the dual.

Formulation: minimize (1/2) a' K a subject to sum(a) = 1 and
0 <= a_i <= 1/(nu*n), with k(x, y) = exp(-rbf_gamma * ||x - y||^2) over
feature vectors standardized per dimension. The decision function is
f(x) = sum_j a_j k(s_j, x) - rho, nonnegative inside the learned support
region. rho is the average kernel expansion over unbounded support vectors
(falling back to all support vectors when every one sits at the box bound,
which is the nu = 1 regime).

The solver is a maximal-violating-pair coordinate method: each step moves
mass between the worst KKT-violating pair of coordinates with an exact
line search, so box constraints are hit exactly and the equality constraint
is preserved by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import DataError, ParameterError, TrainingError
from .imageio import array_field, int_field, read_json, require_fields, write_json

ALPHA_EPS = 1e-8  # below this an alpha counts as zero (not a support vector)
SMO_TOL = 1e-6  # KKT violation below which the pair solver has converged
SMO_MAX_ITER = 200_000  # pair-update budget
NU_GRID = (0.0005, 0.01, 0.03, 0.1)  # select_nu's candidates


@dataclass(frozen=True)
class OcSvmModel:
    """Trained model: standardized support points, dual weights, offset."""

    support_points: np.ndarray  # (m, d), standardized coordinates
    alphas: np.ndarray  # (m,), each in (ALPHA_EPS, 1/(nu*n)]
    rho: float
    nu: float
    rbf_gamma: float
    n_train: int
    scaler_mean: np.ndarray  # (d,)
    scaler_std: np.ndarray  # (d,), zero-variance dims mapped to 1
    tol: float = 1e-6
    iterations: int = 0

    def __post_init__(self):
        self.support_points.setflags(write=False)
        self.alphas.setflags(write=False)

    @property
    def dim(self) -> int:
        return int(self.support_points.shape[1])

    def standardize(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if pts.shape[1] != self.dim:
            raise DataError(f"expected {self.dim}-dimensional points")
        return (pts - self.scaler_mean) / self.scaler_std


def _rbf_matrix(a: np.ndarray, b: np.ndarray, gamma: float) -> np.ndarray:
    sq = (
        np.sum(a * a, axis=1)[:, None]
        + np.sum(b * b, axis=1)[None, :]
        - 2.0 * (a @ b.T)
    )
    np.maximum(sq, 0.0, out=sq)
    return np.exp(-gamma * sq)


def train_ocsvm(
    points: np.ndarray,
    nu: float,
    rbf_gamma: float = 0.1,
) -> OcSvmModel:
    """Fit the one-class SVM on raw (unstandardized) feature vectors.

    Args:
        points: (n, d) training features, finite.
        nu: in (0, 1]; nu * n >= 1 is required for dual feasibility.
        rbf_gamma: RBF kernel width in standardized space.

    Raises:
        ParameterError: invalid nu/gamma or infeasible nu * n < 1.
        DataError: non-finite or badly shaped input.
        TrainingError: SMO_MAX_ITER pair updates ran before the violation fell below SMO_TOL.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise DataError("points must be a nonempty (n, d) array")
    if not np.all(np.isfinite(pts)):
        raise DataError("points must be finite")
    if not 0.0 < nu <= 1.0:
        raise ParameterError("nu must lie in (0, 1]")
    if not 0 < rbf_gamma < math.inf:
        raise ParameterError("rbf_gamma must be positive and finite")
    n = pts.shape[0]
    if nu * n < 1.0:
        raise ParameterError(f"infeasible: nu*n = {nu * n:.4g} < 1")

    mean = pts.mean(axis=0)
    std = pts.std(axis=0)
    std = np.where(std == 0.0, 1.0, std)  # constant dims carry no information
    z = (pts - mean) / std

    upper = 1.0 / (nu * n)
    kernel = _rbf_matrix(z, z, rbf_gamma)
    alphas = np.full(n, 1.0 / n)
    grad = kernel @ alphas  # gradient of the dual objective
    iterations = 0
    hit_tol = False
    for iterations in range(1, SMO_MAX_ITER + 1):
        up_mask = alphas > ALPHA_EPS  # mass can leave these
        down_mask = alphas < upper - ALPHA_EPS  # mass can enter these
        if not down_mask.any():
            hit_tol = True  # nu = 1: every coordinate pinned at the bound
            break
        i = int(np.argmax(np.where(up_mask, grad, -np.inf)))
        j = int(np.argmin(np.where(down_mask, grad, np.inf)))
        violation = grad[i] - grad[j]
        if violation < SMO_TOL:
            hit_tol = True
            break
        eta = kernel[i, i] + kernel[j, j] - 2.0 * kernel[i, j]
        step = violation / eta if eta > 1e-15 else np.inf
        room_i = alphas[i]
        room_j = upper - alphas[j]
        delta = min(step, room_i, room_j)
        # Hit bounds exactly so support-vector sets stay crisp.
        alphas[i] = 0.0 if delta == room_i else alphas[i] - delta
        alphas[j] = upper if delta == room_j else alphas[j] + delta
        grad += delta * (kernel[:, j] - kernel[:, i])
    if not hit_tol:
        raise TrainingError(
            f"pair solver did not reach tol={SMO_TOL} within {SMO_MAX_ITER} updates"
        )

    sv = alphas > ALPHA_EPS
    unbounded = sv & (alphas < upper - ALPHA_EPS)
    rho_set = unbounded if unbounded.any() else sv
    rho = float(grad[rho_set].mean())
    return OcSvmModel(
        support_points=z[sv].copy(),
        alphas=alphas[sv].copy(),
        rho=rho,
        nu=float(nu),
        rbf_gamma=float(rbf_gamma),
        n_train=n,
        scaler_mean=mean,
        scaler_std=std,
        tol=SMO_TOL,
        iterations=iterations,
    )


def decision_function(model: OcSvmModel, points: np.ndarray) -> np.ndarray:
    """f(x) for each row of points; >= 0 means inside the support region."""
    z = model.standardize(points)
    k = _rbf_matrix(z, model.support_points, model.rbf_gamma)
    return k @ model.alphas - model.rho


def dual_objective(model: OcSvmModel) -> float:
    """(1/2) a' K a restricted to the stored support vectors."""
    k = _rbf_matrix(model.support_points, model.support_points, model.rbf_gamma)
    return float(0.5 * model.alphas @ k @ model.alphas)


def select_nu(
    train_points: np.ndarray,
    val_points: np.ndarray,
    rbf_gamma: float = 0.1,
) -> tuple[OcSvmModel, float, dict]:
    """Grid-search nu over NU_GRID by validation miss rate on genuine points.

    Infeasible grid entries (nu * n < 1) are skipped; ties go to the
    smallest nu. Returns (model, nu, {nu: p_miss}).
    """
    n = np.atleast_2d(train_points).shape[0]
    table: dict[float, float] = {}
    best: Optional[tuple[float, float]] = None
    models: dict[float, OcSvmModel] = {}
    for nu in NU_GRID:
        if nu * n < 1.0:
            continue
        model = train_ocsvm(train_points, nu=nu, rbf_gamma=rbf_gamma)
        p_miss = float(np.mean(decision_function(model, val_points) < 0.0))
        table[nu] = p_miss
        models[nu] = model
        if best is None or p_miss < best[0]:
            best = (p_miss, nu)
    if best is None:
        raise ParameterError("every nu in the grid is infeasible for this n")
    nu = best[1]
    return models[nu], nu, table


def save_model(model: OcSvmModel, path: str | Path) -> None:
    write_json(
        path,
        {
            "kind": "ocsvm",
            "support_points": model.support_points.tolist(),
            "alphas": model.alphas.tolist(),
            "rho": model.rho,
            "nu": model.nu,
            "rbf_gamma": model.rbf_gamma,
            "n_train": model.n_train,
            "scaler_mean": model.scaler_mean.tolist(),
            "scaler_std": model.scaler_std.tolist(),
            "tol": model.tol,
            "iterations": model.iterations,
        },
    )


def load_model(path: str | Path) -> OcSvmModel:
    obj = read_json(path)
    if not isinstance(obj, dict) or obj.get("kind") != "ocsvm":
        raise DataError(f"{path}: not a one-class SVM model file")
    require_fields(obj, path, "support_points", "alphas", "n_train", "scaler_mean", "scaler_std",
                   "iterations", rho="float", nu="float", rbf_gamma="float", tol="float")
    support_points = array_field(obj, path, "support_points", (None, None))
    m, d = support_points.shape
    return OcSvmModel(
        support_points=support_points,
        alphas=array_field(obj, path, "alphas", (m,)),
        rho=float(obj["rho"]),
        nu=float(obj["nu"]),
        rbf_gamma=float(obj["rbf_gamma"]),
        n_train=int_field(obj, path, "n_train"),
        scaler_mean=array_field(obj, path, "scaler_mean", (d,)),
        scaler_std=array_field(obj, path, "scaler_std", (d,)),
        tol=float(obj["tol"]),
        iterations=int_field(obj, path, "iterations"),
    )
