"""Authentication decision rules and validation-set threshold calibration.

A probe is accepted as original when its degradation metrics stay inside
calibrated bounds. Thresholds are set on validation originals so the
validation miss rate is exactly zero: each threshold is the maximum observed
score, i.e. the smallest value that still accepts every validation original.

The two-metric rule accepts only when both metrics pass. The printed rule it
implements classifies mixed outcomes (one metric passing, one failing)
ambiguously; requiring both to pass is the strictest completion protecting
originals, and the any-metric variant is kept available for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Union

import numpy as np

from .errors import DataError, ParameterError
from .ocsvm import OcSvmModel, decision_function

Scalar = Union[int, float]


@dataclass(frozen=True)
class Thresholds:
    """Acceptance bounds: symbol errors (gamma1) and l2 units (gamma2)."""

    gamma1: int
    gamma2: float = 0.0

    def __post_init__(self):
        if self.gamma1 < 0 or self.gamma2 < 0:
            raise ParameterError("thresholds must be nonnegative")

    def to_dict(self) -> dict:
        return {"gamma1": int(self.gamma1), "gamma2": float(self.gamma2)}


def rule_one_metric(hamming_sym, gamma1: int):
    """Accept iff hamming_sym <= gamma1 (boundary inclusive).

    Scalars return a bool; arrays return a boolean array.
    """
    accept = np.asarray(hamming_sym) <= gamma1
    return bool(accept) if accept.ndim == 0 else accept


def rule_two_metric(hamming_sym, recon_l2, thresholds: Thresholds, mode: str = "all"):
    """Accept iff both metrics pass their thresholds (boundary inclusive).

    mode="any" is the alternative completion accepting when either metric
    passes; reports may include it for comparison, the default is "all".
    """
    if mode not in ("all", "any"):
        raise ParameterError("mode must be 'all' or 'any'")
    pass1 = np.asarray(hamming_sym) <= thresholds.gamma1
    pass2 = np.asarray(recon_l2) <= thresholds.gamma2
    accept = (pass1 & pass2) if mode == "all" else (pass1 | pass2)
    return bool(accept) if accept.ndim == 0 else accept


def calibrate(
    hamming_sym: Iterable[Scalar],
    recon_l2: Optional[Iterable[Scalar]] = None,
) -> Thresholds:
    """Smallest thresholds with zero miss rate on the given validation originals.

    gamma1 is the maximum observed symbol error count; gamma2 the maximum
    observed reconstruction error (0.0 when no reconstruction scores are
    given, i.e. for one-metric rules).
    """
    h = np.asarray(list(hamming_sym) if not isinstance(hamming_sym, np.ndarray) else hamming_sym)
    if h.size == 0:
        raise DataError("cannot calibrate on an empty validation set")
    if np.any(h < 0):
        raise DataError("negative symbol error count")
    gamma2 = 0.0
    if recon_l2 is not None:
        r = np.asarray(list(recon_l2) if not isinstance(recon_l2, np.ndarray) else recon_l2, dtype=np.float64)
        if r.size == 0:
            raise DataError("cannot calibrate on an empty validation set")
        if r.size != h.size:
            raise DataError("metric score lists must align")
        if not np.all(np.isfinite(r)) or np.any(r < 0):
            raise DataError("reconstruction scores must be finite and nonnegative")
        gamma2 = float(r.max())
    return Thresholds(gamma1=int(h.max()), gamma2=gamma2)


def rule_ocsvm(model: OcSvmModel, features):
    """Accept iff the one-class decision value is >= 0 (boundary inside)."""
    points = np.asarray(features, dtype=np.float64)
    single = points.ndim == 1
    values = decision_function(model, points)
    accept = values >= 0.0
    return bool(accept[0]) if single else accept
