"""Shared fixtures and helpers: one small synthesized dataset, weight comparison."""

import numpy as np
import pytest

from cdp_authkit.experiment import DatasetConfig, load_dataset, synthesize_dataset
from cdp_authkit.nn import weighted_layers

SMALL_CONFIG = DatasetConfig(n_templates=25, n_sym=12, seed=7)


@pytest.fixture(scope="session")
def small_dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "small"
    synthesize_dataset(SMALL_CONFIG, out)
    return out


@pytest.fixture(scope="session")
def small_dataset(small_dataset_dir):
    return load_dataset(small_dataset_dir)


def same_weights(layers_a, layers_b) -> bool:
    """Bitwise equality of w and b over the weighted layers of two layer lists."""
    a, b = weighted_layers(layers_a), weighted_layers(layers_b)
    return len(a) == len(b) and all(
        np.array_equal(la.w, lb.w) and np.array_equal(la.b, lb.b) for la, lb in zip(a, b)
    )
