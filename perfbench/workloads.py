"""The benchmark workloads as plain data.

Each workload names the dataset it synthesizes, whether synthesis is timed
(otherwise it is part of set-up), and the presets it evaluates. The smoke
scale keeps the same stages at a size that runs in seconds. Nothing here
imports cdp_authkit: importing the package is part of measured set-up.
"""

from __future__ import annotations

from dataclasses import dataclass

# 25 templates is the smallest size at which every preset has enough
# training originals for the one-class SVM nu grid (nu * n >= 1).
SMOKE_DATASET = {"n_templates": 25, "n_sym": 12}


@dataclass(frozen=True)
class Workload:
    dataset: dict  # DatasetConfig keyword arguments, seed excluded
    synth_timed: bool  # synthesis inside the timed pass, not in set-up
    evals: tuple  # (preset, runs, AeConfig kwargs or None)
    smoke_evals: tuple
    oracle_codes: int = 0  # codes sampled for the metric oracle checks


# Passes are short (4 to 6 s on a shared 2-vCPU machine), so that eval_s,
# the median pass of a run, is taken over eight or more of them.
WORKLOADS = {
    "deep-s3": Workload(
        dataset={"n_templates": 50},
        synth_timed=False,
        evals=(("deep-scenario-3", 1, {"epochs": 1}),),
        smoke_evals=(("deep-scenario-3", 1, {"epochs": 1}),),
    ),
    "spatial-mlp": Workload(
        dataset={"n_templates": 100},
        synth_timed=True,
        evals=(("ocsvm-spatial", 5, None), ("supervised-5class", 1, None)),
        smoke_evals=(("ocsvm-spatial", 1, None), ("supervised-5class", 1, None)),
        oracle_codes=8,
    ),
}


def dataset_kwargs(workload: Workload, seed: int, smoke: bool) -> dict:
    return {**(SMOKE_DATASET if smoke else workload.dataset), "seed": seed}


def evals(workload: Workload, smoke: bool) -> tuple:
    return workload.smoke_evals if smoke else workload.evals
