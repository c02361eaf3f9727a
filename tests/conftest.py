"""Shared helpers for the test suite."""

from __future__ import annotations

import random

import numpy as np
import pytest

import shiftlab.pipeline as pipeline_module
from shiftlab.seeds import derive, label_path


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


@pytest.fixture
def waves(monkeypatch):
    """The row counts of the stage-0 waves run_pipeline builds, in order:
    the wave builder's are the pipeline module's only 2-D subset_sums
    calls (a later stage's one-row runs pass a 1-D array of one row's
    labels)."""
    built = []
    real = pipeline_module.subset_sums

    def recording(weights):
        if np.ndim(weights) == 2:
            built.append(len(weights))
        return real(weights)

    monkeypatch.setattr(pipeline_module, "subset_sums", recording)
    return built


def stream(*path: object) -> random.Random:
    """Deterministic per-test RNG; path keeps streams independent."""
    return random.Random(derive(0x5EED, *[label_path(str(p)) for p in path]))


def chi_square_p(counts, expected) -> float:
    """Upper-tail chi-square p-value via the regularized gamma function."""
    from scipy.stats import chi2

    stat = sum((c - e) ** 2 / e for c, e in zip(counts, expected))
    dof = len(counts) - 1
    return float(chi2.sf(stat, dof))
