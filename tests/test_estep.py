"""The E-step likelihood as one log-domain GEMM, against the per-item product.

``helpers.reference_likelihood`` is the loop the GEMM replaced.  The two
must agree entry by entry, stay finite at the probability clamp, and
lead ``em_fit`` to the same fit.
"""

import math

import numpy as np
import pytest

from rlcm import (
    EmConfig,
    ProportionVector,
    QMatrix,
    ResponseData,
    ThetaMatrix,
    em_fit,
    loglik,
    simulate,
    theta_from_params,
)
from rlcm import inference
from rlcm.core import bit_matrix
from rlcm.models import FAMILIES, THETA_CLAMP

from helpers import draw_monotone_item_params, random_proportions, reference_likelihood

Q_ROWS = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 0], [0, 1, 0], [0, 0, 1],
          [1, 1, 0], [0, 1, 1], [1, 0, 1], [1, 1, 1]]


def _max_rel_dev(a, b) -> float:
    return float((np.abs(a - b) / np.abs(b)).max())


def _with_ones(bits):
    """``[bits | 1]``, the rows the GEMM likelihood takes."""
    return np.hstack([bits, np.ones((len(bits), 1))])


@pytest.mark.parametrize("family", FAMILIES)
def test_gemm_likelihood_matches_reference(family):
    rng = np.random.default_rng(sum(map(ord, family)))
    for _ in range(5):
        n_items = int(rng.integers(1, 13))
        n_attributes = int(rng.integers(1, 5))
        q = rng.integers(0, 2, size=(n_items, n_attributes))
        q[q.sum(axis=1) == 0, rng.integers(0, n_attributes)] = 1
        q = QMatrix(q)
        theta = theta_from_params(q, draw_monotone_item_params(rng, family, q))
        bits = bit_matrix(np.arange(1 << n_items), n_items).astype(np.float64)
        like = inference._likelihood_matrix(_with_ones(bits), theta.values)
        assert like.shape == (1 << n_items, 1 << n_attributes)
        assert _max_rel_dev(like, reference_likelihood(bits, theta.values)) <= 1e-12


def test_entries_beyond_the_clamp_match_reference():
    rng = np.random.default_rng(3)
    values = rng.choice([0.0, 1e-15, 0.3, 1.0 - 1e-15, 1.0], size=(12, 8))
    bits = bit_matrix(rng.integers(0, 1 << 12, size=500), 12).astype(np.float64)
    like = inference._likelihood_matrix(_with_ones(bits), values)
    assert _max_rel_dev(like, reference_likelihood(bits, values)) <= 1e-12


def test_every_entry_at_the_clamp_keeps_loglik_finite():
    # J=20 with every entry at the clamp: each subject's likelihood is
    # THETA_CLAMP**20 = 1e-240 in every class, the smallest the E-step forms
    n_items = 20
    theta = ThetaMatrix(np.tile([[0.0, 1.0]], (n_items, 1)))
    p = ProportionVector([0.5, 0.5])
    data = ResponseData(np.array([0, (1 << n_items) - 1] * 3), n_items)
    counts, bits_one = inference._pattern_stats(data)
    like = inference._likelihood_matrix(bits_one, theta.values)
    assert (like > 0).all() and like.min() == pytest.approx(THETA_CLAMP ** n_items, rel=1e-9)
    value = loglik(data, theta, p)
    assert math.isfinite(value)
    # each subject: 0.5 * (1e-240 + (1 - 1e-12)**20)
    assert value == pytest.approx(6 * (math.log(0.5) + n_items * math.log1p(-THETA_CLAMP)),
                                  rel=1e-12)


def _fit(monkeypatch, likelihood, data, q, families, config):
    with monkeypatch.context() as patch:
        patch.setattr(inference, "_likelihood_matrix", likelihood)
        return em_fit(data, q, families, config)


# the Newton M-steps of LLM and RRUM amplify the 1e-14 likelihood
# difference over their iterations; the closed forms do not
THETA_TOL = {"DINA": 1e-8, "DINO": 1e-8, "GDINA": 1e-8, "LLM": 1e-6, "RRUM": 1e-6}


@pytest.mark.parametrize("family", FAMILIES)
def test_em_fit_reaches_the_reference_fit(monkeypatch, family):
    rng = np.random.default_rng(11)
    q = QMatrix(Q_ROWS)
    families = [family] * q.n_items
    theta = theta_from_params(q, draw_monotone_item_params(rng, family, q))
    data = simulate(theta, random_proportions(rng, 3), 3000, seed=5)
    config = EmConfig(max_iters=40, tol=1e-300, restarts=2, seed=7)
    fast = _fit(monkeypatch, inference._likelihood_matrix, data, q, families, config)
    slow = _fit(monkeypatch, lambda bits_one, values:
                reference_likelihood(bits_one[:, :-1], values), data, q, families, config)
    assert np.argmax(fast.restart_logliks) == np.argmax(slow.restart_logliks)
    np.testing.assert_allclose(fast.restart_logliks, slow.restart_logliks, rtol=1e-9, atol=0)
    np.testing.assert_allclose(fast.loglik_trace, slow.loglik_trace, rtol=1e-9, atol=0)
    assert np.abs(fast.theta_hat.values - slow.theta_hat.values).max() <= THETA_TOL[family]
    assert np.abs(fast.p_hat.probs - slow.p_hat.probs).max() <= THETA_TOL[family]
