"""The E-step likelihood as one log-domain GEMM, against the per-item product.

``helpers.reference_likelihood`` is the loop the GEMM replaced.  The two
must agree entry by entry, stay finite at the probability clamp, and
lead ``em_fit`` to the same fit (``helpers.reference_e_step`` is the
E-step built on it).  ``inference._e_step`` takes the patterns in chunks:
with the chunk constants patched down to a few patterns, its
log-likelihood and counts must be their one-chunk values, at its own
constants they must be the brute-force ones, and a fit at the size caps
must hold one chunk of likelihood, not all of it.
"""

import math
import subprocess
import sys

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

from helpers import (
    child_env,
    draw_monotone_item_params,
    random_proportions,
    reference_e_step,
    reference_likelihood,
)

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
        like = np.exp(_with_ones(bits) @ inference._log_weights(theta.values))
        assert like.shape == (1 << n_items, 1 << n_attributes)
        assert _max_rel_dev(like, reference_likelihood(bits, theta.values)) <= 1e-12


def test_entries_beyond_the_clamp_match_reference():
    rng = np.random.default_rng(3)
    values = rng.choice([0.0, 1e-15, 0.3, 1.0 - 1e-15, 1.0], size=(12, 8))
    bits = bit_matrix(rng.integers(0, 1 << 12, size=500), 12).astype(np.float64)
    like = np.exp(_with_ones(bits) @ inference._log_weights(values))
    assert _max_rel_dev(like, reference_likelihood(bits, values)) <= 1e-12


def test_every_entry_at_the_clamp_keeps_loglik_finite():
    # J=20 with every entry at the clamp: each subject's likelihood is
    # THETA_CLAMP**20 = 1e-240 in every class, the smallest the E-step forms
    n_items = 20
    theta = ThetaMatrix(np.tile([[0.0, 1.0]], (n_items, 1)))
    p = ProportionVector([0.5, 0.5])
    data = ResponseData(np.array([0, (1 << n_items) - 1] * 3), n_items)
    counts, bits_one = data._patterns
    like = np.exp(bits_one @ inference._log_weights(theta.values))
    assert (like > 0).all() and like.min() == pytest.approx(THETA_CLAMP ** n_items, rel=1e-9)
    value = loglik(data, theta, p)
    assert math.isfinite(value)
    # each subject: 0.5 * (1e-240 + (1 - 1e-12)**20)
    assert value == pytest.approx(6 * (math.log(0.5) + n_items * math.log1p(-THETA_CLAMP)),
                                  rel=1e-12)


def _fit(monkeypatch, e_step, data, q, families, config):
    with monkeypatch.context() as patch:
        patch.setattr(inference, "_e_step", e_step)
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
    fast = _fit(monkeypatch, inference._e_step, data, q, families, config)
    slow = _fit(monkeypatch, reference_e_step, data, q, families, config)
    assert np.argmax(fast.restart_logliks) == np.argmax(slow.restart_logliks)
    np.testing.assert_allclose(fast.restart_logliks, slow.restart_logliks, rtol=1e-9, atol=0)
    np.testing.assert_allclose(fast.loglik_trace, slow.loglik_trace, rtol=1e-9, atol=0)
    assert np.abs(fast.theta_hat.values - slow.theta_hat.values).max() <= THETA_TOL[family]
    assert np.abs(fast.p_hat.probs - slow.p_hat.probs).max() <= THETA_TOL[family]


def _pattern_inputs(seed, n_items, n_attributes, n_subjects):
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.02, 0.98, (n_items, 1 << n_attributes))
    data = ResponseData(rng.integers(0, 1 << n_items, n_subjects), n_items)
    return data, ThetaMatrix(values), random_proportions(rng, n_attributes)


# a chunk of 1, 3 or 7 patterns, or one chunk of every pattern
@pytest.mark.parametrize("patterns", [1, 3, 7, 10**6])
@pytest.mark.parametrize("seed", range(4))
def test_chunks_give_the_one_chunk_e_step(monkeypatch, seed, patterns):
    data, theta, p = _pattern_inputs(seed, 3 + 2 * seed, 1 + seed, 40 + 50 * seed)
    counts, bits_one = data._patterns
    whole = inference._e_step(counts, bits_one, theta.values, p.probs, True)
    one_chunk = loglik(data, theta, p)
    monkeypatch.setattr(inference, "CHUNK_BYTES", 0)
    monkeypatch.setattr(inference, "CHUNK_PATTERNS", patterns)
    ll, pos, tot = inference._e_step(counts, bits_one, theta.values, p.probs, True)
    assert ll == pytest.approx(whole[0], rel=1e-12, abs=0)
    assert loglik(data, theta, p) == pytest.approx(one_chunk, rel=1e-12, abs=0)
    np.testing.assert_allclose(pos, whole[1], rtol=1e-12, atol=0)
    np.testing.assert_allclose(tot, whole[2], rtol=1e-12, atol=0)
    # and both are the brute-force E-step's
    ref = reference_e_step(counts, bits_one, theta.values, p.probs, True)
    assert ll == pytest.approx(ref[0], rel=1e-12, abs=0)
    np.testing.assert_allclose(pos, ref[1], rtol=1e-12, atol=0)
    np.testing.assert_allclose(tot, ref[2], rtol=1e-12, atol=0)
    assert inference._e_step(counts, bits_one, theta.values, p.probs)[1:] == (None, None)


def _chunked_e_step(counts, *args):
    """``inference._e_step``'s result, and the patterns in each of its chunks."""
    seen = []

    class Counts(np.ndarray):
        # a chunk's counts times its log mixture: one product per chunk
        def __matmul__(self, other):
            seen.append(len(self))
            return np.asarray(self) @ other

    return inference._e_step(counts.view(Counts), *args), seen


def _chunk_lengths(patterns, rows):
    whole, rest = divmod(patterns, rows)
    return [rows] * whole + [rest] * (rest > 0)


# 2**4 classes of doubles are 128 bytes a pattern: 5 patterns in 640 bytes,
# unless the floor is more
@pytest.mark.parametrize("floor, rows", [(2, 5), (9, 9)])
def test_a_chunk_holds_its_byte_budget(monkeypatch, floor, rows):
    data, theta, p = _pattern_inputs(5, 8, 4, 300)
    counts, bits_one = data._patterns
    monkeypatch.setattr(inference, "CHUNK_BYTES", 640)
    monkeypatch.setattr(inference, "CHUNK_PATTERNS", floor)
    _, seen = _chunked_e_step(counts, bits_one, theta.values, p.probs)
    assert seen == _chunk_lengths(len(counts), rows)


def test_the_default_chunks_give_the_reference_e_step():
    # at the module's own constants: 16 classes are 128 bytes a pattern, and
    # some 4,800 distinct patterns of 16 items fill more than two chunks
    data, theta, p = _pattern_inputs(6, 16, 4, 5000)
    counts, bits_one = data._patterns
    rows = inference.CHUNK_BYTES // 128
    assert rows >= inference.CHUNK_PATTERNS and len(counts) > 2 * rows
    (ll, pos, tot), seen = _chunked_e_step(counts, bits_one, theta.values, p.probs, True)
    assert seen == _chunk_lengths(len(counts), rows)
    ref = reference_e_step(counts, bits_one, theta.values, p.probs, True)
    assert ll == pytest.approx(ref[0], rel=1e-12, abs=0)
    np.testing.assert_allclose(pos, ref[1], rtol=1e-12, atol=0)
    np.testing.assert_allclose(tot, ref[2], rtol=1e-12, atol=0)


# The worker fits J = 20, K = 14 with 2,000 subjects for one iteration and
# prints its peak RSS.  It is started through an intermediate interpreter
# because Linux carries a parent's peak RSS into ru_maxrss across fork and
# exec (see tests/test_tmatrix.py).
_FIT_WORKER = """
import resource
import numpy as np
from rlcm import EmConfig, QMatrix, ResponseData, em_fit
q = QMatrix(np.eye(14, dtype=int)[np.arange(20) % 14])
data = ResponseData(np.random.default_rng(0).integers(0, 1 << 20, 2000), 20)
em_fit(data, q, ["DINA"] * 20, EmConfig(max_iters=1, restarts=1, seed=1))
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""
_HOP = "import subprocess, sys; sys.exit(subprocess.call(sys.argv[1:]))"


def test_a_fit_at_the_caps_holds_one_chunk_of_likelihood():
    # one BLAS thread, since each thread's buffers count in the peak
    env = dict(child_env(), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", _HOP, sys.executable, "-c", _FIT_WORKER],
                          capture_output=True, text=True, timeout=120, env=env)
    assert done.returncode == 0, done.stderr
    # ru_maxrss is in KiB on Linux; the likelihood of all 2,000 patterns
    # alone is 250 MiB, a chunk of 21 patterns 2.6 MiB
    assert int(done.stdout) <= 100 * 1024
