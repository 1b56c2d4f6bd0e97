"""Each EM iteration does only the work it needs, and reaches the same fit.

The damped-Newton M-step evaluates one candidate per ``value`` call, and
ends without evaluating once a step can no longer gain
(``helpers.relative_margin_damped_newton`` is the loop that tries every
scale down to 2**-26 with the same acceptance margin, and
``helpers.reference_damped_newton`` the one with the older absolute
margin), and the expected counts come from one GEMM
(``helpers.reference_expected_counts`` is the form through the posterior
weights).  Each fast path must agree with its reference, and the M-step
must not drift back to evaluating candidates that cannot be taken.
"""

import numpy as np
import pytest

from rlcm import EmConfig, QMatrix, em_fit, simulate, theta_from_params
from rlcm import inference, models
from rlcm.core import bit_matrix
from rlcm.models import FAMILIES, FAMILY, ItemDesign

from helpers import (
    _sigmoid as masked_sigmoid,
    draw_monotone_params,
    random_proportions,
    reference_damped_newton,
    reference_expected_counts,
    relative_margin_damped_newton,
)

MAX_STEPS = (1, 2, 3, 5, 26, 27, 28, 50)


def _newton_problem(monkeypatch, family, design, coef, pos, tot):
    """The objective, derivatives, start and projection one ``update`` hands
    to the Newton solver."""
    problem = {}

    def capture(value, grad_neghess, coef, project=None):
        problem.update(value=value, grad_neghess=grad_neghess, coef=coef, project=project)
        return coef

    with monkeypatch.context() as patch:
        patch.setattr(models, "_damped_newton", capture)
        FAMILY[family].update(design, coef, pos, tot)
    return problem


def _draw_update(rng, family, n_required):
    """A design with ``n_required`` attributes, expected counts with some empty
    groups, and a start far enough out that steps are halved."""
    n_attributes = n_required + int(rng.integers(0, 2))
    q_row = np.zeros(n_attributes, dtype=int)
    q_row[rng.choice(n_attributes, n_required, replace=False)] = 1
    size = 1 << n_attributes
    tot = rng.choice([0.0, 1.0], p=[0.15, 0.85], size=size) * rng.uniform(0.5, 300.0, size)
    pos = tot * rng.uniform(0.0, 1.0, size)
    if family == "LLM":
        coef = rng.uniform(-6.0, 6.0, n_required + 1)
    else:
        coef = np.log(rng.uniform(1e-3, 1.0, n_required + 1))
    return ItemDesign(q_row), coef, pos, tot


def test_ladder_matches_one_candidate_at_a_time(monkeypatch):
    rng = np.random.default_rng(2024)
    halved = exhausted = 0
    for draw in range(400):
        family = ("LLM", "RRUM")[draw % 2]
        problem = _newton_problem(monkeypatch, family,
                                  *_draw_update(rng, family, 1 + draw % 5))
        max_steps = MAX_STEPS[draw // 2 % len(MAX_STEPS)]
        value = problem["value"]
        events = []

        def counted_value(c):
            events.append("v")
            return value(c)

        def grad_neghess(c):
            events.append("g")
            return problem["grad_neghess"](c)

        monkeypatch.setattr(models, "MAX_STEPS", max_steps)
        newton = models._damped_newton(value, problem["grad_neghess"], problem["coef"],
                                       problem["project"])
        loop = relative_margin_damped_newton(counted_value, grad_neghess, problem["coef"],
                                             problem["project"], max_steps=max_steps)
        assert np.array_equal(newton, loop), (draw, family, max_steps)
        # against the absolute 1e-12 margin, the objective loses only rounding
        old = value(reference_damped_newton(value, problem["grad_neghess"], problem["coef"],
                                            problem["project"], max_steps=max_steps))
        assert value(newton) >= old - 1e-15 * abs(old), (draw, family, max_steps)
        # per Newton step, the candidates the loop tried
        tried = [len(s) for s in "".join(events[1:]).split("g")[1:]]
        halved += any(n > 1 for n in tried[:-1])
        exhausted += sum(tried) == max_steps
    # the draws reach accepted halvings and the candidate budget
    assert halved > 100 and exhausted > 100


@pytest.mark.parametrize("max_steps", MAX_STEPS)
def test_ladder_matches_at_every_scale(monkeypatch, max_steps):
    # -|c|^2 with Newton steps 1.5 * 2**k too long: every step first improves
    # at scale 2**-k, and for k = 27 no scale of the ladder improves
    start = np.array([1.0, -0.5])

    def value(c):
        return -(c ** 2).sum()

    monkeypatch.setattr(models, "MAX_STEPS", max_steps)
    for k in range(29):
        def grad_neghess(c, stretch=1.5 * 2.0 ** k):
            return -2.0 * stretch * c, 2.0 * np.eye(c.size)

        newton = models._damped_newton(value, grad_neghess, start)
        loop = relative_margin_damped_newton(value, grad_neghess, start, max_steps=max_steps)
        assert np.array_equal(newton, loop), k
        assert np.array_equal(newton, start) == (k > 26 or k >= max_steps), k


def _counted_updates(monkeypatch, family, design, coefs, pos, tot):
    """Run ``update`` from each start; per call, its value ('v') and
    grad_neghess ('g') calls in order, and its result."""
    newton = models._damped_newton
    runs = []

    def counted(value, grad_neghess, coef, project=None):
        def counted_value(c):
            assert np.ndim(c) == 1, "one candidate per value call"
            events.append("v")
            return value(c)

        def counted_grad_neghess(c):
            events.append("g")
            return grad_neghess(c)

        return newton(counted_value, counted_grad_neghess, coef, project)

    with monkeypatch.context() as patch:
        patch.setattr(models, "_damped_newton", counted)
        for coef in coefs:
            events = []
            result = FAMILY[family].update(design, coef, pos, tot)
            runs.append(("".join(events), result))
    return runs


@pytest.mark.parametrize("family", ["LLM", "RRUM"])
def test_one_value_call_per_candidate_and_none_past_convergence(monkeypatch, family):
    # expected counts of the family's own model, every group observed
    rng = np.random.default_rng(sum(map(ord, family)))
    for draw in range(20):
        design = ItemDesign(np.ones(1 + draw % 5, dtype=int))
        tot = rng.uniform(5.0, 50.0, design.n_groups)
        pos = tot * FAMILY[family].row(design, FAMILY[family].init(design, rng))
        [(events, coef)] = _counted_updates(monkeypatch, family, design,
                                            [FAMILY[family].init(design, rng)], pos, tot)
        start, *steps = events.split("g")
        # the start, one call per candidate, and none after the last step
        assert start == "v" and len(steps) >= 2 and steps[-1] == "", (draw, events)
        # restarted from its own result, the ascent costs only its start
        [(events, again)] = _counted_updates(monkeypatch, family, design, [coef], pos, tot)
        assert events == "vg" and np.array_equal(again, coef), (draw, events)


@pytest.mark.parametrize("family", ["LLM", "RRUM"])
def test_converged_restart_costs_at_most_two_value_calls(monkeypatch, family):
    # the margin grows with the objective, so a restart at the optimum tries
    # no scale whose gain is rounding; with the absolute 1e-12 margin, 47 of
    # these 2,400 restarts over both families cost 2 to 5 calls
    for m in range(1, 7):
        rng = np.random.default_rng(100 + m)
        design = ItemDesign(np.ones(m, dtype=int))
        for draw in range(200):
            tot = rng.uniform(5.0, 500.0, design.n_groups) * (8.0 if draw % 2 else 1.0)
            pos = tot * FAMILY[family].row(design, FAMILY[family].init(design, rng))
            [(_, coef)] = _counted_updates(monkeypatch, family, design,
                                           [FAMILY[family].init(design, rng)], pos, tot)
            [(events, _)] = _counted_updates(monkeypatch, family, design, [coef], pos, tot)
            assert events.count("v") <= 2, (m, draw, events)


def test_sigmoid_matches_the_masked_form():
    edge = -745.1332191019411  # exp(edge) is the smallest subnormal double
    x = np.concatenate([np.linspace(-800.0, 800.0, 200_000),
                        [0.0, -0.0, edge, np.nextafter(edge, -np.inf), np.nextafter(edge, 0.0),
                         -708.3964185322641, 36.7368005696771, 37.0]])
    one_line, masked = models._sigmoid(x), masked_sigmoid(x)
    np.testing.assert_allclose(one_line, masked, rtol=4e-15, atol=0)
    assert np.array_equal(one_line == 0, masked == 0) and (masked == 0).any()


def test_rrum_item_at_its_bounds_costs_one_value_call(monkeypatch):
    # every group answers correctly: the optimum is pi = 1 and every
    # penalty at its cap, where the projected step lands on the point
    rng = np.random.default_rng(8)
    design = ItemDesign([1, 1, 0, 1])
    tot = rng.uniform(5.0, 50.0, 1 << design.n_attributes)
    start = FAMILY["RRUM"].init(design, rng)
    runs = _counted_updates(monkeypatch, "RRUM", design, [start], tot, tot)
    bound = runs[0][1]
    assert np.array_equal(bound, [0.0, -1e-9, -1e-9, -1e-9])
    runs = _counted_updates(monkeypatch, "RRUM", design, [bound, bound], tot, tot)
    assert [events for events, _ in runs] == ["vg", "vg"]
    assert all(np.array_equal(coef, bound) for _, coef in runs)


def _expected_count_inputs(rng, theta_values):
    n_items, n_classes = theta_values.shape
    bits = bit_matrix(rng.integers(0, 1 << n_items, size=300), n_items).astype(np.float64)
    like = inference._likelihood_matrix(np.hstack([bits, np.ones((300, 1))]), theta_values)
    p = rng.dirichlet(np.ones(n_classes))
    return bits, rng.integers(1, 50, size=300).astype(np.float64), like, like @ p, p


def _assert_counts_match(args):
    bits, counts, like, mixture, p = args
    ref_pos, ref_tot = reference_expected_counts(*args)
    # the fused counts scale ``like`` in place, so they get their own copy
    bits_one = np.hstack([bits, np.ones((len(bits), 1))])
    pos, tot = inference._expected_counts(bits_one, counts, like.copy(), mixture, p)
    np.testing.assert_allclose(pos, ref_pos, rtol=1e-12, atol=0)
    np.testing.assert_allclose(tot, ref_tot, rtol=1e-12, atol=0)


@pytest.mark.parametrize("family", FAMILIES)
def test_fused_expected_counts_match_reference(family):
    rng = np.random.default_rng(sum(map(ord, family)) + 1)
    for _ in range(5):
        n_items = int(rng.integers(1, 13))
        n_attributes = int(rng.integers(1, 5))
        q = rng.integers(0, 2, size=(n_items, n_attributes))
        q[q.sum(axis=1) == 0, rng.integers(0, n_attributes)] = 1
        q = QMatrix(q)
        params = [draw_monotone_params(rng, family, row) for row in q.entries]
        _assert_counts_match(_expected_count_inputs(rng, theta_from_params(q, params).values))


def test_fused_expected_counts_at_the_clamp():
    rng = np.random.default_rng(5)
    for _ in range(5):
        values = rng.choice([0.0, 1e-15, 0.3, 1.0 - 1e-15, 1.0], size=(12, 8))
        _assert_counts_match(_expected_count_inputs(rng, values))


Q_ROWS = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 0], [0, 1, 0], [0, 0, 1],
          [1, 1, 0], [0, 1, 1], [1, 0, 1], [1, 1, 1]]
DESIGNS = {family: [family] * len(Q_ROWS) for family in FAMILIES}
DESIGNS["mixed"] = list(FAMILIES) * 2
# closed-form M-steps meet the reference to rounding; the Newton M-steps
# carry the E-step's last-digit differences through their iterations
THETA_TOL = {"DINA": 1e-8, "DINO": 1e-8, "GDINA": 1e-8, "LLM": 1e-6, "RRUM": 1e-6,
             "mixed": 1e-6}


@pytest.mark.parametrize("design", DESIGNS)
def test_em_fit_reaches_the_reference_fit(monkeypatch, design):
    rng = np.random.default_rng(13)
    q = QMatrix(Q_ROWS)
    families = DESIGNS[design]
    params = [draw_monotone_params(rng, fam, row) for fam, row in zip(families, q.entries)]
    data = simulate(theta_from_params(q, params), random_proportions(rng, 3), 3000, seed=9)
    config = EmConfig(max_iters=40, tol=1e-300, restarts=3, seed=7)
    fast = em_fit(data, q, families, config)
    with monkeypatch.context() as patch:
        patch.setattr(models, "_damped_newton", reference_damped_newton)
        patch.setattr(inference, "_expected_counts", lambda bits_one, *rest:
                      reference_expected_counts(bits_one[:, :-1], *rest))
        slow = em_fit(data, q, families, config)
    assert np.argmax(fast.restart_logliks) == np.argmax(slow.restart_logliks)
    np.testing.assert_allclose(fast.restart_logliks, slow.restart_logliks, rtol=1e-9, atol=0)
    assert np.abs(fast.theta_hat.values - slow.theta_hat.values).max() <= THETA_TOL[design]
    assert np.abs(fast.p_hat.probs - slow.p_hat.probs).max() <= THETA_TOL[design]
