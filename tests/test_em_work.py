"""Each EM iteration does only the work it needs, and reaches the same fit.

Restarts run EM in lockstep blocks, and the LLM and RRUM items share one
M-step: one damped-Newton call per EM iteration on the stack of every
(restart, link item) row, each group taking its item's link
(``helpers.reference_run_em`` is the loop one start and one item at a time,
``helpers.one_vector_damped_newton`` the ascent of one row, and a row of a
mixed stack is bit for bit the row of a one-family stack).  The ascent
evaluates one candidate per row per ``value`` call, and ends a row without
evaluating once its step can no longer gain
(``helpers.relative_margin_damped_newton`` is the loop that tries every
scale down to 2**-26 with the same acceptance margin, and
``helpers.reference_damped_newton`` the one with the older absolute
margin), and the expected counts come from one GEMM
(``helpers.reference_expected_counts`` is the form through the posterior
weights).  Each fast path must agree with its reference, and the M-step
must not drift back to evaluating candidates that cannot be taken.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rlcm import EmConfig, QMatrix, em_fit, loglik, simulate, theta_from_params
from rlcm import inference, models
from rlcm.core import bit_matrix
from rlcm.models import FAMILIES, FAMILY, FamilyStack, ItemDesign

from helpers import (
    _sigmoid as masked_sigmoid,
    draw_monotone_params,
    one_start_at_a_time,
    one_vector_damped_newton,
    random_proportions,
    reference_damped_newton,
    reference_expected_counts,
    reference_group_sums,
    reference_item_row,
    reference_newton_problem,
    relative_margin_damped_newton,
)

MAX_STEPS = (1, 2, 3, 5, 26, 27, 28, 50)


def _one_row(value, grad_neghess, project=None):
    """A one-vector problem as the stacked solver sees it: a stack of one row."""
    return (lambda c: np.array([value(c[0])]),
            lambda c: tuple(a[None] for a in grad_neghess(c[0])),
            None if project is None else lambda c: project(c[0])[None])


def _stacked_newton(value, grad_neghess, coef, project=None):
    """``models._damped_newton`` on the one-row stack of a one-vector problem."""
    value, grad_neghess, project = _one_row(value, grad_neghess, project)
    return models._damped_newton(value, grad_neghess, coef[None], project)[0]


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
        value, grad, start, project = reference_newton_problem(
            family, *_draw_update(rng, family, 1 + draw % 5))
        problem = {"value": value, "grad_neghess": grad, "coef": start, "project": project}
        max_steps = MAX_STEPS[draw // 2 % len(MAX_STEPS)]
        events = []

        def counted_value(c):
            events.append("v")
            return value(c)

        def grad_neghess(c):
            events.append("g")
            return problem["grad_neghess"](c)

        monkeypatch.setattr(models, "MAX_STEPS", max_steps)
        newton = _stacked_newton(value, problem["grad_neghess"], problem["coef"],
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

        newton = _stacked_newton(value, grad_neghess, start)
        loop = relative_margin_damped_newton(value, grad_neghess, start, max_steps=max_steps)
        assert np.array_equal(newton, loop), k
        assert np.array_equal(newton, start) == (k > 26 or k >= max_steps), k


def _counted_updates(monkeypatch, family, design, coefs, pos, tot):
    """Run one item's M-step, the link kernel on its one-item stack, from
    each start; per call, its value ('v') and grad_neghess ('g') calls in
    order, and its result."""
    newton = models._damped_newton
    stack = FamilyStack([design], [FAMILY[family]])
    gpos, gtot = reference_group_sums(design, pos, tot)
    runs = []

    def counted(value, grad_neghess, coef, project=None):
        def counted_value(c):
            assert c.shape == coef.shape, "one candidate per row per value call"
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
            result = models._Binomial.update(stack, coef[None, None], gpos[None], gtot[None])
            runs.append(("".join(events), result[0, 0]))
    return runs


@pytest.mark.parametrize("family", ["LLM", "RRUM"])
def test_one_value_call_per_candidate_and_none_past_convergence(monkeypatch, family):
    # expected counts of the family's own model, every group observed
    rng = np.random.default_rng(sum(map(ord, family)))
    for draw in range(20):
        design = ItemDesign(np.ones(1 + draw % 5, dtype=int))
        tot = rng.uniform(5.0, 50.0, design.n_groups)
        pos = tot * reference_item_row(family, design, FAMILY[family].init(design, rng))
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
            pos = tot * reference_item_row(family, design, FAMILY[family].init(design, rng))
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
DESIGNS = {family: (Q_ROWS, [family] * len(Q_ROWS)) for family in FAMILIES}
DESIGNS["mixed"] = (Q_ROWS, list(FAMILIES) * 2)
# LLM and RRUM items that need 1, 2 and 3 attributes in one stack, so the
# narrower ones carry padded coefficients
DESIGNS["widths"] = ([[1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 1, 1], [1, 1, 1], [1, 1, 1],
                      [0, 0, 1], [1, 0, 1]],
                     ["LLM", "RRUM", "LLM", "RRUM", "LLM", "RRUM", "GDINA", "DINA"])
# closed-form M-steps meet the reference to rounding; the Newton M-steps
# carry the E-step's last-digit differences through their iterations
THETA_TOL = {"DINA": 1e-8, "DINO": 1e-8, "GDINA": 1e-8, "LLM": 1e-6, "RRUM": 1e-6,
             "mixed": 1e-6, "widths": 1e-6}
# the stacked gradient and Hessian are sums in another order than the
# oracle's BLAS products, so a step can differ in its last bits; where a
# candidate gains about the acceptance margin (1.8e-12 here), that decides
# whether one more tiny step is taken.  In the RRUM design this happens at
# the third M-step of restart 0, and theta then differs by up to 3e-8
# while the restart log-likelihoods agree to 2e-12 relative.  Measured
# relative gaps: loglik gain 3.1e-9 (RRUM) and 1.5e-9 (widths, a gain of
# only 8.5 nats), recovery error 1.2e-8 (RRUM); below 1e-9 elsewhere
GAIN_RTOL = {"RRUM": 1e-8, "widths": 1e-8}
RECOVERY_RTOL = {"RRUM": 3e-8}


def _design_fit(design, config, run_em=None):
    """A fit of the design's own simulated data, its truth and its data."""
    rng = np.random.default_rng(13)
    rows, families = DESIGNS[design]
    q = QMatrix(rows)
    params = [draw_monotone_params(rng, fam, row) for fam, row in zip(families, q.entries)]
    theta, p = theta_from_params(q, params), random_proportions(rng, 3)
    data = simulate(theta, p, 3000, seed=9)
    with pytest.MonkeyPatch.context() as patch:
        if run_em is not None:
            patch.setattr(inference, "_run_em", run_em)
        return em_fit(data, q, families, config), (theta, p), data


@pytest.mark.parametrize("design", DESIGNS)
def test_em_fit_reaches_the_reference_fit(design):
    config = EmConfig(max_iters=40, tol=1e-300, restarts=3, seed=7)
    fast, (theta, p), data = _design_fit(design, config)
    slow, _, _ = _design_fit(design, config, one_start_at_a_time)
    assert np.argmax(fast.restart_logliks) == np.argmax(slow.restart_logliks)
    np.testing.assert_allclose(fast.restart_logliks, slow.restart_logliks, rtol=1e-9, atol=0)
    assert np.abs(fast.theta_hat.values - slow.theta_hat.values).max() <= THETA_TOL[design]
    assert np.abs(fast.p_hat.probs - slow.p_hat.probs).max() <= THETA_TOL[design]
    # the benchmark's per-fit counts and quality figures
    assert len(fast.loglik_trace) == len(slow.loglik_trace)
    assert len(fast.restart_logliks) == len(slow.restart_logliks) == 3
    gain, recovery = [], []
    for fit in (fast, slow):
        gain.append(loglik(data, fit.theta_hat, fit.p_hat) - loglik(data, theta, p))
        recovery.append(max(np.abs(fit.theta_hat.values - theta.values).max(),
                            np.abs(fit.p_hat.probs - p.probs).max()))
    assert gain[0] == pytest.approx(gain[1], rel=GAIN_RTOL.get(design, 1e-9), abs=0)
    assert recovery[0] == pytest.approx(recovery[1], rel=RECOVERY_RTOL.get(design, 1e-9), abs=0)


def test_one_newton_call_per_iteration(monkeypatch):
    newton = models._damped_newton
    rows = []

    def counted(value, grad_neghess, coef, project=None):
        rows.append(len(coef))
        return newton(value, grad_neghess, coef, project)

    monkeypatch.setattr(models, "_damped_newton", counted)
    config = EmConfig(max_iters=40, tol=1e-300, restarts=3, seed=7)
    fit, _, _ = _design_fit("mixed", config)
    assert len(fit.loglik_trace) == 41 and fit.restarts_used == 3
    # the 2 LLM and 2 RRUM items share one ascent: every call stacks
    # 3 restarts x 4 items
    assert rows == [12] * 40


@pytest.mark.parametrize("design", ["mixed", "widths"])
@pytest.mark.parametrize("block", [1, 2])
def test_block_size_does_not_change_the_fit(monkeypatch, design, block):
    config = EmConfig(max_iters=40, tol=1e-300, restarts=5, seed=3)
    default, _, _ = _design_fit(design, config)
    monkeypatch.setattr(inference, "LOCKSTEP_ROWS", block)
    blocked, _, _ = _design_fit(design, config)
    # every row's arithmetic is its own, and each restart keeps its own E-step,
    # so the fits come out bit for bit the same here; 1e-12 leaves room for a
    # BLAS whose kernels depend on the stack's size
    np.testing.assert_allclose(blocked.restart_logliks, default.restart_logliks,
                               rtol=1e-12, atol=0)
    np.testing.assert_allclose(blocked.theta_hat.values, default.theta_hat.values,
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(blocked.p_hat.probs, default.p_hat.probs, rtol=0, atol=1e-12)


def test_restarts_spawn_their_seeds_one_block_at_a_time(monkeypatch):
    spawned = []
    seed_sequence = np.random.SeedSequence

    class Counted(seed_sequence):
        def spawn(self, n):
            spawned.append(n)
            return super().spawn(n)

    monkeypatch.setattr(np.random, "SeedSequence", Counted)
    monkeypatch.setattr(inference, "LOCKSTEP_ROWS", 2)
    fit, _, _ = _design_fit("DINA", EmConfig(max_iters=5, restarts=5, seed=3))
    assert spawned == [2, 2, 1] and fit.restarts_used == 5


def test_a_restart_that_turns_non_finite_leaves_its_block(monkeypatch):
    config = EmConfig(max_iters=40, tol=1e-300, restarts=3, seed=7)
    clean, _, _ = _design_fit("mixed", config)
    likelihood = inference._likelihood_matrix
    calls = []

    def restart_1_fails_at_iteration_5(bits_one, theta_values):
        like = likelihood(bits_one, theta_values)
        calls.append(None)
        # within a block, each iteration runs the live restarts in order
        return like * np.nan if len(calls) == 3 * 5 + 2 else like

    monkeypatch.setattr(inference, "_likelihood_matrix", restart_1_fails_at_iteration_5)
    fit, _, _ = _design_fit("mixed", config)
    assert math.isnan(fit.restart_logliks[1]) and fit.restarts_used == 2
    # restarts 0 and 2 run all 41 E-steps, restart 1 its first 6
    assert len(calls) == 2 * 41 + 6
    assert [fit.restart_logliks[i] for i in (0, 2)] == [clean.restart_logliks[i] for i in (0, 2)]
    best = 0 if clean.restart_logliks[0] > clean.restart_logliks[2] else 2
    assert fit.loglik_trace[-1] == clean.restart_logliks[best]


def _row_problem(rng, kind, n_required, max_steps):
    """One row's one-vector problem: an LLM or RRUM item's M-step, an RRUM
    item whose optimum is at its bounds, or a singular system."""
    if kind == "singular":
        def grad_neghess(c):
            return -c, -1e-10 * np.eye(c.size)   # the ridge makes it exactly 0

        return (lambda c: -(c ** 2).sum(), grad_neghess,
                rng.uniform(-1.0, 1.0, n_required + 1), None)
    family = "LLM" if kind == "LLM" else "RRUM"
    design, coef, pos, tot = _draw_update(rng, family, n_required)
    if kind == "RRUM-bound":
        pos = tot
    if max_steps < 5:   # start far out, so that the budget runs out
        coef = coef * 3.0 if family == "LLM" else coef - 2.0
    return reference_newton_problem(family, design, coef, pos, tot)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_rows=st.integers(1, 6),
       max_steps=st.sampled_from(MAX_STEPS))
def test_each_stacked_row_is_its_one_vector_ascent(seed, n_rows, max_steps):
    rng = np.random.default_rng(seed)
    kinds = rng.choice(["LLM", "RRUM", "RRUM-bound", "singular"], p=[0.4, 0.3, 0.2, 0.1],
                       size=n_rows)
    problems = [_row_problem(rng, kind, int(rng.integers(1, 4)), max_steps) for kind in kinds]
    width = max(start.size for _, _, start, _ in problems)

    def pad(a):
        """A row's vector or matrix, zero-padded to the stack's width."""
        out = np.zeros((width,) * a.ndim)
        out[tuple(slice(0, n) for n in a.shape)] = a
        return out

    def value(c):
        return np.array([v(row[:start.size]) for (v, _, start, _), row in zip(problems, c)])

    def grad_neghess(c):
        parts = [g(row[:start.size]) for (_, g, start, _), row in zip(problems, c)]
        return (np.array([pad(grad) for grad, _ in parts]),
                np.array([pad(hess) for _, hess in parts]))

    def project(c):
        return np.array([pad(p(row[:start.size]) if p else row[:start.size])
                         for (_, _, start, p), row in zip(problems, c)])

    starts = np.array([pad(start) for _, _, start, _ in problems])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(models, "MAX_STEPS", max_steps)
        stacked = models._damped_newton(value, grad_neghess, starts, project)
    for row, (v, g, start, p), kind in zip(stacked, problems, kinds):
        alone = one_vector_damped_newton(v, g, start, p, max_steps=max_steps)
        assert np.array_equal(row[:start.size], alone), (kind, max_steps)
        assert not row[start.size:].any(), "a padded coordinate moved"
        if kind == "singular":
            assert np.array_equal(row[:start.size], start)


def _link_start(rng, family, n_restarts, n_required):
    """Starts of one link item over the restarts, as ``_draw_update`` draws them."""
    if family == "LLM":
        return rng.uniform(-6.0, 6.0, (n_restarts, n_required + 1))
    return np.log(rng.uniform(1e-3, 1.0, (n_restarts, n_required + 1)))


def _link_stack(rng, names, n_attributes, n_restarts):
    """Items of the named families on random attribute sets, their stack and
    its coefficients' starts."""
    designs = []
    for _ in names:
        q_row = np.zeros(n_attributes, dtype=int)
        q_row[rng.choice(n_attributes, int(rng.integers(1, n_attributes + 1)),
                         replace=False)] = 1
        designs.append(ItemDesign(q_row))
    stack = FamilyStack(designs, [FAMILY[name] for name in names])
    coef = np.zeros((n_restarts, len(names), stack.widths.max() + 1))
    for i, (name, design) in enumerate(zip(names, designs)):
        coef[:, i, :len(design.required) + 1] = _link_start(
            rng, name, n_restarts, len(design.required))
    return designs, stack, coef


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_items=st.integers(2, 5),
       n_restarts=st.integers(1, 4), large=st.booleans())
def test_mixed_stack_rows_are_their_one_family_rows(seed, n_items, n_restarts, large):
    rng = np.random.default_rng(seed)
    # at most 5 coefficients: from 6, np.linalg.solve's Newton step rounds
    # with the stack's width (its rows do not; see the test below)
    n_attributes = 4
    names = list(rng.choice(["LLM", "RRUM"], size=n_items))
    names[:2] = rng.permutation(["LLM", "RRUM"])   # both links in every stack
    designs, stack, coef = _link_stack(rng, names, n_attributes, n_restarts)
    # random group counts, some groups empty
    gtot = rng.choice([0.0, 1.0], p=[0.15, 0.85], size=(n_restarts, stack.item.size)) \
        * rng.uniform(0.5, 300.0, (n_restarts, stack.item.size))
    gpos = gtot * rng.uniform(0.0, 1.0, gtot.shape)
    if large:   # a predictor whose exp overflows, on every group of an LLM item
        coef[:, names.index("LLM"), 0] = 800.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        mixed = models._Binomial.update(stack, coef, gpos, gtot)
    for name in ("LLM", "RRUM"):
        items = [i for i, other in enumerate(names) if other == name]
        alone = FamilyStack([designs[i] for i in items], [FAMILY[name]] * len(items))
        groups = np.isin(stack.item, items)
        width = alone.widths.max() + 1
        rows = models._Binomial.update(alone, coef[:, items, :width], gpos[:, groups],
                                       gtot[:, groups])
        # every row's arithmetic is its own: the same bits in either stack
        assert np.array_equal(mixed[:, items, :width], rows), name
    for i, (name, design) in enumerate(zip(names, designs)):
        used = len(design.required) + 1
        assert not mixed[:, i, used:].any(), "a padded coordinate moved"
        if name == "RRUM":
            assert (mixed[:, i, 0] <= 0.0).all() and (mixed[:, i, 1:used] <= -1e-9).all()


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_items=st.integers(1, 5),
       n_restarts=st.integers(1, 3), n_attributes=st.integers(1, 8))
def test_a_link_row_is_the_same_in_any_stack(seed, n_items, n_restarts, n_attributes):
    # up to 9 coefficients, past the 8 from which numpy's sum is pairwise
    rng = np.random.default_rng(seed)
    names = rng.choice(["LLM", "RRUM"], size=n_items)
    designs, stack, coef = _link_stack(rng, names, n_attributes, n_restarts)
    rows = models._Binomial.row(stack, coef)
    for i, (name, design) in enumerate(zip(names, designs)):
        alone = FamilyStack([design], [FAMILY[name]])
        width = len(design.required) + 1
        assert np.array_equal(rows[:, stack.item == i],
                              models._Binomial.row(alone, coef[:, [i], :width])), (i, name)


def test_large_logit_predictor_beside_log_link_raises_no_warning():
    # exp of an LLM group's predictor of 800 overflows; the kernel takes the
    # logistic there and exp only on the RRUM item's groups
    designs = [ItemDesign([1, 1]), ItemDesign([1, 0])]
    stack = FamilyStack(designs, [FAMILY["LLM"], FAMILY["RRUM"]])
    coef = np.array([[[800.0, 5.0, 5.0], [np.log(0.8), np.log(0.5), 0.0]]])
    gtot = np.full((1, stack.item.size), 40.0)
    gpos = gtot * np.array([0.3, 0.6, 0.6, 0.9, 0.4, 0.8])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        row = models._Binomial.row(stack, coef)
        fitted = models._Binomial.update(stack, coef, gpos, gtot)
    assert np.array_equal(row[0, :4], np.ones(4))
    np.testing.assert_allclose(row[0, 4:], [0.4, 0.8], rtol=1e-15)
    assert np.isfinite(fitted).all() and not fitted[0, 1, 2]
