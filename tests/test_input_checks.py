"""Public functions reject malformed input with an error naming the problem.

Each case is a guard that no other test reaches: a table flagged
non-probability where probabilities are needed, a count below one, sizes
or families that do not fit together, a fit whose log-likelihood fell or
whose every restart failed, and parameters that name one thing twice.
"""

import numpy as np
import pytest

from rlcm import (
    DimensionError,
    DinaParams,
    DinoParams,
    EmConfig,
    EmError,
    FitResult,
    GdinaParams,
    InvalidParameterError,
    ProportionVector,
    QMatrix,
    ResponseData,
    RrumParams,
    SizeLimitError,
    ThetaMatrix,
    apply_shift,
    build_tmatrix,
    build_transform,
    check_c2,
    check_monotonicity,
    distributions_equal,
    em_fit,
    inference,
    loglik,
    marginal_vector,
    response_distribution,
    simulate,
    theta_from_params,
)
from rlcm.core import zeta_transform
from rlcm.models import ItemDesign

Q = QMatrix([[1]])
THETA = ThetaMatrix([[0.1, 0.8]])
SHIFTED = ThetaMatrix([[0.1, 0.8]], is_probability=False)
P = ProportionVector([0.5, 0.5])
DATA = ResponseData(np.array([0, 1, 1]), 1)
IDENTITY = QMatrix(np.eye(2, dtype=int))


@pytest.mark.parametrize("call, error, message", [
    (lambda: simulate(SHIFTED, P, 10, 0), ValueError,
     "simulation requires a probability table"),
    (lambda: loglik(DATA, SHIFTED, P), ValueError,
     "log-likelihood requires a probability table"),
    (lambda: check_monotonicity(Q, SHIFTED), ValueError,
     "monotonicity check expects a probability table"),
    (lambda: response_distribution(SHIFTED, P), ValueError,
     "response distribution requires a probability table"),
    (lambda: simulate(THETA, P, 0, 0), ValueError, "need at least one subject, got 0"),
    (lambda: simulate(THETA, P, True, 0), TypeError, "^n_subjects must be an integer, got True$"),
    (lambda: simulate(THETA, P, 5.0, 0), TypeError, "^n_subjects must be an integer, got 5.0$"),
    (lambda: simulate(THETA, P, 5, None), TypeError, "^seed must be an integer, got None$"),
    (lambda: simulate(THETA, P, 5, True), TypeError, "^seed must be an integer, got True$"),
    (lambda: simulate(THETA, P, 5, 1.0), TypeError, "^seed must be an integer, got 1.0$"),
    (lambda: simulate(THETA, P, 5, -1), ValueError, "^seed must be at least 0, got -1$"),
    (lambda: em_fit(DATA, Q, ["DINA", "DINA"]), DimensionError,
     "expected 1 family names, got 2"),
    (lambda: em_fit(DATA, Q, ["DINA"], EmConfig(init_params=(DinaParams(0.2, 0.1),) * 2)),
     DimensionError, "explicit initialization has the wrong item count"),
    (lambda: em_fit(DATA, Q, ["DINA"], EmConfig(init_params=(DinoParams(0.2, 0.1),))),
     ValueError, "item 0 initialization is not a DINA parameter set"),
    (lambda: marginal_vector(build_tmatrix(THETA), ProportionVector([0.25] * 4)),
     DimensionError, "table has 2 columns, proportions have 4 entries"),
    (lambda: apply_shift(THETA, [0.1, 0.2]), DimensionError,
     r"shift length \(2,\) does not match 1 items"),
    (lambda: build_transform([]), DimensionError,
     "shift vector must be one-dimensional and non-empty"),
    (lambda: FitResult(THETA, P, (DinaParams(0.2, 0.1),), (-1.0, -2.0), False, 1, (-2.0,)),
     EmError, "^log-likelihood trace decreased by 1$"),
    (lambda: ResponseData.from_matrix([0, 1]), DimensionError,
     "^response matrix must be two-dimensional$"),
    (lambda: RrumParams(0.9, (0.5,)).coef(ItemDesign([1, 1]), 3), DimensionError,
     "^RRUM: item 3 has 1 penalties for 2 attributes$"),
    (lambda: GdinaParams({frozenset(): 0.1, frozenset({0}): 0.3, (0,): 0.2}),
     InvalidParameterError, "^GDINA: duplicate attribute subsets in beta$"),
    (lambda: check_c2(IDENTITY, theta_from_params(IDENTITY, [DinaParams(0.2, 0.1)] * 2),
                      [(0, 1)]),
     ValueError, "^expected 2 designated row pairs, got 1$"),
    (lambda: distributions_equal((THETA, P), (ThetaMatrix([[0.1, 0.8]] * 2), P)),
     DimensionError, "^parameter sets answer 1 vs 2 items$"),
    (lambda: zeta_transform(np.ones(3)), DimensionError,
     "^length 3 is not a power of two$"),
    (lambda: ProportionVector(np.full(1 << 21, 2.0 ** -21)), SizeLimitError,
     "^attribute count 21 exceeds 20$"),
], ids=["simulate-shifted", "loglik-shifted", "monotonicity-shifted",
        "distribution-shifted", "simulate-no-subjects", "simulate-bool-subjects",
        "simulate-float-subjects", "simulate-no-seed", "simulate-bool-seed",
        "simulate-float-seed", "simulate-negative-seed", "em-family-count",
        "em-init-count", "em-init-family", "marginal-sizes", "shift-length",
        "transform-empty", "fit-trace-decreases", "responses-one-dimensional",
        "rrum-penalty-count", "gdina-subset-twice", "c2-pair-count",
        "distributions-item-counts", "zeta-length", "proportions-k21"])
def test_bad_input_is_named(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_a_fit_whose_every_restart_fails_names_each(monkeypatch):
    # each restart's log-likelihood turns non-finite at its first E-step
    e_step = inference._e_step
    monkeypatch.setattr(inference, "_e_step", lambda *args: (np.nan, *e_step(*args)[1:]))
    with pytest.raises(EmError, match=r"^all restarts failed: restart 0: .+; restart 1: .+$"):
        em_fit(DATA, Q, ["DINA"], EmConfig(restarts=2, max_iters=5))
