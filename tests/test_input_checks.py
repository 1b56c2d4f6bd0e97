"""Public functions reject malformed input with an error naming the problem.

Each case is a guard that no other test reaches: a table flagged
non-probability where probabilities are needed, a count below one, and
sizes or families that do not fit together.
"""

import numpy as np
import pytest

from rlcm import (
    DimensionError,
    DinaParams,
    DinoParams,
    EmConfig,
    ProportionVector,
    QMatrix,
    ResponseData,
    ThetaMatrix,
    apply_shift,
    build_tmatrix,
    build_transform,
    check_monotonicity,
    em_fit,
    loglik,
    marginal_vector,
    response_distribution,
    simulate,
)

Q = QMatrix([[1]])
THETA = ThetaMatrix([[0.1, 0.8]])
SHIFTED = ThetaMatrix([[0.1, 0.8]], is_probability=False)
P = ProportionVector([0.5, 0.5])
DATA = ResponseData(np.array([0, 1, 1]), 1)


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
], ids=["simulate-shifted", "loglik-shifted", "monotonicity-shifted",
        "distribution-shifted", "simulate-no-subjects", "em-family-count",
        "em-init-count", "em-init-family", "marginal-sizes", "shift-length",
        "transform-empty"])
def test_bad_input_is_named(call, error, message):
    with pytest.raises(error, match=message):
        call()
