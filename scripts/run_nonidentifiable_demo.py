#!/usr/bin/env python3
"""Non-identifiability in action on a C1-but-not-C2 design.

Builds two genuinely different parameter sets with exactly the same
response distribution, verifies the equality by exhaustive enumeration,
then fits simulated data starting from each member.  Both fits reach
(near-)equal log-likelihoods while disagreeing about the first two
items, which is exactly what non-identifiability looks like in
practice.
"""

import argparse

import numpy as np

from rlcm import (
    DinaParams,
    EmConfig,
    c1_only_counterexample,
    c1_only_design,
    dina_params_from_theta,
    em_fit,
    simulate,
    theta_from_params,
    verdict,
)
from rlcm.cli import INPUT_ERRORS, _anchors, _count, _error_text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--slip", type=float, default=0.2)
    parser.add_argument("--guess", type=float, default=0.1)
    parser.add_argument("--rho", type=float, default=1.0)
    parser.add_argument("--anchors", type=_anchors, default="0.2,0.2",
                        help="alternative zero-class probabilities for items 1 and 2")
    parser.add_argument("--n", type=_count, default=50_000)
    parser.add_argument("--seed", type=_count, default=99)
    return parser


def main(argv=None) -> None:
    parser = build_parser()
    args = parser.parse_args(argv)

    # every value is checked before anything is printed
    try:
        q = c1_only_design(2, [[1]])
        params = [DinaParams(args.slip, args.guess)] * q.n_items
        report = verdict(q, theta_from_params(q, params))
        pair = c1_only_counterexample(2, [[1]], params, args.rho, args.anchors)
        theta_a, p_a = pair.first
        data = simulate(theta_a, p_a, args.n, seed=args.seed)
        fits = {}
        for label, (theta, p) in (("first", pair.first), ("second", pair.second)):
            config = EmConfig(restarts=1, seed=args.seed,
                              init_params=tuple(dina_params_from_theta(q, theta)),
                              init_p=p)
            fits[label] = em_fit(data, q, ["DINA"] * q.n_items, config)
    except INPUT_ERRORS as exc:
        parser.error(_error_text(exc))

    print(f"design verdict: {report.verdict.value} "
          f"(C1 holds: {report.c1_holds}, C2 holds: {report.c2_holds})")
    print(f"constructed pair: parameter distance {pair.parameter_distance:.4f}, "
          f"exhaustively verified distribution gap {pair.max_distribution_gap:.2e}")
    print(f"simulated N={args.n} from the first member; fitting from each member:")
    for label, fit in fits.items():
        item_errors = np.abs(fit.theta_hat.values - theta_a.values).max(axis=1)
        print(f"  init at {label:6s}: loglik {fit.loglik_trace[-1]:.2f}, "
              f"items 1-2 error vs truth "
              f"{item_errors[0]:.3f}/{item_errors[1]:.3f}, "
              f"other items {item_errors[2:].max():.3f}")


if __name__ == "__main__":
    main()
