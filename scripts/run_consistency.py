#!/usr/bin/env python3
"""Recovery-error trend on an identifiable design.

Simulates conjunctive-model data from a triple-identity design (the
design-only shortcut certifies identifiability) and fits it back at a
grid of sample sizes, printing the per-size error medians.  Errors
should shrink roughly like 1/sqrt(N).
"""

import argparse

import numpy as np

from rlcm import (
    DinaParams,
    EmConfig,
    ProportionVector,
    consistency_experiment,
    theta_from_params,
    verdict,
)
from rlcm.cli import INPUT_ERRORS, _count, _error_text
from rlcm.core import QMatrix


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--k", type=int, default=2, help="attribute count")
    parser.add_argument("--n-grid", default=[2000, 10000, 50000],
                        type=lambda text: [_count(n) for n in text.split(",")],
                        help="comma-separated sample sizes")
    parser.add_argument("--replications", type=_count, default=5)
    parser.add_argument("--slip", type=float, default=0.2)
    parser.add_argument("--guess", type=float, default=0.1)
    parser.add_argument("--restarts", type=_count, default=10)
    parser.add_argument("--seed", type=_count, default=717)
    return parser


def main(argv=None) -> None:
    parser = build_parser()
    args = parser.parse_args(argv)

    # every value is checked before anything is printed
    try:
        q = QMatrix(np.vstack([np.eye(args.k, dtype=int)] * 3))
        params = [DinaParams(args.slip, args.guess)] * q.n_items
        rng = np.random.default_rng(args.seed)
        raw = 1.0 + rng.uniform(-0.1, 0.1, size=1 << args.k)
        p = ProportionVector(raw / raw.sum())
        report = verdict(q, theta_from_params(q, params))
        table = consistency_experiment(
            q, ["DINA"] * q.n_items, params, p, args.n_grid, args.replications,
            seed=args.seed, em_config=EmConfig(restarts=args.restarts))
    except INPUT_ERRORS as exc:
        parser.error(_error_text(exc))

    print(f"design: {q.n_items} items x {args.k} attributes, "
          f"verdict = {report.verdict.value}")
    print(f"{'N':>8}  {'median max-abs error':>22}")
    for n, err in table.medians().items():
        print(f"{n:>8}  {err:>22.5f}")


if __name__ == "__main__":
    main()
