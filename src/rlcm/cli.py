"""Command-line frontend: ``rlcm <subcommand> ...``.

Exit codes for ``check`` are a stable contract: 0 when the sufficient
conditions certify identifiability, 2 when the design is incomplete
(hence non-identifiable), 3 when the checks are inconclusive, 1 on
input errors, usage errors included.  Every other subcommand exits 0 on
success and 1 on any error.  All randomness is controlled by explicit
``--seed`` flags (default 0), so every invocation is reproducible.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Optional, Tuple

import numpy as np

from . import core, fileio, tmatrix
from .core import QMatrix, ThetaMatrix, weight_graded_order
from .identifiability import (
    NonIdentifiablePair,
    Verdict,
    c1_only_counterexample,
    incomplete_counterexample,
    verdict,
)
from .inference import EmConfig, _blocks, consistency_experiment, em_fit, simulate
from .models import theta_from_params
from .tmatrix import apply_shift, build_tmatrix, build_transform, marginal_vector, response_distribution

DEFAULT_SEED = 0

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_INCOMPLETE = 2
EXIT_NOT_COVERED = 3

# what each entry point reports as one error line, never as a traceback
INPUT_ERRORS = (ValueError, OverflowError, OSError, RuntimeError, MemoryError)


def _error_text(exc: BaseException) -> str:
    return str(exc) or "out of memory"   # Python's own MemoryError has no text


def _read_params(path, n_attributes: int) -> list:
    params, declared = fileio.read_item_params_json(path)
    if declared != n_attributes:
        raise ValueError(f"{path}: item parameters declare K={declared}, "
                         f"expected K={n_attributes}")
    return params


def _load_theta(args, q: Optional[QMatrix] = None) -> ThetaMatrix:
    """Theta from one of --theta and --params, on ``q`` or else on --q when
    given: --theta is checked against that Q-matrix, --params built on it."""
    if args.theta and args.params:
        raise ValueError("give --theta or --params, not both")
    q = fileio.read_qmatrix_csv(args.q) if q is None and args.q else q
    if args.theta:
        theta = fileio.read_theta_json(args.theta)
        core._check_agreement(theta=theta, Q=q)
        return theta
    if not args.params or q is None:
        raise ValueError("provide --theta, or --q together with --params")
    return fileio._build(args.params, theta_from_params, q, _read_params(args.params, q.n_attributes))


def _count(text: str) -> int:
    """A count or seed flag's value: an integer in [0, 2**63), so that numpy
    can hold it."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text} is negative; expected 0 or more")
    if value >= 2**63:
        raise argparse.ArgumentTypeError(f"{text} is too large; at most 2**63 - 1")
    return value


def _path(text: str) -> str:
    """A file flag's value: any path but the empty one."""
    if not text:
        raise argparse.ArgumentTypeError("expected a path, got ''")
    return text


def _anchors(text: str) -> Tuple[float, float]:
    """The --anchors value: two comma-separated reals."""
    try:
        first, second = (float(a) for a in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected two comma-separated reals, got {text!r}") from None
    return first, second


def _parse_families(spec: str, n_items: int) -> Tuple[str, ...]:
    names = [s.strip().upper() for s in spec.split(",")]
    if len(names) == 1:
        names = names * n_items
    if len(names) != n_items:
        raise ValueError(f"expected 1 or {n_items} family names, got {len(names)}")
    return tuple(names)


def _cmd_check(args) -> int:
    q = fileio.read_qmatrix_csv(args.q)
    theta = _load_theta(args, q) if args.theta or args.params else None
    report = verdict(q, theta)
    fileio.write_json(args.out, report.to_dict())
    if report.verdict is Verdict.IDENTIFIABLE:
        return EXIT_OK
    if report.verdict is Verdict.INCOMPLETE:
        return EXIT_INCOMPLETE
    return EXIT_NOT_COVERED


def _emit_pair(pair: NonIdentifiablePair, out: Optional[str]) -> int:
    # build() has re-verified the pair with the exhaustive oracle
    gap = pair.max_distribution_gap
    doc = fileio.pair_to_dict(pair)
    doc["verified_gap"] = gap
    fileio.write_json(out, doc)
    print(f"verified distribution gap: {gap:.3e}", file=sys.stderr)
    return EXIT_OK


# the flags each counterexample mode does not take
_OTHER_MODE = {"incomplete": ("k", "extra_q", "rho", "anchors"), "c1-only": ("q", "p", "theta")}


def _cmd_counterexample(args) -> int:
    for dest in _OTHER_MODE[args.mode]:
        if getattr(args, dest) is not None:
            raise ValueError(f"--mode {args.mode} does not take --{dest.replace('_', '-')}")
    if args.mode == "incomplete":
        if not args.q:
            raise ValueError("--mode incomplete requires --q")
        q = fileio.read_qmatrix_csv(args.q)
        theta = _load_theta(args, q)
        if not args.p:
            raise ValueError("--mode incomplete requires --p")
        p = fileio.read_proportion_json(args.p)
        pair = incomplete_counterexample(q, theta, p)
        return _emit_pair(pair, args.out)

    if args.k is None or not args.params or args.anchors is None:
        raise ValueError("--mode c1-only requires --k, --params and --anchors")
    if args.k < 2:
        raise ValueError(f"--mode c1-only needs --k of at least 2, got {args.k}")
    params = _read_params(args.params, args.k)
    extra = (fileio.read_qmatrix_csv(args.extra_q).entries if args.extra_q
             else np.zeros((0, args.k - 1), dtype=np.int64))
    rho = 1.0 if args.rho is None else args.rho
    pair = c1_only_counterexample(args.k, extra, params, rho, args.anchors)
    return _emit_pair(pair, args.out)


def _cmd_verify_pair(args) -> int:
    # read_pair_json re-runs the enumeration oracle via build()
    pair = fileio.read_pair_json(args.pair)
    fileio.write_json(args.out, {"max_distribution_gap": pair.max_distribution_gap,
                                 "parameter_distance": pair.parameter_distance})
    return EXIT_OK


def _display_perm(n_bits: int, order: str) -> np.ndarray:
    if order == "weight":
        return weight_graded_order(n_bits)
    return np.arange(1 << n_bits)


def _cmd_tmatrix(args) -> int:
    theta = _load_theta(args)
    t = build_tmatrix(theta)
    row_perm = _display_perm(theta.n_items, args.display_order)
    col_perm = _display_perm(theta.n_attributes, args.display_order)
    # each section's header and the values of a block of display rows; every
    # input is read and checked before the output is opened
    sections = [("# marginal table; rows = response patterns, columns = attribute profiles\n"
                 f"# encoding: {fileio.CANONICAL_ORDER}; display order: {args.display_order}\n"
                 "# columns: " + ",".join(map(str, col_perm.tolist())) + "\n",
                 lambda block: t.values[np.ix_(block, col_perm)])]
    if args.p:
        p = fileio.read_proportion_json(args.p)
        vectors = np.column_stack((response_distribution(theta, p), marginal_vector(t, p)))
        sections.append(("# pattern,probability,dominance_probability\n", vectors.__getitem__))
    blocks = [row_perm[rows] for rows in _blocks(row_perm.size, 8 * col_perm.size)]

    def text():
        """The dump one block of rows at a time, each value as its repr."""
        for header, values in sections:
            yield header
            for block in blocks:
                yield "".join(f"{r},{','.join(map(repr, row))}\n"
                              for r, row in zip(block.tolist(), values(block).tolist()))

    fileio.write_text(args.out, text())
    return EXIT_OK


def _cmd_simulate(args) -> int:
    theta = _load_theta(args)
    p = fileio.read_proportion_json(args.p)
    data = simulate(theta, p, args.n, args.seed)
    fileio.write_response_csv(args.out, data)
    print(f"wrote {data.n_subjects} subjects x {data.n_items} items to "
          f"{args.out}", file=sys.stderr)
    return EXIT_OK


def _em_config(args) -> EmConfig:
    return EmConfig(max_iters=args.max_iters, tol=args.tol,
                    restarts=args.restarts, seed=args.seed)


def _cmd_fit(args) -> int:
    q = fileio.read_qmatrix_csv(args.q)
    data = fileio.read_response_csv(args.data)
    families = _parse_families(args.families, q.n_items)
    fit = em_fit(data, q, families, _em_config(args))
    fileio.write_fit_json(args.out, fit, q.n_attributes)
    print(f"loglik {fit.loglik_trace[-1]:.4f} after {len(fit.loglik_trace) - 1} "
          f"iterations, converged={fit.converged}", file=sys.stderr)
    return EXIT_OK


def _cmd_experiment(args) -> int:
    q = fileio.read_qmatrix_csv(args.q)
    params = _read_params(args.params, q.n_attributes)
    # a params file that does not fit Q is reported with the file's name
    fileio._build(args.params, theta_from_params, q, params)
    p = fileio.read_proportion_json(args.p)
    families = _parse_families(args.families, q.n_items)
    table = consistency_experiment(q, families, params, p, args.n_grid,
                                   args.replications, args.seed, _em_config(args))
    fileio.write_experiment_json(args.out, table)
    for n, err in table.medians().items():
        print(f"N={n}: median max-abs error {err:.4f}", file=sys.stderr)
    return EXIT_OK


def _cmd_verify_transform(args) -> int:
    # before the draw: the check holds four 2**J x 2**K tables at once
    core.check_table_size(args.j, args.k, tables=4)
    rng = np.random.default_rng(args.seed)
    theta = ThetaMatrix(rng.uniform(size=(args.j, 1 << args.k)))
    shift = rng.uniform(-1.0, 1.0, size=args.j)
    lhs = build_transform(shift).values @ build_tmatrix(theta).values
    rhs = build_tmatrix(apply_shift(theta, shift)).values
    residual = float(np.abs(lhs - rhs).max())
    fileio.write_json(None, {"J": args.j, "K": args.k, "seed": args.seed,
                             "max_abs_residual": residual})
    return EXIT_OK if residual <= 1e-12 else EXIT_INPUT_ERROR


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # main reports it; subparsers are of this class too
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rlcm",
        description="Identifiability analysis, marginal-table algebra, "
                    "simulation and EM fitting for Q-restricted latent "
                    "class models.",
    )
    parser.add_argument("--schema", action="store_true",
                        help="print the JSON schemas of all file formats and exit")
    sub = parser.add_subparsers(dest="subcommand")

    def add_common(sp, run, seed=True, out=True, em=False, theta=False):
        sp.set_defaults(run=run)
        if theta:
            sp.add_argument("--theta", type=_path, help="theta-matrix JSON")
            sp.add_argument("--params", type=_path, help="item-params JSON")
        if em:
            defaults = EmConfig()
            sp.add_argument("--restarts", type=_count, default=defaults.restarts)
            sp.add_argument("--max-iters", type=_count, default=defaults.max_iters)
            sp.add_argument("--tol", type=float, default=defaults.tol)
        if seed:
            sp.add_argument("--seed", type=_count, default=DEFAULT_SEED)
        if out:
            sp.add_argument("--out", type=_path)

    sp = sub.add_parser("check", help="render an identifiability verdict for a design")
    sp.add_argument("--q", type=_path, required=True, help="Q-matrix CSV")
    add_common(sp, _cmd_check, seed=False, theta=True)

    sp = sub.add_parser("counterexample",
                        help="construct a verified non-identifiable parameter pair")
    sp.add_argument("--mode", choices=("incomplete", "c1-only"), required=True)
    sp.add_argument("--q", type=_path, help="Q-matrix CSV (incomplete mode)")
    sp.add_argument("--p", type=_path, help="proportion-vector JSON (incomplete mode)")
    sp.add_argument("--k", type=int, help="attribute count (c1-only mode)")
    sp.add_argument("--extra-q", type=_path, help="CSV of extra rows over attributes 2..K "
                                      "(c1-only mode)")
    sp.add_argument("--rho", type=float,
                    help="mass ratio between partner profiles, default 1 (c1-only mode)")
    sp.add_argument("--anchors", type=_anchors, help="two comma-separated zero-class "
                                                     "anchors for items 1 and 2 (c1-only mode)")
    add_common(sp, _cmd_counterexample, seed=False, theta=True)

    sp = sub.add_parser("verify-pair", help="re-verify a stored pair with the "
                                            "enumeration oracle")
    sp.add_argument("--pair", type=_path, required=True)
    add_common(sp, _cmd_verify_pair, seed=False)

    sp = sub.add_parser("tmatrix", help="emit the marginal table (and, with --p, "
                                        "the response distribution) as CSV")
    sp.add_argument("--q", type=_path, help="Q-matrix CSV")
    sp.add_argument("--p", type=_path, help="proportion-vector JSON")
    sp.add_argument("--display-order", choices=("binary", "weight"), default="binary",
                    help="printed row/column order; storage is always binary-counter")
    add_common(sp, _cmd_tmatrix, seed=False, theta=True)

    sp = sub.add_parser("simulate", help="draw response data")
    sp.add_argument("--q", type=_path, help="Q-matrix CSV")
    sp.add_argument("--p", type=_path, required=True, help="proportion-vector JSON")
    sp.add_argument("--n", type=_count, required=True)
    add_common(sp, _cmd_simulate, out=False, theta=True)
    sp.add_argument("--out", type=_path, required=True)

    sp = sub.add_parser("fit", help="EM-fit item parameters and proportions")
    sp.add_argument("--q", type=_path, required=True)
    sp.add_argument("--data", type=_path, required=True, help="response CSV")
    sp.add_argument("--families", required=True,
                    help="one family, or J comma-separated families")
    add_common(sp, _cmd_fit, em=True)

    sp = sub.add_parser("experiment", help="recovery error across sample sizes")
    sp.add_argument("--q", type=_path, required=True)
    sp.add_argument("--params", type=_path, required=True, help="true item-params JSON")
    sp.add_argument("--p", type=_path, required=True, help="true proportion-vector JSON")
    sp.add_argument("--families", required=True)
    sp.add_argument("--n-grid", type=lambda text: [_count(n) for n in text.split(",")],
                    required=True, help="comma-separated sample sizes")
    sp.add_argument("--replications", type=_count, default=5)
    add_common(sp, _cmd_experiment, em=True)

    sp = sub.add_parser("verify-transform",
                        help="check the shift-transform identity on random input")
    sp.add_argument("--j", type=int, required=True, metavar="J",
                    choices=range(1, tmatrix.MAX_DENSE_TRANSFORM_ITEMS + 1))
    sp.add_argument("--k", type=int, required=True, metavar="K",
                    choices=range(1, core.MAX_ATTRIBUTES + 1))
    add_common(sp, _cmd_verify_transform, out=False)

    return parser


# parse_args keeps no state in the parser, so one serves every call
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        if args.schema:
            fileio.write_json(None, fileio.SCHEMAS)
            return EXIT_OK
        if args.subcommand is None:
            parser.error("a subcommand is required")
        return args.run(args)
    except INPUT_ERRORS as exc:
        print(f"error: {_error_text(exc)}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
