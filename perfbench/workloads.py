"""The benchmark's workloads: inputs drawn from a seed, the CLI calls of
one operation, and checks of every output that hold for any correct
implementation (tolerances and invariants, never stored floats).

See WORKLOADS.md for why each workload and size was chosen.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from itertools import combinations
from pathlib import Path

import numpy as np


ALL_FAMILIES = ("DINA", "DINO", "GDINA", "LLM", "RRUM")

# Every EM fit runs exactly this many iterations: a vanishing tolerance
# never stops it earlier.  How many iterations a fit needs to converge
# depends on the seed's data and starts (31-44 for the DINA fit), so a
# fixed budget keeps the cost of an operation the same for every seed.
DINA_ITERS = 20
EXPERIMENT_ITERS = 40
NO_TOL = "1e-300"


class CheckFailed(Exception):
    """An output of the program failed a correctness check."""


def strict_json(path):
    """Parse JSON, rejecting the non-standard NaN / Infinity tokens."""
    def reject(token):
        raise CheckFailed(f"{path}: non-standard JSON token {token}")
    try:
        return json.loads(Path(path).read_text(), parse_constant=reject)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"{path}: invalid JSON: {exc}") from exc


def expect(condition, message):
    if not condition:
        raise CheckFailed(message)


def response_bits(path, n_items):
    """N x J uint8 responses from a response CSV, independent of rlcm's reader.

    Each data line is J cells of 0 or 1 joined by commas; lines starting
    with ``#`` are comments.
    """
    body = [ln for ln in Path(path).read_bytes().splitlines()
            if ln and not ln.startswith(b"#")]
    width = 2 * n_items - 1
    expect(all(len(ln) == width for ln in body),
           f"{path}: expected rows of {n_items} comma-separated cells")
    grid = np.frombuffer(b"".join(body), dtype=np.uint8).reshape(len(body), width)
    expect((grid[:, 1::2] == ord(",")).all(), f"{path}: bad separators")
    bits = grid[:, 0::2] - np.uint8(ord("0"))   # other characters wrap above 1
    expect((bits <= 1).all(), f"{path}: entries other than 0/1")
    return bits


def response_codes(bits):
    """Integer encodings of response rows: item j is bit j."""
    codes = np.zeros(bits.shape[0], dtype=np.int64)
    for j in range(bits.shape[1]):
        codes |= bits[:, j].astype(np.int64) << j
    return codes


def _identity_blocks(k, blocks):
    return np.vstack([np.eye(k, dtype=np.int64)] * blocks)


class Workload:
    """One closed-loop operation: a fixed list of CLI calls, each
    followed by checks of its outputs."""

    name = ""

    def __init__(self, rlcm, work: Path, seed: int, smoke: bool):
        self.rlcm = rlcm
        self.work = work
        self.seed = seed
        self.smoke = smoke

    def path(self, name):
        return str(self.work / name)

    def write_inputs(self):
        raise NotImplementedError

    def steps(self):
        """(label, argv, expected exit code) for each call of one operation."""
        raise NotImplementedError

    def check(self, label):
        """Check the outputs of one call; return quality values it yields."""
        raise NotImplementedError

    def probes(self):
        """Per-layer probes timed outside any operation (traced run)."""
        return {}


class FitDinaLarge(Workload):
    name = "fit-dina-large"

    def write_inputs(self):
        rlcm, fileio = self.rlcm, self.rlcm.fileio
        rng = np.random.default_rng(self.seed)
        k = 4
        multi = [c for c in range(1 << k) if bin(c).count("1") >= 2]
        extra = rng.choice(multi, size=4, replace=False)
        rows = [[(c >> a) & 1 for a in range(k)] for c in extra]
        self.q = rlcm.QMatrix(np.vstack([_identity_blocks(k, 3), rows]))
        self.params = [rlcm.DinaParams(s=0.2, g=0.1)] * self.q.n_items
        self.p = rlcm.ProportionVector(np.full(1 << k, 1.0 / (1 << k)))
        self.theta = rlcm.theta_from_params(self.q, self.params)
        self.n = 3000 if self.smoke else 100_000
        self.sim_seed, self.fit_seed = (int(s) for s in rng.integers(0, 2**31, 2))
        fileio.write_qmatrix_csv(self.path("q.csv"), self.q)
        fileio.write_item_params_json(self.path("params.json"), self.params, k)
        fileio.write_proportion_json(self.path("p.json"), self.p)

    def steps(self):
        return [
            ("simulate", ["simulate", "--q", self.path("q.csv"),
                          "--params", self.path("params.json"),
                          "--p", self.path("p.json"), "--n", str(self.n),
                          "--seed", str(self.sim_seed),
                          "--out", self.path("data.csv")], 0),
            ("fit", ["fit", "--q", self.path("q.csv"),
                     "--data", self.path("data.csv"), "--families", "DINA",
                     "--restarts", "1", "--max-iters", str(DINA_ITERS), "--tol", NO_TOL,
                     "--seed", str(self.fit_seed),
                     "--out", self.path("fit.json")], 0),
        ]

    def data(self):
        bits = response_bits(self.path("data.csv"), self.q.n_items)
        return self.rlcm.ResponseData(response_codes(bits), self.q.n_items)

    def check(self, label):
        rlcm = self.rlcm
        if label == "simulate":
            bits = response_bits(self.path("data.csv"), self.q.n_items)
            rows = bits.shape[0]
            expect(rows == self.n, f"data.csv: {rows} rows, expected {self.n}")
            # item means within 6 standard errors of the model's marginals
            expected = self.theta.values @ self.p.probs
            se = np.sqrt(expected * (1 - expected) / self.n)
            worst = float((np.abs(bits.mean(axis=0) - expected) / se).max())
            expect(worst < 6.0, f"data.csv: item mean {worst:.1f} standard errors off")
            return {}
        doc, theta_hat, p_hat = self.fitted()
        data = self.data()
        ll_fit = rlcm.loglik(data, theta_hat, p_hat)
        expect(math.isfinite(ll_fit), "fit.json: non-finite log-likelihood")
        expect(abs(ll_fit - doc["loglik"]) <= 1e-6 * abs(ll_fit),
               f"fit.json: stated loglik {doc['loglik']} != recomputed {ll_fit}")
        # the maximum likelihood is never below that of the generating parameters
        gain = ll_fit - rlcm.loglik(data, self.theta, self.p)
        expect(math.isfinite(gain), "loglik_gain is not finite")
        expect(gain >= 0.0, f"fit is {-gain:.3f} nats below the generating parameters")
        return {"loglik_gain": gain}

    def fitted(self):
        """fit.json, and the table and proportions it describes."""
        rlcm = self.rlcm
        doc = strict_json(self.path("fit.json"))
        expect(doc.get("format") == "fit-result", "fit.json: wrong format tag")
        items = doc["item_params"]
        expect(len(items) == self.q.n_items, "fit.json: wrong item count")
        expect(all(it.get("family") == "DINA" for it in items), "fit.json: family changed")
        params = [rlcm.DinaParams(s=float(it["s"]), g=float(it["g"])) for it in items]
        p_hat = rlcm.ProportionVector(np.asarray(doc["p"], dtype=np.float64))
        return doc, rlcm.theta_from_params(self.q, params), p_hat

    def probes(self):
        _, theta_hat, p_hat = self.fitted()
        return em_probes(self.rlcm, self.data(), self.q, ["DINA"] * self.q.n_items,
                         theta_hat, p_hat, iters=3 if self.smoke else 10)


class ExperimentMixed(Workload):
    name = "experiment-mixed"
    FAMILIES = ("LLM", "RRUM", "GDINA")

    def write_inputs(self):
        rlcm, fileio = self.rlcm, self.rlcm.fileio
        rng = np.random.default_rng(self.seed)
        k = 3
        rows = [[1, 1, 0], [0, 1, 1], [1, 0, 1], [1, 1, 1]]
        self.q = rlcm.QMatrix(np.vstack([_identity_blocks(k, 3), rows]))
        self.families = [self.FAMILIES[j % 3] for j in range(self.q.n_items)]
        self.params = [self._params(fam, np.flatnonzero(self.q.entries[j]), k)
                       for j, fam in enumerate(self.families)]
        self.p = rlcm.ProportionVector(np.full(1 << k, 1.0 / (1 << k)))
        self.theta = rlcm.theta_from_params(self.q, self.params)
        self.grid = [300, 600] if self.smoke else [2000, 5000]
        self.replications = 1
        self.exp_seed = int(rng.integers(0, 2**31))
        fileio.write_qmatrix_csv(self.path("q.csv"), self.q)
        fileio.write_item_params_json(self.path("params.json"), self.params, k)
        fileio.write_proportion_json(self.path("p.json"), self.p)

    def _params(self, family, required, k):
        """Fixed monotone item parameters: more mastery never hurts.

        They do not vary with the seed, so ``recovery_err`` compares like
        with like between seeds.  The seed drives the experiment's data
        and EM starts.
        """
        rlcm = self.rlcm
        if family == "LLM":
            beta = np.zeros(k)
            beta[required] = 3.2 / required.size
            return rlcm.LlmParams(beta0=-1.6, beta=tuple(beta))
        if family == "RRUM":
            r = np.full(k, 0.5)
            r[required] = 0.45
            return rlcm.RrumParams(pi=0.86, r=tuple(r))
        beta = {frozenset(): 0.15}
        for size in range(1, required.size + 1):
            for subset in combinations(required.tolist(), size):
                beta[frozenset(subset)] = 0.6 / required.size if size == 1 else 0.015
        return rlcm.GdinaParams(beta)

    def steps(self):
        return [("experiment", [
            "experiment", "--q", self.path("q.csv"),
            "--params", self.path("params.json"), "--p", self.path("p.json"),
            "--families", ",".join(self.families),
            "--n-grid", ",".join(str(n) for n in self.grid),
            "--replications", str(self.replications),
            "--restarts", "1" if self.smoke else "2",
            "--max-iters", str(EXPERIMENT_ITERS), "--tol", NO_TOL,
            "--seed", str(self.exp_seed), "--out", self.path("table.json")], 0)]

    def check(self, label):
        doc = strict_json(self.path("table.json"))
        expect(doc.get("format") == "consistency-table", "table.json: wrong format tag")
        rows = doc["rows"]
        expect(len(rows) == len(self.grid) * self.replications,
               f"table.json: {len(rows)} rows")
        for row in rows:
            errors = [row["overall_error"], row["p_error"], *row["item_errors"]]
            expect(len(row["item_errors"]) == self.q.n_items, "table.json: item errors")
            expect(all(math.isfinite(e) and 0.0 <= e <= 1.0 for e in errors),
                   "table.json: error outside [0, 1]")
            expect(math.isfinite(row["loglik"]), "table.json: non-finite loglik")
        medians = doc["median_overall_error"]
        expect(sorted(int(n) for n in medians) == sorted(self.grid),
               "table.json: median keys differ from the grid")
        err = float(medians[str(max(self.grid))])
        # an identifiable design: the largest sample must recover the truth
        expect(err < 0.25, f"recovery error {err:.3f} at N={max(self.grid)}")
        return {"recovery_err": err}

    def probes(self):
        n = max(self.grid)
        data = self.rlcm.simulate(self.theta, self.p, n, self.exp_seed)
        return em_probes(self.rlcm, data, self.q, self.families, self.theta, self.p,
                         iters=3 if self.smoke else 10)


class OracleCaps(Workload):
    name = "oracle-caps"

    def write_inputs(self):
        rlcm, fileio = self.rlcm, self.rlcm.fileio
        rng = np.random.default_rng(self.seed)
        # c1-only construction: K attributes, 2 + 2(K-1) + extra items
        self.k = 3 if self.smoke else 6
        n_extra = 2 if self.smoke else 6
        extra = np.zeros((0, self.k - 1), dtype=np.int64)
        while extra.shape[0] < n_extra:
            row = rng.integers(0, 2, size=(1, self.k - 1))
            if row.any():
                extra = np.vstack([extra, row])
        self.n_pair_items = 2 + 2 * (self.k - 1) + n_extra
        dina = [rlcm.DinaParams(s=0.2, g=0.1)] * 2 + [
            rlcm.DinaParams(s=float(s), g=float(g))
            for s, g in zip(rng.uniform(0.1, 0.25, self.n_pair_items - 2),
                            rng.uniform(0.05, 0.2, self.n_pair_items - 2))]
        fileio.write_qmatrix_csv(self.path("extra.csv"), rlcm.QMatrix(extra))
        fileio.write_item_params_json(self.path("pair_params.json"), dina, self.k)
        # stacked identity design for check and tmatrix, one family per item
        blocks = 3 if self.smoke else 5
        self.q_table = rlcm.QMatrix(_identity_blocks(3, blocks))
        params = []
        for j in range(self.q_table.n_items):
            s, g = rng.uniform(0.1, 0.25), rng.uniform(0.05, 0.2)
            params.append(_single_attribute_params(rlcm, ALL_FAMILIES[j % 5], j % 3, s, g))
        raw = rng.dirichlet(np.full(8, 10.0))
        self.p_table = rlcm.ProportionVector(raw)
        fileio.write_qmatrix_csv(self.path("q_table.csv"), self.q_table)
        fileio.write_item_params_json(self.path("table_params.json"), params, 3)
        fileio.write_proportion_json(self.path("p_table.json"), self.p_table)
        self.first_pair = None

    def steps(self):
        return [
            ("counterexample", ["counterexample", "--mode", "c1-only",
                                "--k", str(self.k), "--extra-q", self.path("extra.csv"),
                                "--params", self.path("pair_params.json"),
                                "--rho", "1.0", "--anchors", "0.12,0.08",
                                "--out", self.path("pair.json")], 0),
            ("verify-pair", ["verify-pair", "--pair", self.path("pair.json"),
                             "--out", self.path("verify.json")], 0),
            # stacked identity blocks and a monotone table: documented exit code 0
            ("check", ["check", "--q", self.path("q_table.csv"),
                       "--params", self.path("table_params.json"),
                       "--out", self.path("check.json")], 0),
            ("tmatrix", ["tmatrix", "--q", self.path("q_table.csv"),
                         "--params", self.path("table_params.json"),
                         "--p", self.path("p_table.json"),
                         "--out", self.path("table.csv")], 0),
        ]

    def check(self, label):
        rlcm = self.rlcm
        if label == "counterexample":
            doc = strict_json(self.path("pair.json"))
            expect(doc.get("format") == "nonidentifiable-pair", "pair.json: format tag")
            expect(doc["J"] == self.n_pair_items and doc["K"] == self.k,
                   "pair.json: wrong dimensions")
            expect(doc["verified_gap"] <= 1e-10, "pair.json: stated gap above 1e-10")
            expect(doc["parameter_distance"] > 1e-6, "pair.json: degenerate pair")
            members = [(np.asarray(doc[m]["theta"]), np.asarray(doc[m]["p"]))
                       for m in ("first", "second")]
            if self.first_pair is None:
                pair = [(rlcm.ThetaMatrix(t), rlcm.ProportionVector(p)) for t, p in members]
                gap = rlcm.distributions_equal(*pair)
                expect(gap <= 1e-10, f"pair.json: recomputed gap {gap:.3g} above 1e-10")
                self.first_pair = members
            else:
                # the same inputs must give the same pair within this run
                for (t0, p0), (t1, p1) in zip(self.first_pair, members):
                    expect(np.allclose(t0, t1, rtol=0, atol=1e-12)
                           and np.allclose(p0, p1, rtol=0, atol=1e-12),
                           "pair.json: differs from the run's first operation")
        elif label == "verify-pair":
            doc = strict_json(self.path("verify.json"))
            expect(doc["max_distribution_gap"] <= 1e-10, "verify.json: gap above 1e-10")
            expect(doc["parameter_distance"] > 1e-6, "verify.json: degenerate pair")
        elif label == "check":
            doc = strict_json(self.path("check.json"))
            expect(doc.get("verdict") == "identifiable-by-sufficient-conditions",
                   f"check.json: verdict {doc.get('verdict')}")
        else:
            self._check_table()
        return {}

    def _check_table(self):
        n_rows = 1 << self.q_table.n_items
        lines = Path(self.path("table.csv")).read_text().splitlines()
        comments = [i for i, ln in enumerate(lines) if ln.startswith("#")]
        expect(len(comments) == 4, f"table.csv: {len(comments)} comment lines")
        split = comments[-1]
        table = [ln for ln in lines[:split] if not ln.startswith("#")]
        dist = lines[split + 1:]
        expect(len(table) == n_rows, f"table.csv: {len(table)} table rows, expected {n_rows}")
        expect(all(ln.count(",") == 8 for ln in table), "table.csv: table row width")
        expect(len(dist) == n_rows, f"table.csv: {len(dist)} distribution rows")
        values = np.array([ln.split(",")[1:] for ln in dist], dtype=np.float64)
        expect(np.isfinite(values).all(), "table.csv: non-finite probability")
        expect(abs(values[:, 0].sum() - 1.0) < 1e-9, "table.csv: distribution sum")
        expect((values[:, 0] >= -1e-15).all(), "table.csv: negative probability")
        first = dist[0].split(",")
        expect(first[0] == "0" and abs(float(first[2]) - 1.0) < 1e-12,
               "table.csv: dominance probability of the empty pattern")


def _logit(x):
    return math.log(x / (1.0 - x))


def _single_attribute_params(rlcm, family, attr, s, g, k=3):
    """Parameters of a one-attribute item with rates 1 - s and g, in any family."""
    if family == "DINA":
        return rlcm.DinaParams(s=s, g=g)
    if family == "DINO":
        return rlcm.DinoParams(s=s, g=g)
    if family == "GDINA":
        return rlcm.GdinaParams({frozenset(): g, frozenset([attr]): 1 - s - g})
    if family == "LLM":
        beta = [0.0] * k
        beta[attr] = _logit(1 - s) - _logit(g)
        return rlcm.LlmParams(beta0=_logit(g), beta=tuple(beta))
    r = [0.5] * k
    r[attr] = g / (1 - s)
    return rlcm.RrumParams(pi=1 - s, r=tuple(r))


def em_probes(rlcm, data, q, families, theta, p, iters):
    """E-step probe and per-iteration EM cost, timed outside operations.

    ``inference.em_iter_probe_s`` is (em_fit with max_iters=m minus
    em_fit with max_iters=0) / m at one restart; subtracting
    ``inference.loglik_probe_s`` leaves the M-step share.
    """
    loglik, em_fit, EmConfig = rlcm.loglik, rlcm.em_fit, rlcm.EmConfig
    like = []
    for _ in range(5):
        start = time.perf_counter()
        loglik(data, theta, p)
        like.append(time.perf_counter() - start)
    per_iter = []
    for _ in range(3):
        start = time.perf_counter()
        em_fit(data, q, families, EmConfig(max_iters=0, restarts=1, seed=1))
        base = time.perf_counter() - start
        start = time.perf_counter()
        # a vanishing tolerance makes the probe run all its iterations
        fit = em_fit(data, q, families, EmConfig(max_iters=iters, tol=1e-300,
                                                 restarts=1, seed=1))
        full = time.perf_counter() - start
        done = max(len(fit.loglik_trace) - 1, 1)
        per_iter.append((full - base) / done)
    return {"inference.loglik_probe_s": statistics.median(like),
            "inference.em_iter_probe_s": statistics.median(per_iter)}


WORKLOADS = {w.name: w for w in (FitDinaLarge, ExperimentMixed, OracleCaps)}
