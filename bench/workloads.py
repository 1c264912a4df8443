"""The three workloads: inputs made from a seed, the operations of one round,
and the checks of each operation's output against `oracles`.

An operation is one `specball.cli.main` command or one sample check through
the public functions.  Its `call` holds only calls into specball and is
timed; its `check` runs after the round and returns None or a description of
what is wrong.  Every call goes through a module attribute, so the wrappers
of the traced run see it.
"""

from __future__ import annotations

import csv
import json
import random
from fractions import Fraction
from pathlib import Path

import numpy as np

import oracles
from specball import adjointfields, cli, flows


class Op:
    __slots__ = ("label", "call", "check")

    def __init__(self, label, call, check):
        self.label, self.call, self.check = label, call, check


def _cli_op(label: str, argv: list[str], out: Path, check) -> Op:
    """A command that writes its report to `out`; the check reads and removes
    the report, so a stale file from an earlier round is never read."""
    def checked(rc):
        if rc != 0:
            return f"exit code {rc}"
        try:
            text = out.read_text()
        finally:
            out.unlink(missing_ok=True)
        return check(text)
    return Op(label, lambda: cli.main(argv + ["--out", str(out)]), checked)


def _csv_rows(text: str) -> list[dict]:
    return list(csv.DictReader(line for line in text.splitlines() if not line.startswith("#")))


# ---------------------------------------------------------------------------
# closure


class Closure:
    """`specball generate` for n=2 to grade 4 and for n=3 to grade 2, the
    latter once with exact and once with three-prime modular certification;
    `tables` for n=3; `verify --all` for n=2 and 3; and every ordered pair of
    basis generators bracketed in-process and compared with the matrix
    commutator field at a random integer matrix."""

    GENERATE = ((2, 4, "auto"), (3, 2, "exact"), (3, 2, "modular"))

    def __init__(self, seed: int, out_dir: Path):
        rng = random.Random(seed)
        self.ops: list[Op] = []
        for n, d, method in self.GENERATE:
            self.ops.append(_cli_op(
                f"generate n={n} d={d} {method}",
                ["generate", "--n", str(n), "--max-degree", str(d), "--method", method],
                out_dir / f"generate-{n}-{method}.json",
                lambda text, n=n, d=d: self._check_generate(text, n, d)))
        self.ops.append(_cli_op("tables n=3", ["tables", "--n", "3"], out_dir / "tables.json",
                                self._check_tables))
        for n in (2, 3):
            self.ops.append(_cli_op(
                f"verify n={n}", ["verify", "--all", "--n", str(n), "--seed", str(rng.randrange(2 ** 31))],
                out_dir / f"verify-{n}.json", self._check_verify))
        for n in (2, 3):
            labels = oracles.generator_labels(n)
            for g1 in labels:
                for g2 in labels:
                    X = np.array([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)], dtype=object)
                    self.ops.append(self._bracket_op(n, g1, g2, X))

    @staticmethod
    def _gid(kind: str, a: int, b: int):
        return adjointfields.Theta(a, b) if kind == "theta" else adjointfields.Xi(a)

    def _bracket_op(self, n, g1, g2, X) -> Op:
        id1, id2 = self._gid(*g1), self._gid(*g2)

        def call():
            return adjointfields.bracket(adjointfields.generator_field(n, id1),
                                         adjointfields.generator_field(n, id2))

        def check(field):
            B1, B2 = oracles.generator_matrix(n, *g1), oracles.generator_matrix(n, *g2)
            want = oracles.commutator_field(B1.dot(B2) - B2.dot(B1), X)
            flat = X.reshape(-1)
            for v in range(n * n):
                poly = field.components.get(v)
                got = Fraction(0)
                if poly is not None:
                    for mono, c in poly.terms.items():
                        term = Fraction(c)
                        for var, e in mono.powers:
                            term *= flat[var] ** e
                        got += term
                if got != want[v // n, v % n]:
                    return f"component {v} is {got} at X, commutator field gives {want[v // n, v % n]}"
            return None
        return Op(f"bracket n={n} {g1} {g2}", call, check)

    @staticmethod
    def _check_generate(text: str, n: int, d_max: int):
        report = json.loads(text)
        if not report["complete"]:
            return "closure did not complete"
        degrees = {row["degree"]: row for row in report["degrees"]}
        if sorted(degrees) != list(range(d_max + 1)):
            return f"grades {sorted(degrees)} reported, expected 0..{d_max}"
        for d, row in degrees.items():
            want = {"target_rank": oracles.target_rank(n, d),
                    "achieved_rank": oracles.target_rank(n, d),
                    "sl_target_component_rank": oracles.traceless_rank(n, d),
                    "sl_component_rank": oracles.traceless_rank(n, d)}
            for key, value in want.items():
                if row[key] != value:
                    return f"grade {d}: {key} = {row[key]}, expected {value}"
            if row["missing_witnesses"] or not row["certified"] or not row["complete"]:
                return f"grade {d} not certified ({len(row['missing_witnesses'])} missing witnesses)"
        return None

    @staticmethod
    def _check_tables(text: str):
        report = json.loads(text)
        if report["golden_match"] is not True:
            return "tables differ from the embedded reference"
        tables = report["tables"]
        n = tables["n"]
        want_labels = {f"theta{a}{b}" if k == "theta" else f"xi{a}"
                       for k, a, b in oracles.generator_labels(n)}
        if set(tables["generator_order"]) != want_labels:
            return f"generators {tables['generator_order']}"
        for v, row in enumerate(tables["action"]):
            for label, cell in zip(tables["generator_order"], row):
                kind = "theta" if label.startswith("theta") else "xi"
                a, b = (int(label[5]), int(label[6])) if kind == "theta" else (int(label[2]), 0)
                want = oracles.generator_on_variable(n, kind, a, b, v // n, v % n)
                got = {exps.index(1): c for exps, c in oracles.parse_poly_text(cell, n).items()}
                if got != want:
                    return f"action of {label} on variable {v} is {cell!r}"
        return None

    @staticmethod
    def _check_verify(text: str):
        rows = json.loads(text)["identities"]
        bad = [r["identity"] for r in rows if not (r["holds"] and r["residual_is_zero"])]
        if not rows or bad:
            return f"identities failing: {bad}"
        return None


# ---------------------------------------------------------------------------
# slices


class Slices:
    """`kernels`, `growth --field`, `growth --chain` and `jets` for theta12 and
    xi1 on n=2 up to m=12 and n=3 up to m=7, and the n=3 jet table up to m=8
    (12 870 columns), where its crossover lies."""

    KERNELS = (("theta12", 2, 12), ("xi1", 2, 12), ("theta12", 3, 7), ("xi1", 3, 7))
    GROWTH = ("theta12", 2, 12)
    CHAIN_M = 24
    JETS = ((2, 5, 12), (3, 5, 8))

    def __init__(self, seed: int, out_dir: Path):
        # the seed only orders the commands; the slices themselves are fixed
        self.ops: list[Op] = []
        for field, n, m in self.KERNELS:
            self.ops.append(_cli_op(
                f"kernels {field} n={n}", ["kernels", "--n", str(n), "--field", field, "--m", f"0..{m}"],
                out_dir / f"kernels-{field}-{n}.csv",
                lambda text, field=field, n=n, m=m: self._check_kernels(text, field, n, m, True)))
        field, n, m = self.GROWTH
        self.ops.append(_cli_op(
            f"growth {field} n={n}", ["growth", "--n", str(n), "--field", field, "--m", f"0..{m}"],
            out_dir / "growth.csv",
            lambda text, field=field, n=n, m=m: self._check_kernels(text, field, n, m, False)))
        self.ops.append(_cli_op(
            "growth chain", ["growth", "--chain", "--m", f"1..{self.CHAIN_M}"],
            out_dir / "chain.csv", self._check_chain))
        for n, k, m in self.JETS:
            self.ops.append(_cli_op(
                f"jets n={n} k={k}", ["jets", "--n", str(n), "--k", str(k), "--m", f"0..{m}"],
                out_dir / f"jets-{n}.csv", lambda text, n=n, k=k, m=m: self._check_jets(text, n, k, m)))
        random.Random(seed).shuffle(self.ops)

    @staticmethod
    def _check_kernels(text: str, field: str, n: int, m_max: int, with_dp: bool):
        rows = _csv_rows(text)
        if [int(r["m"]) for r in rows] != list(range(m_max + 1)):
            return "wrong degree rows"
        for r in rows:
            m = int(r["m"])
            ker, ker2 = oracles.slice_kernels(field, n, m)
            got = (int(r["slice_dim"]), int(r["dim_ker"]), int(r["dim_ker_sq"]))
            if got != (oracles.slice_dim(n * n, m), ker, ker2):
                return f"m={m}: (slice_dim, ker, ker^2) = {got}, expected " \
                       f"{(oracles.slice_dim(n * n, m), ker, ker2)}"
            if with_dp and field.startswith("xi") and int(r["weight_dp"]) != ker:
                return f"m={m}: weight_dp {r['weight_dp']} != {ker}"
        return None

    def _check_chain(self, text: str):
        rows = _csv_rows(text)
        if [int(r["m"]) for r in rows] != list(range(1, self.CHAIN_M + 1)):
            return "wrong degree rows"
        for r in rows:
            m = int(r["m"])
            got = (int(r["slice_dim"]), int(r["dim_ker"]), int(r["dim_ker_sq"]))
            want = (oracles.slice_dim(3, m), *oracles.chain_kernels(m))
            if got != want or r["within_bound"] != "True":
                return f"m={m}: {got}, expected {want}"
        return None

    @staticmethod
    def _check_jets(text: str, n: int, k: int, m_max: int):
        rows = _csv_rows(text)
        want = oracles.jet_rows(n, k, m_max)
        got = [(int(r["m"]), int(r["lhs_jet_dim"]), int(r["rhs_k_max_kernel"])) for r in rows]
        if got != want:
            return f"jet rows {got}, expected {want}"
        if any((r["holds"] == "True") != (lhs >= rhs) for r, (_, lhs, rhs) in zip(rows, want)):
            return "holds column disagrees with lhs >= rhs"
        line = [ln for ln in text.splitlines() if ln.startswith("# crossover_m0:")]
        m0 = oracles.crossover(want)
        if m0 != oracles.JET_CROSSOVERS[(n, k)]:
            return f"oracle crossover {m0} differs from the known {oracles.JET_CROSSOVERS[(n, k)]}"
        if len(line) != 1 or line[0].split(":")[1].strip() != str(m0):
            return f"crossover line {line}, expected {m0}"
        return None


# ---------------------------------------------------------------------------
# flows


def _sample_ball(rng: np.random.Generator, n: int) -> np.ndarray:
    """Schur form with eigenvalues uniform in the disc of radius 0.9, coupled
    above the diagonal and conjugated by a random unitary."""
    lam = 0.9 * np.sqrt(rng.uniform(size=n)) * np.exp(2j * np.pi * rng.uniform(size=n))
    T = np.diag(lam) + 0.3 * np.triu(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)), 1)
    Q, R = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    Q = Q @ np.diag(np.diag(R) / np.abs(np.diag(R)))
    return Q @ T @ Q.conj().T


def _overshear_json(rng: np.random.Generator, n: int) -> dict:
    """f * Theta_ab with f a monomial of degree 1 or 2 and Theta_ab^2 f = 0."""
    while True:
        a, b = (int(x) for x in rng.choice(np.arange(1, n + 1), size=2, replace=False))
        exps = [0] * (n * n)
        for v in rng.integers(0, n * n, size=int(rng.integers(1, 3))):
            exps[int(v)] += 1
        f = {tuple(exps): Fraction(int(rng.choice([1, -1, 2])), int(rng.choice([1, 2, 3])))}
        if not oracles.theta_apply(oracles.theta_apply(f, a, b, n), a, b, n):
            t = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            return {"overshear": {"theta": [a, b], "f": oracles.poly_text(f, n),
                                  "t": [t.real, t.imag]}}


def _conjugate_json(rng: np.random.Generator, n: int) -> dict:
    """det-1 and well conditioned: special unitary times a unipotent shear."""
    Q, R = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    Q = Q @ np.diag(np.diag(R) / np.abs(np.diag(R)))
    Q = Q / np.linalg.det(Q) ** (1.0 / n)
    N = 0.3 * np.triu(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)), 1)
    return {"conjugate": {"G": oracles.matrix_to_pairs(Q @ (np.eye(n) + N))}}


def _word_json(rng: np.random.Generator, A: np.ndarray, length: int, kinds: tuple) -> list:
    """A word whose trajectory from A keeps every entry within WORD_SIZE."""
    while True:
        word = _draw_word(rng, A.shape[0], length, kinds)
        X = A
        for atom in word:
            X = oracles.apply_word([atom], X)
            if np.max(np.abs(X)) > WORD_SIZE:
                break
        else:
            return word


def _draw_word(rng: np.random.Generator, n: int, length: int, kinds: tuple) -> list:
    """`length` atoms, each of a kind drawn uniformly from `kinds`."""
    word = []
    for _ in range(length):
        kind = kinds[int(rng.integers(0, len(kinds)))]
        if kind == "overshear":
            word.append(_overshear_json(rng, n))
        elif kind == "moebius":
            alpha = 0.7 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
            gamma = np.exp(2j * np.pi * rng.uniform())
            word.append({"moebius": {"alpha": [alpha.real, alpha.imag],
                                     "gamma": [gamma.real, gamma.imag]}})
        elif kind == "transpose":
            word.append({"transpose": {}})
        else:
            word.append(_conjugate_json(rng, n))
    return word


# Beyond this entry size double precision cannot fix the spectral radius to
# RADIUS_TOL (one word reaching 6e13 gave 0.920 from specball, 0.958 from
# numpy and 0.929 in 50-digit arithmetic), so such words are drawn again.
WORD_SIZE = 10.0


def _has_moebius(word: list) -> bool:
    return any("moebius" in atom for atom in word)


def _close(X: np.ndarray, Y: np.ndarray, rel: float) -> bool:
    return float(np.max(np.abs(X - Y))) <= rel * (1.0 + float(np.max(np.abs(Y))))


class Flows:
    """Seeded spectral-ball samples with n = 2, 3, 4: random words built
    from JSON and applied (every ORBIT_EVERY-th through `specball orbit`),
    semigroup and flow-derivative checks, and iterates of the sum and bracket
    algorithms at 8..128 steps.

    The sampled part has the make-up of acceptance criterion 10
    (tests/test_acceptance.py): per round SEMIGROUP semigroup checks,
    FIBRE_WORDS words of overshear, transpose and conjugate atoms,
    BALL_WORDS words of overshear, Moebius and transpose atoms, and
    DERIVATIVE derivative checks, 1050 samples in all."""

    SEMIGROUP = 400
    FIBRE_WORDS = 300
    FIBRE_KINDS = ("overshear", "transpose", "conjugate")
    BALL_WORDS = 200
    BALL_KINDS = ("overshear", "moebius", "transpose")
    DERIVATIVE = 150
    # n and the word length cycle through these rather than being drawn, so
    # that every seed's round holds the same mix of sizes
    NS = (2, 3, 4)
    LENGTHS = (1, 2, 3, 4)
    ORBIT_EVERY = 8
    ITERATES = 16
    STEPS = (8, 16, 32, 64, 128)
    T_ITER = 0.1
    H = 1e-5
    # a word's result against the separate evaluator, relative to its size
    WORD_REL = 1e-9
    # spectral radius against numpy.linalg.eigvals; characteristic polynomial
    # coefficients against numpy.poly, relative to their size
    RADIUS_TOL = 1e-6
    POLY_REL = 1e-9

    def __init__(self, seed: int, out_dir: Path):
        rng = np.random.default_rng(seed)
        self.ops: list[Op] = []
        for i in range(self.SEMIGROUP):
            n = self.NS[i % len(self.NS)]
            self.ops.append(self._semigroup_op(i, n, _overshear_json(rng, n),
                                               oracles.matrix_to_pairs(_sample_ball(rng, n)),
                                               float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))))
        kinds = [self.FIBRE_KINDS] * self.FIBRE_WORDS + [self.BALL_KINDS] * self.BALL_WORDS
        for i, word_kinds in enumerate(kinds):
            n = self.NS[i % len(self.NS)]
            length = self.LENGTHS[i // len(self.NS) % len(self.LENGTHS)]
            A = _sample_ball(rng, n)
            word = _word_json(rng, A, length, word_kinds)
            A = oracles.matrix_to_pairs(A)
            if i % self.ORBIT_EVERY == 0:
                wpath, apath = out_dir / f"word-{i}.json", out_dir / f"matrix-{i}.json"
                wpath.write_text(json.dumps(word))
                apath.write_text(json.dumps(A))
                self.ops.append(self._orbit_op(i, word, A, wpath, apath, out_dir / f"orbit-{i}.json"))
            else:
                self.ops.append(self._word_op(i, word, A, n))
        for i in range(self.DERIVATIVE):
            n = self.NS[i % len(self.NS)]
            self.ops.append(self._derivative_op(i, n, _overshear_json(rng, n),
                                                oracles.matrix_to_pairs(_sample_ball(rng, n))))
        for i in range(self.ITERATES):
            n = 2 + i % 2
            kind = "sum" if i % 4 < 2 else "bracket"
            self.ops.append(self._iterate_op(i, kind, n, _sample_ball(rng, n)))

    def _word_op(self, i, word, A_json, n) -> Op:
        def call():
            A = flows.matrix_from_json(A_json)
            atoms = flows.word_from_json(word, n)
            r0, pi0 = flows.spectral_radius(A), flows.char_poly(A).pi
            X = flows.apply_word(atoms, A)
            return A, X, r0, pi0, flows.spectral_radius(X), flows.char_poly(X).pi

        def check(out):
            _, X, r0, pi0, r1, pi1 = out
            A = oracles.matrix_from_pairs(A_json)
            if not _close(X, oracles.apply_word(word, A), self.WORD_REL):
                return "word result differs from the separate evaluator"
            for M, r, pi in ((A, r0, pi0), (X, r1, pi1)):
                if abs(r - oracles.spectral_radius(M)) > self.RADIUS_TOL:
                    return f"spectral radius {r} against eigvals {oracles.spectral_radius(M)}"
                monic = np.array([1.0] + [(-1) ** j * p for j, p in enumerate(pi, start=1)])
                if not _close(monic, oracles.fibre_monic(M), self.POLY_REL):
                    return "fibre coordinates differ from numpy.poly"
            if not r1 < 1.0:
                return f"spectral radius {r1} after the word"
            if not _has_moebius(word):
                drift = float(np.max(np.abs(np.array(pi1) - np.array(pi0))))
                if not drift < 1e-8:
                    return f"fibre drift {drift:.2e}"
            return None
        return Op(f"word {i}", call, check)

    def _orbit_op(self, i, word, A_json, wpath, apath, out) -> Op:
        argv = ["orbit", "--word", str(wpath), "--matrix", str(apath), "--check-fibre"]

        def check(text):
            report = json.loads(text)
            A = oracles.matrix_from_pairs(A_json)
            X = oracles.matrix_from_pairs(report["result"])
            if not _close(X, oracles.apply_word(word, A), self.WORD_REL):
                return "orbit result differs from the separate evaluator"
            if report["in_ball"] is not True or not oracles.spectral_radius(X) < 1.0:
                return "orbit left the spectral ball"
            drift = report["fibre_drift"]
            if _has_moebius(word) != (drift is None) or (drift is not None and not drift < 1e-8):
                return f"fibre drift {drift}"
            return None
        return _cli_op(f"orbit {i}", argv, out, check)

    def _semigroup_op(self, i, n, atom_json, A_json, t, s) -> Op:
        def call():
            atom = flows.word_from_json([atom_json], n)[0]
            A = flows.matrix_from_json(A_json)
            lhs = flows.overshear_flow(atom, A, t=t + s)
            return A, lhs, flows.overshear_flow(atom, flows.overshear_flow(atom, A, t=s), t=t)

        def check(out):
            _, lhs, rhs = out
            A = oracles.matrix_from_pairs(A_json)
            body = atom_json["overshear"]
            f = oracles.parse_poly_text(body["f"], n)
            if not _close(lhs, oracles.overshear_map(A, *body["theta"], f, t + s), self.WORD_REL):
                return "flow differs from the separate evaluator"
            defect = float(np.max(np.abs(lhs - rhs)))
            return None if defect < 1e-9 else f"semigroup defect {defect:.2e}"
        return Op(f"semigroup {i}", call, check)

    def _derivative_op(self, i, n, atom_json, A_json) -> Op:
        h = self.H

        def call():
            atom = flows.word_from_json([atom_json], n)[0]
            A = flows.matrix_from_json(A_json)
            return A, (flows.overshear_flow(atom, A, t=h) - flows.overshear_flow(atom, A, t=-h)) / (2 * h)

        def check(out):
            _, D = out
            A = oracles.matrix_from_pairs(A_json)
            a, b = atom_json["overshear"]["theta"]
            E = np.zeros((n, n), dtype=complex)
            E[a - 1, b - 1] = 1
            want = oracles.eval_poly(oracles.parse_poly_text(atom_json["overshear"]["f"], n), A) * (E @ A - A @ E)
            err = float(np.max(np.abs(D - want)))
            return None if err < 1e-6 else f"central difference off by {err:.2e}"
        return Op(f"derivative {i}", call, check)

    def _iterate_op(self, i, kind, n, A) -> Op:
        t = self.T_ITER
        # 16 times the steps: error / 16 at first order (sum), / 4 at half order (bracket)
        band = (0.04, 0.1) if kind == "sum" else (0.15, 0.4)

        def call():
            a, b = flows.theta_flow(n, 1, 2), flows.theta_flow(n, 2, 1)
            alg = flows.algorithm_sum(a, b) if kind == "sum" else flows.algorithm_bracket(a, b)
            return [flows.iterate_algorithm(alg, t, steps, A) for steps in self.STEPS]

        def check(iterates):
            G = oracles.generator_flow_matrix(n, kind, t)
            exact = G @ A @ np.linalg.inv(G)
            errs = [float(np.max(np.abs(X - exact))) for X in iterates]
            falling = all(b < a for a, b in zip(errs, errs[1:]))
            if not (falling and band[0] < errs[-1] / errs[0] < band[1]):
                return f"{kind} iterate errors {errs} do not decrease at the expected order"
            return None
        return Op(f"{kind} iterate {i}", call, check)


WORKLOADS = {"closure": Closure, "slices": Slices, "flows": Flows}


def build(name: str, seed: int, out_dir: Path):
    out_dir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](seed, out_dir)
