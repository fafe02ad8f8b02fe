"""The four workloads: their instances, their calls and their checks.

A workload builds its list of operations from the seed, once; every round
of a run repeats the same list.  Each operation is a top-level call into
strassen_lab, or a CLI process.  The runner times the calls; the checks
run afterwards, outside every timed section.  A check on one operation's
output marks that operation failed; a check on a relation between several
outputs (monotone sweeps, quadratic homogeneity, convergence in epsilon,
repeatable CLI bytes) clears the run's ``correct`` flag.
"""
from __future__ import annotations

import csv
import functools
import io
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field

import numpy as np

import reference as ref


@dataclass
class Op:
    """One top-level call: what runs, under which kind, and how to check it."""

    kind: str
    name: str
    fn: object
    args: tuple
    kwargs: dict = field(default_factory=dict)
    check: object = None  # callable(result) -> error message or None
    meta: dict = field(default_factory=dict)


#: The 3x3 instance THETA_INSTANCES[2] of the acceptance tests:
#: (px, py, cost), with transport value 0.26.
THETA_3X3 = ((0.5, 0.3, 0.2), (0.3, 0.4, 0.3),
             ((0.0, 0.7, 1.3), (0.9, 0.1, 0.6), (1.4, 0.8, 0.2)))


# ---------------------------------------------------------------------------
# binary-tails

def _hamming():
    from strassen_lab import CostMatrix
    return CostMatrix.hamming(2)


class BinaryTails:
    """gn_tails for Bern(0.1) against Bern(0.5) under Hamming cost.

    Lower tail at alpha = 0.2 and upper tail at alpha = 0.45 for
    n = 50, 100 and 200 (G down to 5.8e-7), then the criterion-8 root-n
    window alpha = 0.4 + delta/sqrt(n) at n = 100.  The instances are
    fixed; the seed only orders the calls inside each block.  The window
    block runs second, so its calls find the n = 100 lattice already
    built whatever the seed.
    """

    ROUNDS = 3
    A, B = 0.1, 0.5
    TAILS = [(n, alpha) for alpha in (0.2, 0.45) for n in (50, 100, 200)]
    WINDOW_N = 100
    WINDOW_DELTAS = (-1.5, -0.5, 0.0, 0.5, 1.5)
    RTOL = 1e-9

    def __init__(self, seed: int):
        self.seed = seed
        self._ops = None

    def ops(self) -> list:
        if self._ops is None:
            self._ops = self._build()
        return self._ops

    def _build(self) -> list:
        from strassen_lab import Dist, gn_tails
        px, py, cost = Dist.bernoulli(self.A), Dist.bernoulli(self.B), _hamming()
        rng = random.Random(self.seed)
        tails = list(self.TAILS)
        windows = [(self.WINDOW_N, 0.4 + d / math.sqrt(self.WINDOW_N))
                   for d in self.WINDOW_DELTAS]
        rng.shuffle(tails)
        rng.shuffle(windows)
        out = []
        for kind, block in (("gn_tail", tails), ("gn_window", windows)):
            for n, alpha in block:
                out.append(Op(kind, "lattice.gn_tails", gn_tails,
                              (px, py, cost, alpha, n),
                              check=self._checker(px, py, alpha, n),
                              meta={"alpha": alpha, "n": n}))
        return out

    def _checker(self, px, py, alpha, n):
        def check(result):
            g, comp = result
            if abs(g + comp - 1.0) > 1e-9:
                return f"G + complement - 1 = {g + comp - 1.0:.3g}"
            b = ref.binary_bracket(px.mass, py.mass, alpha, n)
            if not ref.within_bracket(g, b, "g", self.RTOL):
                return (f"G = {g!r} outside [{b['g_lo']:.12e}, "
                        f"{b['g_hi']:.12e}] (n={n}, alpha={alpha!r})")
            if not ref.within_bracket(comp, b, "comp", self.RTOL):
                return (f"1 - G = {comp!r} outside [{b['comp_lo']:.12e}, "
                        f"{b['comp_hi']:.12e}] (n={n}, alpha={alpha!r})")
            return None
        return check

    def cross_checks(self, passes) -> list:
        return []


# ---------------------------------------------------------------------------
# lattice-dense

class LatticeDense:
    """Seeded non-Hamming instances on 2x3 at n = 24 and 3x3 at n = 12.

    Each instance is a fixed template whose cost entries the seed moves by
    k/100, k in -5..5.  Every round empties the program's caches, so the
    first gn_tails call on each instance builds its inner cost table cold.
    The seed moves only the costs, and only a little, because the work
    depends on the instance: fully random cost tables moved the cold time
    by 40% from seed to seed, and random marginals moved the warm sweep's
    time between 0.24 s and 1.5 s.  Eight more alpha values on the same
    instance follow, at base + t (cmax - cmin) / sqrt(n) for t in
    [-1.2, 1.2] around the base transport value, which takes G from near
    1 to near 0.
    """

    ROUNDS = 3
    SHAPES = ((2, 3, 24), (3, 3, 12))
    #: (px, py, cost) per shape; the 3x3 one is THETA_INSTANCES[2].
    TEMPLATES = {
        (2, 3): ((0.4, 0.6), (0.2, 0.3, 0.5),
                 ((0.0, 0.6, 1.0), (0.8, 0.2, 0.5))),
        (3, 3): THETA_3X3,
    }
    SWEEP = np.linspace(-1.2, 1.2, 8)

    def __init__(self, seed: int):
        self.seed = seed
        self._ops = None

    def instances(self) -> list:
        from strassen_lab import CostMatrix, Dist
        rng = np.random.default_rng(self.seed)
        out = []
        for kx, ky, n in self.SHAPES:
            mx, my, template = self.TEMPLATES[kx, ky]
            px, py = Dist.from_mass(mx), Dist.from_mass(my)
            noise = rng.integers(-5, 6, size=(kx, ky)) / 100.0
            carr = np.maximum(np.array(template) + noise, 0.0)
            cost = CostMatrix.from_rows(carr.tolist())
            base = ref.ot_lp(np.array(px.mass), np.array(py.mass), carr)
            scale = (carr.max() - carr.min()) / math.sqrt(n)
            alphas = [float(base + t * scale) for t in self.SWEEP]
            out.append((f"{kx}x{ky}", px, py, cost, n, float(base), alphas))
        return out

    def ops(self) -> list:
        if self._ops is None:
            self._ops = self._build()
        return self._ops

    def _build(self) -> list:
        from strassen_lab import gn_tails
        out = []
        for tag, px, py, cost, n, base, alphas in self.instances():
            ref_inst = _DenseReference(tag, px, py, cost, n, alphas[:3],
                                       np.random.default_rng([self.seed, n]))
            meta = {"tag": tag, "cost": cost}
            out.append(Op("gn_cold", "lattice.gn_tails", gn_tails,
                          (px, py, cost, base, n),
                          check=ref_inst.checker(base, cold=True),
                          meta=dict(meta, alpha=base)))
            for a in alphas:
                out.append(Op("gn_warm", "lattice.gn_tails", gn_tails,
                              (px, py, cost, a, n), check=ref_inst.checker(a),
                              meta=dict(meta, alpha=a)))
        return out

    def cross_checks(self, passes) -> list:
        errs = []
        for done in passes:
            sweeps = {}
            for op, result in done:
                sweeps.setdefault(op.meta["tag"], []).append(
                    (op.meta["alpha"], result[0]))
            for tag, rows in sweeps.items():
                rows.sort()
                if any(b[1] > a[1] + 1e-12 for a, b in zip(rows, rows[1:])):
                    errs.append(f"{tag}: G rises along the alpha sweep")
        return errs


class _DenseReference:
    """Checks of gn_tails on one dense instance against LPs and an oracle.

    The admissible cells come from the program's inner cost table, which
    the cold call's check samples against scipy LPs; the type masses and
    the outer max-flow are computed here.
    """

    INNER_SAMPLE = 24
    ORACLE_N = 3
    LP_TOL = 1e-7

    def __init__(self, tag, px, py, cost, n, oracle_alphas, rng):
        self.tag, self.px, self.py, self.cost, self.n = tag, px, py, cost, n
        self.oracle_alphas, self.rng = oracle_alphas, rng
        self._outer = {}

    @functools.cached_property
    def _instance(self):
        from strassen_lab import nested_instance
        inst = nested_instance(self.px, self.py, self.cost, self.n)
        cx = np.array([t.counts for t in inst.mu.lattice])
        cy = np.array([t.counts for t in inst.nu.lattice])
        mu = np.exp(ref.type_log_masses(cx, self.px.mass))
        nu = np.exp(ref.type_log_masses(cy, self.py.mass))
        return inst.inner_cost, cx, cy, mu, nu

    def checker(self, alpha, cold=False):
        def check(result):
            g, comp = result
            if abs(g + comp - 1.0) > 1e-9:
                return f"G + complement - 1 = {g + comp - 1.0:.3g}"
            errs = list(self._cold_errors) if cold else []
            want = self.outer_g(alpha)
            if abs(g - want) > self.LP_TOL:
                errs.append(f"G({alpha:.6f}) = {g!r}, outer LP gives {want!r}")
            return f"{self.tag}: " + "; ".join(errs) if errs else None
        return check

    def outer_g(self, alpha):
        if alpha not in self._outer:
            from strassen_lab.transport import ADMISS_EPS
            table, _, _, mu, nu = self._instance
            self._outer[alpha] = ref.outer_g_lp(
                mu, nu, table <= alpha + ADMISS_EPS)
        return self._outer[alpha]

    @functools.cached_property
    def _cold_errors(self) -> list:
        """The lattices, a sample of the inner table, and small-n G."""
        from strassen_lab import direct_gn_oracle, gn_tails
        table, cx, cy, _, _ = self._instance
        n, errs = self.n, []
        for counts, k in ((cx, self.cost.shape[0]), (cy, self.cost.shape[1])):
            if (len(counts) != math.comb(n + k - 1, k - 1)
                    or len({tuple(c) for c in counts}) != len(counts)
                    or (counts.sum(axis=1) != n).any()):
                errs.append(f"the lattice is not every type of n={n}")
        carr = self.cost.as_array()
        for _ in range(self.INNER_SAMPLE):
            i, j = int(self.rng.integers(len(cx))), int(self.rng.integers(len(cy)))
            want = ref.ot_lp(cx[i] / n, cy[j] / n, carr)
            if abs(table[i, j] - want) > 1e-9:
                errs.append(f"inner cost ({i},{j}) = {table[i, j]!r}, "
                            f"LP gives {want!r}")
        for alpha in self.oracle_alphas:
            small = gn_tails(self.px, self.py, self.cost, alpha,
                             self.ORACLE_N)[0]
            want = direct_gn_oracle(self.px, self.py, self.cost, alpha,
                                    self.ORACLE_N)
            if abs(small - want) > 1e-9:
                errs.append(f"G_{self.ORACLE_N}({alpha:.6f}) = {small!r}, "
                            f"product-space oracle {want!r}")
        return errs


# ---------------------------------------------------------------------------
# rate-solvers

#: The criterion-5 binary triples (a, b, alpha).
RATE_TRIPLES = (
    (0.1, 0.5, 0.05), (0.1, 0.5, 0.2), (0.1, 0.5, 0.45), (0.1, 0.5, 0.6),
    (0.2, 0.7, 0.1), (0.2, 0.7, 0.3), (0.2, 0.7, 0.55), (0.2, 0.7, 0.8),
    (0.3, 0.3, 0.1), (0.3, 0.3, 0.35), (0.05, 0.9, 0.5), (0.05, 0.9, 0.95),
    (0.4, 0.6, 0.05), (0.4, 0.6, 0.15), (0.4, 0.6, 0.3), (0.25, 0.45, 0.12),
    (0.25, 0.45, 0.28), (0.15, 0.85, 0.6), (0.15, 0.85, 0.75),
    (0.35, 0.55, 0.1),
)

#: The triples rate-solvers runs: RATE_TRIPLES[i] for these i.  Four
#: with a positive rate_f; four with a positive rate_g, among them the
#: stalling (0.1, 0.5, 0.45) and three infinite ones.
RATE_RUN = (0, 1, 5, 10, 2, 3, 7, 9)


def theta_instance():
    """THETA_3X3 as program objects."""
    from strassen_lab import CostMatrix, Dist
    px, py, cost = THETA_3X3
    return Dist.from_mass(px), Dist.from_mass(py), CostMatrix.from_rows(cost)


def _rates_agree(got: float, want: float, tol: float) -> bool:
    if math.isinf(got) or math.isinf(want):
        return got == want
    return abs(got - want) <= tol


class RateSolvers:
    """ldp and mdp rates on fixed instances; the seed orders the triples.

    Eight of the twenty binary triples run, because all twenty took 8 s
    of a round.  The 3x3 calls use reduced work settings, because the
    defaults cost more than a run may take: rate_g with grid=4 (25 s per
    call at the default 201), mdp_rate_upper with 48 directions and
    mdp_rate_lower with 16 (the defaults are 720).  With one BLAS thread,
    16 directions still meet the SLSQP failures that send _w_inner into
    its ray-sweep fallback, and 8 do not, so 16 keep that waste measured.
    """

    ROUNDS = 2
    EPS_F = (0.02, 0.01, 0.005)
    EPS_G = (0.02, 0.01)
    G_GRID = 4
    UPPER_DIRS = 48
    LOWER_DIRS = 16
    DELTAS = (1.0, 2.0)
    F_TOL = 0.5   # |rate_f(base - eps) / eps^2 / K - 1| <= F_TOL * eps
    G_TOL = 100.0  # |rate_g(base + eps) / eps^2 / K - 1| <= G_TOL * eps

    def __init__(self, seed: int):
        self.seed = seed
        self._ops = None

    def ops(self) -> list:
        if self._ops is None:
            self._ops = self._build()
        return self._ops

    def _build(self) -> list:
        from strassen_lab import Dist, RateQuery
        from strassen_lab.ldp import rate_f, rate_g
        from strassen_lab.mdp import mdp_rate_lower, mdp_rate_upper
        ham = _hamming()
        triples = [RATE_TRIPLES[i] for i in RATE_RUN]
        random.Random(self.seed).shuffle(triples)
        out = []
        for a, b, alpha in triples:
            q = RateQuery(Dist.bernoulli(a), Dist.bernoulli(b), ham, alpha)
            out.append(Op("rate_f", "ldp.rate_f", rate_f, (q,),
                          check=self._closed(ref.rate_f_closed, a, b, alpha)))
            out.append(Op("rate_g", "ldp.rate_g", rate_g, (q,),
                          check=self._closed(ref.rate_g_closed, a, b, alpha)))
        px, py, cost = theta_instance()
        base = ref.ot_lp(np.array(px.mass), np.array(py.mass),
                         cost.as_array())
        for eps in self.EPS_F:
            out.append(Op("rate_f", "ldp.rate_f", rate_f,
                          (RateQuery(px, py, cost, base - eps),),
                          meta={"eps": eps, "rel": "f3"}))
        for eps in self.EPS_G:
            out.append(Op("rate_g", "ldp.rate_g", rate_g,
                          (RateQuery(px, py, cost, base + eps),),
                          {"grid": self.G_GRID},
                          meta={"eps": eps, "rel": "g3"}))
        bx, by = Dist.bernoulli(0.1), Dist.bernoulli(0.5)
        for d in self.DELTAS:
            out.append(Op("mdp_upper", "mdp.mdp_rate_upper", mdp_rate_upper,
                          (bx, by, ham, d), {"directions": self.UPPER_DIRS},
                          check=self._mdp(0.1, 0.5, d),
                          meta={"rel": "up2", "delta": d}))
            out.append(Op("mdp_lower", "mdp.mdp_rate_lower", mdp_rate_lower,
                          (bx, by, ham, -d), {"directions": self.LOWER_DIRS},
                          check=self._mdp(0.1, 0.5, -d),
                          meta={"rel": "lo2", "delta": d}))
        out.append(Op("mdp_upper", "mdp.mdp_rate_upper", mdp_rate_upper,
                      (px, py, cost, 1.0), {"directions": self.UPPER_DIRS},
                      meta={"rel": "up3"}))
        out.append(Op("mdp_lower", "mdp.mdp_rate_lower", mdp_rate_lower,
                      (px, py, cost, -1.0), {"directions": self.LOWER_DIRS},
                      meta={"rel": "lo3"}))
        return out

    @staticmethod
    def _closed(form, a, b, alpha):
        def check(got):
            want = form(a, b, alpha)
            if not _rates_agree(got, want, 1e-4):
                return f"({a}, {b}, {alpha}): {got!r}, closed form {want!r}"
            return None
        return check

    @staticmethod
    def _mdp(a, b, delta):
        def check(got):
            want = ref.mdp_binary(a, b, delta)
            if not abs(got - want) <= 1e-6 * want:
                return f"MDP rate at delta={delta}: {got!r}, want {want!r}"
            return None
        return check

    def cross_checks(self, passes) -> list:
        return [err for done in passes for err in self._relations(done)]

    def _relations(self, done) -> list:
        errs = []
        by = {}
        for op, result in done:
            if result is not None and "rel" in op.meta:
                by.setdefault(op.meta["rel"], []).append((op.meta, result))
        for rel in ("up2", "lo2"):
            vals = {m["delta"]: r for m, r in by.get(rel, [])}
            if 1.0 in vals and 2.0 in vals:
                if abs(vals[2.0] - 4.0 * vals[1.0]) > 1e-6 * vals[2.0]:
                    errs.append(f"{rel}: rate(2) = {vals[2.0]!r} is not "
                                f"4 rate(1) = {4.0 * vals[1.0]!r}")
        k_up = by.get("up3", [(None, None)])[0][1]
        k_low = by.get("lo3", [(None, None)])[0][1]
        if k_up is not None:
            errs += self._approach("rate_f(base - eps)", by.get("f3", []),
                                   k_up, self.F_TOL)
        if k_low is not None:
            errs += self._approach("rate_g(base + eps)", by.get("g3", []),
                                   k_low, self.G_TOL)
        return errs

    @staticmethod
    def _approach(label, rows, kernel, tol) -> list:
        """rate / eps^2 within tol * eps of the MDP kernel, closing as eps halves."""
        errs = []
        gaps = []
        for meta, rate in sorted(rows, key=lambda r: -r[0]["eps"]):
            eps = meta["eps"]
            gap = abs(rate / (eps * eps) / kernel - 1.0)
            gaps.append(gap)
            if not gap <= tol * eps:
                errs.append(f"{label}/eps^2 at eps={eps}: {rate / eps ** 2!r}"
                            f" vs MDP kernel {kernel!r}")
        if any(b >= a for a, b in zip(gaps, gaps[1:])):
            errs.append(f"{label}/eps^2 does not close on the kernel "
                        f"as eps halves: gaps {gaps}")
        return errs


# ---------------------------------------------------------------------------
# cli-startup

@dataclass
class CliRun:
    returncode: int
    stdout: bytes
    stderr: bytes


def _csv_rows(data: bytes) -> list:
    return list(csv.DictReader(io.StringIO(data.decode())))


class CliStartup:
    """Fresh strassen-lab processes, one at a time, for cheap commands.

    Six commands on seeded instance files, each run once per round:
    ``clt --oracle``, ``ot --certify``, ``ecp --oracle``, ``exact-gn
    --oracle`` at n = 3, ``sample`` and a short ``converge``.
    """

    ROUNDS = 3

    def __init__(self, seed: int, root, outdir):
        self.seed = seed
        self.root = root
        self.outdir = outdir
        self._ops = None

    def env(self) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        env.pop("STRASSEN_LAB_THREADS", None)
        return env

    def _write(self, name: str, data: dict) -> str:
        path = self.outdir / f"cli-{self.seed}-{name}.json"
        path.write_text(json.dumps(data))
        return str(path)

    def commands(self) -> list:
        rng = np.random.default_rng(self.seed)

        def dist(k):
            w = rng.integers(1, 10, size=k)
            return {"labels": list(range(k)),
                    "mass": [float(v) for v in w / w.sum()]}

        def cost(m, k):
            return (rng.integers(0, 101, size=(m, k)) / 100.0).tolist()

        a = float(rng.integers(5, 30)) / 100.0
        b = float(rng.integers(int(a * 100) + 10, 51)) / 100.0
        ot_file = self._write("ot", {"px": dist(3), "py": dist(4),
                                            "cost": cost(3, 4)})
        ecp_alpha = float(rng.integers(20, 80)) / 100.0
        ecp_file = self._write("ecp", {"px": dist(4), "py": dist(4),
                                              "cost": cost(4, 4),
                                              "alpha": ecp_alpha})
        gn_file = self._write("gn", {"px": dist(2), "py": dist(3),
                                            "cost": cost(2, 3)})
        gn_alpha = float(rng.integers(30, 70)) / 100.0
        pa = float(rng.integers(5, 25)) / 100.0
        pb = float(rng.integers(40, 60)) / 100.0
        bin_file = self._write("bin", {
            "px": {"labels": [0, 1], "mass": [pa, 1.0 - pa]},
            "py": {"labels": [0, 1], "mass": [pb, 1.0 - pb]},
            "cost": [[0.0, 1.0], [1.0, 0.0]]})
        return [
            ("clt", ["clt", "--a", repr(a), "--b", repr(b),
                     "--delta-grid", "-3:3:41", "--oracle"]),
            ("ot", ["ot", ot_file, "--certify"]),
            ("ecp", ["ecp", ecp_file, "--oracle"]),
            ("exact-gn", ["exact-gn", gn_file, "--alpha", repr(gn_alpha),
                          "--n", "3", "--oracle"]),
            ("sample", ["sample", bin_file, "--alpha", "0.3", "--n", "8",
                        "--seed", str(self.seed), "--count", "40"]),
            ("converge", ["converge", bin_file, "--mode", "lower",
                          "--alpha", repr(round(abs(pb - pa) / 2, 2)),
                          "--n", "25:100:doubling"]),
        ]

    def ops(self) -> list:
        if self._ops is None:
            self._ops = [Op("cli_call", "cli.process", self.spawn, (argv,),
                            check=CHECKS[name],
                            meta={"cmd": name, "argv": argv})
                         for name, argv in self.commands()]
        return self._ops

    def spawn(self, argv) -> CliRun:
        proc = subprocess.run(
            [sys.executable, "-m", "strassen_lab.cli", *argv],
            cwd=self.root, env=self.env(), capture_output=True, timeout=120)
        return CliRun(proc.returncode, proc.stdout, proc.stderr)

    def cross_checks(self, passes) -> list:
        errs = []
        first = {}
        for done in passes:
            for op, result in done:
                key = tuple(op.meta["argv"])
                if key in first and first[key] != result.stdout:
                    errs.append(f"{op.meta['cmd']}: stdout differs between "
                                "rounds")
                first.setdefault(key, result.stdout)
        return errs


def _cli_check(rule):
    def check(run: CliRun):
        if run.returncode != 0:
            return (f"exit code {run.returncode}: "
                    f"{run.stderr.decode(errors='replace')[-300:]}")
        rows = _csv_rows(run.stdout)
        if not rows:
            return "no output rows"
        return rule(rows)
    return check


def _clt_rule(rows):
    for r in rows:
        if abs(float(r["lambda"]) - float(r["lambda_dual"])) > 1e-6:
            return f"lambda {r['lambda']} vs lambda_dual {r['lambda_dual']}"
    return None


def _ot_rule(rows):
    gap = float(rows[0]["duality_gap"])
    return None if abs(gap) <= 1e-9 else f"duality gap {gap!r}"


def _oracle_rule(rows):
    r = rows[0]
    value, oracle = float(r["value"]), float(r["oracle"])
    if abs(value - oracle) > 1e-9:
        return f"value {value!r} vs oracle {oracle!r}"
    if abs(value + float(r["complement"]) - 1.0) > 1e-9:
        return "value + complement != 1"
    return None


def _sample_rule(rows):
    if len(rows) != 40:
        return f"{len(rows)} draws instead of 40"
    if any(len(r["x"].split("|")) != 8 or len(r["y"].split("|")) != 8
           for r in rows):
        return "a draw is not a pair of length-8 strings"
    return None


def _converge_rule(rows):
    ns = [int(r["n"]) for r in rows]
    if ns != [25, 50, 100]:
        return f"n values {ns}"
    for r in rows:
        e = float(r["exponent"])
        if not e >= 0.0:
            return f"exponent {e!r} at n={r['n']}"
    return None


CHECKS = {
    "clt": _cli_check(_clt_rule),
    "ot": _cli_check(_ot_rule),
    "ecp": _cli_check(_oracle_rule),
    "exact-gn": _cli_check(_oracle_rule),
    "sample": _cli_check(_sample_rule),
    "converge": _cli_check(_converge_rule),
}


