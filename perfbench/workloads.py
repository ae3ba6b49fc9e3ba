"""The benchmark's three seeded workloads.

Each workload turns ``--seed`` into inputs, builds everything once in
``setup``, and runs one full pass in ``run_pass``.  A pass goes through the
public entry points of ``skrp`` (``cli.run_config``, ``cli.run_sweep``,
``cli.run_build``, the ``cli.CHECKS`` registry, and the ``profiles`` /
``reparam`` / ``models`` / ``verify`` functions where the CLI cannot express
an input) and checks every output against a closed form or an invariant.
Output checks are reported to the ``Probe``; none of them raises.

Why these three:

* ``geodesic_fans`` runs the two shipped configs exactly as ``skrp verify``
  does.  The RK4 normal-geodesic fans dominate it.  BENCHMARK.json leaves
  it out: its 9-15 s passes are too few per run to be steady on a shared
  host (README.md), so it is run by hand.
* ``pointwise_dims`` runs the finite-difference identity suites on shells of
  dimension n = 4, 6, 8 plus the conformally-Einstein, soliton and product
  models.  Stencil work dominates it, and the n sweep exposes cloud size.
* ``profile_scan`` carries several dozen profiles of every family through
  interval, boundary, table and chart, plus one sweep of each kind and one
  build.  Chart construction dominates it.

Every workload also builds charts, evaluates sample points and integrates
at least one geodesic fan, so each end-to-end metric has a value on each.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np
from numpy.polynomial import polynomial as npoly

from skrp import cli, models, profiles, reparam, tensor, verify
from skrp.errors import SkrpError

ROOT = Path(__file__).resolve().parent.parent
FD = tensor.FDConfig()

# Small fan integrated by the workloads whose own checks have no geodesics:
# 16 rays, the batch width of the shipped fans, x 48 RK4 steps.  At 48 steps
# the dphi/ds residual of the fan is 9.8e-4 (it falls as steps^-2), hence
# its own tolerance.
SMALL_FAN = dict(n_fan=16, n_steps=48)
SMALL_FAN_DPHIDS_TOL = 2.0e-3
GAUSS_TOL = 1.0e-4


def _seeds(seed: int, count: int) -> list[int]:
    """Independent per-item seeds derived from the workload seed."""
    rng = np.random.default_rng(seed)
    return [int(s) for s in rng.integers(0, 2**31 - 1, count)]


def _strip_timestamp(text: str) -> str:
    return "\n".join(line for line in text.splitlines()
                     if not line.startswith("timestamp:"))


def _csv_rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def _note_value(rows: dict, check: str, key: str) -> float:
    """``key=<float>`` from a report row's note; NaN when absent."""
    _, note = rows.get(check, (math.nan, ""))
    _, found, value = note.partition(f"{key}=")
    try:
        return float(value.split()[0]) if found else math.nan
    except (IndexError, ValueError):
        return math.nan


def _report_rows(text: str) -> dict[str, tuple[float, str]]:
    """check name -> (residual, note) from a report's ``check:`` lines."""
    rows = {}
    for line in text.splitlines():
        if not line.startswith("check: "):
            continue
        body, _, note = line[len("check: "):].partition(" note=")
        fields = dict(kv.split("=", 1) for kv in body.split(" "))
        rows[fields["name"]] = (float(fields["residual"]), note)
    return rows


def _quadratic_shell_config(m: int, checks: list[dict]) -> dict:
    return {"profile": {"family": "quadratic", "K": 1.0, "phi0": 1.0,
                        "interval": [-1.0, 1.0]},
            "model": {"variant": "shell", "m": m, "a": 1.0, "eps": 1,
                      "c": -2.0},
            "checks": checks}


class Workload:
    """One pass of work, repeated by the runner; output checks go to the
    probe, and reports are compared against the first pass of the run."""

    name = ""
    # Passes per timing block of run.py: about 15 s of passes at the seed
    # commit, so that each step's fastest run in a block misses the host's
    # slow stretches.
    BLOCK_PASSES: int

    def __init__(self, seed: int, probe):
        self.seed = seed
        self.probe = probe
        self._reference: dict[str, str] = {}

    def setup(self):
        raise NotImplementedError

    def warm(self):
        self.run_pass()

    def run_pass(self):
        raise NotImplementedError

    def _same_as_first(self, key: str, text: str):
        """Deterministic output is byte-identical across passes."""
        first = self._reference.setdefault(key, text)
        self.probe.expect(text == first, f"{key}: output differs from the "
                          "first pass of this seed")

    def _guarded(self, label: str, fn, *args):
        """``fn(*args)``; a raised SkrpError is a failed output check."""
        try:
            return fn(*args)
        except SkrpError as exc:
            self.probe.expect(False, f"{label}: raised {type(exc).__name__}:"
                              f" {exc}")
            return None

    def _run_config(self, label: str, config: dict, seed: int) -> str:
        out = self._guarded(label, cli.run_config, config, seed)
        if out is None:
            return ""
        code, text = out
        self.probe.expect(code == 0, f"{label}: exit code {code}")
        self._same_as_first(label, _strip_timestamp(text))
        return text

    def _small_fan(self, chart):
        with self.probe.step("path"):
            rep = verify.shell_normal_geodesics(chart, FD, **SMALL_FAN)
        self.probe.expect(rep.dphids_res <= SMALL_FAN_DPHIDS_TOL,
                          f"small fan dphi/ds residual {rep.dphids_res:.3e}")
        self.probe.expect(rep.gauss_res <= GAUSS_TOL,
                          f"small fan Gauss residual {rep.gauss_res:.3e}")

    def _fan_chart(self):
        """The small fan's chart, the same for every seed, so that the
        seed does not change the fan's work."""
        with self.probe.step("chart", 1):
            prof = profiles.make_profile(
                profiles.Quadratic(K=1.0, phi0=1.0), (-1.0, 1.0))
            return models.build_shell(models.ShellSpec(
                m=2, profile=prof, a=1.0, eps=1, c=-2.0))


class GeodesicFans(Workload):
    """The shipped configs through ``cli.run_config``; a pass integrates
    three 16-ray fans (163,840 RK4 path-steps)."""

    name = "geodesic_fans"
    BLOCK_PASSES = 2
    CONFIGS = ("configs/shell_quadratic.json", "configs/sphere_k4.json")

    def __init__(self, seed: int, probe):
        super().__init__(seed, probe)
        self.seeds = _seeds(seed, len(self.CONFIGS))
        self.configs: list[dict] = []

    def setup(self):
        self.configs = [json.loads((ROOT / path).read_text(encoding="utf-8"))
                        for path in self.CONFIGS]
        for config in self.configs:
            profile = cli.parse_profile(config["profile"])
            cli.parse_model(config["model"], profile)

    def warm(self):
        """Every code path of a pass at a fraction of its size: pointwise
        checks at 4 points, and 16-ray fans of 128 and 512 steps."""
        for config, seed in zip(self.configs, self.seeds):
            small = dict(config)
            small["checks"] = [dict(c, points=4) for c in config["checks"]
                               if "points" in c]
            cli.run_config(small, seed_override=seed, threads=1)
        shell = cli.parse_model(self.configs[0]["model"],
                                cli.parse_profile(self.configs[0]["profile"]))
        verify.shell_normal_geodesics(shell.chart, FD, n_steps=128)
        sphere = cli.parse_model(self.configs[1]["model"], None)
        verify.sphere_normal_geodesics(sphere.sphere, FD, n_steps=512)

    def run_pass(self):
        texts = [self._run_config(path, config, seed) for path, config, seed
                 in zip(self.CONFIGS, self.configs, self.seeds)]
        self._sphere_closed_forms(self.configs[1], texts[1])

    def _sphere_closed_forms(self, config: dict, text: str):
        """Curvature equals K and the distance invariant is pi / sqrt(K)."""
        K = float(config["model"]["K"])
        rows = _report_rows(text)
        res, note = rows.get("curvature_constant", (math.inf, ""))
        self.probe.expect(res <= 1e-5 and f"K={K}" in note,
                          f"sphere curvature deviation {res:.3e} from K={K}")
        L = _note_value(rows, "distance_quadrature", "L")
        self.probe.expect(abs(L - math.pi / math.sqrt(K)) <= 1e-8,
                          f"sphere L = {L!r}, expected pi/sqrt({K})")


class PointwiseDims(Workload):
    """Finite-difference identity suites by chart dimension, no fan-sized
    geodesics: quadratic shells at m = 2, 3, 4, the matched TypeC shell
    (conformally Einstein), a soliton shell and the product model."""

    name = "pointwise_dims"
    BLOCK_PASSES = 25
    # Sample points per check.  identity_report costs ~15x skrp_report per
    # point and grows ~6x from n = 4 to n = 8, so it gets fewer points.  Few
    # points keep every check call, a timed step, near 0.1 s: short steps
    # run in the host's fast stretches in some pass of a block, long ones
    # often do not.
    SKRP_POINTS = 12
    IDENTITY_POINTS = {2: 6, 3: 2, 4: 1}
    KAHLER_POINTS = 12
    EINSTEIN_POINTS = 6
    SOLITON_POINTS = 12
    PRODUCT_POINTS = 6
    SOLITON = dict(m=2, p=0.5, s0=0.3, kappa=4.0, eps=1, c=0.0,
                   anchor=(1.0, 0.5), rng=(0.4, 2.2))

    def __init__(self, seed: int, probe):
        super().__init__(seed, probe)
        shells = []
        for m in (2, 3, 4):
            checks = [
                {"name": "skrp_blocks", "tolerance": 1e-5,
                 "points": self.SKRP_POINTS},
                {"name": "identities", "tolerance": 1e-5,
                 "points": self.IDENTITY_POINTS[m]},
                {"name": "kahler", "tolerance": 1e-6,
                 "points": self.KAHLER_POINTS},
                {"name": "killing", "tolerance": 1e-6,
                 "points": self.KAHLER_POINTS},
            ]
            if m == 2:
                checks.append({"name": "distance", "expected": math.pi,
                               "tolerance": 1e-8})
            shells.append((f"shell_m{m}", _quadratic_shell_config(m, checks)))
        # Matched rational-family shell: A = 2 a c makes g / phi^2 Einstein.
        type_c = {"profile": {"family": "type_c", "m": 2, "c": 1.0,
                              "A": 2.0, "B": -0.4, "C": 0.1,
                              "interval": [1.35, 2.55]},
                  "model": {"variant": "shell", "m": 2, "a": 1.0, "eps": 1,
                            "c": 1.0, "phi_window": [1.5, 2.4]},
                  "checks": [{"name": "conformal_einstein", "tolerance": 1e-4,
                              "points": self.EINSTEIN_POINTS}]}
        product = {"model": {"variant": "product", "K": 1.0, "t": 1.0},
                   "checks": [{"name": "identities", "tolerance": 1e-5,
                               "points": self.PRODUCT_POINTS}]}
        self.configs = shells + [("type_c", type_c), ("product", product)]
        self.seeds = _seeds(seed, len(self.configs) + 1)

    def setup(self):
        for _, config in self.configs:
            profile = (cli.parse_profile(config["profile"])
                       if "profile" in config else None)
            cli.parse_model(config["model"], profile)
        self._soliton_chart()
        self._fan_chart()

    def run_pass(self):
        for (label, config), seed in zip(self.configs, self.seeds):
            text = self._run_config(label, config, seed)
            if label == "shell_m2":
                L = _note_value(_report_rows(text), "distance_quadrature", "L")
                self.probe.expect(abs(L - math.pi) <= 1e-8,
                                  f"quadratic K=1 L = {L!r}, expected pi")
        ctx = self._guarded("soliton", self._soliton_chart)
        if ctx is not None:
            params = {"p": self.SOLITON["p"], "s0": self.SOLITON["s0"],
                      "points": self.SOLITON_POINTS, "tolerance": 1e-4}
            results = cli.CHECKS["soliton"](ctx, params, FD, self.seeds[-1])
            self._same_as_first("soliton", repr(results))
        self._guarded("small fan", lambda: self._small_fan(self._fan_chart()))

    def _soliton_chart(self) -> cli.ModelContext:
        s = self.SOLITON
        with self.probe.step("chart", 1):
            prof = profiles.soliton_profile(**s)
            chart = models.build_shell(models.ShellSpec(
                m=s["m"], profile=prof, a=1.0, eps=s["eps"], c=s["c"]))
        return cli.ModelContext(chart, None, prof, "shell")


# ---------------------------------------------------------------------------
# profile_scan
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _ScanItem:
    """One profile of the scan with its chart recipe and expected values."""

    family: str
    build: Callable            # () -> Profile
    model: Callable            # Profile -> (variant, chart)
    slopes: Optional[tuple] = None   # expected endpoint slopes (root ends)
    L: Optional[float] = None  # closed-form distance invariant
    ball: Optional[Callable] = None  # Profile -> (a, c) of the ball extension
    tag: str = "C1"            # expected type classification
    c2_at_0: Optional[float] = None  # closed-form ball coefficient c2(0)


def _shell_model(m: int, c_of):
    def model(prof):
        lo, hi = prof.interval
        return "shell", models.build_shell(models.ShellSpec(
            m=m, profile=prof, a=1.0, eps=1, c=c_of(lo, hi)))
    return model


def _annulus_model(prof):
    return "annulus", models.build_annulus(models.AnnulusSpec(profile=prof,
                                                              a=1.0))


def _hi_root_ball(prof):
    """(a, c) so that the ball extension sits at the upper root."""
    return 0.5 * prof.endpoint_slopes[1], prof.interval[1]


def _scan_items(seed: int, per_family: int) -> list[_ScanItem]:
    rng = np.random.default_rng(seed)
    items = []
    below = lambda lo, hi: lo - 0.5 * (hi - lo)  # c below the interval
    for i in range(per_family):
        m = 2 + i % 3
        K = float(rng.uniform(0.5, 3.0))
        phi0 = float(rng.uniform(0.5, 2.0))
        items.append(_ScanItem(
            "quadratic",
            lambda K=K, phi0=phi0: profiles.make_profile(
                profiles.Quadratic(K=K, phi0=phi0), (-phi0, phi0)),
            _shell_model(m, below),
            slopes=(2 * K * phi0, -2 * K * phi0), L=math.pi / math.sqrt(K),
            ball=_hi_root_ball, c2_at_0=4.0 / K))
    for i in range(per_family):
        # alpha = 0 is the admissible TypeA case: Q = K (h^2 - phi^2).
        m = 2 + i % 3
        K = float(rng.uniform(0.5, 3.0))
        eta = -float(rng.uniform(0.5, 4.0))
        h = math.sqrt(-eta / (m * (2 * m - 1) * K))
        items.append(_ScanItem(
            "type_a",
            lambda m=m, K=K, eta=eta: profiles.find_admissible_interval(
                profiles.TypeA(m=m, K=K, alpha=0.0, eta=eta), 0.0),
            _shell_model(m, below),
            slopes=(2 * K * h, -2 * K * h), L=math.pi / math.sqrt(K),
            ball=_hi_root_ball, c2_at_0=4.0 / K))
    for i in range(per_family):
        # K = 0, alpha, eta < 0, odd m: Q = q0 - |alpha| phi^(m+1).
        m = (3, 5, 7)[i % 3]
        alpha = -float(rng.uniform(0.2, 5.0))
        eta = -float(rng.uniform(0.2, 5.0))
        q0 = -2.0 * eta / (m * (m + 1))
        h = (q0 / -alpha) ** (1.0 / (m + 1))
        s = (m + 1) * -alpha * h ** m
        items.append(_ScanItem(
            "type_b",
            lambda m=m, alpha=alpha, eta=eta: profiles.find_admissible_interval(
                profiles.TypeB(m=m, K=0.0, alpha=alpha, eta=eta), 0.0),
            _shell_model(2 + i % 3, below),
            slopes=(s, -s), ball=_hi_root_ball))
    for i in range(per_family):
        # Q stays positive on [1.35, 2.55] over this (B, C) box.
        B = float(rng.uniform(-0.34, -0.22))
        C = float(rng.uniform(0.02, 0.11))
        items.append(_ScanItem(
            "type_c",
            lambda B=B, C=C: profiles.make_profile(
                profiles.TypeC(m=2, c=1.0, A=2.0, B=B, C=C), (1.35, 2.55)),
            lambda prof: ("shell", models.build_shell(models.ShellSpec(
                m=2, profile=prof, a=1.0, eps=1, c=1.0,
                phi_window=(1.5, 2.4))))))
    for _ in range(per_family):
        # Q = (phi - lo)(hi - phi) [a0 + (phi - lo)(hi - phi) S(phi)] with
        # S > 0: positive inside, simple roots, slopes +-(hi - lo) a0.
        lo = float(rng.uniform(0.3, 0.8))
        hi = lo + float(rng.uniform(1.0, 2.0))
        a0 = float(rng.uniform(0.5, 1.5))
        s0 = float(rng.uniform(0.2, 1.0))
        s1 = float(rng.uniform(-0.9, 1.0)) * s0
        bump = npoly.polymul((-lo, 1.0), (hi, -1.0))
        S = (s0 - s1 * lo / (hi - lo), s1 / (hi - lo))
        coeffs = npoly.polymul(bump, npoly.polyadd((a0,),
                                                   npoly.polymul(bump, S)))
        items.append(_ScanItem(
            "polynomial",
            lambda coeffs=tuple(coeffs), lo=lo, hi=hi: profiles.make_profile(
                profiles.Polynomial(coeffs=coeffs), (lo, hi)),
            _annulus_model, slopes=((hi - lo) * a0, -(hi - lo) * a0),
            ball=_hi_root_ball, tag="A"))
    for _ in range(per_family):
        p = float(rng.uniform(0.4, 0.6))
        s0 = float(rng.uniform(0.2, 0.4))
        q_a = float(rng.uniform(0.4, 0.6))
        items.append(_ScanItem(
            "soliton",
            lambda p=p, s0=s0, q_a=q_a: profiles.soliton_profile(
                m=2, p=p, s0=s0, kappa=4.0, eps=1, c=0.0,
                anchor=(1.0, q_a), rng=(0.4, 2.2)),
            _shell_model(2, lambda lo, hi: 0.0), tag="B"))
    return items


class ProfileScan(Workload):
    """Several dozen seeded profiles, each carried from interval to chart
    and probed; plus one sweep of each kind and one build."""

    name = "profile_scan"
    BLOCK_PASSES = 20
    PER_FAMILY = 6
    RADII = 24
    CHECK_POINTS = 3

    def __init__(self, seed: int, probe):
        super().__init__(seed, probe)
        self.items = _scan_items(seed, self.PER_FAMILY)
        self.seeds = _seeds(seed, len(self.items) + 1)
        rng = np.random.default_rng(self.seeds[-1])
        beta0 = float(rng.uniform(-3.0, -1.5))
        self.slope_sweep = {"sweep": {
            "kind": "slope_poly", "k": {"start": 2, "stop": 10, "num": 9},
            "beta": {"start": beta0, "stop": -beta0, "num": 40}}}
        self.type_a_sweep = {"sweep": {
            "kind": "type_a_admissible", "m": [2, 3],
            "K": [float(rng.uniform(0.2, 1.5)), float(rng.uniform(1.5, 3.0))],
            "alpha": [0.0, float(rng.uniform(0.1, 2.0))],
            "eta": [-float(rng.uniform(0.5, 2.5)),
                    -float(rng.uniform(2.5, 5.0))]}}
        self.build_config = _quadratic_shell_config(int(rng.integers(2, 5)),
                                                    [])
        self.build_seed = int(rng.integers(0, 2**31 - 1))

    def setup(self):
        for item in self.items:
            _, chart = item.model(item.build())
            reparam.dual_table(chart.meta["table"])
        self.fan_chart = self._fan_chart()

    def run_pass(self):
        for item, seed in zip(self.items, self.seeds):
            self._guarded(item.family, self._scan_one, item, seed)
        self._guarded("small fan", self._small_fan, self.fan_chart)
        self._guarded("sweeps", self._sweeps)

    def _scan_one(self, item: _ScanItem, seed: int):
        expect = self.probe.expect
        label = item.family
        rng = np.random.default_rng(seed)
        with self.probe.step("chart", 1):
            prof = item.build()
            bnd = profiles.check_boundary(prof)
            variant, chart = item.model(prof)
            table = chart.meta["table"]
            dual = reparam.dual_table(table)
            r_lo, r_hi = chart.meta["r_range"]
            radii = np.exp(rng.uniform(math.log(r_lo), math.log(r_hi),
                                       self.RADII))
            phis = table.phi_of_r(radii)
            r_back = table.r_of_phi(phis)
            r_dual = dual.r_of_phi(phis)

        if item.slopes is None:
            expect(not bnd.passed, f"{label}: interval ends are not roots, "
                   "boundary check must not pass")
        else:
            got = bnd.endpoint_slopes
            err = max(abs(g - e) / abs(e) for g, e in zip(got, item.slopes))
            expect(bnd.passed and err <= 1e-6,
                   f"{label}: slopes {got}, expected {item.slopes}")
            L = reparam.critical_distance(prof)
            ref = item.L if item.L is not None else table.L
            expect(abs(L - ref) <= 1e-7 * ref,
                   f"{label}: L = {L!r}, expected {ref!r}")

        round_trip = float(np.max(np.abs(r_back / radii - 1.0)))
        expect(round_trip <= 1e-9, f"{label}: r(phi(r)) / r - 1 = "
               f"{round_trip:.3e}")
        inverse = float(np.max(np.abs(r_dual * radii - 1.0)))
        expect(inverse <= 1e-9, f"{label}: dual r* r - 1 = {inverse:.3e}")

        if item.ball is not None:
            a, c = item.ball(prof)
            c1, c2 = models.ball_extension_coeffs(prof, a, c, 0.0)
            ok = math.isfinite(c1) and c2 > 0
            if item.c2_at_0 is not None:
                ok = ok and abs(c2 - item.c2_at_0) <= 1e-5 * item.c2_at_0
            expect(ok, f"{label}: ball coefficients ({c1!r}, {c2!r})")

        tag = verify.classify_model(chart, prof)
        expect(tag.tag == item.tag, f"{label}: type {tag.tag}, "
               f"expected {item.tag}")

        ctx = cli.ModelContext(chart, None, prof, variant)
        for name in ("kahler", "killing"):
            cli.CHECKS[name](ctx, {"points": self.CHECK_POINTS,
                                   "tolerance": 1e-6}, FD, seed)

    def _sweeps(self):
        expect = self.probe.expect
        text = cli.run_sweep(self.slope_sweep)
        self._same_as_first("slope_poly", text)
        rows = _csv_rows(text)
        expect(len(rows) == 1 + 9 * 40, f"slope_poly: {len(rows)} rows")
        worst = max(float(r[3]) / (1.0 + abs(float(r[2]))) for r in rows[1:])
        expect(worst <= 1e-10, f"slope_poly factor residual {worst:.3e}")

        text = cli.run_sweep(self.type_a_sweep)
        self._same_as_first("type_a_admissible", text)
        rows = _csv_rows(text)
        expect(len(rows) == 1 + 16, f"type_a_admissible: {len(rows)} rows")
        for row in rows[1:]:
            alpha, found, boundary = float(row[2]), row[4], row[5]
            want = ("1", "1") if alpha == 0.0 else (found, "0")
            expect((found, boundary) == want,
                   f"type_a_admissible row {row}: alpha = 0 must pass the "
                   "boundary check and alpha != 0 must not")

        text = cli.run_build(self.build_config, self.build_seed)
        self._same_as_first("build", text)
        rows = _csv_rows(text)
        finite = all(math.isfinite(float(v)) for r in rows[2:] for v in r)
        expect(len(rows) == 2 + 32 and finite,
               f"build: {len(rows)} rows, all finite: {finite}")


WORKLOADS = {w.name: w for w in (GeodesicFans, PointwiseDims, ProfileScan)}
