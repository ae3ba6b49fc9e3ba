"""Config-driven runner: schema validation, exit codes, determinism,
sweeps, and report rendering."""

import csv
import dataclasses
import io
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from skrp import cli, models, tensor, verify
from skrp.errors import ConfigError
from conftest import shrunk_shell

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"

SPHERE_CONFIG = {
    "seed": 11,
    "profile": {"family": "quadratic", "K": 4.0, "phi0": 1.0},
    "model": {"variant": "sphere", "K": 4.0, "phi0": 1.0},
    "checks": [
        {"name": "kahler", "tolerance": 1e-6, "points": 10},
        {"name": "boundary", "tolerance": 1e-9},
        {"name": "distance", "expected": 1.5707963267948966,
         "tolerance": 1e-8},
    ],
}

SHELL_CONFIG = {
    "seed": 5,
    "profile": {"family": "quadratic", "K": 1.0, "phi0": 1.0,
                "interval": [-1.0, 1.0]},
    "model": {"variant": "shell", "m": 2, "a": 1.0, "eps": 1, "c": -2.0},
    "checks": [
        {"name": "skrp_blocks", "tolerance": 1e-5, "points": 8},
        {"name": "classify"},
    ],
}


def patched(config, path, value):
    """A copy of config with the entry at a dotted path (list indices as
    numbers) set to value."""
    out = json.loads(json.dumps(config))
    *keys, last = [int(k) if k.isdigit() else k for k in path.split(".")]
    node = out
    for key in keys:
        node = node[key]
    node[last] = value
    return out


TYPE_A_PROFILE = {"family": "type_a", "m": 2, "K": 1.0, "alpha": 0.0,
                  "eta": -6.0}

# Subcommand and config of malformed inputs, each a config error (exit 2).
BAD_INPUTS = {
    "classify_without_model": ("classify", {"checks": []}),
    "classify_list_config": ("classify", []),
    "profile_K_string": ("verify", patched(SHELL_CONFIG, "profile.K", "x")),
    "model_m_fraction": ("verify", patched(SHELL_CONFIG, "model.m", 2.5)),
    "phi_window_one_value": ("verify", patched(SHELL_CONFIG,
                                               "model.phi_window", [0.0])),
    "points_string": ("verify", patched(SHELL_CONFIG, "checks.0.points",
                                        "many")),
    "tolerance_string": ("verify", patched(SHELL_CONFIG,
                                           "checks.0.tolerance", "x")),
    "verify_seed_string": ("verify", patched(SHELL_CONFIG, "seed", "x")),
    "build_seed_string": ("build", patched(SHELL_CONFIG, "seed", "x")),
    "sweep_axis_string": ("sweep", {"sweep": {"kind": "slope_poly",
                                              "k": ["a"]}}),
    "interval_string": ("verify", patched(SHELL_CONFIG, "profile.interval",
                                          "x")),
    "find_interval_seed_string": ("verify", patched(
        SHELL_CONFIG, "profile", dict(TYPE_A_PROFILE,
                                      find_interval={"seed": "x"}))),
    "alpha_on_quadratic": ("verify", patched(SHELL_CONFIG, "profile.alpha",
                                             0.5)),
    "m_on_sphere": ("verify", patched(SPHERE_CONFIG, "model.m", 2)),
    "p_on_kahler": ("verify", patched(SPHERE_CONFIG, "checks.0.p", 0.5)),
    "gauss_tolerance": ("verify", patched(SHELL_CONFIG,
                                          "checks.0.gauss_tolerance", 1e-4)),
    "out_not_string": ("verify", patched(SHELL_CONFIG, "out", 7)),
    "sweep_num_negative": ("sweep", {"sweep": {
        "kind": "slope_poly", "k": {"start": 2, "stop": 3, "num": -1}}}),
    "interval_degenerate": ("verify", patched(
        SHELL_CONFIG, "profile.interval", [1.0, -1.0])),
    "interval_not_positive": ("verify", patched(
        SHELL_CONFIG, "profile.interval", [0.5, 1.5])),
    "find_interval_no_root": ("verify", patched(SHELL_CONFIG, "profile", {
        "family": "polynomial", "coeffs": [1.0, 0.0, 1.0],
        "find_interval": {"seed": 0.0}})),
    # json writes and reads these as Infinity and NaN.
    "fd_h_infinite": ("verify", patched(SHELL_CONFIG, "fd",
                                        {"h": math.inf})),
    "tolerance_nan": ("verify", patched(SHELL_CONFIG, "checks.0.tolerance",
                                        math.nan)),
    # No row could pass: a tolerance of 0 is legal, a negative one is not.
    "tolerance_negative": ("verify", patched(SHELL_CONFIG,
                                             "checks.0.tolerance", -1e-6)),
    "profile_K_infinite": ("verify", patched(SHELL_CONFIG, "profile.K",
                                             math.inf)),
    "distance_expected_nan": ("verify", patched(
        SPHERE_CONFIG, "checks.2.expected", math.nan)),
    "verify_seed_negative": ("verify", patched(SHELL_CONFIG, "seed", -3)),
    "build_seed_negative": ("build", patched(SHELL_CONFIG, "seed", -3)),
    "sweep_k_fraction": ("sweep", {"sweep": {"kind": "slope_poly",
                                             "k": [2.5, 3.9]}}),
    "sweep_m_fraction": ("sweep", {"sweep": {
        "kind": "type_a_admissible", "m": {"start": 2, "stop": 3,
                                           "num": 3}}}),
    "sweep_k_below_two": ("sweep", {"sweep": {"kind": "slope_poly",
                                              "k": [1]}}),
    "sweep_m_below_two": ("sweep", {"sweep": {"kind": "type_a_admissible",
                                              "m": [1]}}),
}


def report_rows(text):
    """Residuals of a report's check rows, by row name."""
    rows = {}
    for line in text.splitlines():
        if line.startswith("check: "):
            body = line[len("check: "):].partition(" note=")[0]
            fields = dict(kv.split("=", 1) for kv in body.split(" "))
            rows.setdefault(fields["name"], []).append(
                float(fields["residual"]))
    return rows


class TestRunConfig:
    def test_sphere_plan_passes(self):
        code, text = cli.run_config(SPHERE_CONFIG)
        assert code == 0
        assert "summary: pass=" in text
        assert "fail=0" in text

    def test_shell_plan_passes(self):
        code, text = cli.run_config(SHELL_CONFIG)
        assert code == 0
        assert "type=C1" in text

    def test_unknown_variant_is_config_error(self):
        bad = {"model": {"variant": "torus"}, "checks": []}
        with pytest.raises(ConfigError):
            cli.run_config(bad)

    def test_fd_keys(self):
        assert cli.parse_fd({"h": 2e-3}) == tensor.FDConfig(h=2e-3)
        assert [f.name for f in dataclasses.fields(tensor.FDConfig)] == ["h"]
        with pytest.raises(ConfigError):
            cli.parse_fd({"order": 4})

    def test_unknown_key_rejected(self):
        bad = dict(SHELL_CONFIG)
        bad["extra"] = 1
        with pytest.raises(ConfigError):
            cli.run_config(bad)
        bad2 = json.loads(json.dumps(SHELL_CONFIG))
        bad2["checks"][0]["unknown_knob"] = 2
        with pytest.raises(ConfigError):
            cli.run_config(bad2)

    def test_unreachable_tolerance_exits_one(self):
        config = json.loads(json.dumps(SPHERE_CONFIG))
        config["checks"] = [{"name": "curvature_constant",
                             "tolerance": 1e-12, "points": 6}]
        code, text = cli.run_config(config)
        assert code == 1
        assert "pass=false" in text
        assert "summary:" in text   # report still written

    @pytest.mark.parametrize("points", [1, 2, 3])
    def test_curvature_constant_few_points(self, points, tmp_path):
        # Fewer points than the 4 near-pole radii the check asks for.
        config = patched(SPHERE_CONFIG, "checks",
                         [{"name": "curvature_constant", "points": points}])
        cfg, out = tmp_path / "cfg.json", tmp_path / "out.txt"
        cfg.write_text(json.dumps(config))
        assert cli.main(["verify", "--config", str(cfg),
                         "--out", str(out)]) == 0
        assert list(report_rows(out.read_text())) == ["curvature_constant"]

    def test_report_embeds_resolved_config(self):
        code, text = cli.run_config(SHELL_CONFIG, seed_override=99)
        line = [ln for ln in text.splitlines()
                if ln.startswith("config: ")][0]
        embedded = json.loads(line[len("config: "):])
        assert embedded["seed"] == 99
        assert embedded["model"]["variant"] == "shell"

    def test_determinism_modulo_timestamp(self):
        def strip(text):
            return "\n".join(ln for ln in text.splitlines()
                             if not ln.startswith("timestamp:"))

        code1, t1 = cli.run_config(SHELL_CONFIG)
        code2, t2 = cli.run_config(SHELL_CONFIG)
        assert (code1, strip(t1)) == (code2, strip(t2))

    def test_tol_scale(self):
        config = json.loads(json.dumps(SPHERE_CONFIG))
        config["checks"] = [{"name": "curvature_constant",
                             "tolerance": 1e-12, "points": 6}]
        code, _ = cli.run_config(config, tol_scale=1e6)
        assert code == 0

    def test_tol_scale_multiplies_default_tolerance(self):
        config = json.loads(json.dumps(SHELL_CONFIG))
        config["checks"] = [{"name": "kahler", "points": 4}]
        code, text = cli.run_config(config, tol_scale=1e-3)
        assert code == 0
        assert "name=kahler_residuals" in text and "tolerance=1e-09" in text

    def test_distance_requires_expected(self):
        config = json.loads(json.dumps(SPHERE_CONFIG))
        config["checks"] = [{"name": "distance", "tolerance": 1e-8}]
        with pytest.raises(ConfigError, match="expected"):
            cli.run_config(config)

    def test_every_check_has_its_parameters(self):
        assert set(cli.CHECK_PARAMS) == set(cli.CHECKS)

    def test_threads_other_than_one_rejected(self):
        with pytest.raises(ConfigError, match="threads"):
            cli.run_config(SHELL_CONFIG, threads=2)

    @pytest.mark.parametrize("variant", ["shell", "product"])
    def test_identity_rows(self, variant):
        config = {"model": {"variant": "product", "K": 1.0, "t": 1.0},
                  "checks": [{"name": "identities", "points": 4}]}
        if variant == "shell":
            config.update(profile=SHELL_CONFIG["profile"],
                          model=SHELL_CONFIG["model"])
        code, text = cli.run_config(config)
        assert code == 0
        rows = [ln.split()[1] for ln in text.splitlines()
                if ln.startswith("check: ")]
        assert rows == ["name=gradient_dq", "name=laplacian_trace",
                        "name=gradient_dy", "name=sigma_ratio",
                        "name=profile_slope", "name=vertical_curvature"]

    def test_check_error_becomes_failed_row(self):
        # phi vanishes on the sphere's equator, so conformal_einstein raises
        # PhiNearZero at some of 200 points; the run goes on.
        config = json.loads(json.dumps(SPHERE_CONFIG))
        config["checks"] = [{"name": "conformal_einstein", "points": 200},
                            {"name": "kahler", "tolerance": 1e-6,
                             "points": 4}]
        code, text = cli.run_config(config)
        assert code == 1
        rows = [ln for ln in text.splitlines() if ln.startswith("check: ")]
        assert rows[0].startswith("check: name=conformal_einstein "
                                  "residual=inf")
        assert "pass=false note=error PhiNearZero:" in rows[0]
        assert "name=kahler_residuals" in rows[1] and "pass=true" in rows[1]
        assert "summary: pass=1 fail=1 exit=1" in text

    def test_sphere_geodesic_rows_from_one_fan(self, tmp_path, capsys):
        config = json.loads(json.dumps(SPHERE_CONFIG))
        config["checks"] = [{"name": "distance", "expected": math.pi / 2,
                             "tolerance": 1e-8},
                            {"name": "normal_geodesics"}]
        code, text = cli.run_config(config)
        assert code == 0
        rows = report_rows(text)
        sphere = models.build_sphere(models.SphereSpec(K=4.0, phi0=1.0))
        direct = verify.sphere_normal_geodesics(sphere, tensor.FDConfig())
        assert rows["distance_geodesic"] == [direct.distance_vs_L]
        assert rows["dphi_ds"] == [direct.dphids_res]
        assert rows["gauss_orthogonality"] == [direct.gauss_res]
        # distance is quadrature only: its geodesic tolerance is gone.
        config["checks"][0]["geodesic_tolerance"] = 1e-4
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert cli.main(["verify", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    def test_dead_ray_becomes_failed_row(self, tmp_path, monkeypatch):
        build = models.build_shell
        monkeypatch.setattr(models, "build_shell",
                            lambda spec: shrunk_shell(build(spec)))
        config = json.loads(json.dumps(SHELL_CONFIG))
        config["checks"] = [{"name": "normal_geodesics"}]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "report.txt"
        assert cli.main(["verify", "--config", str(cfg),
                         "--out", str(out)]) == 1
        text = out.read_text()
        assert ("residual=inf tolerance=1e-05 pass=false note=error "
                "StencilOutOfDomain: ") in text
        assert "stencil points leave the domain around point" in text
        assert "summary: pass=0 fail=1 exit=1" in text


def counted_shells(monkeypatch, domain=None):
    """Make ``models.build_shell`` record the number of points of each
    ``chart.g`` and ``chart.phi`` call of the charts it builds (and, if
    given, cut their domain to ``domain(chart)``); returns the record."""
    calls = {"g": [], "phi": []}
    build = models.build_shell

    def counted(name, fn):
        def wrapped(pts):
            calls[name].append(len(pts))
            return fn(pts)
        return wrapped

    def built(spec):
        chart = build(spec)
        return dataclasses.replace(
            chart, g=counted("g", chart.g), phi=counted("phi", chart.phi),
            domain=chart.domain if domain is None else domain(chart))

    monkeypatch.setattr(models, "build_shell", built)
    return calls


def with_checks(config, names, points):
    """A copy of config whose plan is the named checks at one ``points``."""
    out = json.loads(json.dumps(config))
    out["checks"] = [{"name": name, "points": points,
                      **({"p": 0.5, "s0": 0.3} if name == "soliton" else {})}
                     for name in names]
    return out


def check_lines(text):
    return [ln for ln in text.splitlines() if ln.startswith("check: ")]


def cloud(second):
    """Points of the n = 4 stencil cloud at the default configuration: the
    whole cloud for second partials, its first-order head otherwise."""
    op = tensor.stencil(4)
    return len(op.codes) if second else op.Wa.shape[1]


class TestSharedSamples:
    """Checks of one run with equal ``points`` sample the same points and
    share one metric jet and one set of potential derivatives."""

    @pytest.mark.parametrize("names, second", [
        (("skrp_blocks", "kahler", "killing"), True),
        (("kahler", "killing"), False),
        (("kahler", "killing") * 4, False)])
    def test_one_g_and_one_phi_call(self, monkeypatch, names, second):
        calls = counted_shells(monkeypatch)
        code, _ = cli.run_config(with_checks(SHELL_CONFIG, names, 3))
        assert code == 0
        assert calls == {"g": [3 * cloud(second)], "phi": [3 * cloud(True)]}

    def test_context_from_four_fields(self, monkeypatch):
        # A context built from its four fields, its checks called one by
        # one, as the benchmark calls them.
        calls = counted_shells(monkeypatch)
        ctx = cli.parse_model(SHELL_CONFIG["model"],
                              cli.parse_profile(SHELL_CONFIG["profile"]))
        ctx = cli.ModelContext(ctx.chart, None, ctx.profile, "shell")
        for name in ("kahler", "killing"):
            rows = cli.CHECKS[name](ctx, {"points": 3, "tolerance": 1e-6},
                                    tensor.FDConfig(), 4)
            assert rows[0].passed
        assert calls == {"g": [3 * cloud(False)], "phi": [3 * cloud(True)]}

    SHARED = ("skrp_blocks", "identities", "conformal_einstein", "soliton")

    @pytest.mark.parametrize("cut", [False, True])
    @pytest.mark.parametrize("first", [True, False])
    def test_rows_as_in_a_plan_of_their_own(self, monkeypatch, cut, first):
        # The cut chart's domain holds only the coordinate lines through
        # the sample points: the first-order cloud fits in it, the
        # second-order one does not, so every check but kahler fails.
        config = json.loads((CONFIGS / "conformal_type_c.json").read_text())
        points = 4

        def lines_only(chart):
            centers = models.sample_points(chart, points, config["seed"])

            def domain(pts):
                off = np.sum(pts[:, None, :] != centers[None], axis=2)
                return chart.domain(pts) & np.any(off <= 1, axis=1)
            return domain

        counted_shells(monkeypatch, lines_only if cut else None)
        names = (("kahler", "killing") + self.SHARED if first
                 else self.SHARED + ("kahler", "killing"))
        alone = [ln for name in names for ln in check_lines(
            cli.run_config(with_checks(config, [name], points))[1])]
        lines = check_lines(cli.run_config(with_checks(config, names,
                                                       points))[1])
        assert lines == alone
        errors = [ln.split()[1] for ln in lines if "note=error " in ln]
        if cut:
            assert all("StencilOutOfDomain" in ln
                       for ln in lines if "note=error " in ln)
            assert len(errors) == len(names) - 1
            assert "name=kahler_residuals" not in errors
        else:
            assert errors == []


class TestSweeps:
    def test_slope_poly_sign_changes(self):
        config = {"sweep": {"kind": "slope_poly", "k": [2, 3, 4],
                            "beta": {"start": -3.0, "stop": 3.0,
                                     "num": 2001}}}
        text = cli.run_sweep(config)
        rows = list(csv.DictReader(io.StringIO(text)))
        by_k = {}
        for row in rows:
            by_k.setdefault(int(row["k"]), []).append(
                (float(row["beta"]), float(row["f"])))
        for k, pairs in by_k.items():
            admissible = {1.0, (-1.0) ** k}
            for (b0, f0), (b1, f1) in zip(pairs, pairs[1:]):
                if f0 * f1 < 0:
                    assert any(b0 - 1e-9 <= root <= b1 + 1e-9
                               for root in admissible), (k, b0, b1)

    def test_empty_range_header_only(self):
        config = {"sweep": {"kind": "slope_poly", "k": [],
                            "beta": [0.5]}}
        text = cli.run_sweep(config)
        assert text.strip() == "k,beta,f,factor_residual"

    def test_type_a_sweep(self):
        config = {"sweep": {"kind": "type_a_admissible", "m": [2],
                            "K": [1.0], "alpha": [0.0, 0.5],
                            "eta": [-6.0]}}
        text = cli.run_sweep(config)
        rows = list(csv.DictReader(io.StringIO(text)))
        flags = {float(r["alpha"]): int(r["boundary_pass"]) for r in rows}
        assert flags[0.0] == 1
        assert flags[0.5] == 0

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            cli.run_sweep({"sweep": {"kind": "mystery"}})

    def test_whole_float_axis(self):
        # A linspace axis of whole floats is a valid integer axis.
        config = {"sweep": {"kind": "slope_poly",
                            "k": {"start": 2, "stop": 10, "num": 9},
                            "beta": [0.5]}}
        rows = list(csv.DictReader(io.StringIO(cli.run_sweep(config))))
        assert [row["k"] for row in rows] == [str(k) for k in range(2, 11)]


class TestRendering:
    def test_summary_table(self):
        code, text = cli.run_config(SHELL_CONFIG)
        table = cli.render_summary(text)
        assert "hess_orthogonal_block" in table
        assert "summary:" in table

    def test_summary_reads_fields_before_the_note(self):
        text = ("check: name=a residual=1e-09 tolerance=1e-06 pass=true "
                "note=name=b pass=false\nsummary: pass=1 fail=0 exit=0\n")
        rows = cli.render_summary(text).splitlines()
        assert rows[1].split() == ["a", "1.000e-09", "1.0e-06", "true"]
        assert rows[2] == "summary: pass=1 fail=0 exit=0"

    @pytest.mark.parametrize("row", [
        "check: name=a residual=1e-09 pass=true",
        "check: residual=1e-09 tolerance=1e-06 pass=true",
        "check: name=a tolerance=1e-06 pass=true note=residual=1e-09",
        "check: name=a residual=1e-09 tolerance=1e-06",
        "check: name=a residual=big tolerance=1e-06 pass=true",
    ], ids=["no_tolerance", "no_name", "residual_in_note", "no_pass",
            "residual_not_a_number"])
    def test_malformed_row_exit_two(self, row, tmp_path, capsys):
        report = tmp_path / "report.txt"
        report.write_text(row + "\n")
        assert cli.main(["report", "--in", str(report)]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: malformed report row: {row}\n"

    def test_build_grid(self):
        text = cli.run_build(SHELL_CONFIG, seed=5)
        rows = text.splitlines()
        assert rows[0].startswith("variant,shell")
        assert rows[1].startswith("x0,x1,x2,x3,phi,g00")
        assert len(rows) == 34


class TestMainEntry:
    def test_verify_roundtrip(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(SPHERE_CONFIG))
        out = tmp_path / "report.txt"
        code = cli.main(["verify", "--config", str(cfg),
                         "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert text.startswith(cli.REPORT_FORMAT)
        summary = tmp_path / "summary.txt"
        code = cli.main(["report", "--in", str(out), "--out", str(summary)])
        assert code == 0
        assert "kahler" in summary.read_text()

    def test_bad_config_exit_two(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"model": {"variant": "torus"},
                                   "checks": []}))
        assert cli.main(["verify", "--config", str(cfg)]) == 2

    def test_fd_richardson_is_unknown(self, tmp_path, capsys):
        # Richardson extrapolation is part of the stencil, not an option.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(patched(SPHERE_CONFIG, "fd",
                                          {"richardson": True})))
        assert cli.main(["verify", "--config", str(cfg)]) == 2
        assert "fd: unknown keys ['richardson']" in capsys.readouterr().err

    @pytest.mark.parametrize("command, config", BAD_INPUTS.values(),
                             ids=BAD_INPUTS)
    def test_bad_input_exit_two(self, command, config, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out.txt"
        assert cli.main([command, "--config", str(cfg),
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, flags", [
        ("verify", ["--tol-scale", "nan"]), ("verify", ["--tol-scale", "0"]),
        ("verify", ["--tol-scale", "-1"]), ("verify", ["--seed", "-1"]),
        ("build", ["--seed", "-1"])], ids=[
        "tol_scale_nan", "tol_scale_zero", "tol_scale_negative",
        "verify_seed_negative", "build_seed_negative"])
    def test_bad_flag_exit_two(self, command, flags, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(SHELL_CONFIG))
        out = tmp_path / "out.txt"
        assert cli.main([command, "--config", str(cfg), "--out", str(out),
                         *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command",
                             ["report", "verify", "build", "classify"])
    def test_missing_file_exit_two(self, command, tmp_path, capsys):
        path = tmp_path / "missing" / "report.txt"
        if command == "report":
            argv, said = ["report", "--in", str(path)], "cannot read"
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(SHELL_CONFIG))
            argv = [command, "--config", str(cfg), "--out", str(path)]
            said = "cannot write"
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith(
            f"config error: {said} {path}: ")

    @pytest.mark.parametrize("argv", [
        ["report", "--in", "r.txt", "--threads", "2"],
        ["report", "--in", "r.txt", "--tol-scale", "2"],
        ["classify", "--config", "c.json", "--seed", "3"],
        ["sweep", "--config", "c.json", "--threads", "2"],
        ["build", "--config", "c.json", "--tol-scale", "2"],
        ["verify", "--config", "c.json", "--threads", "2"],
    ])
    def test_flags_only_where_read(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["shell_quadratic", "sphere_k4",
                                      "conformal_type_c"])
    def test_shipped_config_passes(self, name, tmp_path):
        out = tmp_path / "report.txt"
        assert cli.main(["verify", "--config", str(CONFIGS / f"{name}.json"),
                         "--out", str(out)]) == 0
        text = out.read_text()
        checks = [ln for ln in text.splitlines() if ln.startswith("check: ")]
        assert checks and all(" pass=true" in ln for ln in checks)
        if name == "sphere_k4":
            assert len(report_rows(text)["distance_geodesic"]) == 1

    def test_runs_with_scipy_blocked(self, tmp_path):
        # scipy is a test dependency only: with its import blocked, both
        # shipped configs (the sphere's runs `distance`) and one build,
        # classify and sweep run and exit 0.
        shell = tmp_path / "shell.json"
        shell.write_text(json.dumps(SHELL_CONFIG))
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps({"sweep": {
            "kind": "type_a_admissible", "m": [2], "K": [1.0],
            "alpha": [0.0], "eta": [-6.0]}}))
        runs = [["verify", "--config", str(CONFIGS / f"{name}.json")]
                for name in ("shell_quadratic", "sphere_k4")]
        runs += [["build", "--config", str(shell)],
                 ["classify", "--config", str(shell)],
                 ["sweep", "--config", str(sweep)]]
        runs = [argv + ["--out", str(tmp_path / f"out{k}.txt")]
                for k, argv in enumerate(runs)]
        script = ("import json, sys\n"
                  "sys.modules['scipy'] = None\n"
                  "import skrp, skrp.cli\n"
                  "for argv in json.loads(sys.argv[1]):\n"
                  "    assert skrp.cli.main(argv) == 0, argv\n")
        src = str(pathlib.Path(cli.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", script, json.dumps(runs)],
                             capture_output=True, text=True, timeout=120,
                             env=dict(os.environ, PYTHONPATH=src))
        assert out.returncode == 0, out.stderr
        assert all((tmp_path / f"out{k}.txt").stat().st_size > 0
                   for k in range(len(runs)))

    def test_classify_output(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(SHELL_CONFIG))
        assert cli.main(["classify", "--config", str(cfg)]) == 0
        assert "type=C1" in capsys.readouterr().out
