import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest
import sympy

import siltkit
from siltkit.cli import (
    COMMANDS,
    RunConfig,
    UsageError,
    build_parser,
    load_config,
    main,
    parallel_map,
    parse_multi_indices,
    parse_norm_list,
    resolve_config,
)
from siltkit.quadrature import SimplexQuadrature, _shared_rule, \
    simplex3_gauss_legendre


def run_cli(args):
    return main(args)


def read_rows(path):
    with open(path) as fp:
        comment = fp.readline()
        header = fp.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fp if line.strip()]
    return comment, header, rows


class TestParsing:
    def test_dyadic_range(self):
        assert parse_norm_list("2^-2..2^-4") == [0.25, 0.125, 0.0625]

    def test_comma_list_and_empty(self):
        assert parse_norm_list("0.5, 0.25") == [0.5, 0.25]
        for empty in ("", ",", " , "):  # an empty sweep is refused
            with pytest.raises(UsageError):
                parse_norm_list(empty)

    def test_malformed(self):
        with pytest.raises(UsageError):
            parse_norm_list("2^a..2^-3")
        with pytest.raises(UsageError):
            parse_norm_list("1..4")
        with pytest.raises(UsageError):
            parse_norm_list("0.5,zebra")

    def test_multi_indices(self, tmp_path):
        assert parse_multi_indices("0,0;2,1") == [(0, 0), (2, 1)]
        with pytest.raises(UsageError):
            parse_multi_indices("-1,0")
        # the entry count depends on dim, so the command checks it
        assert main(["chaos", "--out", str(tmp_path), "--dim", "2",
                     "--u-dir", "1,0", "--multi-index", "1,2,3"]) == 2

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text("alpha=1\n# comment line\ndim = 3\n\nu_norms=0.5\n")
        values = load_config(str(cfg))
        assert values == {"alpha": "1", "dim": "3", "u_norms": "0.5"}
        bad = tmp_path / "bad.conf"
        bad.write_text("just words\n")
        with pytest.raises(UsageError):
            load_config(str(bad))

    def test_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text("alpha=1\nu_norms=0.5\n")
        parser = build_parser()
        args = parser.parse_args(["kernel", "--config", str(cfg),
                                  "--alpha", "2"])
        config = resolve_config(args)
        assert config.values.alpha == [2.0]
        assert config.values.u_norms == [0.5]
        assert config.values.dim == [4]
        # the digest reads the strings as resolved
        assert config.params == {"alpha": "2", "dim": "4", "u_norms": "0.5"}

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_defaults_convert(self, command):
        config = resolve_config(build_parser().parse_args([command]))
        declared = COMMANDS[command][1]
        assert config.params == {key: default
                                 for key, (_, default) in declared.items()}
        assert set(vars(config.values)) == set(declared)
        assert not any(isinstance(v, str) for v in vars(config.values).values())

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_command_help_lists_every_option(self, capsys, command):
        # main builds only the invoked command's options; its help must read
        # as the parser with every command's options reads it
        with pytest.raises(SystemExit) as done:
            main([command, "--help"])
        assert done.value.code == 0
        got = capsys.readouterr().out
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--help"])
        assert got == capsys.readouterr().out
        for key in ["out", "seed", "config", "workers", *COMMANDS[command][1]]:
            assert f"--{key.replace('_', '-')}" in got

    def test_top_level_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as done:
            main(["--help"])
        assert done.value.code == 0
        listed = capsys.readouterr().out
        assert all(command in listed for command in COMMANDS)

    @pytest.mark.parametrize("command,key,value", [
        ("kernel", "dim", "four"), ("hermite", "n_max", "-1"),
        ("silt", "u_norm", "-0.3"), ("silt", "eps_ladder", "0.2,0.1,0.1"),
        ("silt", "u_dir", "0,0"), ("chaos", "multi_index", "1,x"),
        ("dynkin", "k", "4"), ("marginal", "count", "1"),
        ("transport", "tol", "nan"), ("capacity", "dim", "3")])
    def test_malformed_config_value_names_its_key(self, tmp_path, capsys,
                                                  command, key, value):
        cfg = tmp_path / "run.conf"
        cfg.write_text(f"{key}={value}\n")
        assert main([command, "--out", str(tmp_path),
                     "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {key} ")
        assert not os.path.exists(tmp_path / f"{command}.csv")

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text("frobnicate=1\n")
        parser = build_parser()
        args = parser.parse_args(["kernel", "--config", str(cfg)])
        with pytest.raises(UsageError):
            resolve_config(args)

    def test_workers_resolution(self, tmp_path, monkeypatch):
        parser = build_parser()
        monkeypatch.setenv("SILT_WORKERS", "3")
        config = resolve_config(parser.parse_args(["kernel"]))
        assert config.workers == 3
        config = resolve_config(parser.parse_args(["kernel", "--workers", "2"]))
        assert config.workers == 2

    @pytest.mark.parametrize("flag, env", [
        ("0", None), ("-2", None), ("1.5", None), ("two", None),
        (None, "0"), (None, "-2")])
    def test_workers_at_least_one(self, tmp_path, capsys, monkeypatch, flag,
                                  env):
        argv = ["kernel", "--out", str(tmp_path)]
        if flag is not None:
            argv += ["--workers", flag]
        else:
            monkeypatch.setenv("SILT_WORKERS", env)
        assert main(argv) == 2
        key = "workers" if flag is not None else "SILT_WORKERS"
        assert capsys.readouterr().err.startswith(f"error: {key} must be ")
        assert not os.path.exists(tmp_path / "kernel.csv")

    def test_digest_depends_on_params(self):
        a = RunConfig("kernel", ".", 0, 1, {"alpha": "0"})
        b = RunConfig("kernel", ".", 0, 1, {"alpha": "1"})
        assert a.digest() != b.digest()


class TestCommands:
    def test_kernel_sweep(self, tmp_path):
        out = str(tmp_path)
        assert run_cli(["kernel", "--out", out, "--alpha", "0",
                        "--dim", "4", "--u-norms", "2^-2..2^-6"]) == 0
        comment, header, rows = read_rows(os.path.join(out, "kernel.csv"))
        assert comment.startswith("# siltkit=")
        assert header == ["alpha", "d", "u_norm", "exact", "asymptotic",
                          "ratio"]
        assert len(rows) == 5
        ratios = [float(r[-1]) for r in rows]
        assert abs(ratios[-1] - 1.0) < abs(ratios[0] - 1.0)

    def test_kernel_empty_sweep(self, tmp_path, capsys):
        # refused: an empty sweep would write a CSV with only its header
        assert run_cli(["kernel", "--out", str(tmp_path), "--u-norms", ""]) == 2
        assert capsys.readouterr().err.startswith("error: u_norms ")
        assert not os.path.exists(tmp_path / "kernel.csv")

    def test_kernel_tiny_offset(self, tmp_path):
        # the incomplete gamma's finite piece at a = 5e-17 reaches orders
        # whose expm1 overflows; the exact value tends to its asymptotic
        assert run_cli(["kernel", "--out", str(tmp_path),
                        "--u-norms", "1e-8"]) == 0
        _, header, rows = read_rows(os.path.join(tmp_path, "kernel.csv"))
        ratio = float(rows[0][header.index("ratio")])
        assert ratio == pytest.approx(1.0, abs=1e-12)

    def test_kernel_malformed_range_exits_2(self, tmp_path):
        assert run_cli(["kernel", "--out", str(tmp_path),
                        "--u-norms", "2^-2..nope"]) == 2

    @pytest.mark.parametrize("alpha,dim,u_norms", [
        ("170,200", "4", "0.5"),  # Gamma(alpha + d/2 - 1) leaves double range
        ("0", "2", "1"),  # log(1/|u|) = 0: the ratio divides by zero
        ("0", "4", "30,40")])  # exact is 4.6e-203 at 30, underflows to 0 at 40
    def test_kernel_non_finite_is_domain_error(self, tmp_path, capsys, alpha,
                                               dim, u_norms):
        assert run_cli(["kernel", "--out", str(tmp_path), "--alpha", alpha,
                        "--dim", dim, "--u-norms", u_norms]) == 2
        err = capsys.readouterr().err
        assert f"alpha={float(alpha.split(',')[0])}" in err
        assert f"d={dim}" in err
        assert f"u_norm={float(u_norms.split(',')[-1])}" in err
        assert not os.path.exists(tmp_path / "kernel.csv")

    def test_hermite(self, tmp_path):
        out = str(tmp_path)
        assert run_cli(["hermite", "--out", out, "--n-max", "12",
                        "--x-count", "21"]) == 0
        _, header, rows = read_rows(os.path.join(out, "hermite.csv"))
        assert header == ["n", "x", "sign", "log_abs", "szego_log_bound",
                          "within"]
        assert all(r[-1] == "1" for r in rows)
        # H_n(0) = 0 at odd n has no logarithm: those rows are left out
        written = {(int(r[0]), float(r[1])) for r in rows}
        assert len(rows) == 13 * 21 - 6
        assert not any((n, 0.0) in written for n in range(1, 13, 2))
        assert (12, 0.0) in written

    def test_hermite_exact_zeros_at_defaults(self, tmp_path):
        # H_2(x) = x^2 - 1 vanishes at x = +-1, two of the default abscissae
        out = str(tmp_path)
        assert run_cli(["hermite", "--out", out]) == 0
        _, _, rows = read_rows(os.path.join(out, "hermite.csv"))
        written = {(int(r[0]), float(r[1])) for r in rows}
        assert (2, 1.0) not in written and (2, -1.0) not in written
        assert len(rows) == 31 * 81 - 15 - 2

    def test_hermite_high_order_in_log_domain(self, tmp_path):
        out = str(tmp_path)
        assert run_cli(["hermite", "--out", out, "--n-max", "400"]) == 0
        _, header, rows = read_rows(os.path.join(out, "hermite.csv"))
        assert all(math.isfinite(float(v)) for r in rows for v in r)
        assert all(r[-1] == "1" for r in rows)
        top = {float(r[1]): r for r in rows if r[0] == "400"}
        x = sympy.symbols("x")
        poly = sympy.Poly(sympy.polys.orthopolys.hermite_prob_poly(400, x), x)
        for xv in (-8.0, -3.0, 0.0, 1.0, 5.0):
            exact = poly.eval(sympy.Rational(xv))
            row = dict(zip(header, top[xv]))
            assert int(row["sign"]) == int(sympy.sign(exact))
            log_exact = float(sympy.log(abs(exact)).evalf(30))
            assert float(row["log_abs"]) == pytest.approx(log_exact, rel=1e-12)

    def test_silt_centered_with_rate_rows(self, tmp_path):
        out = str(tmp_path)
        assert run_cli(["silt", "--out", out, "--seed", "4", "--replicas",
                        "12", "--grid-m", "256", "--quad-order", "32",
                        "--eps-ladder", "0.2,0.1,0.05"]) == 0
        _, header, rows = read_rows(os.path.join(out, "silt.csv"))
        assert {r[0] for r in rows} == {"point", "rate_var"}
        assert [float(r[2]) for r in rows if r[0] == "rate_var"] == [0.2, 0.1]

    def test_silt_renormalized_3d(self, tmp_path):
        out = str(tmp_path)
        assert run_cli(["silt", "--out", out, "--dim", "3", "--u-norm", "0.3",
                        "--u-dir", "1,0,0", "--replicas", "4", "--grid-m",
                        "128", "--quad-order", "24",
                        "--eps-ladder", "0.1,0.05"]) == 0
        _, _, rows = read_rows(os.path.join(out, "silt.csv"))
        assert all(r[-1] == "renorm3d" for r in rows)

    @pytest.mark.parametrize("flag,value", [("--u-norm", "-0.3"),
                                            ("--eps-ladder", "0.2,0.1,0.1")])
    def test_silt_domain_errors_write_nothing(self, tmp_path, capsys, flag,
                                              value):
        assert run_cli(["silt", "--out", str(tmp_path), flag, value]) == 2
        assert flag[2:].replace("-", "_") in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "silt.csv")

    @pytest.mark.parametrize("command,flag,value", [
        ("silt", "--replicas", "0"), ("dynkin", "--replicas", "0"),
        ("kernel", "--u-norms", "-0.5"), ("chaos", "--u-norms", "0.5,0"),
        ("marginal", "--u-norms", "-0.2"), ("transport", "--u-norms", "-0.3"),
        ("capacity", "--u-norms", "-0.25"),
        # every integer size key is at least 1
        ("hermite", "--x-count", "0"), ("silt", "--quad-order", "0"),
        ("silt", "--grid-m", "0"), ("dynkin", "--quad3-order", "0"),
        ("dynkin", "--quad3-order", "1"),  # one node per axis misses 1/6
        ("chaos", "--quad-levels", "0"), ("transport", "--quad-levels", "0"),
        ("capacity", "--tau-order", "0"), ("marginal", "--quad-levels", "0"),
        ("marginal", "--n", "0"), ("marginal", "--dim", "0"),
        ("kernel", "--dim", "4,0"), ("transport", "--n", "0"),
        # and the capacity truncation keys at least 0
        ("capacity", "--tau-levels", "-1"), ("capacity", "--k-max", "-1"),
        # no sweep is empty
        ("marginal", "--u-norms", ","), ("capacity", "--u-norms", ","),
        ("kernel", "--u-norms", ","), ("transport", "--u-norms", ","),
        ("chaos", "--multi-index", ";"),
        # each solver and envelope key names itself out of its domain
        ("transport", "--reg", "0"), ("transport", "--tol", "0"),
        ("transport", "--max-iter", "0"), ("kernel", "--alpha", "-1"),
        ("hermite", "--alpha", "0.1"), ("hermite", "--c", "-1"),
        # the diagonal rule's levels stop at 50, where its nodes still fit
        ("marginal", "--quad-levels", "51"), ("transport", "--quad-levels", "60"),
        ("chaos", "--quad-levels", "51"),
        # every 2^e of a dyadic range is finite and positive
        ("kernel", "--u-norms", "2^1024..2^1025"),
        ("capacity", "--u-norms", "2^-1080..2^-1075"),
        # |u|^2/2, the closed forms' argument, is a finite double
        ("kernel", "--u-norms", "1e155"),
        # a direction's length is finite before it is normalized
        ("silt", "--u-dir", "1e308,1e308")])
    def test_no_replicas_or_non_positive_norm_writes_nothing(
            self, tmp_path, capsys, command, flag, value):
        assert run_cli([command, "--out", str(tmp_path), flag, value]) == 2
        key = flag[2:].replace("-", "_")
        assert capsys.readouterr().err.startswith(f"error: {key} ")
        assert not os.path.exists(tmp_path / f"{command}.csv")

    def test_silt_rule_built_once_and_read_only(self):
        rule = _shared_rule(SimplexQuadrature.gauss_legendre, 24)
        assert _shared_rule(SimplexQuadrature.gauss_legendre, 24) is rule
        with pytest.raises(ValueError):
            rule.weights[0] = 1.0
        with pytest.raises(ValueError):
            rule.nodes[0, 0] = 0.5

    def test_chaos_and_dynkin_rules_built_once_and_read_only(self):
        diagonal = _shared_rule(SimplexQuadrature.geometric_diagonal, 6, 2, 4)
        simplex3 = _shared_rule(simplex3_gauss_legendre, 6)
        assert _shared_rule(SimplexQuadrature.geometric_diagonal, 6, 2, 4) \
            is diagonal
        assert _shared_rule(simplex3_gauss_legendre, 6) is simplex3
        for array in (diagonal.nodes, diagonal.weights, simplex3.nodes,
                      simplex3.weights):
            with pytest.raises(ValueError):
                array[0] = 0.5

    def test_chaos_zero_violations_and_k0_identity(self, tmp_path):
        out = str(tmp_path)
        assert run_cli(["chaos", "--out", out, "--seed", "3", "--paths", "4",
                        "--grid-m", "256", "--u-norms", "2^-3..2^-6",
                        "--multi-index", "0,0,0,0;1,1,0,0"]) == 0
        _, header, rows = read_rows(os.path.join(out, "chaos.csv"))
        points = [r for r in rows if r[0] == "point"]
        slack = [float(r[-1]) for r in points]
        assert min(slack) >= 0.0
        # k = 0 rows reproduce the mass integral
        from siltkit.specfun import simplex_moment_integral
        for r in points:
            if r[2] == "0 0 0 0":
                m = simplex_moment_integral(0.0, 4, float(r[3]))
                assert math.exp(float(r[4])) == pytest.approx(m, rel=1e-4)

    def test_chaos_zero_paths_is_usage_error(self, tmp_path, capsys):
        assert run_cli(["chaos", "--out", str(tmp_path), "--paths", "0"]) == 2
        assert capsys.readouterr().err.startswith("error: paths ")
        assert not os.path.exists(tmp_path / "chaos.csv")

    def test_chaos_without_power_envelope_is_domain_error(self, tmp_path,
                                                          capsys):
        # k + d = 2 off the d = 2 log branch: Gamma((k+d)/2 - 1) has a pole
        assert run_cli(["chaos", "--out", str(tmp_path), "--dim", "1",
                        "--u-dir", "1", "--multi-index", "1", "--paths", "1",
                        "--grid-m", "64"]) == 2
        assert "k + d > 2" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "chaos.csv")

    def test_chaos_log_branch_d2(self, tmp_path):
        out = str(tmp_path)
        assert run_cli(["chaos", "--out", out, "--dim", "2", "--paths", "2",
                        "--grid-m", "128", "--multi-index", "0,0",
                        "--u-dir", "1,1", "--u-norms", "2^-3..2^-5"]) == 0
        _, _, rows = read_rows(os.path.join(out, "chaos.csv"))
        from siltkit.specfun import calibrate_log_branch_constant
        c0 = calibrate_log_branch_constant()
        for r in rows:
            if r[0] == "point":
                expected = math.log(c0 * math.log(1.0 / float(r[3])))
                assert float(r[5]) == pytest.approx(expected, rel=1e-10)

    def test_dynkin(self, tmp_path):
        out = str(tmp_path)
        assert run_cli(["dynkin", "--out", out, "--replicas", "3",
                        "--grid-m", "256", "--quad-order", "32",
                        "--quad3-order", "12",
                        "--eps-ladder", "0.4,0.2"]) == 0
        _, header, rows = read_rows(os.path.join(out, "dynkin.csv"))
        assert {"point", "trend"} <= {r[0] for r in rows}
        assert run_cli(["dynkin", "--out", out, "--k", "5"]) == 2

    def test_marginal(self, tmp_path):
        out = str(tmp_path)
        for levels in ("12", "50"):  # 50: the largest rule the domain takes
            assert run_cli(["marginal", "--out", out, "--count", "800",
                            "--quad-levels", levels, "--u-norms", "0.3"]) == 0
            _, header, rows = read_rows(os.path.join(out, "marginal.csv"))
            assert header[:3] == ["d", "n", "u_norm"]
            assert abs(float(rows[0][header.index("z")])) < 5.0

    @pytest.mark.parametrize("seed", range(4))
    def test_marginal_small_offsets_unbiased(self, tmp_path, seed):
        # the default rule holds the mass E[q] = m to ~1e-6 down to
        # |u| = 0.02, so z measures Monte Carlo error alone
        out = str(tmp_path)
        assert run_cli(["marginal", "--out", out, "--seed", str(seed),
                        "--count", "20000", "--u-norms", "0.05,0.02"]) == 0
        _, header, rows = read_rows(os.path.join(out, "marginal.csv"))
        assert len(rows) == 2
        assert all(abs(float(r[header.index("z")])) < 4.0 for r in rows)

    def test_transport_caps(self, tmp_path):
        assert run_cli(["transport", "--out", str(tmp_path),
                        "--count", "6000"]) == 2
        assert run_cli(["transport", "--out", str(tmp_path), "--n", "5"]) == 2

    @pytest.mark.parametrize("command,extra", [
        ("marginal", []), ("transport", ["--reg", "1.0"])])
    def test_count_below_two_is_usage_error(self, tmp_path, capsys, command,
                                            extra):
        # one sample has no standard error and no half-batch split
        for count in ("1", "0"):
            assert run_cli([command, "--out", str(tmp_path), "--count", count,
                            "--quad-levels", "12"] + extra) == 2
            assert "count must be" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(tmp_path, f"{command}.csv"))

    def test_transport_nonconvergence_exits_3(self, tmp_path):
        assert run_cli(["transport", "--out", str(tmp_path), "--count", "200",
                        "--quad-levels", "12", "--max-iter", "3",
                        "--tol", "1e-13"]) == 3

    def test_transport_entropy_within_bound_off_small_offsets(self, tmp_path):
        out = str(tmp_path)
        assert run_cli(["transport", "--out", out, "--u-norms", "5",
                        "--reg", "1.0", "--count", "500"]) == 0
        _, header, rows = read_rows(os.path.join(out, "transport.csv"))
        assert header == ["d", "n", "u_norm", "m", "kappa", "entropy_bound",
                          "talagrand_bound", "H_mc", "H_se", "w2_mc", "w2_se",
                          "vacuous_flag"]
        row = dict(zip(header, rows[0]))
        assert 0 < float(row["H_mc"]) < float(row["entropy_bound"])

    def test_transport_far_offset_is_domain_error(self, tmp_path, capsys):
        # m underflows to 0 at |u| = 60
        assert run_cli(["transport", "--out", str(tmp_path), "--u-norms", "60",
                        "--count", "50", "--quad-levels", "12"]) == 2
        err = capsys.readouterr().err
        assert "|u|=60" in err and "underflows" in err
        assert not os.path.exists(os.path.join(tmp_path, "transport.csv"))

    def test_marginal_all_zero_q_is_domain_error(self, tmp_path, capsys):
        # at |u| = 40 every q underflows: no spread, so z and ESS are undefined
        assert run_cli(["marginal", "--out", str(tmp_path), "--u-norms", "40",
                        "--count", "500"]) == 2
        assert capsys.readouterr().err == (
            "domain error: q underflows to 0 at every sample at |u|=40.0\n")
        assert not os.path.exists(tmp_path / "marginal.csv")

    @pytest.mark.parametrize("u_norm", ["27", "30", "50"])
    def test_capacity_far_offset_is_domain_error(self, tmp_path, capsys,
                                                 u_norm):
        # every pair weight of the truncated norm underflows to 0 there
        assert run_cli(["capacity", "--out", str(tmp_path),
                        "--u-norms", u_norm]) == 2
        assert capsys.readouterr().err == ("domain error: the truncated norm "
                                           f"underflows to 0 at |u|={u_norm}\n")
        assert not os.path.exists(tmp_path / "capacity.csv")

    def test_capacity_guards(self, tmp_path):
        assert run_cli(["capacity", "--out", str(tmp_path),
                        "--gamma", "0"]) == 2
        assert run_cli(["capacity", "--out", str(tmp_path), "--dim", "3",
                        "--gamma", "-1"]) == 2

    def test_capacity_single_point_no_footer(self, tmp_path):
        out = str(tmp_path)
        assert run_cli(["capacity", "--out", out, "--u-norms", "0.5",
                        "--k-max", "8"]) == 0
        _, _, rows = read_rows(os.path.join(out, "capacity.csv"))
        assert all(r[0] == "point" for r in rows)

    def test_capacity_tail_ratio_when_cut_at_order_zero(self, tmp_path):
        out = str(tmp_path)
        assert run_cli(["capacity", "--out", out, "--u-norms", "1e-7",
                        "--tau-levels", "50", "--k-max", "4"]) == 0
        _, header, rows = read_rows(os.path.join(out, "capacity.csv"))
        row = dict(zip(header, rows[0]))
        assert row["K_used"] == "0"
        assert 0 < float(row["tail_ratio"]) < 1e-14

    def test_capacity_footer_with_three_points(self, tmp_path):
        out = str(tmp_path)
        assert run_cli(["capacity", "--out", out, "--u-norms", "2^-2..2^-4",
                        "--k-max", "8"]) == 0
        _, header, rows = read_rows(os.path.join(out, "capacity.csv"))
        assert rows[-1][0] == "slope_fit"
        # the footer is the slope of log(1/bound - 1) on log|u|, recomputed
        # here from the CSV's own point rows
        col_u, col_lb = header.index("u_norm"), header.index("capacity_lb")
        pts = [(math.log(float(r[col_u])), math.log(1.0 / float(r[col_lb]) - 1.0))
               for r in rows if r[0] == "point" and float(r[col_lb]) < 1.0]
        assert len(pts) == 3
        slope = float(np.polyfit([p[0] for p in pts], [p[1] for p in pts], 1)[0])
        assert float(rows[-1][col_lb]) == slope


class TestReproducibility:
    @pytest.mark.parametrize("args", [
        ["kernel", "--alpha", "0,1", "--dim", "4", "--u-norms", "2^-1..2^-5"],
        ["chaos", "--paths", "4", "--grid-m", "128",
         "--u-norms", "2^-3..2^-5"],
        ["silt", "--replicas", "6", "--grid-m", "128", "--quad-order", "24",
         "--eps-ladder", "0.2,0.1"],
        ["marginal", "--count", "400", "--quad-levels", "12",
         "--u-norms", "0.4"],
        ["dynkin", "--replicas", "4", "--grid-m", "128", "--quad-order", "16",
         "--quad3-order", "8"],
        ["capacity", "--u-norms", "2^-2..2^-5", "--k-max", "8",
         "--tau-levels", "12", "--tau-order", "4"],
        ["transport", "--count", "200", "--reg", "1.0", "--quad-levels", "12"],
        ["silt", "--dim", "3", "--u-norm", "0.3", "--u-dir", "1,0,0",
         "--replicas", "6", "--grid-m", "128", "--quad-order", "24",
         "--eps-ladder", "0.2,0.1"],
        ["dynkin", "--k", "2", "--replicas", "4", "--grid-m", "128",
         "--quad-order", "16"],
    ])
    def test_byte_identical_across_worker_counts(self, tmp_path, args):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        name = args[0] + ".csv"
        assert run_cli(args + ["--seed", "11", "--out", out1,
                               "--workers", "1"]) == 0
        assert run_cli(args + ["--seed", "11", "--out", out2,
                               "--workers", "3"]) == 0
        with open(os.path.join(out1, name), "rb") as fa, \
                open(os.path.join(out2, name), "rb") as fb:
            assert fa.read() == fb.read()


class TestRuntimeImports:
    def test_commands_never_import_scipy(self, tmp_path):
        # every command at small sizes, in one fresh interpreter
        runs = [
            ["kernel", "--u-norms", "0.5,0.25"],
            ["hermite", "--n-max", "8", "--x-count", "9"],
            ["silt", "--replicas", "2", "--grid-m", "64", "--quad-order", "8",
             "--eps-ladder", "0.2,0.1"],
            ["chaos", "--paths", "1", "--grid-m", "64", "--quad-levels", "6",
             "--u-norms", "2^-3..2^-4"],
            ["dynkin", "--replicas", "1", "--grid-m", "64", "--quad-order", "8",
             "--quad3-order", "6"],
            ["marginal", "--count", "50", "--quad-levels", "6",
             "--u-norms", "0.3"],
            ["transport", "--count", "50", "--quad-levels", "6",
             "--reg", "1.0"],
            ["capacity", "--u-norms", "0.5", "--k-max", "4",
             "--tau-levels", "6", "--tau-order", "3"],
        ]
        assert sorted(run[0] for run in runs) == sorted(COMMANDS)
        runs = [run + ["--out", str(tmp_path), "--workers", "1"]
                for run in runs]
        code = (
            "import json, sys\n"
            "from siltkit.cli import main\n"
            f"codes = [main(args) for args in {runs!r}]\n"
            "loaded = sorted(m for m in sys.modules\n"
            "                if m == 'scipy' or m.startswith('scipy.'))\n"
            "print(json.dumps({'codes': codes, 'scipy': loaded}))\n")
        src = os.path.dirname(os.path.dirname(siltkit.__file__))
        path = os.pathsep.join([src] + ([os.environ["PYTHONPATH"]]
                                        if os.environ.get("PYTHONPATH") else []))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=600,
                              env=dict(os.environ, PYTHONPATH=path))
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        assert report == {"codes": [0] * len(runs), "scipy": []}

    def test_forked_commands_never_import_pools(self, tmp_path):
        # parallel_map forks directly: neither concurrent.futures nor
        # multiprocessing is loaded, before or after a two-worker command
        runs = [["silt", "--replicas", "2", "--grid-m", "64", "--quad-order",
                 "8", "--eps-ladder", "0.2,0.1"],
                ["capacity", "--u-norms", "0.5,0.25", "--k-max", "4",
                 "--tau-levels", "6", "--tau-order", "3"]]
        runs = [run + ["--out", str(tmp_path), "--workers", "2"]
                for run in runs]
        code = (
            "import json, sys\n"
            "def pools():\n"
            "    return sorted(m for m in sys.modules if m.split('.')[0] in\n"
            "                  ('concurrent', 'multiprocessing'))\n"
            "from siltkit.cli import main\n"
            "at_import = pools()\n"
            f"codes = [main(args) for args in {runs!r}]\n"
            "print(json.dumps({'codes': codes, 'at_import': at_import,\n"
            "                  'after': pools()}))\n")
        src = os.path.dirname(os.path.dirname(siltkit.__file__))
        path = os.pathsep.join([src] + ([os.environ["PYTHONPATH"]]
                                        if os.environ.get("PYTHONPATH") else []))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=600,
                              env=dict(os.environ, PYTHONPATH=path))
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        assert report == {"codes": [0, 0], "at_import": [], "after": []}


def exit_on_three(i):
    if i == 3:
        os._exit(3)
    return i


def fail_fast_or_sleep(i):
    if i == 0:
        raise KeyError("share 0 fails at once")
    time.sleep(60)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestParallelMap:
    """Two workers on two usable CPUs, whatever the machine: every call
    forks two children, and none is left behind."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_uneven_shares_in_input_order(self):
        out = parallel_map(lambda i: (i * i, os.getpid()), range(7), 2)
        assert [v for v, _ in out] == [i * i for i in range(7)]
        pids = [pid for _, pid in out]
        # static interleaved shares, computed by children only
        assert set(pids[0::2]) != set(pids[1::2])
        assert len(set(pids[0::2])) == len(set(pids[1::2])) == 1
        assert os.getpid() not in pids

    def test_task_exception_keeps_its_type(self):
        def fail_on_five(i):
            if i == 5:
                raise KeyError("task 5")
            return i
        with pytest.raises(KeyError, match="task 5") as caught:
            parallel_map(fail_on_five, range(7), 2)
        if sys.version_info >= (3, 11):  # the worker's frames come along
            assert "fail_on_five" in "".join(caught.value.__notes__)

    def test_task_value_error_exits_2(self, tmp_path, capsys):
        # the envelope's domain error is raised inside each path task
        assert run_cli(["chaos", "--out", str(tmp_path), "--dim", "1",
                        "--u-dir", "1", "--multi-index", "1", "--paths", "4",
                        "--grid-m", "64", "--workers", "2"]) == 2
        assert "k + d > 2" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "chaos.csv")

    def test_child_exit_without_result_raises(self):
        with pytest.raises(RuntimeError, match="left no result"):
            parallel_map(exit_on_three, range(7), 2)

    def test_failure_kills_the_other_child(self):
        # share 0 fails at once; share 1 would sleep for a minute
        start = time.perf_counter()
        with pytest.raises(KeyError):
            parallel_map(fail_fast_or_sleep, range(4), 2)
        assert time.perf_counter() - start < 30

    @pytest.mark.parametrize("cpus, forks", [({0}, 0), ({0, 1}, 2)])
    def test_children_capped_at_usable_cpus(self, monkeypatch, cpus, forks):
        # ask for 64 workers over 10 tasks: the CPU count caps the forks
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus,
                            raising=False)
        calls, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: calls.append(1) or fork())
        assert parallel_map(abs, range(-5, 5), 64) == [abs(i) for i in
                                                       range(-5, 5)]
        assert len(calls) == forks

    def test_transport_non_convergence_forks_and_exits_3(self, tmp_path,
                                                         capsys, monkeypatch):
        # each row's six Sinkhorn solves run in two children; every solve
        # fails, and the full batch's solve at reg is reported either way
        args = ["transport", "--out", str(tmp_path), "--count", "200",
                "--quad-levels", "12", "--max-iter", "3", "--tol", "1e-13"]
        assert run_cli(args + ["--workers", "1"]) == 3
        serial = capsys.readouterr().err
        calls, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: calls.append(1) or fork())
        assert run_cli(args + ["--workers", "2"]) == 3
        assert capsys.readouterr().err == serial
        assert serial.startswith("did not converge: ")
        assert len(calls) == 2
        assert not os.path.exists(tmp_path / "transport.csv")
