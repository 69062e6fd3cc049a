import contextlib
import io
import json
import tempfile
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spopt import applications, cli, hamiltonian
from spopt.applications import SingularSelection
from spopt.cli import ConfigError, ExperimentConfig, main, scheme_options
from spopt.core import FeasibilityError, NumericalFailure, SymplecticPoint
from spopt.geometry import NotSPD
from spopt.hamiltonian import GridMismatch, NewtonDivergence
from spopt.optimizer import LineSearchError, SolverStatus
from spopt.retractions import RetractionKind, SingularCayley
from spopt.sr import Breakdown


def strip_time_column(csv_text):
    rows = [line.split(",") for line in csv_text.strip().splitlines()]
    return ["\x1f".join(r[:-1]) for r in rows]


def write_cfg(tmp_path, payload, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def _must_not_run(*args, **kwargs):
    raise AssertionError("the full-order model ran before the config was checked")


class TestArgumentHandling:
    def test_missing_config_file_exits_2(self, tmp_path):
        rc = main(["target", "--config", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_malformed_json_exits_2(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        rc = main(["target", "--config", str(p), "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_unknown_scheme_exits_2(self, tmp_path):
        rc = main(["target", "--schemes", "Sneaky", "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_unknown_preset_exits_2(self, tmp_path):
        cfg = write_cfg(tmp_path, {"preset": "bogus"})
        rc = main(["target", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2

    @pytest.mark.parametrize("app", ["target", "sympev", "mor"])
    @pytest.mark.parametrize("solver, message", [
        pytest.param({"nitr": 10}, "unexpected keyword argument 'nitr'",
                     id="unknown-key"),
        pytest.param({"max_backtracks": -1}, "max_backtracks", id="negative-budget"),
        pytest.param({"niter": 2.5}, "niter must be an integer, got 2.5",
                     id="fractional-niter"),
        pytest.param({"max_backtracks": 2.5}, "max_backtracks must be an integer, got 2.5",
                     id="fractional-budget"),
        pytest.param({"niter": True}, "niter must be an integer, got True", id="bool-niter"),
        pytest.param({"gtol": float("nan")}, "gtol must be finite, got nan", id="nan-gtol"),
        pytest.param({"gamma_max": float("inf")}, "gamma_max must be finite, got inf",
                     id="inf-gamma-max"),
        pytest.param({"gtol": "nan"}, "gtol must be a number, got 'nan'", id="string-gtol"),
        # used to end in a TypeError traceback from the scheme_options call
        pytest.param({"rho": 1.0}, "multiple values for keyword argument 'rho'",
                     id="rho-key"),
    ])
    def test_bad_solver_override_exits_2(self, app, solver, message, tmp_path, capsys):
        # rejected before any cell or full-order simulation runs
        cfg = write_cfg(tmp_path, {"solver": solver})
        rc = main([app, "--config", cfg, "--schemes", "SRE",
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert message in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("seed", ["x", [1], 1.7, True],
                             ids=["string", "list", "fractional", "bool"])
    def test_non_integer_seed_exits_2(self, seed, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"seed": seed})
        rc = main(["target", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error: seed")

    @pytest.mark.parametrize("app, params, message", [
        ("target", {"preset": "artificial", "n": [1]}, "n must be an integer"),
        ("sympev", {"k": "five"}, "k must be an integer"),
        ("sympev", {"rho": {"value": 0.5}}, "rho must be a number"),
        ("mor", {"h_t": [0.01]}, "h_t must be a number"),
        ("mor", {"snapshots": None}, "snapshots must be an integer"),
        ("mor", {"k_values": 10}, "k_values must be a list"),
        ("mor", {"k_values": [[4]]}, "k_values entry must be an integer"),
        # [2.5] used to run k=2, [true] k=1, "inf" ended in an OverflowError
        # traceback and a NaN rho ran CayleyC to a NaN gradient norm
        pytest.param("mor", {"k_values": [2.5]}, "k_values entry must be an integer, got 2.5",
                     id="fractional-k"),
        pytest.param("mor", {"k_values": [True]},
                     "k_values entry must be an integer, got True", id="bool-k"),
        pytest.param("mor", {"t_final": "inf"}, "t_final must be a number, got 'inf'",
                     id="string-inf-t_final"),
        pytest.param("mor", {"t_final": float("inf")}, "t_final must be finite, got inf",
                     id="inf-t_final"),
        pytest.param("mor", {"h_t": float("nan")}, "h_t must be finite, got nan",
                     id="nan-h_t"),
        pytest.param("target", {"rho": float("nan")}, "rho must be finite, got nan",
                     id="nan-rho-target"),
        pytest.param("sympev", {"rho": float("inf")}, "rho must be finite, got inf",
                     id="inf-rho-sympev"),
        pytest.param("mor", {"rho": "nan"}, "rho must be a number, got 'nan'",
                     id="string-nan-rho-mor"),
    ])
    def test_non_numeric_field_exits_2(self, app, params, message, tmp_path,
                                       monkeypatch, capsys):
        # rejected before any cell or full-order simulation runs
        monkeypatch.setattr(cli, "crank_nicolson", _must_not_run)
        cfg = write_cfg(tmp_path, params)
        rc = main([app, "--config", cfg, "--schemes", "SRE",
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error: " + message)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("variants, message", [
        ("psd-deim", "deim_variants must be a list of strings"),
        (["psd-deim", 3], "deim_variants must be a list of strings"),
        (["psd-deim", "bogus"], "deim_variants must be a list of strings from exact, "
                                "psd-deim, structure-preserving, got ['psd-deim', 'bogus']"),
    ])
    def test_bad_deim_variants_exit_2_before_fom(self, variants, message, tmp_path,
                                                 monkeypatch, capsys):
        monkeypatch.setattr(cli, "crank_nicolson", _must_not_run)
        cfg = write_cfg(tmp_path, {"model": "vlasov", "n": 16,
                                   "deim_variants": variants})
        rc = main(["mor", "--config", cfg, "--schemes", "SRE",
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error: " + message)

    @pytest.mark.parametrize("params", [
        {"nonlin": "psd-deim"},
        {"nonlin": "structure-preserving"},
        {"deim_variants": ["exact", "psd-deim"]},
    ])
    def test_interpolation_on_linear_model_exits_2_before_fom(self, params, tmp_path,
                                                              monkeypatch, capsys):
        # used to simulate the full model and leave an empty output directory
        monkeypatch.setattr(cli, "crank_nicolson", _must_not_run)
        cfg = write_cfg(tmp_path, {"model": "wave", "n": 12, "k_values": [2], **params})
        rc = main(["mor", "--config", cfg, "--schemes", "SRE",
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err == (
            "config error: wave is linear; no term to interpolate\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("app, params, name", [
        # a list solver, preset or model and a numeric out used to end in a
        # TypeError traceback
        ("target", {"solver": [1]}, "solver"),
        ("sympev", {"solver": [1]}, "solver"),
        ("mor", {"solver": [1]}, "solver"),
        ("target", {"preset": ["sum"]}, "preset"),
        ("sympev", {"preset": ["spsd"]}, "preset"),
        ("mor", {"model": ["wave"]}, "model"),
        ("target", {"out": 5}, "out"),
        # "false" and 1 used to switch paper scale on
        ("mor", {"paper_scale": "false"}, "paper_scale"),
        ("mor", {"paper_scale": 1}, "paper_scale"),
        # "SRE" used to be read as the schemes S, R and E
        ("target", {"schemes": "SRE"}, "schemes"),
        # nonlin used to be ignored whenever deim_variants was set
        ("mor", {"model": "vlasov", "deim_variants": ["psd-deim"], "nonlin": 3}, "nonlin"),
        ("mor", {"model": "vlasov", "deim_variants": ["psd-deim"], "nonlin": "bogus"},
         "nonlin"),
    ])
    def test_bad_field_exits_2_before_output(self, app, params, name, tmp_path,
                                             monkeypatch, capsys):
        # no --out and no --schemes: the config fields alone decide
        monkeypatch.setattr(cli, "crank_nicolson", _must_not_run)
        cfg = write_cfg(tmp_path, params)
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        rc = main([app, "--config", cfg])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {name} must be ")
        assert "Traceback" not in err
        assert list(cwd.iterdir()) == []

    @pytest.mark.parametrize("app, params, name", [
        # each used to be ignored: the default preset, k or model ran
        ("target", {"presett": "saddle"}, "presett"),
        ("sympev", {"n": 8, "m": 1, "kk": 2}, "kk"),
        ("mor", {"model": "vlasov", "k_value": [3]}, "k_value"),
        # a field of another command
        ("target", {"model": "wave"}, "model"),
        ("sympev", {"snapshots": 4}, "snapshots"),
        ("mor", {"m": 2}, "m"),
    ])
    def test_unknown_field_exits_2_before_output(self, app, params, name, tmp_path,
                                                 monkeypatch, capsys):
        for runner in ("crank_nicolson", "minimize", "symplectic_eigenpairs"):
            monkeypatch.setattr(cli, runner, _must_not_run)
        rc = main([app, "--config", write_cfg(tmp_path, params), "--schemes", "SRE",
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: unknown field {name!r}; spopt {app} reads ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("app, params, message", [
        ("sympev", {"n": 8, "m": 1, "k": 10**12}, "Unable to allocate"),
        ("mor", {"model": "vlasov", "n": 10**12}, f"n = {10**12} and steps = 2000 need "),
        ("mor", {"model": "wave", "n": 6, "t_final": 10**12, "h_t": 0.05, "snapshots": 3,
                 "k_values": [2]}, f"n = 6 and steps = {2 * 10**13} need "),
    ], ids=["sympev-k", "mor-n", "mor-steps"])
    def test_unallocatable_size_exits_2(self, app, params, message, tmp_path, capsys):
        # used to end in a MemoryError traceback; ``mor`` names the sizes
        # before it builds the model
        rc = main([app, "--config", write_cfg(tmp_path, params), "--schemes", "SRE",
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error: " + message)

    def test_overridden_config_fields_still_checked(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"seed": "x", "schemes": "SRE"})
        rc = main(["target", "--config", cfg, "--seed", "1", "--schemes", "SRE",
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error: schemes must be ")
        assert not (tmp_path / "o").exists()

    def test_schemes_flag_and_field_share_one_rule(self, tmp_path, capsys):
        messages = []
        for args in (["--schemes", "SRE,Sneaky"],
                     ["--config", write_cfg(tmp_path, {"schemes": ["SRE", "Sneaky"]})]):
            assert main(["target", *args, "--out", str(tmp_path / "o")]) == 2
            messages.append(capsys.readouterr().err)
        assert messages[0] == messages[1]
        assert messages[0].startswith("config error: schemes must be a list of strings from "
                                      "CayleyC, CayleyE, QGeoC, QGeoE, SRC, SRE, got ")

    def test_scheme_options_mapping(self):
        opts = scheme_options("SRC", gtol=1e-9)
        assert opts.retraction.value == "sr"
        assert opts.metric.kind.value == "canonical-like"
        assert opts.metric.rho == 0.5
        opts = scheme_options("CayleyE")
        assert opts.retraction.value == "cayley"
        assert opts.metric.kind.value == "euclidean"


class TestTargetRuns:
    def test_sum_preset_artifacts(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["target", "--schemes", "SRE,CayleyE", "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        for scheme in ("SRE", "CayleyE"):
            info = summary["schemes"][scheme]
            csv = (out / f"target_sum_{scheme}_trace.csv").read_text()
            rows = csv.strip().splitlines()
            assert rows[0] == "iter,f,gradnorm,feasibility,tau,backtracks,time_s"
            assert len(rows) - 1 == info["iterations"]
            assert info["final"]["f"] <= 1e-12
            last = rows[-1].split(",")
            assert float(last[1]) == info["final"]["f"]

    def test_saddle_preset(self, tmp_path):
        out = tmp_path / "saddle"
        rc = main(["target", "--config",
                   write_cfg(tmp_path, {"preset": "saddle"}),
                   "--schemes", "SRE", "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        info = summary["schemes"]["SRE"]
        assert info["final"]["gradnorm"] <= 1e-12
        assert info["final"]["f"] > 1.0

    @pytest.mark.slow
    def test_artificial_preset_euclidean_fast(self, tmp_path):
        out = tmp_path / "art"
        cfg = write_cfg(tmp_path, {"preset": "artificial", "n": 60})
        rc = main(["target", "--config", cfg, "--schemes", "SRE,CayleyE,QGeoE",
                   "--out", str(out), "--seed", "0"])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        for scheme in ("SRE", "CayleyE", "QGeoE"):
            info = summary["schemes"][scheme]
            assert info["final"]["gradnorm"] <= 1e-10
            assert info["iterations"] < 50


class TestSympevRuns:
    def test_small_instance(self, tmp_path):
        out = tmp_path / "ev"
        cfg = write_cfg(tmp_path, {"n": 20, "m": 2, "k": 3})
        rc = main(["sympev", "--config", cfg, "--schemes", "SRE", "--out",
                   str(out), "--seed", "3"])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        info = summary["schemes"]["SRE"]
        assert info["l1_error"] <= 1e-8
        assert summary["true_values"] == [0.0, 0.0, 3.0]
        assert "time_per_step" in summary


class TestMorRuns:
    def test_wave_small(self, tmp_path, capsys):
        out = tmp_path / "mor"
        cfg = write_cfg(tmp_path, {
            "model": "wave", "n": 60, "t_final": 5.0, "h_t": 0.01,
            "snapshots": 60, "k_values": [4],
            "solver": {"niter": 100},
        })
        rc = main(["mor", "--config", cfg, "--schemes", "SRE", "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        table = (out / "mor_wave_results.csv").read_text().strip().splitlines()
        assert table[0] == "model,k,scheme,nonlin,re_x,re_h,aaf,cost_cotlift,cost_final"
        assert len(table) == 1 + 2  # CotLift + SRE
        assert summary["aaf"] > 0
        # the wave model is linear: no Newton iteration anywhere
        assert summary["fom_newton_updates"] == 0
        assert [info["newton_updates"] for info in summary["rows"]] == [0, 0]
        # the sparse full model is factored in LAPACK band storage, the dense
        # ROMs by LAPACK's general LU
        assert summary["fom_solver"] == "band"
        assert [info["solver"] for info in summary["rows"]] == ["lapack", "lapack"]
        # why the basis optimization stopped, on the optimized row only
        cotlift, sre = summary["rows"]
        assert "solver_status" not in cotlift and "solver_iterations" not in cotlift
        assert sre["solver_status"] in {status.value for status in SolverStatus}
        assert 1 <= sre["solver_iterations"] <= 100
        series = (out / "mor_wave_k4_CotLift_exact_series.csv").read_text()
        assert series.splitlines()[0] == "t,state_err,energy_err"
        printed = capsys.readouterr().out.splitlines()
        rows = [line.strip() for line in printed if line.startswith("  k=")]
        assert [r.split(":")[0] for r in rows] == ["k=4 CotLift exact", "k=4 SRE exact"]
        for row, info in zip(rows, summary["rows"]):
            assert f"re_x={info['re_x']:.6e}" in row
            assert f"re_h={info['re_h']:.3e}" in row
            assert "aaf=" in row

    def test_k_above_n_exits_2(self, tmp_path, monkeypatch, capsys):
        # rejected before the full-order model runs
        monkeypatch.setattr(cli, "crank_nicolson", _must_not_run)
        out = tmp_path / "mor"
        cfg = write_cfg(tmp_path, {"model": "wave", "n": 10, "t_final": 1.0, "h_t": 0.01,
                                   "snapshots": 30, "k_values": [12]})
        rc = main(["mor", "--config", cfg, "--schemes", "SRE", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            "config error: k_values entry must satisfy 1 <= k <= min(n, snapshots) "
            "= 10, got 12")
        assert not out.exists()

    @pytest.mark.parametrize("snapshots, k_values, limit, bad", [
        (5, [4, 6], 5, 6),
        (30, [0], 10, 0),
        (30, [4, -1], 10, -1),
    ], ids=["k>snapshots", "k=0", "k<0"])
    def test_k_out_of_range_exits_2_before_fom(self, snapshots, k_values, limit, bad,
                                               tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "crank_nicolson", _must_not_run)
        out = tmp_path / "mor"
        cfg = write_cfg(tmp_path, {"model": "wave", "n": 10, "t_final": 1.0, "h_t": 0.01,
                                   "snapshots": snapshots, "k_values": k_values})
        rc = main(["mor", "--config", cfg, "--schemes", "SRE", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            f"config error: k_values entry must satisfy 1 <= k <= min(n, snapshots) "
            f"= {limit}, got {bad}")
        assert not out.exists()

    @pytest.mark.parametrize("t_final, fits", [(20.0, True), (30.0, False)])
    def test_states_beyond_physical_memory_exit_2_before_fom(self, t_final, fits, tmp_path,
                                                             monkeypatch, capsys):
        # 4.096 MB of physical memory: n = 100 takes 1600 bytes per state,
        # and 50 snapshots with 2001 states fit, with 3001 states do not
        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 1000}
        monkeypatch.setattr(cli.os, "sysconf", pages.__getitem__)
        monkeypatch.setattr(cli, "crank_nicolson", _must_not_run)
        out = tmp_path / "mor"
        cfg = write_cfg(tmp_path, {"model": "wave", "n": 100, "t_final": t_final, "h_t": 0.01,
                                   "snapshots": 50, "k_values": [2]})
        if fits:
            with pytest.raises(AssertionError, match="the full-order model ran"):
                main(["mor", "--config", cfg, "--schemes", "SRE", "--out", str(out)])
            return
        rc = main(["mor", "--config", cfg, "--schemes", "SRE", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "config error: n = 100 and steps = 3000 need 0.00488 GB for states and "
            "snapshots, over 0.0041 GB of physical memory\n")
        assert not out.exists()

    @pytest.mark.parametrize("snapshots", [15, 0])
    def test_snapshots_out_of_range_exit_2_before_fom(self, snapshots, tmp_path, monkeypatch,
                                                      capsys):
        # 10 steps store 11 states; 15 snapshots used to fail only after the
        # full model had run
        monkeypatch.setattr(cli, "crank_nicolson", _must_not_run)
        out = tmp_path / "mor"
        cfg = write_cfg(tmp_path, {"model": "wave", "n": 20, "t_final": 0.1, "h_t": 0.01,
                                   "snapshots": snapshots, "k_values": [2]})
        rc = main(["mor", "--config", cfg, "--schemes", "SRE", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "config error: snapshots must satisfy 1 <= snapshots <= steps + 1 = 11, "
            f"got {snapshots}\n")
        assert not out.exists()

    def test_vlasov_deim_variants(self, tmp_path):
        out = tmp_path / "morv"
        cfg = write_cfg(tmp_path, {
            "model": "vlasov", "n": 48, "t_final": 0.1, "h_t": 1e-3,
            "snapshots": 60, "k_values": [4],
            "deim_variants": ["psd-deim", "structure-preserving"],
        })
        rc = main(["mor", "--config", cfg, "--schemes", "SRE", "--out",
                   str(out), "--seed", "5"])
        assert rc == 0
        rows = (out / "mor_vlasov_results.csv").read_text().strip().splitlines()[1:]
        assert len(rows) == 4  # 2 variants x (CotLift + SRE)
        # at least one Newton update per step, on the FOM and on every ROM
        summary = json.loads((out / "summary.json").read_text())
        assert summary["fom_newton_updates"] >= 100
        assert all(info["newton_updates"] >= 100 for info in summary["rows"])
        # uncoupled particles: the full model's Newton matrices are separable
        assert summary["fom_solver"] == "schur"
        assert all(info["solver"] == "lapack" for info in summary["rows"])


def _singular_selection():
    raise SingularSelection("singular interpolation block at step 3")


def _not_spd():
    raise NotSPD("smallest eigenvalue -1.000e-03")


def _off_manifold():
    SymplecticPoint.from_entries(np.ones((4, 2)))  # residual far above 1e3 * tol


class TestNumericalFailureExit:
    @pytest.mark.parametrize("fail, message", [
        (_singular_selection, "singular interpolation block"),
        (_not_spd, "smallest eigenvalue"),
        (_off_manifold, "symplecticity residual"),
    ])
    def test_mor_failure_exits_3(self, fail, message, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "build_rom", lambda *args, **kwargs: fail())
        cfg = write_cfg(tmp_path, {
            "model": "wave", "n": 30, "t_final": 0.5, "h_t": 0.01,
            "snapshots": 20, "k_values": [4],
        })
        rc = main(["mor", "--config", cfg, "--schemes", "SRE",
                   "--out", str(tmp_path / "o")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ")
        assert message in err

    @pytest.mark.filterwarnings("ignore:trace minimization ended")
    @pytest.mark.parametrize("app", ["target", "sympev"])
    def test_failed_cell_keeps_other_cells(self, app, tmp_path, monkeypatch, capsys):
        # QGeoE raises inside its cell; SRE, the next cell, must keep its
        # trace file and summary entry, and the run must exit 3
        real = cli.minimize if app == "target" else cli.symplectic_eigenpairs
        target = "minimize" if app == "target" else "symplectic_eigenpairs"

        def qgeo_fails(*args, **kwargs):
            options = args[2] if app == "target" else kwargs["solver_options"]
            if options.retraction is RetractionKind.QUASI_GEODESIC:
                raise SingularCayley("condition estimate 1.000e+16")
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, target, qgeo_fails)
        cfg = write_cfg(tmp_path, {"n": 20, "solver": {"niter": 20}}
                        if app == "sympev" else {"solver": {"niter": 20}})
        out = tmp_path / "o"
        rc = main([app, "--config", cfg, "--schemes", "QGeoE,SRE", "--out", str(out)])
        assert rc == 3
        err = capsys.readouterr().err
        assert "numerical failure: QGeoE: SingularCayley: condition estimate" in err
        summary = json.loads((out / "summary.json").read_text())
        assert summary["failures"] == {
            "QGeoE": "SingularCayley: condition estimate 1.000e+16"}
        assert list(summary["schemes"]) == ["SRE"]
        assert summary["schemes"]["SRE"]["iterations"] >= 1
        preset = "sum" if app == "target" else "spsd"
        assert (out / f"{app}_{preset}_SRE_trace.csv").exists()
        assert not (out / f"{app}_{preset}_QGeoE_trace.csv").exists()

    def test_mor_failed_cell_keeps_other_rows(self, tmp_path, monkeypatch, capsys):
        real = cli.build_rom

        def optimized_fails(*args, **kwargs):
            if kwargs.get("reduction") == "optimized":
                raise NotSPD("smallest eigenvalue -1.000e-03")
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "build_rom", optimized_fails)
        cfg = write_cfg(tmp_path, {
            "model": "wave", "n": 30, "t_final": 0.5, "h_t": 0.01,
            "snapshots": 20, "k_values": [4],
        })
        out = tmp_path / "o"
        rc = main(["mor", "--config", cfg, "--schemes", "SRE", "--out", str(out)])
        assert rc == 3
        assert "numerical failure: k=4 SRE exact: NotSPD" in capsys.readouterr().err
        summary = json.loads((out / "summary.json").read_text())
        assert list(summary["failures"]) == ["k=4 SRE exact"]
        assert [row["scheme"] for row in summary["rows"]] == ["CotLift"]
        assert summary["aaf"] > 0

    def test_mor_failed_simulation_keeps_other_rows(self, tmp_path, monkeypatch, capsys):
        # a failure while simulating is recorded under the same label as
        # one raised while building
        real = cli.relative_errors

        def optimized_fails(full, rom, rom_traj):
            if "cost_restored" in rom.diagnostics:
                raise NewtonDivergence("step 3: non-finite Newton residual norm nan")
            return real(full, rom, rom_traj)

        monkeypatch.setattr(cli, "relative_errors", optimized_fails)
        cfg = write_cfg(tmp_path, {
            "model": "wave", "n": 30, "t_final": 0.5, "h_t": 0.01,
            "snapshots": 20, "k_values": [4], "solver": {"niter": 20},
        })
        out = tmp_path / "o"
        rc = main(["mor", "--config", cfg, "--schemes", "SRE", "--out", str(out)])
        assert rc == 3
        assert "numerical failure: k=4 SRE exact: NewtonDivergence" in capsys.readouterr().err
        summary = json.loads((out / "summary.json").read_text())
        assert list(summary["failures"]) == ["k=4 SRE exact"]
        assert [row["scheme"] for row in summary["rows"]] == ["CotLift"]

    def test_taxonomy(self):
        for cls in (Breakdown, SingularCayley, SingularSelection, NotSPD,
                    GridMismatch, NewtonDivergence, LineSearchError, FeasibilityError):
            assert issubclass(cls, NumericalFailure)
        # callers that catch ValueError for an off-manifold input still do
        with pytest.raises(ValueError):
            _off_manifold()


class TestDeterminism:
    def test_bit_identical_modulo_wall_time(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            rc = main(["sympev", "--config",
                       write_cfg(tmp_path, {"n": 16, "m": 2, "k": 2}, f"{tag}.json"),
                       "--schemes", "SRC,QGeoE", "--out", str(out), "--seed", "11"])
            assert rc == 0
            outs.append(out)
        for scheme in ("SRC", "QGeoE"):
            csvs = [
                (o / f"sympev_spsd_{scheme}_trace.csv").read_text() for o in outs
            ]
            assert strip_time_column(csvs[0]) == strip_time_column(csvs[1])
        sums = [json.loads((o / "summary.json").read_text()) for o in outs]
        for scheme in ("SRC", "QGeoE"):
            assert sums[0]["schemes"][scheme]["eigenvalues"] == \
                sums[1]["schemes"][scheme]["eigenvalues"]

    @pytest.mark.filterwarnings("ignore:trace minimization ended")
    def test_solves_run_on_main_thread(self, tmp_path, monkeypatch):
        # every timing a run reports (time_s, time_per_step, rom_time_s, aaf)
        # is taken with no other cell running beside it
        threads = []

        def record(module, name):
            real = getattr(module, name)

            def recording(*args, **kwargs):
                threads.append((name, threading.current_thread()))
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, recording)

        for module in (cli, applications, hamiltonian):  # target, sympev, mor
            record(module, "minimize")
        record(cli, "crank_nicolson")
        runs = {
            "target": {"solver": {"niter": 20}},
            "sympev": {"n": 16, "m": 2, "k": 2, "solver": {"niter": 20}},
            "mor": {"model": "wave", "n": 30, "t_final": 0.5, "h_t": 0.01,
                    "snapshots": 20, "k_values": [4], "solver": {"niter": 20}},
        }
        for app, payload in runs.items():
            rc = main([app, "--config", write_cfg(tmp_path, payload, f"{app}.json"),
                       "--schemes", "SRE,SRC", "--out", str(tmp_path / app)])
            assert rc == 0
        names = [name for name, _ in threads]
        # two schemes per command; the full model and three ROMs under mor
        assert names.count("minimize") == 6
        assert names.count("crank_nicolson") == 4
        assert all(thread is threading.main_thread() for _, thread in threads)


class TestTimingReport:
    @pytest.mark.slow
    def test_per_step_timing_orderings_reported(self, tmp_path, capsys):
        # soft (non-failing) report of the canonical-vs-Euclidean timing
        # orderings: Euclidean tends to win for k << n and lose at k = n,
        # but timing noise at desk scale makes this informational only
        out = tmp_path / "timing"
        cfg = tmp_path / "t.json"
        cfg.write_text(json.dumps({"n": 60, "m": 2, "k": 3}))
        rc = main(["sympev", "--config", str(cfg), "--schemes",
                   "CayleyC,CayleyE", "--out", str(out), "--seed", "1"])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        t = summary["time_per_step"]
        faster = "CayleyE" if t["CayleyE"] < t["CayleyC"] else "CayleyC"
        print(f"\nk<<n per-step timing: {faster} faster "
              f"(C={t['CayleyC']:.2e}s, E={t['CayleyE']:.2e}s; "
              "expected ordering: Euclidean slightly faster)")


class TestConfigObject:
    def test_empty_scheme_list_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            ExperimentConfig("target", [], 0, tmp_path, False)

    def test_summary_totals_match_csv(self, tmp_path):
        out = tmp_path / "match"
        rc = main(["target", "--schemes", "QGeoC", "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        rows = (out / "target_sum_QGeoC_trace.csv").read_text().strip().splitlines()[1:]
        info = summary["schemes"]["QGeoC"]
        assert len(rows) == info["iterations"]
        f_last = float(rows[-1].split(",")[1])
        assert f_last == info["final"]["f"]


# Fuzzed configs: every field present, each a small valid value or, for a
# few fields, a value of a wrong type, a boundary or a non-finite number.
# Sizes are small, so that a valid config runs well under a second, or 10**12,
# which fails to allocate at once; mid-size values are left out because
# their arrays are allocated lazily and could exhaust the machine's memory.
_EDGE_VALUES = st.sampled_from([True, False, None, 2.5, -1, 0, 10**12, float("nan"),
                                float("inf"), float("-inf"), "x", "5", "", [], [1],
                                ["SRE"], {}, {"niter": 1}])
_SOLVER = st.fixed_dictionaries({"niter": st.sampled_from([1, 3, 10])},
                                optional={"gtol": st.sampled_from([1e-12, 1e-3]),
                                          "max_backtracks": st.sampled_from([0, 5])})
_COMMON = {
    "schemes": st.lists(st.sampled_from(sorted(cli.SCHEMES)), min_size=1, max_size=2),
    "seed": st.sampled_from([0, 1, 2**40]),
    "out": st.just("unused"),  # --out overrides it; the field is still checked
    "paper_scale": st.booleans(),
    "rho": st.sampled_from([0.5, 1e-3, 4]),
    "solver": _SOLVER,
}
_FIELDS = {
    "target": {"preset": st.sampled_from(["sum", "saddle", "artificial"]),
               "n": st.sampled_from([1, 2, 3])},
    "sympev": {"preset": st.just("spsd"), "n": st.sampled_from([8, 10]),
               "m": st.sampled_from([1, 2]), "k": st.sampled_from([1, 2, 3])},
    "mor": {"model": st.sampled_from(sorted(cli.MOR_MODELS)),
            "n": st.sampled_from([4, 6]), "t_final": st.sampled_from([0.2, 0.4]),
            "h_t": st.sampled_from([0.05, 0.1]), "snapshots": st.sampled_from([2, 3]),
            "k_values": st.lists(st.sampled_from([2, 3]), min_size=1, max_size=2),
            "nonlin": st.sampled_from(list(hamiltonian.NONLIN_TREATMENTS)),
            "deim_variants": st.lists(st.sampled_from(list(hamiltonian.NONLIN_TREATMENTS)),
                                      max_size=2)},
}


@st.composite
def _configs(draw):
    app = draw(st.sampled_from(sorted(_FIELDS)))
    fields = {**_COMMON, **_FIELDS[app]}
    cfg = {name: draw(strategy) for name, strategy in fields.items()}
    for name in draw(st.lists(st.sampled_from(sorted(fields)), max_size=3, unique=True)):
        cfg[name] = draw(_EDGE_VALUES)
    return app, cfg


class TestConfigFuzz:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_configs())
    def test_every_config_exits_0_2_or_3(self, drawn):
        app, cfg = drawn
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(), \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            warnings.simplefilter("ignore")
            path = Path(tmp) / "cfg.json"
            path.write_text(json.dumps(cfg))
            rc = main([app, "--config", str(path), "--out", str(Path(tmp) / "o")])
        assert rc in (0, 2, 3)
        if rc:
            assert err.getvalue().startswith(
                "config error: " if rc == 2 else "numerical failure: ")
