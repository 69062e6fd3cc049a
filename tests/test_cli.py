import json

import numpy as np
import pytest

from spopt import cli
from spopt.applications import SingularSelection
from spopt.cli import ConfigError, ExperimentConfig, main, scheme_options
from spopt.core import FeasibilityError, NumericalFailure, SymplecticPoint
from spopt.geometry import NotSPD, RankDeficient, SingularSystem
from spopt.hamiltonian import GridMismatch, NewtonDivergence
from spopt.optimizer import LineSearchError
from spopt.retractions import SingularCayley
from spopt.sr import Breakdown


def strip_time_column(csv_text):
    rows = [line.split(",") for line in csv_text.strip().splitlines()]
    return ["\x1f".join(r[:-1]) for r in rows]


def write_cfg(tmp_path, payload, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


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
        series = (out / "mor_wave_k4_CotLift_exact_series.csv").read_text()
        assert series.splitlines()[0] == "t,state_err,energy_err"
        printed = capsys.readouterr().out.splitlines()
        rows = [line.strip() for line in printed if line.startswith("  k=")]
        assert [r.split(":")[0] for r in rows] == ["k=4 CotLift exact", "k=4 SRE exact"]
        for row, info in zip(rows, summary["rows"]):
            assert f"re_x={info['re_x']:.6e}" in row
            assert f"re_h={info['re_h']:.3e}" in row
            assert "aaf=" in row

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

    def test_taxonomy(self):
        for cls in (Breakdown, SingularCayley, SingularSelection, NotSPD,
                    RankDeficient, SingularSystem, GridMismatch,
                    NewtonDivergence, LineSearchError, FeasibilityError):
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

    def test_thread_pool_bound_respected(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SPOPT_THREADS", "1")
        out = tmp_path / "st"
        rc = main(["target", "--schemes", "SRE,SRC", "--out", str(out)])
        assert rc == 0
        monkeypatch.setenv("SPOPT_THREADS", "junk")
        rc = main(["target", "--schemes", "SRE", "--out", str(tmp_path / "st2")])
        assert rc == 2


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
