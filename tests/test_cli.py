"""Command-line front end: config handling, CSV fidelity, determinism."""

import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from windrisk import (
    GevParams,
    PowerSpec,
    QuadSpec,
    dep_measure_from_gamma,
    mean_cost,
    power,
    var_gev,
)
from windrisk import RiskQuery, clt_approx, disk, es_asymptotic, risk, var_asymptotic
from windrisk import dependence, simulate
from windrisk.cli import DEFAULT_CONFIG, load_config, main, normalize_config
from windrisk.errors import ConfigError, ConvergenceError

from conftest import ETA, TAU, XI, RoughPast, cov_oracle


SMALL_DEPSURFACE = {
    "depsurface": {
        "psi": [1.0, 2.0],
        "beta": [1, 3],
        "distances": [0.0, 0.5, 1.0, 3.0, 7.0],
    }
}

SMALL_R2 = {
    "r2curves": {
        "psi": [2.0],
        "shapes": ["disk"],
        "lam": [1e-8, 0.5, 2.0, 8.0],
    }
}


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestConfig:
    def test_defaults_normalize(self):
        cfg = normalize_config({})
        assert cfg["depsurface"]["gev"]["eta"] == 30.0
        assert cfg["depsurface"]["gev"]["tau"] == 3.0
        assert cfg["depsurface"]["gev"]["xi"] == -0.2
        assert cfg["depsurface"]["kappa"] == 1.0
        assert cfg["depsurface"]["psi"] == [0.5, 1.0, 1.5, 2.0]
        assert cfg["depsurface"]["beta"] == list(range(1, 13))

    def test_roundtrip_identity(self):
        cfg = normalize_config(SMALL_DEPSURFACE)
        again = normalize_config(json.loads(json.dumps(cfg)))
        assert again == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            normalize_config({"depsurface": {"betas": [1]}})
        with pytest.raises(ConfigError):
            normalize_config({"surface": {}})

    def test_null_and_lists_replace_the_default(self):
        cfg = normalize_config({"simulate": {"gev": None, "dump": None},
                                "r2curves": {"lam": [1.0, 2.0]}})
        assert cfg["simulate"]["gev"] is None and cfg["simulate"]["dump"] is None
        assert cfg["r2curves"]["lam"] == [1.0, 2.0]
        assert cfg["depsurface"] == DEFAULT_CONFIG["depsurface"]

    def test_load_config_errors(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError) as err:
            load_config(bad)
        assert "line" in str(err.value)
        with pytest.raises(ConfigError):
            load_config(tmp_path / "missing.json")


class TestExitCodes:
    def test_success(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(SMALL_DEPSURFACE))
        out = tmp_path / "out.csv"
        assert main(["depsurface", "--config", str(cfg), "--out", str(out)]) == 0
        assert out.exists()

    def test_one_parser_serves_every_call(self, tmp_path, capsys):
        from windrisk.cli import build_parser

        assert build_parser() is build_parser()
        # a call that argparse rejects leaves the parser as it was
        with pytest.raises(SystemExit) as rejected:
            main(["depsurface", "--seed", "x", "--out", str(tmp_path / "o.csv")])
        assert rejected.value.code == 2
        assert "invalid int value: 'x'" in capsys.readouterr().err
        self.test_success(tmp_path)

    def test_config_error_is_2(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text("{broken")
        assert main(["depsurface", "--config", str(cfg), "--out",
                     str(tmp_path / "o.csv")]) == 2

    def test_integral_float_beta_accepted(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"depsurface": {
            "psi": [1.0], "beta": [1.0, 3.0], "distances": [0.0, 1.0]}}))
        out = tmp_path / "dep.csv"
        assert main(["depsurface", "--config", str(cfg), "--out", str(out)]) == 0
        assert [r[1] for r in read_csv(out)[1]] == ["1", "1", "3", "3"]

    def test_nonconvergence_prints_the_estimates(self, tmp_path, monkeypatch, capsys):
        def unconverged(*args, **kwargs):
            raise ConvergenceError("radial tail", best_estimate=1234.5, err_estimate=6.75)

        monkeypatch.setattr(risk, "asymptotic_cov_integral", unconverged)
        assert main(["riskreport", "--out", str(tmp_path / "o.csv")]) == 3
        err = capsys.readouterr().err
        assert "radial tail" in err
        assert "best_estimate: 1234.5" in err and "err_estimate: 6.75" in err

    def test_nonconvergence_without_estimates(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "riskreport": {"psi": 0.05, "lam": [10.0], "alpha": [0.95]}
        }))
        assert main(["riskreport", "--config", str(cfg), "--out",
                     str(tmp_path / "o.csv")]) == 3
        assert "estimate" not in capsys.readouterr().err

    def test_nonconvergence_is_3(self, tmp_path):
        cfg = tmp_path / "c.json"
        for block in ({"psi": 0.05, "lam": [10.0], "alpha": [0.95]}, {"psi": 0.01}):
            cfg.write_text(json.dumps({"riskreport": block}))
            assert main(["riskreport", "--config", str(cfg), "--out",
                         str(tmp_path / "o.csv")]) == 3


@pytest.fixture(scope="module")
def depsurface_output(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("dep")
    cfg = tmp / "c.json"
    cfg.write_text(json.dumps(SMALL_DEPSURFACE))
    out = tmp / "dep.csv"
    assert main(["depsurface", "--config", str(cfg), "--out", str(out)]) == 0
    return read_csv(out)


class TestDepsurface:

    def test_header(self, depsurface_output):
        header, _ = depsurface_output
        assert header == ["psi", "beta", "distance", "dependence"]

    def test_zero_distance_rows_are_one(self, depsurface_output):
        _, rows = depsurface_output
        zero_rows = [r for r in rows if float(r[2]) == 0.0]
        assert zero_rows
        assert all(float(r[3]) == 1.0 for r in zero_rows)

    def test_spot_cell_matches_library(self, depsurface_output):
        # every psi = 1 cell is the library's value for its power alone
        _, rows = depsurface_output
        cells = [r for r in rows if float(r[0]) == 1.0]
        assert len(cells) == 2 * 5
        for r in cells:
            p = PowerSpec.gev(int(r[1]), GevParams(ETA, TAU, XI))
            lib = dep_measure_from_gamma(p, power(1.0, 1.0).radial(float(r[2])))
            # CSV carries 12 significant digits of the library value
            assert float(r[3]) == float(f"{lib:.11e}")

    def test_no_power_writes_the_header_alone(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"depsurface": {"psi": [1.0], "beta": [],
                                                  "distances": [0.0, 1.0]}}))
        out = tmp_path / "dep.csv"
        assert main(["depsurface", "--config", str(cfg), "--out", str(out)]) == 0
        assert read_csv(out) == (["psi", "beta", "distance", "dependence"], [])

    def test_first_failing_power_in_config_order_decides(self, tmp_path, capsys):
        # below the sums' rounding, at rel_tol 1e-17, beta 1 converges on the
        # absolute floor and beta 10's own error ends the run
        margin = {"eta": ETA, "tau": TAU, "xi": XI}
        distances = [0.0, 0.5, 1.0, 3.0, 7.0]
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"depsurface": {
            "gev": margin, "psi": [1.0], "beta": [1, 10, 12, 9], "distances": distances,
            "rel_tol": 1e-17}}))
        p = PowerSpec.gev(10, GevParams(**margin))
        with pytest.raises(ConvergenceError) as alone:
            dep_measure_from_gamma(p, [power(1.0, 1.0).radial(d) for d in distances],
                                   QuadSpec(rel_tol=1e-17))
        assert main(["depsurface", "--config", str(cfg), "--out",
                     str(tmp_path / "o.csv")]) == 3
        assert not (tmp_path / "o.csv").exists()
        assert capsys.readouterr().err == (
            f"numerical non-convergence: {alone.value}\n"
            f"best_estimate: {alone.value.best_estimate!r}\n"
            f"err_estimate: {alone.value.err_estimate!r}\n")

    def test_cancelling_powers_meet_the_oracle(self, tmp_path):
        # near xi = 0 the binomial table cancels from beta 9 on; those powers
        # take the nested kernel, and every cell meets rel_tol against the
        # oracle (the CSV carries 12 significant digits)
        margin = {"eta": ETA, "tau": TAU, "xi": -0.043}
        distances = [0.0, 0.5, 1.0, 3.0, 7.0]
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"depsurface": {
            "gev": margin, "psi": [1.0], "beta": [1, 10, 12, 9], "distances": distances}}))
        out = tmp_path / "o.csv"
        assert main(["depsurface", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_csv(out)[1]
        assert [int(r[1]) for r in rows] == [b for b in (1, 10, 12, 9) for _ in distances]
        for _, beta, distance, dep in rows:
            p = PowerSpec.gev(int(beta), GevParams(**margin))
            h = math.sqrt(power(1.0, 1.0).radial(float(distance)))
            expected = 1.0 if h == 0.0 else cov_oracle(p, p, h) / var_gev(p)
            assert float(dep) == pytest.approx(expected, rel=3e-7)

    def test_writer_memory_does_not_grow_with_the_rows(self, tmp_path):
        # rows drawn from a generator are written one at a time
        import tracemalloc

        from windrisk.cli import _write_csv

        def peak(n):
            rows = ((1.5, 12, 0.1 * i, 1.0 / (i + 1)) for i in range(n))
            tracemalloc.start()
            try:
                _write_csv(tmp_path / "o.csv", ["psi", "beta", "distance", "dependence"], "fdff",
                           rows)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # a thousand rows fill the file's write buffer; a list of the rows
        # would add about 130 bytes a row past it
        few, many = peak(1_000), peak(100_000)
        assert len((tmp_path / "o.csv").read_text().splitlines()) == 100_001
        assert many - few <= 1024

    def test_decreasing_in_distance(self, depsurface_output):
        _, rows = depsurface_output
        series = [float(r[3]) for r in rows
                  if float(r[0]) == 2.0 and int(r[1]) == 1]
        assert all(b < a for a, b in zip(series, series[1:]))


@pytest.fixture(scope="module")
def r2curves_output(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("r2")
    cfg = tmp / "c.json"
    cfg.write_text(json.dumps(SMALL_R2))
    out = tmp / "r2.csv"
    assert main(["r2curves", "--config", str(cfg), "--out", str(out)]) == 0
    return read_csv(out)


class TestR2Curves:

    def test_strictly_decreasing(self, r2curves_output):
        _, rows = r2curves_output
        vals = [float(r[3]) for r in rows]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_smallest_lam_approaches_variance(self, r2curves_output):
        _, rows = r2curves_output
        p = PowerSpec.gev(1, GevParams(ETA, TAU, XI))
        assert float(rows[0][3]) == pytest.approx(var_gev(p), rel=1e-3)

    def test_one_quadrature_call_per_region(self, tmp_path, monkeypatch):
        # counted through risk's own binding: the covariance table's
        # quadrature, in dependence, is not an r2 call
        rows = []
        original = risk.integrate_rows

        def counted(f, a, b, breakpoints, spec):
            rows.append(len(breakpoints))
            return original(f, a, b, breakpoints, spec)

        monkeypatch.setattr(risk, "integrate_rows", counted)
        out = tmp_path / "r2.csv"
        assert main(["r2curves", "--out", str(out)]) == 0
        assert rows == [4 * 25, 4 * 25]  # disk and square: every psi and lam
        assert len(read_csv(out)[1]) == 200

    @pytest.mark.parametrize("block", [
        {"lam": [1e300]}, {"lam": [1e-300]}, {"R": 1e300}, {"R": 1e-300}, {"psi": [0.01]},
        {"kappa": 1e300}, {"kappa": 1e-300},
    ], ids=["lam-1e300", "lam-1e-300", "R-1e300", "R-1e-300", "psi-0.01", "kappa-1e300",
            "kappa-1e-300"])
    def test_scales_at_the_ends_of_the_double_range_exit_0(self, tmp_path, block):
        # the table's edges map to distances past the double range or to 0,
        # and those are dropped
        cfg, out = tmp_path / "c.json", tmp_path / "o.csv"
        cfg.write_text(json.dumps({"r2curves": block}))
        assert main(["r2curves", "--config", str(cfg), "--out", str(out)]) == 0
        r2s = [float(row[3]) for row in read_csv(out)[1]]
        assert r2s and all(0.0 <= r < math.inf for r in r2s)

    def test_first_failing_row_decides(self, tmp_path, monkeypatch, capsys):
        # the psi = 1 variogram made rough from distance 5 on: its rows at
        # lam 10 and 20 fail, and the lam = 10 row's own error ends the run
        rough = RoughPast(kind="power")

        def rough_at_one(kappa, psi):
            return rough if psi == 1.0 else power(kappa, psi)

        monkeypatch.setattr("windrisk.variogram.power", rough_at_one)
        p = PowerSpec.gev(1, GevParams(ETA, TAU, XI))
        with pytest.raises(ConvergenceError) as alone:
            risk.r2(RiskQuery(disk(1.0), p, rough), 10.0)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"r2curves": {
            "psi": [0.5, 1.0, 1.5], "shapes": ["disk"], "lam": [1.0, 10.0, 20.0]}}))
        assert main(["r2curves", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 3
        assert not (tmp_path / "o.csv").exists()
        assert capsys.readouterr().err == (
            f"numerical non-convergence: {alone.value}\n"
            f"best_estimate: {alone.value.best_estimate!r}\n"
            f"err_estimate: {alone.value.err_estimate!r}\n")


@pytest.fixture(scope="module")
def riskreport_output(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("rr")
    cfg = tmp / "c.json"
    cfg.write_text(json.dumps({
        "riskreport": {"lam": [10.0, 20.0], "alpha": [0.5, 0.95, 0.99]}
    }))
    out = tmp / "rr.csv"
    with pytest.warns(RuntimeWarning):
        assert main(["riskreport", "--config", str(cfg), "--out", str(out)]) == 0
    return read_csv(out)


class TestRiskReport:

    def test_alpha_half_var_equals_mean(self, riskreport_output):
        header, rows = riskreport_output
        i_mean = header.index("mean")
        i_var = header.index("var_asym_0.5")
        for r in rows:
            assert float(r[i_var]) == float(r[i_mean])

    def test_es_dominates_var(self, riskreport_output):
        header, rows = riskreport_output
        for a in ("0.95", "0.99"):
            i_var = header.index(f"var_asym_{a}")
            i_es = header.index(f"es_asym_{a}")
            for r in rows:
                assert float(r[i_es]) >= float(r[i_var])

    def test_clt_sd_halves_when_lam_doubles(self, riskreport_output):
        header, rows = riskreport_output
        i_sd = header.index("clt_sd")
        sd10 = float(rows[0][i_sd])
        sd20 = float(rows[1][i_sd])
        assert sd20 == pytest.approx(sd10 / 2.0, rel=1e-10)

    def test_mean_column(self, riskreport_output):
        header, rows = riskreport_output
        p = PowerSpec.gev(1, GevParams(ETA, TAU, XI))
        i_mean = header.index("mean")
        assert float(rows[0][i_mean]) == float(f"{mean_cost(p):.11e}")

    @pytest.mark.filterwarnings("ignore:alpha = 1/2:RuntimeWarning")
    def test_every_cell_matches_library(self, riskreport_output):
        header, rows = riskreport_output
        p = PowerSpec.gev(1, GevParams(ETA, TAU, XI))
        v = power(1.0, 1.0)
        for r in rows:
            assert r[0] == "disk_R1"
            lam = float(r[1])
            cells = dict(zip(header, r))
            lib = {"clt_sd": clt_approx(RiskQuery(region=disk(1.0), power=p, variogram=v),
                                        lam).sd}
            for a in (0.5, 0.95, 0.99):
                q = RiskQuery(region=disk(1.0), power=p, variogram=v, alpha=a)
                lib[f"var_asym_{a:g}"] = var_asymptotic(q, lam)
                lib[f"es_asym_{a:g}"] = es_asymptotic(q, lam)
            assert set(lib) | {"region", "lam", "mean"} == set(header)
            for name, value in lib.items():
                # CSV carries 12 significant digits of the library value
                assert float(cells[name]) == float(f"{value:.11e}"), name

    def test_plane_integral_computed_once(self, tmp_path, monkeypatch):
        calls = []
        original = risk.asymptotic_cov_integral

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(risk, "asymptotic_cov_integral", counted)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"riskreport": {
            "regions": [{"shape": "disk", "R": 1.0}, {"shape": "square", "R": 2.0}],
            "lam": [10.0, 25.0, 50.0], "alpha": [0.95, 0.99]}}))
        out = tmp_path / "rr.csv"
        assert main(["riskreport", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(calls) == 1
        assert len(read_csv(out)[1]) == 6


class TestSimulateCommand:
    CFG = {
        "simulate": {
            "psi": 2.0,
            "lam": 4.0,
            "n_rep": 60,
            "seed": 77,
            "method": "smith",
            "alpha": [0.9],
            "dump": "fields.bin",
        }
    }

    def test_seed_repetition_identical_outputs(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(self.CFG))
        out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
        dump1 = (tmp_path / "fields.bin").read_bytes()
        assert main(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
        dump2 = (tmp_path / "fields.bin").read_bytes()
        assert out1.read_bytes() == out2.read_bytes()
        assert dump1 == dump2

    def test_summary_mean_within_mc_error(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(self.CFG))
        out = tmp_path / "s.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        header, rows = read_csv(out)
        mean_row = next(r for r in rows if r[0] == "mean")
        est, se = float(mean_row[2]), float(mean_row[3])
        p = PowerSpec.gev(1, GevParams(ETA, TAU, XI))
        assert abs(est - mean_cost(p)) <= 4.0 * se

    def test_null_gev_dumps_simple_margins(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"simulate": {**self.CFG["simulate"], "gev": None}}))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "s.csv")]) == 0
        samples = simulate.read_field_samples(tmp_path / "fields.bin")
        assert len(samples) == 60
        assert all(s.margin is None for s in samples)

    @pytest.mark.parametrize("dump", [None, ""])
    def test_empty_dump_writes_no_dump(self, tmp_path, dump):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"simulate": {**self.CFG["simulate"], "dump": dump}}))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "s.csv")]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json", "s.csv"]

    def test_seed_override(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(self.CFG))
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out1),
                     "--seed", "123"]) == 0
        assert main(["simulate", "--config", str(cfg), "--out", str(out2),
                     "--seed", "124"]) == 0
        assert out1.read_bytes() != out2.read_bytes()


class TestThreadDeterminism:
    def test_depsurface_thread_count_invariant(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(SMALL_DEPSURFACE))
        outputs = []
        for threads in (1, 4):
            out = tmp_path / f"t{threads}.csv"
            assert main(["depsurface", "--config", str(cfg), "--out", str(out),
                         "--threads", str(threads)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


class TestDefaultDepsurface:
    def test_no_config_run_covers_the_default_grid(self, tmp_path):
        out = tmp_path / "dep.csv"
        assert main(["depsurface", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["psi", "beta", "distance", "dependence"]
        assert len(rows) == 4 * 12 * 41
        for psi, h_max in ((0.5, 1500.0), (1.0, 100.0), (1.5, 25.0), (2.0, 10.0)):
            assert max(float(r[2]) for r in rows if float(r[0]) == psi) == pytest.approx(h_max)

    def test_psi_without_max_distance_is_config_error(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"depsurface": {"psi": [3.0], "beta": [1]}}))
        assert main(["depsurface", "--config", str(cfg), "--out",
                     str(tmp_path / "o.csv")]) == 2


class TestGumbelMargins:
    def test_power_two_exits_0_with_the_library_values(self, tmp_path):
        # Gumbel margins (xi = 0) from beta 2 on take the nested kernel: each
        # command computes, and every cell carries 12 significant digits of
        # the library's value
        p = PowerSpec.gev(2, GevParams(ETA, TAU, 0.0))
        gumbel = {"gev": {"eta": ETA, "tau": TAU, "xi": 0.0}}
        v = power(1.0, 1.0)

        def run(command, block):
            cfg, out = tmp_path / f"{command}.json", tmp_path / f"{command}.csv"
            cfg.write_text(json.dumps({command: {**gumbel, **block}}))
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
            return read_csv(out)

        _, rows = run("depsurface", {"psi": [1.0], "beta": [2], "distances": [0.0, 0.5, 1.0, 3.0]})
        assert len(rows) == 4
        for _, _, distance, dep in rows:
            lib = dep_measure_from_gamma(p, v.radial(float(distance)))
            assert float(dep) == float(f"{lib:.11e}")
        _, rows = run("r2curves", {"psi": [1.0], "beta": 2, "shapes": ["disk"], "lam": [0.5, 2.0]})
        assert len(rows) == 2
        for _, _, lam, cell in rows:
            lib = risk.r2(RiskQuery(region=disk(1.0), power=p, variogram=v), float(lam))
            assert float(cell) == float(f"{lib:.11e}")
        header, rows = run("riskreport", {"beta": 2, "lam": [10.0], "alpha": [0.95]})
        q = RiskQuery(region=disk(1.0), power=p, variogram=v)
        lib = {"mean": mean_cost(p), "clt_sd": clt_approx(q, 10.0).sd,
               "var_asym_0.95": var_asymptotic(q, 10.0), "es_asym_0.95": es_asymptotic(q, 10.0)}
        (row,) = rows
        cells = dict(zip(header, row))
        assert set(lib) | {"region", "lam"} == set(header)
        for name, value in lib.items():
            assert float(cells[name]) == float(f"{value:.11e}"), name


class TestInvalidValues:
    @pytest.mark.parametrize("command, block", [
        ("riskreport", {"alpha": [1.0]}),
        ("riskreport", {"alpha": [0.0]}),
        ("riskreport", {"psi": 2.5}),
        ("simulate", {"psi": 2.5}),
        ("simulate", {"psi": 2.5, "method": "brown_resnick"}),
        ("simulate", {"n_rep": 1}),
        ("simulate", {"n_rep": 0}),
        ("simulate", {"alpha": [1.0]}),
        ("depsurface", {"psi": [2.5], "distances": [0.0, 1.0]}),
        ("r2curves", {"psi": [2.5]}),
        ("depsurface", {"distances": {"max_by_psi": {"one": 50.0}}}),
        ("depsurface", {"distances": {"max_by_psi": {"-1": 50.0}}}),
        ("depsurface", {"distances": {"max_by_psi": {"inf": 50.0}}}),
        ("simulate", {"n_rep": "two"}),
        ("riskreport", {"beta": "two"}),
        ("riskreport", {"regions": [{"shape": "hexagon", "R": 1.0}]}),
        ("depsurface", {"gev": {"eta": 30, "tau": 3, "xi": 0.3}, "beta": [2]}),
        ("r2curves", {"gev": {"eta": 30, "tau": 3, "xi": 0.3}, "beta": 2}),
        ("riskreport", {"gev": {"eta": 30, "tau": 3, "xi": 0.3}, "beta": 2}),
        ("depsurface", {"distances": [-1.0, 1.0]}),
        ("depsurface", {"distances": [math.nan]}),
        ("r2curves", {"lam": [0.0]}),
        ("riskreport", {"lam": [-1.0]}),
        ("depsurface", {"beta": [2.7]}),
        ("r2curves", {"beta": 2.7}),
        ("riskreport", {"beta": 2.7}),
        ("simulate", {"beta": 2.7}),
        ("riskreport", {"regions": [{"shape": "disk", "R": math.inf}]}),
        ("r2curves", {"R": math.inf}),
        ("simulate", {"n_rep": 2.5}),
        ("simulate", {"seed": 1.5}),
        ("simulate", {"seed": -1}),
        ("depsurface", {"distances": {"count": 3.7}}),
        ("r2curves", {"lam": {"count": 2.5}}),
        ("r2curves", {"psi": 1.0}),
        ("riskreport", {"alpha": 0.95}),
        ("simulate", {"alpha": 0.95}),
        ("simulate", {"dump": 5}),
        ("simulate", {"lam": 2.0, "n_rep": 5, "dump": "missing/fields.bin"}),
        ("simulate", {"lam": 1e200}),
        ("simulate", {"kappa": 1e200}),
        ("riskreport", {"beta": 200}),
        ("depsurface", {"psi": [1.0], "beta": [100], "distances": [0.0, 1.0]}),
        ("depsurface", {"gev": 5}),
        ("depsurface", {"distances": 5}),
        ("simulate", {"region": [1]}),
        ("r2curves", {"lam": 5}),
        ("riskreport", {"gev": None}),
        ("riskreport", {"regions": [{"shape": "disk", "R": 1e-300}]}),
        ("riskreport", {"regions": [{"shape": "square", "R": 1e200}]}),
        ("riskreport", {"beta": 1e300}),
        ("r2curves", {"beta": 1e300}),
        ("depsurface", {"psi": [1.0], "beta": [1e300], "distances": [0.0, 1.0]}),
        ("simulate", {"n_rep": 1e300}),
        ("riskreport", {"kappa": 1e200}),
        ("riskreport", {"kappa": 1e300}),
        ("riskreport", {"lam": [1e300]}),
        ("riskreport", {"lam": [1e-300]}),
        ("depsurface", {"rel_tol": math.inf}),
    ])
    def test_exits_2(self, tmp_path, command, block):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({command: block}))
        assert main([command, "--config", str(cfg), "--out",
                     str(tmp_path / "o.csv")]) == 2
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("command, block", [
        ("simulate", {"lam": math.inf}),
        ("r2curves", {"lam": {"min": -1, "max": 0.5, "count": 3}}),
    ], ids=["simulate-inf", "r2curves-negative-min"])
    def test_bad_lam_exits_2_with_one_line_naming_lam(self, tmp_path, capsys, command, block):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({command: block}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2
        assert caught == []
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and "lam" in lines[0]

    def test_smith_kappa_squared_past_the_double_range_exits_2_without_a_warning(self,
                                                                                   tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"simulate": {"kappa": 1e200}}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", "--config", str(cfg), "--out",
                         str(tmp_path / "o.csv")]) == 2
        assert not (tmp_path / "o.csv").exists()

    def test_negative_seed_flag_exits_2(self, tmp_path):
        assert main(["simulate", "--out", str(tmp_path / "o.csv"), "--seed", "-5"]) == 2
        assert not (tmp_path / "o.csv").exists()

    def test_unwritable_out_path_exits_2(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(SMALL_R2))
        assert main(["r2curves", "--config", str(cfg), "--out",
                     str(tmp_path / "missing" / "o.csv")]) == 2


class TestConfigReadBeforeComputing:
    @pytest.mark.parametrize("command, block", [
        ("simulate", {"n_rep": "two"}),
        ("simulate", {"region": {"shape": "disk", "R": 1.0}, "gev": {"eta": "x"}}),
        ("riskreport", {"beta": "two"}),
        ("riskreport", {"regions": [{"shape": "disk", "R": 1.0},
                                    {"shape": "hexagon", "R": 1.0}]}),
        ("riskreport", {"lam": [10.0, "x"]}),
        ("r2curves", {"shapes": ["disk", "hexagon"]}),
        ("depsurface", {"beta": [1, 0]}),
        ("depsurface", {"distances": [0.0, 1.0, -1.0]}),
        ("r2curves", {"lam": [1.0, 0.0]}),
        ("riskreport", {"lam": [10.0, -1.0]}),
        ("depsurface", {"beta": [1, 2.7]}),
        ("r2curves", {"beta": 2.7}),
        ("riskreport", {"beta": 2.7}),
        ("simulate", {"beta": 2.7}),
        ("riskreport", {"regions": [{"shape": "disk", "R": 1e-300}]}),
        ("depsurface", {"distances": {"count": 1e6}}),
        ("depsurface", {"distances": [1.0] * 10_001}),
    ])
    def test_exits_2_before_any_computation(self, tmp_path, monkeypatch, command, block):
        def computed(*args, **kwargs):
            pytest.fail("computed before the config was read")

        for name in ("asymptotic_cov_integral", "r2", "r2_curves"):
            monkeypatch.setattr(risk, name, computed)
        monkeypatch.setattr(simulate, "simulate_smith", computed)
        monkeypatch.setattr(dependence, "dep_measure_from_gamma", computed)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({command: block}))
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2


class TestMaxByPsiKeys:
    def test_override_keyed_by_value_replaces_the_default(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"depsurface": {
            "psi": [1.0], "beta": [1], "distances": {"max_by_psi": {"1": 50.0}}}}))
        out = tmp_path / "dep.csv"
        assert main(["depsurface", "--config", str(cfg), "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert max(float(r[2]) for r in rows) == pytest.approx(50.0)

    def test_merge_by_numeric_key(self):
        cfg = normalize_config({"depsurface": {"distances": {
            "max_by_psi": {"1": 50.0, "0.7": 300.0}}}})
        assert cfg["depsurface"]["distances"]["max_by_psi"] == {
            "0.5": 1500.0, "1.5": 25.0, "2.0": 10.0, "1": 50.0, "0.7": 300.0}
        assert normalize_config(json.loads(json.dumps(cfg))) == cfg


# Small valid blocks for the contract test below.  Every example runs a whole
# command, so the integers that set the cost (n_rep, the grid counts, the
# lengths of the lists) are small, and the simulated region is small enough
# that a drawn R or lam of 200 still makes a cheap grid.
CONTRACT_BLOCKS = {
    "depsurface": {"gev": {"eta": 30.0, "tau": 3.0, "xi": -0.2}, "kappa": 1.0, "psi": [1.0],
                   "beta": [1, 2], "rel_tol": 1e-6,
                   "distances": {"min": 0.5, "count": 3, "max_by_psi": {"1.0": 5.0}}},
    "r2curves": {"gev": {"eta": 30.0, "tau": 3.0, "xi": -0.2}, "kappa": 1.0, "psi": [1.0],
                 "beta": 1, "shapes": ["disk"], "R": 1.0, "rel_tol": 1e-6,
                 "lam": {"min": 1.0, "max": 4.0, "count": 2}},
    "riskreport": {"gev": {"eta": 30.0, "tau": 3.0, "xi": -0.2}, "kappa": 1.0, "psi": 1.0,
                   "beta": 1, "regions": [{"shape": "disk", "R": 1.0}], "lam": [10.0],
                   "alpha": [0.95], "rel_tol": 1e-6},
    "simulate": {"gev": {"eta": 30.0, "tau": 3.0, "xi": -0.2}, "kappa": 1.0, "psi": 2.0,
                 "beta": 1, "region": {"shape": "disk", "R": 0.05}, "lam": 0.05, "n_rep": 3,
                 "seed": 1, "method": "smith", "alpha": [0.9], "dump": "f.bin"},
}
CONTRACT_VALUES = [None, True, False, "", "x", [], {}, {"a": 1}, -1, 0, 0.5, 2.7, math.nan,
                   math.inf, -math.inf, 1e300, -1e300, 200]


def _key_paths(node, prefix=()):
    """Every key of a block and every entry of its lists, nested ones too."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _key_paths(value, prefix + (key,))


CONTRACT_CASES = [(command, path) for command, block in CONTRACT_BLOCKS.items()
                  for path in _key_paths(block)]


class TestExitCodeContract:
    @settings(max_examples=200, deadline=None)
    @given(case=st.sampled_from(CONTRACT_CASES), value=st.sampled_from(CONTRACT_VALUES))
    def test_one_replaced_key_exits_0_2_or_3(self, case, value):
        command, path = case
        block = json.loads(json.dumps(CONTRACT_BLOCKS[command]))
        node = block
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        with tempfile.TemporaryDirectory() as tmp:
            cfg, out = Path(tmp) / "c.json", Path(tmp) / "o.csv"
            cfg.write_text(json.dumps({command: block}))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                code = main([command, "--config", str(cfg), "--out", str(out)])
            assert code in (0, 2, 3)
            assert code != 2 or not out.exists()
