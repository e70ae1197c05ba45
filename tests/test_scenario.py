import json
import re
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from sts_toa import evolution
from sts_toa.errors import ConfigError
from sts_toa.evolution import TOADistribution
from sts_toa.scenario import (ScenarioConfig, ScenarioResult, SweepPoint,
                              emit_csv, emit_svg, run_scenario)
from sts_toa.svgplot import Curve, Panel, render_svg

DATA = Path(__file__).parent / "data"


def fig2(**overrides):
    return ScenarioConfig.from_dict({"preset": "fig2", **overrides})


def _densities(result):
    """The first sweep point's density per model."""
    return {name: dist.density for name, dist in result.points[0].distributions.items()}


def _count_propagations(monkeypatch):
    """The argument tuples of every later ``evolution.propagate`` call."""
    calls = []
    propagate = evolution.propagate

    def counted(*args):
        calls.append(args)
        return propagate(*args)

    monkeypatch.setattr(evolution, "propagate", counted)
    return calls


class TestConfigParsing:
    def test_preset_expands(self):
        cfg = fig2()
        assert cfg.packet.x_i == -50.0 and cfg.packet.p_i == 2.0
        assert cfg.barrier_length == 10.0 and cfg.detector_x == 50.0
        assert cfg.v0_list == (0.0, 1.125, 1.8, 4.5)

    def test_override_keeps_other_preset_fields(self):
        cfg = fig2(barrier={"v0": [4.5]})
        assert cfg.v0_list == (4.5,)
        assert cfg.barrier_length == 10.0

    def test_missing_field_is_named(self):
        with pytest.raises(ConfigError) as exc:
            ScenarioConfig.from_dict({"packet": {"x_i": 0.0, "p_i": 1.0}})
        assert exc.value.field == "packet.delta"

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigError) as exc:
            fig2(models=["sts", "bogus"])
        assert exc.value.field == "models"

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict({"preset": "fig3"})

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError):
            fig2(detektor_x=50.0)

    def test_detector_inside_barrier_rejected(self):
        with pytest.raises(ConfigError) as exc:
            fig2(detector_x=5.0)
        assert exc.value.field == "detector_x"

    def test_method_validation(self):
        assert fig2(method="slices:40").n_slices == 40
        assert fig2(method="closed").n_slices is None
        for bad in ("slices", "slices:0", "open", "slices:-3"):
            with pytest.raises(ConfigError):
                fig2(method=bad)

    def test_degenerate_time_grid_rejected(self):
        with pytest.raises(ConfigError) as exc:
            fig2(tgrid={"t_min": 0.0, "t_max": 150.0, "n": 1})
        assert exc.value.field == "tgrid"


@pytest.fixture(scope="module")
def small_result():
    cfg = fig2(barrier={"v0": [0.0, 4.5]},
               tgrid={"t_min": 0.0, "t_max": 150.0, "n": 512},
               models=["sts", "kijowski_transmitted", "kijowski_free"])
    return run_scenario(cfg)


class TestRun:
    def test_models_coincide_without_barrier(self, small_result):
        pt = small_result.points[0]
        assert pt.v0 == 0.0
        rho = {n: d.density for n, d in pt.distributions.items()}
        assert np.max(np.abs(rho["sts"] - rho["kijowski_transmitted"])) < 1e-8
        assert np.max(np.abs(rho["sts"] - rho["kijowski_free"])) < 1e-8

    def test_points_sorted_by_height(self, small_result):
        assert [pt.v0 for pt in small_result.points] == [0.0, 4.5]

    def test_heights_stored_ascending_without_repeats(self):
        cfg = fig2(barrier={"v0": [4.5, 0.0, 4.5]},
                   tgrid={"t_min": 0.0, "t_max": 150.0, "n": 64}, models=["sts"])
        assert cfg.v0_list == (0.0, 4.5)
        assert [pt.v0 for pt in run_scenario(cfg).points] == [0.0, 4.5]

    def test_summary_is_json_serializable(self, small_result):
        text = json.dumps(small_result.summary())
        assert "l1_distance_sts_kijowski" in text

    def test_threaded_run_matches_serial(self, tmp_path):
        # the worker threads share the cached transform plan and amplitude;
        # the files and the summary must not depend on the worker count
        cfg = fig2(barrier={"v0": [1.8, 0.0, 4.5]},
                   tgrid={"t_min": 0.0, "t_max": 150.0, "n": 256},
                   models=["sts", "kijowski_transmitted", "kijowski_free"])
        outputs = []
        for workers in (1, 2):
            result = run_scenario(cfg, max_workers=workers)
            out = tmp_path / f"workers-{workers}"
            out.mkdir()
            emit_csv(result, out / "run.csv")
            emit_svg(result, out / "run.svg")
            files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            outputs.append((files, json.dumps(result.summary(), sort_keys=True)))
        assert len(outputs[0][0]) == 4
        assert outputs[0] == outputs[1]

    # more workers than cores and a short switch interval, so that workers
    # interleave inside the shared caches (chirp-z plans per time grid,
    # initial amplitudes, free flights), which a run on another time grid
    # has just emptied of this run's plans
    def test_threads_fill_the_shared_caches_without_lost_updates(self):
        heights = [float(v) for v in np.linspace(0.0, 6.0, 8)]
        cfg = fig2(barrier={"v0": heights}, tgrid={"t_min": 0.0, "t_max": 150.0, "n": 256})
        serial = run_scenario(cfg)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            run_scenario(fig2(barrier={"v0": [1.8]},
                              tgrid={"t_min": 0.0, "t_max": 150.0, "n": 128}))
            threaded = run_scenario(cfg, max_workers=4)
        finally:
            sys.setswitchinterval(interval)
        assert threaded.summary() == serial.summary()
        for a, b in zip(threaded.points, serial.points):
            for name, dist in a.distributions.items():
                assert np.array_equal(dist.density, b.distributions[name].density)

    # on an explicit egrid (here fig2's default span at 2**14 energies) both
    # transmitted-packet models run on it; 50 slices of [0, 50] give the
    # closed form's levels and widths, so the sliced amplitude is the closed
    # form and serves Kijowski too; 50 / 7 lands no cut on the barrier edge
    # x = 10, and 50 / 385 lands one there to rounding but misses the closed
    # form's widths by ~1e-15, so both translate the closed form apart
    @pytest.mark.parametrize("n_slices, translations", [(50, 1), (7, 2), (385, 2)])
    def test_slices_reuse_the_closed_form_only_at_the_edges(self, monkeypatch,
                                                            n_slices, translations):
        shared = {"e_min": 1.125, "e_max": 3.125, "n": 2**14}
        closed = run_scenario(fig2(barrier={"v0": [1.8]}, egrid=shared))
        calls = _count_propagations(monkeypatch)
        sliced = run_scenario(fig2(barrier={"v0": [1.8]}, egrid=shared,
                                   method=f"slices:{n_slices}"))
        assert len(calls) == translations
        rho = _densities(sliced)
        assert set(rho) == {"sts", "kijowski_transmitted", "kijowski_free"}
        for name in ("kijowski_transmitted", "kijowski_free"):
            assert np.array_equal(rho[name], _densities(closed)[name])
        assert np.array_equal(rho["sts"], _densities(closed)["sts"]) == (translations == 1)

    # without an egrid the Kijowski models run on 2**12 energies and sts on
    # 2**14, so a height translates once per model even where 50 slices give
    # the closed form; each model still matches the closed run bit for bit
    def test_default_grid_translates_kijowski_apart(self, monkeypatch):
        closed = _densities(run_scenario(fig2(barrier={"v0": [1.8]})))
        calls = _count_propagations(monkeypatch)
        rho = _densities(run_scenario(fig2(barrier={"v0": [1.8]}, method="slices:50")))
        assert [amps.egrid.n for amps, *_ in calls] == [2**14, 2**12]
        assert rho.keys() == closed.keys()
        for name in rho:
            assert np.array_equal(rho[name], closed[name])


class TestCsv:
    def test_header_and_column_population(self, small_result, tmp_path):
        paths = emit_csv(small_result, tmp_path / "out.csv")
        assert len(paths) == 2
        lines = paths[0].read_text(encoding="utf-8").splitlines()
        assert lines[0] == "t,rho_sts,rho_kijowski_transmitted,rho_kijowski_free,flux"
        row = lines[1].split(",")
        assert len(row) == 5
        assert row[1] and row[2] and row[3]    # three densities populated
        assert row[4] == ""                     # flux not requested

    def test_unrequested_models_leave_empty_fields(self, tmp_path):
        cfg = fig2(barrier={"v0": [1.8]},
                   tgrid={"t_min": 0.0, "t_max": 150.0, "n": 64},
                   models=["sts", "kijowski_free"])
        (path,) = emit_csv(run_scenario(cfg), tmp_path / "two.csv")
        row = path.read_text(encoding="utf-8").splitlines()[1].split(",")
        assert row[1] != "" and row[3] != ""
        assert row[2] == "" and row[4] == ""

    def test_rerun_is_byte_identical(self, small_result, tmp_path):
        a = emit_csv(small_result, tmp_path / "a.csv")
        b = emit_csv(run_scenario(small_result.config), tmp_path / "b.csv")
        for pa, pb in zip(a, b):
            assert pa.read_bytes() == pb.read_bytes()

    def test_lf_line_endings(self, small_result, tmp_path):
        (path, _) = emit_csv(small_result, tmp_path / "lf.csv")
        assert b"\r" not in path.read_bytes()

    def test_empty_bundle_rejected_before_any_file(self, small_result, tmp_path):
        hollow = ScenarioResult(config=small_result.config, points=[])
        target = tmp_path / "never.csv"
        with pytest.raises(ConfigError):
            emit_csv(hollow, target)
        assert not target.exists()

    def test_matches_golden_file(self, tmp_path):
        golden = DATA / "golden_fig2_v0_4p5.csv"
        cfg = fig2(barrier={"v0": [4.5]},
                   tgrid={"t_min": 0.0, "t_max": 150.0, "n": 512},
                   models=["sts", "kijowski_transmitted", "kijowski_free"])
        (path,) = emit_csv(run_scenario(cfg), tmp_path / "fresh.csv")
        got = np.genfromtxt(path, delimiter=",", skip_header=1)
        want = np.genfromtxt(golden, delimiter=",", skip_header=1)
        np.testing.assert_allclose(got[:, :4], want[:, :4], atol=1e-12)


    @pytest.mark.parametrize("models, with_flux", [
        (("sts", "kijowski_transmitted", "kijowski_free"), True),
        (("sts",), False),
        (("kijowski_free",), True),
        ((), True),
    ], ids=["all-columns", "empty-model-columns", "flux-beside-empty", "flux-only"])
    def test_bytes_match_per_field_formatting(self, tmp_path, models, with_flux):
        rng = np.random.default_rng(11)
        cfg = fig2(tgrid={"t_min": 0.0, "t_max": 150.0, "n": 600})
        n = cfg.tgrid.n
        points = []
        for v0 in (0.0, 1.8):
            dists = {name: TOADistribution(cfg.tgrid, _awkward_values(rng, n), 1.0)
                     for name in models}
            flux = (_awkward_values(rng, n) * rng.choice([-1.0, 1.0], n)
                    if with_flux else None)
            points.append(SweepPoint(v0=v0, distributions=dists, flux=flux))
        paths = emit_csv(ScenarioResult(config=cfg, points=points), tmp_path / "pin.csv")
        for pt, path in zip(points, paths):
            cols = [pt.distributions[name].density if name in pt.distributions else None
                    for name in _DENSITY_COLUMNS] + [pt.flux]
            assert path.read_bytes() == _csv_reference(cfg.tgrid.samples, cols).encode()


_DENSITY_COLUMNS = ("sts", "kijowski_transmitted", "kijowski_free")


def _awkward_values(rng, n):
    """-0.0, subnormals, extremes and every decade of the double range, shuffled."""
    special = [0.0, -0.0, 5e-324, 2.2250738585072014e-308 / 3, 2.2250738585072014e-308,
               1e-300, 1e300, 1.7976931348623157e308, 9.9999999999999995e-5, 1e-4,
               0.1, 1.0 / 3.0, 1e16, 1e17, 123456789.12345679]
    values = 10.0 ** rng.uniform(-323.0, 308.0, n)
    values[:len(special)] = special
    rng.shuffle(values)
    return values


def _csv_reference(t, cols):
    """The CSV text formatted one field at a time with f"{x:.17g}"."""
    lines = ["t,rho_sts,rho_kijowski_transmitted,rho_kijowski_free,flux"]
    for i, ti in enumerate(t):
        fields = [f"{float(ti):.17g}"]
        fields += ["" if c is None else f"{float(c[i]):.17g}" for c in cols]
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n"


class TestSvg:
    def test_four_panel_sweep(self, tmp_path):
        cfg = fig2(tgrid={"t_min": 0.0, "t_max": 150.0, "n": 256},
                   models=["sts", "kijowski_transmitted"])
        path = emit_svg(run_scenario(cfg), tmp_path / "sweep.svg")
        text = path.read_text(encoding="utf-8")
        assert text.count("V0 =") == 4
        assert "stroke-dasharray" in text          # dashed comparison curve
        assert ">t</text>" in text and "\U0001d4ab(t|x)" in text
        ET.parse(path)                              # well-formed XML

    def test_single_model_single_panel(self, tmp_path):
        cfg = fig2(barrier={"v0": [1.8]},
                   tgrid={"t_min": 0.0, "t_max": 150.0, "n": 128},
                   models=["sts"])
        path = emit_svg(run_scenario(cfg), tmp_path / "one.svg")
        root = ET.parse(path).getroot()
        # one density curve (the legend swatch is a <line>, not a polyline)
        assert len(root.findall(".//{http://www.w3.org/2000/svg}polyline")) == 1

    def test_rerun_is_byte_identical(self, small_result, tmp_path):
        a = emit_svg(small_result, tmp_path / "a.svg")
        b = emit_svg(run_scenario(small_result.config), tmp_path / "b.svg")
        assert a.read_bytes() == b.read_bytes()

    def test_polylines_match_per_point_formatting(self, tmp_path):
        rng = np.random.default_rng(5)
        panels = [Panel(title=f"panel {k}", curves=[_boundary_curve(rng, 2000, 1.0),
                                                     _boundary_curve(rng, 1500, 0.5)])
                  for k in range(2)]
        render_svg(panels, str(tmp_path / "pin.svg"))
        text = (tmp_path / "pin.svg").read_text(encoding="utf-8")
        got = re.findall(r'<polyline points="([^"]*)"', text)
        assert got == _polyline_reference(panels)


def _boundary_curve(rng, n, r_max):
    """A curve on t in [0, 150] whose pixels fall near .xx5 rounding boundaries.

    With t from 0 to 150 and a largest density of 1 in the panel, x pixels run
    over [64, 464] and y pixels over [280 - 240 r_max, 280] below the panel
    offset; each coordinate is the inverse image of a pixel value k / 100 + 0.005.
    """
    px = 64.0 + (rng.integers(0, 40000, n) + 0.5) / 100.0
    py = 280.0 - (rng.integers(0, int(24000 * r_max), n) + 0.5) / 100.0
    t = (px - 64.0) / 400.0 * 150.0
    rho = (280.0 - py) / 252.0 * 1.05
    t[0], t[-1], rho[0] = 0.0, 150.0, r_max
    return Curve(label="pin", t=t, rho=rho)


def _polyline_reference(panels):
    """Each polyline's points through scalar sx, sy and per-point f"{v:.2f}"."""
    out = []
    for ip, panel in enumerate(panels):
        x0, x1 = 64, 480 - 16
        y0, y1 = ip * 320 + 320 - 40, ip * 320 + 28
        t_lo = min(float(c.t[0]) for c in panel.curves)
        t_hi = max(float(c.t[-1]) for c in panel.curves)
        r_hi = max(float(np.max(c.rho)) for c in panel.curves)

        def sx(t):
            return x0 + (t - t_lo) / (t_hi - t_lo) * (x1 - x0)

        def sy(r):
            return y0 - r / (1.05 * r_hi) * (y0 - y1)

        for c in panel.curves:
            out.append(" ".join(f"{sx(float(t)):.2f},{sy(float(r)):.2f}"
                                for t, r in zip(c.t, c.rho)))
    return out
