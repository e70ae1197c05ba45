import json

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from sts_toa import cli, scenario
from sts_toa.cli import main
from sts_toa.kijowski import transmitted_kijowski
from sts_toa.scenario import ScenarioConfig


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# grids whose spacing, or whose linspace steps, overflow a double
TGRID_OVERFLOWS = {"preset": "fig2", "tgrid": {"t_min": -1e308, "t_max": 1e308, "n": 8}}
EGRID_OVERFLOWS = {"preset": "fig2",
                   "egrid": {"e_min": 1e-30, "e_max": 1.7976931348623157e308, "n": 19}}
# at E ~ 4e-179 the Kijowski factor's denominator D ~ 4 P^2 ~ 3e-178 has a
# |D|^2 that underflows to 0; the model is named alone because the sts density
# would stop the run first (GridTooCoarse)
TINY_ENERGY_KIJOWSKI = {"preset": "fig2", "models": ["kijowski_transmitted"],
                        "egrid": {"e_min": 4.0419150837383496e-179, "e_max": 1, "n": 2}}


class TestExitCodes:
    def test_missing_config_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "compare")
        assert code == 2 and "config" in err

    def test_unreadable_config_file(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "compare", "--config",
                             str(tmp_path / "absent.json"))
        assert code == 2

    @pytest.mark.parametrize("text", ["{not json", "[1, 2]"],
                             ids=["invalid-json", "not-an-object"])
    def test_config_file_not_a_json_object(self, capsys, tmp_path, text):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        code, _, err = run_cli(capsys, "sweep", "--config", str(path))
        assert code == 2 and "config error: --config:" in err

    def test_bad_v0_list(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--preset", "fig2",
                               "--v0", "1.0,potato")
        assert code == 2 and "--v0" in err

    # argparse reads a value that starts with a minus and is not one plain
    # number as a flag; a list or an exponent after --v0 is still its value
    @pytest.mark.parametrize("command", ["sweep", "compare", "barrier-toa", "oracle"])
    @pytest.mark.parametrize("v0, heights", [("-0.5,1.8", [-0.5, 1.8]), ("-1e-3", [-0.001])])
    def test_negative_v0_list_needs_no_equals(self, capsys, command, v0, heights):
        extra = ("--time-factor", "1.5") if command == "oracle" else ()
        code, out, _ = run_cli(capsys, command, "--preset", "fig2", "--v0", v0, *extra)
        assert code == 0
        rows = json.loads(out)["oracle" if command == "oracle" else "points"]
        assert [row["v0"] for row in rows] == heights

    def test_v0_followed_by_a_flag_lacks_its_value(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--preset", "fig2", "--v0", "--models", "sts"])
        assert exc.value.code == 2
        assert "argument --v0: expected one argument" in capsys.readouterr().err

    def test_unknown_model(self, capsys):
        code, _, _ = run_cli(capsys, "sweep", "--preset", "fig2",
                             "--models", "sts,bogus")
        assert code == 2

    def test_aliasing_grid_is_numerical_failure(self, capsys, tmp_path):
        cfg = {"preset": "fig2",
               "egrid": {"e_min": 1.0, "e_max": 3.0, "n": 16}}
        path = tmp_path / "coarse.json"
        path.write_text(json.dumps(cfg))
        code, _, err = run_cli(capsys, "barrier-toa", "--config", str(path))
        assert code == 3 and "GridTooCoarse" in err

    @pytest.mark.parametrize("cfg, field", [
        ({"preset": "fig2", "packet": {"x_i": -10.0}}, "packet"),
        ({"preset": "fig2", "barrier": {"v0": [1.8], "length": 0.0}},
         "barrier.length"),
        ({"preset": "fig2", "barrier": {"v0": [1.8], "length": 0.0},
          "models": ["flux_oracle"]}, "barrier.length"),
        ({"preset": "fig2", "initial_amplitude": "independent"},
         "initial_amplitude"),
        ({"preset": "fig2", "packet": {"m": None}}, "packet.m"),
        ({"preset": "fig2", "packet": {"hbar": [1]}}, "packet.hbar"),
        ({"preset": "fig2", "packet": {"hbar": 2.0}}, "packet.hbar"),
        ({"preset": "fig2", "packet": {"x_i": float("-inf")}}, "packet.x_i"),
        ({"preset": "fig2", "barrier": {"v0": [float("nan")]}}, "barrier.v0"),
        ({"preset": "fig2", "barrier": {"v0": []}}, "barrier.v0"),
        ({"preset": "fig2", "models": []}, "models"),
        ({"preset": "fig2", "models": "sts"}, "models"),
        ({"preset": "fig2", "tgrid": {"n": "4096"}}, "tgrid.n"),
        ({"preset": "fig2", "barrier": {"v0": [10**400]}}, "barrier.v0"),
        ({"preset": "fig2", "method": "slices:99999999999"}, "method"),
        ({"preset": "fig2",
          "tgrid": {"t_min": 0.0, "t_max": 150.0, "n": 100_000_000_000}},
         "tgrid.n"),
        ({"preset": "fig2",
          "egrid": {"e_min": 0.5, "e_max": 4.0, "n": 100_000_000_000}},
         "egrid.n"),
        ({"preset": "fig2", "barrier": {"v0": [1e308]}}, "barrier.v0"),
        ({"preset": "fig2", "barrier": {"v0": [-1e30]}}, "barrier.v0"),
        ({"preset": "fig2", "detector_x": 1e308}, "detector_x"),
        ({"preset": "fig2", "packet": {"x_i": -1e308}}, "packet.x_i"),
        ({"preset": "fig2", "packet": {"x_i": -1e300}, "barrier": {"v0": [0.0]}},
         "packet.x_i"),
        ({"preset": "fig2", "detector_x": 1e9, "models": ["flux_oracle"]},
         "detector_x"),
        ({"preset": "fig2", "tgrid": {"t_max": 1e7}, "models": ["flux_oracle"]},
         "tgrid.t_max"),
        ({"preset": "fig2", "detector_x": 50.01, "models": ["flux_oracle"],
          "tgrid": {"t_max": 1.0}}, "detector_x"),
        ({"preset": "fig2", "detector_x": -300.0, "models": ["flux_oracle"],
          "tgrid": {"t_max": 1.0}}, "detector_x"),
        ({"preset": "fig2", "barrier": {"v0": [0.0]},
          "tgrid": {"t_min": 1e17, "t_max": 1.0000000000000015e17, "n": 64}},
         "tgrid.t_min"),
        ({"preset": "fig2", "barrier": {"v0": [0.0]},
          "tgrid": {"t_min": 0.0, "t_max": 1e17, "n": 64}}, "tgrid.t_max"),
        ({"preset": "fig2", "packet": {"x0": -40.0}}, "packet.x0"),
        ({"preset": "fig2", "barrier": {"height": 1.0}}, "barrier.height"),
        ({"preset": "fig2", "tgrid": {"N": 2048}}, "tgrid.N"),
        ({"preset": "fig2", "egrid": {"e_min": 0.5, "e_max": 4.0, "n": 4096, "N": 1}},
         "egrid.N"),
        ({"preset": "fig2", "packet": {"hbar": 1.0}}, "packet.hbar"),
        ({"preset": "fig2", "packet": {"x_i": 5.0}, "barrier": {"v0": [4.5]},
          "models": ["kijowski_transmitted"]}, "packet"),
        (TGRID_OVERFLOWS, "tgrid"),
        (EGRID_OVERFLOWS, "egrid"),
        ({"preset": "fig2", "tgrid": {"t_min": 0.0, "t_max": 150.0, "n": True}}, "tgrid.n"),
        ({"preset": "fig2", "egrid": {"e_min": 0.5, "e_max": 4.0, "n": False}}, "egrid.n"),
    ], ids=["packet-not-scattering", "zero-length", "zero-length-flux",
            "independent-amplitude", "mass-null", "hbar-list", "hbar-not-one",
            "x_i-infinite", "v0-nan", "v0-empty", "models-empty", "models-string",
            "tgrid-n-string", "v0-int-past-float-range", "huge-slice-count",
            "huge-tgrid", "huge-egrid", "v0-exponent-overflows", "v0-phase-without-digits",
            "detector-phase-overflows", "x_i-phase-overflows",
            "x_i-phase-without-digits", "flux-grid-too-wide", "flux-grid-too-long",
            "flux-detector-off-grid", "flux-detector-left-of-packet",
            "t_min-phase-without-digits",
            "t_max-phase-without-digits", "packet-unknown-key", "barrier-unknown-key",
            "tgrid-unknown-key", "egrid-unknown-key", "hbar-one",
            "kijowski-packet-not-scattering", "tgrid-spacing-overflows",
            "egrid-samples-overflow", "tgrid-n-bool", "egrid-n-bool"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rejected_config_names_field(self, capsys, tmp_path, cfg, field):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, _, err = run_cli(capsys, "sweep", "--config", str(path))
        assert code == 2 and f"config error: {field}:" in err

    # at p_i = 0 the default grid starts at E = 1e-9, where the weight
    # (m/2E)^(1/4) diverges: the free model reported an arrival probability
    # of 1.16 against an exact positive-momentum weight of 0.5
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_free_model_rejects_momenta_reaching_zero(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"preset": "fig2", "packet": {"p_i": 0}}))
        code, out, err = run_cli(capsys, "free-toa", "--config", str(path))
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("config error: packet:")

    # a window this long would advance a 2**12 grid's kernel phase by 3.42
    # rad (> pi), so every model keeps 2**14 energies there
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_long_window_keeps_the_fine_kijowski_grid(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"preset": "fig2",
                                    "tgrid": {"t_min": 0, "t_max": 7000, "n": 4096}}))
        code, out, err = run_cli(capsys, "compare", "--config", str(path), "--v0", "1.8")
        assert code == 0 and err == ""
        (point,) = json.loads(out)["points"]
        assert set(point["arrival_probability"]) == {"sts", "kijowski_transmitted",
                                                     "kijowski_free"}

    # below V0 the barrier exponent kappa L is a decay, not a phase: at
    # V0 = 1e30 it is ~1.4e16 but only makes the barrier opaque
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_opaque_barrier_is_numerical_failure(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"preset": "fig2", "barrier": {"v0": [1e30]}}))
        code, out, err = run_cli(capsys, "sweep", "--config", str(path))
        assert code == 3 and out == "" and "ZeroArrival" in err

    # a NaN in one row of a block's stacked transform stops the sweep with
    # exit 3 before any file is written
    def test_nan_row_of_a_stack_is_numerical_failure(self, capsys, tmp_path, monkeypatch):
        transform = scenario.fourier_E_to_t

        def one_bad_row(amps, *args, **kwargs):
            series = transform(amps, *args, **kwargs)
            if series.ndim == 2 and len(series) > 1:
                series[1, 100] = np.nan
            return series

        monkeypatch.setattr(scenario, "fourier_E_to_t", one_bad_row)
        code, out, err = run_cli(capsys, "sweep", "--preset", "fig2",
                                 "--out-csv", str(tmp_path / "sweep.csv"))
        assert code == 3 and out == ""
        assert "DivergenceWarning" in err and "at x = 50.0: not finite" in err
        assert list(tmp_path.iterdir()) == []

    def test_v0_override_of_a_barrier_that_is_no_object(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"preset": "fig2", "barrier": [["length", 3.0]]}))
        code, _, err = run_cli(capsys, "sweep", "--config", str(path), "--v0", "0")
        assert code == 2 and "config error: barrier: expected dict" in err

    # each subcommand takes only the flags it reads; argparse exits in main()
    @pytest.mark.parametrize("command, flag", [
        ("oracle", "--out-csv"), ("oracle", "--out-svg"), ("oracle", "--method"),
        ("oracle", "--models"), ("free-toa", "--v0"), ("free-toa", "--models"),
        ("free-toa", "--method"), ("barrier-toa", "--models")])
    def test_unread_flag_is_rejected(self, capsys, command, flag):
        with pytest.raises(SystemExit) as exc:
            main([command, "--preset", "fig2", flag, "1"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err

    def test_energy_floor_far_below_the_packet(self, capsys, tmp_path):
        # without a barrier R(E) = 4 P^2 / 4 P^2: its denominator is its
        # numerator, so tiny momenta (P ~ 1e-40 here) are no pole
        cfg = {"preset": "fig2", "barrier": {"v0": [0.0]},
               "egrid": {"e_min": 1e-80, "e_max": 3.125, "n": 16384},
               "models": ["kijowski_transmitted"]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, out, _ = run_cli(capsys, "sweep", "--config", str(path))
        assert code == 0
        (point,) = json.loads(out)["points"]
        assert point["arrival_probability"]["kijowski_transmitted"] == pytest.approx(1.0)

    @pytest.mark.parametrize("flag", ["--out-csv", "--out-svg"])
    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_unwritable_output_path(self, capsys, tmp_path, flag, where):
        # one height writes exactly the given path, so a directory cannot be opened
        target = tmp_path / "absent" / "x.out" if where == "missing-directory" else tmp_path
        code, out, err = run_cli(capsys, "sweep", "--preset", "fig2", "--v0", "1.8",
                                 "--models", "sts", flag, str(target))
        assert code == 2 and f"config error: {flag}:" in err
        assert out == ""

    # 1e6 asks for solver grids of 1e9 points and more; 1e300 overflows their size
    @pytest.mark.parametrize("value", ["-1", "0", "nan", "inf", "1e6", "1e300"])
    def test_bad_time_factor(self, capsys, value):
        code, _, err = run_cli(capsys, "oracle", "--preset", "fig2", "--v0", "1.125",
                               f"--time-factor={value}")
        assert code == 2 and "config error: --time-factor:" in err

    # in a well of depth |V0| the packet's top momentum p_max = 2.5 grows to
    # sqrt(p_max^2 + 2 m |V0|): 10.3 at V0 = -50, past what the oracle's
    # coarse dx = 0.25 resolves; 2.69 at V0 = -0.5, within it (a barrier,
    # V0 = 1.125, adds nothing)
    @pytest.mark.parametrize("v0, expected", [("-50", 3), ("-0.5", 0), ("1.125", 0)])
    def test_oracle_checks_grid_in_wells(self, capsys, v0, expected):
        code, out, err = run_cli(capsys, "oracle", "--preset", "fig2", f"--v0={v0}",
                                 "--time-factor", "1.5")
        assert code == expected
        if expected == 3:
            assert out == "" and "Traceback" not in err
            assert "UnstableConfig" in err and "dx = 0.25" in err and "depth 50" in err
        else:
            (row,) = json.loads(out)["oracle"]
            assert abs(row["difference"]) < 1e-3


# a numeric field takes a float-range edge, a typical value or any finite float
_NUMBER = st.one_of(st.sampled_from([0.0, -1.0, 1e308, -1e308]),
                    st.floats(-200.0, 200.0),
                    st.floats(allow_nan=False, allow_infinity=False))
_N = st.integers(-1, 40)


def _fields(**optional):
    return st.fixed_dictionaries({}, optional=optional)


_CLOSED_FORM = st.lists(st.sampled_from(["sts", "kijowski_transmitted",
                                          "kijowski_free"]), unique=True, max_size=3)
_SHARED = {
    "barrier": _fields(v0=st.lists(_NUMBER, min_size=1, max_size=2),
                       length=_NUMBER),
    "detector_x": _NUMBER,
    "egrid": st.fixed_dictionaries({"e_min": _NUMBER, "e_max": _NUMBER, "n": _N}),
    "method": st.sampled_from(["closed", "slices:3"]),
}

_CONFIGS = st.one_of(
    st.fixed_dictionaries({"preset": st.just("fig2")}, optional={
        **_SHARED,
        "packet": _fields(x_i=_NUMBER, p_i=_NUMBER, delta=_NUMBER, m=_NUMBER),
        "tgrid": st.fixed_dictionaries({"t_min": _NUMBER, "t_max": _NUMBER, "n": _N}),
        "models": _CLOSED_FORM,
    }),
    # flux_oracle runs the grid solver for t_max * E_max / 0.16 steps, so the
    # window stays short and p_i and m, which set E_max, keep their fig2
    # values: a run then takes at most ~100 steps.  The detector is probed at
    # a solver node, and nodes sit at multiples of dx = 0.125.
    st.fixed_dictionaries({
        "preset": st.just("fig2"),
        "models": _CLOSED_FORM.map(lambda names: names + ["flux_oracle"]),
        "tgrid": st.fixed_dictionaries({"t_min": st.floats(-5.0, 0.0),
                                        "t_max": st.floats(0.0, 5.0), "n": _N}),
    }, optional={
        **_SHARED,
        "detector_x": st.one_of(_NUMBER, st.integers(-1600, 1600).map(lambda k: k / 8)),
        "packet": _fields(x_i=_NUMBER, delta=_NUMBER),
    }),
)


class TestExitCodeContract:
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(cfg=_CONFIGS)
    @example(cfg=TGRID_OVERFLOWS)
    @example(cfg=EGRID_OVERFLOWS)
    @example(cfg=TINY_ENERGY_KIJOWSKI)
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_sweep_exits_0_2_or_3(self, capsys, tmp_path, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run_cli(capsys, "sweep", "--config", str(path))
        assert code in (0, 2, 3)
        assert "Traceback" not in out + err


class TestSubcommands:
    def test_free_toa_mean_near_classical(self, capsys):
        code, out, _ = run_cli(capsys, "free-toa", "--preset", "fig2")
        assert code == 0
        summary = json.loads(out)
        (point,) = summary["points"]
        assert point["mean_time"]["kijowski_free"] == pytest.approx(50.0, abs=1.0)

    def test_flux_oracle_summary(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"preset": "fig2", "barrier": {"v0": [0.0]},
                                    "models": ["flux_oracle"]}))
        code, out, _ = run_cli(capsys, "sweep", "--config", str(path))
        assert code == 0
        (point,) = json.loads(out)["points"]
        assert point["arrival_probability"]["flux_oracle"] == pytest.approx(1.0, abs=1e-3)
        assert point["mean_time"]["flux_oracle"] == pytest.approx(50.0, abs=1.0)

    def test_flux_oracle_svg_clips_backflow(self, capsys, tmp_path):
        # a detector between the packet and a barrier it cannot cross sees
        # the incident packet's positive current and the reflected packet's
        # negative one; the plot draws the current clipped at 0, solid
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"preset": "fig2", "barrier": {"v0": [4.5]},
                                    "detector_x": -10.0, "models": ["flux_oracle"]}))
        out_svg = tmp_path / "flux.svg"
        code, _, _ = run_cli(capsys, "sweep", "--config", str(path),
                             "--out-svg", str(out_svg))
        assert code == 0
        text = out_svg.read_text(encoding="utf-8")
        assert ">flux oracle</text>" in text
        (line,) = [l for l in text.splitlines() if l.startswith("<polyline")]
        assert "stroke-dasharray" not in line
        ys = [float(xy.split(",")[1]) for xy in line.split('"')[1].split()]
        # one panel: the axis t sits at y = 280, larger y lies below it
        assert max(ys) == 280.0 and min(ys) < 100.0
        assert sum(y == 280.0 for y in ys) > len(ys) // 4

    def test_compare_reports_distance(self, capsys):
        # a model list without both compared models gains the missing one
        for models in ([], ["--models", "sts"]):
            code, out, _ = run_cli(capsys, "compare", "--preset", "fig2",
                                   "--v0", "4.5", *models)
            assert code == 0
            (point,) = json.loads(out)["points"]
            assert {"sts", "kijowski_transmitted"} <= set(point["mean_time"])
            assert 0.0 < point["l1_distance_sts_kijowski"] < 0.2

    def test_compare_keeps_requested_models(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--preset", "fig2", "--v0", "4.5",
                               "--models", "kijowski_free")
        assert code == 0
        (point,) = json.loads(out)["points"]
        assert set(point["arrival_probability"]) == {"sts", "kijowski_transmitted",
                                                     "kijowski_free"}
        assert "l1_distance_sts_kijowski" in point

    # oracle runs transmitted Kijowski only: a detector inside the barrier is
    # rejected whatever the config's models, and a detector off the flux
    # solver's nodes no longer matters
    @pytest.mark.parametrize("cfg, expected", [
        ({"preset": "fig2", "detector_x": 5.0, "models": ["kijowski_free"]}, 2),
        ({"preset": "fig2", "detector_x": 50.01, "models": ["flux_oracle"]}, 0)])
    def test_oracle_reads_only_its_model(self, capsys, tmp_path, cfg, expected):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run_cli(capsys, "oracle", "--config", str(path),
                                 "--v0", "1.125", "--time-factor", "1.5")
        assert code == expected
        if expected == 2:
            assert "config error: detector_x:" in err
        else:
            (row,) = json.loads(out)["oracle"]
            assert abs(row["difference"]) < 1e-3

    # oracle reads the transmitted Kijowski arrival probability off the energy
    # amplitude on its config's grid, with no time transform: the number
    # transmitted_kijowski reports there, also on a time grid too coarse for
    # that transform
    def test_oracle_arrival_probability_needs_no_time_grid(self, capsys, tmp_path):
        raw = {"preset": "fig2", "tgrid": {"t_min": 0.0, "t_max": 1e5, "n": 64}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        code, out, _ = run_cli(capsys, "oracle", "--config", str(path),
                               "--v0", "1.8", "--time-factor", "1.5")
        assert code == 0
        (row,) = json.loads(out)["oracle"]
        cfg = ScenarioConfig.from_dict({"preset": "fig2"})
        model = transmitted_kijowski(cfg.packet, 1.8, cfg.barrier_length, cfg.detector_x,
                                     cfg.tgrid,
                                     egrid=ScenarioConfig.from_dict(raw).energy_grid())
        assert row["arrival_probability"] == model.arrival_probability

    # a subcommand's forced models replace the config's only after the
    # config's own pass their checks; the cross-field checks see the forced ones
    @pytest.mark.parametrize("command", ["free-toa", "barrier-toa", "oracle"])
    def test_forced_models_check_the_config_models(self, capsys, tmp_path, command):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"preset": "fig2", "models": ["nope"]}))
        code, out, err = run_cli(capsys, command, "--config", str(path))
        assert code == 2 and out == "" and "config error: models:" in err

    # a flag's value replaces the config's own only after that passes its checks
    @pytest.mark.parametrize("command, cfg, flag, field", [
        ("sweep", {"preset": "fig2", "barrier": {"v0": ["x"]}}, ["--v0", "1.8"], "barrier.v0"),
        ("compare", {"preset": "fig2", "models": ["nope"]}, ["--models", "sts"], "models"),
        ("sweep", {"preset": "fig2", "method": "open"}, ["--method", "closed"], "method")],
        ids=["--v0", "--models", "--method"])
    def test_flags_check_the_config_value(self, capsys, tmp_path, command, cfg, flag, field):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run_cli(capsys, command, "--config", str(path), *flag)
        assert code == 2 and out == ""
        assert err.startswith(f"config error: {field}:") and err.count("\n") == 1

    def test_free_toa_ignores_the_scattering_setup(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"preset": "fig2", "packet": {"x_i": 5.0}}))
        code, out, _ = run_cli(capsys, "free-toa", "--config", str(path))
        assert code == 0
        (point,) = json.loads(out)["points"]
        assert set(point["mean_time"]) == {"kijowski_free"}

    def test_sweep_zero_barrier_csv_identity(self, capsys, tmp_path):
        out_csv = tmp_path / "zero.csv"
        code, _, _ = run_cli(capsys, "sweep", "--preset", "fig2",
                             "--v0", "0", "--models",
                             "sts,kijowski_transmitted",
                             "--out-csv", str(out_csv))
        assert code == 0
        data = np.genfromtxt(out_csv, delimiter=",", skip_header=1)
        assert np.max(np.abs(data[:, 1] - data[:, 2])) < 1e-8

    def test_sweep_outputs_sorted(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--preset", "fig2",
                               "--v0", "4.5,0,1.8", "--models", "sts")
        assert code == 0
        v0s = [p["v0"] for p in json.loads(out)["points"]]
        assert v0s == [0.0, 1.8, 4.5]

    def test_barrier_toa_slices_method(self, capsys):
        code, out, _ = run_cli(capsys, "barrier-toa", "--preset", "fig2",
                               "--v0", "4.5", "--method", "slices:50")
        assert code == 0
        (point,) = json.loads(out)["points"]
        assert point["mean_time"]["sts"] < 50.0     # Hartman advancement

    def test_sweep_writes_svg(self, capsys, tmp_path):
        out_svg = tmp_path / "plot.svg"
        code, _, err = run_cli(capsys, "sweep", "--preset", "fig2",
                               "--v0", "0,4.5", "--models",
                               "sts,kijowski_transmitted",
                               "--out-svg", str(out_svg))
        assert code == 0 and out_svg.exists()
        assert "plot.svg" in err

    def test_selfcheck_passes(self, capsys):
        code, out, _ = run_cli(capsys, "selfcheck")
        assert code == 0
        lines = [l for l in out.splitlines() if l]
        assert len(lines) == 4 and all(l.startswith("PASS") for l in lines)

    # a case that raises fails without stopping the cases after it
    def test_selfcheck_case_that_raises_fails(self, capsys, monkeypatch):
        def broken():
            raise FloatingPointError("overflow")

        monkeypatch.setattr(cli, "_selfcheck_cases",
                            lambda: [("broken", broken), ("sound", lambda: (0.0, 1.0))])
        code, out, _ = run_cli(capsys, "selfcheck")
        assert code == 3
        assert out.splitlines() == ["FAIL  broken: raised FloatingPointError: overflow",
                                    "PASS  sound: max err 0 (tol 1)"]
