"""Acceptance suite: eleven end-to-end criteria, one reported line each.

Each test prints a PASS/FAIL line to the real stderr (bypassing capture) so a
full run leaves a human-readable scoreboard alongside the pytest verdicts.
"""

import sys

import numpy as np
import pytest

from sts_toa.evolution import barrier_toa, free_kijowski
from sts_toa.kijowski import (model_distance, transmission_amplitude,
                              transmitted_kijowski)
from sts_toa.numerics import EnergyGrid, TimeGrid, fourier_E_to_t
from sts_toa.oracle import (GridSolverConfig, barrier_transmission_norm,
                            crank_nicolson_evolve, time_potential_solution,
                            transfer_matrix_T)
from sts_toa.packet import GaussianPacketSpec
from sts_toa.potential import PiecewisePotential

BARRIER_L = 10.0
DETECTOR_X = 50.0
SWEEP = (0.0, 1.125, 1.8, 4.5)


@pytest.fixture
def report(capsys):
    """Print one PASS/FAIL line per criterion past pytest's capture."""
    def _report(num: int, title: str, ok: bool, detail: str):
        verdict = "PASS" if ok else "FAIL"
        with capsys.disabled():
            print(f"[acceptance {num:2d}] {verdict}  {title}: {detail}",
                  file=sys.stderr, flush=True)
        assert ok, f"criterion {num} ({title}): {detail}"
    return _report


@pytest.fixture(scope="module")
def sweep(spec, tgrid, egrid):
    """Both closed-form models at every sweep height, plus V0 = 20."""
    out = {}
    for v0 in SWEEP + (20.0,):
        out["sts", v0] = barrier_toa(spec, v0, BARRIER_L, DETECTOR_X, tgrid,
                                     egrid=egrid)
        out["kij", v0] = transmitted_kijowski(spec, v0, BARRIER_L, DETECTOR_X,
                                              tgrid, egrid=egrid)
    out["free"] = free_kijowski(spec, DETECTOR_X, tgrid, egrid=egrid)
    return out


def test_criterion_01_zero_barrier_model_identity(sweep, report):
    d_models = np.max(np.abs(sweep["sts", 0.0].density - sweep["kij", 0.0].density))
    d_free = max(np.max(np.abs(sweep["sts", 0.0].density - sweep["free"].density)),
                 np.max(np.abs(sweep["kij", 0.0].density - sweep["free"].density)))
    worst = max(d_models, d_free)
    report(1, "V0 = 0 model identity", worst < 1e-8,
            f"max-abs density diff {worst:.3g} (tol 1e-8)")


def test_criterion_02_free_classical_peak(sweep, report):
    t_peak = sweep["free"].peak_time()
    report(2, "free peak at classical crossing", 48.0 <= t_peak <= 52.0,
            f"peak at t = {t_peak:.3f} (window [48, 52])")


def test_criterion_03_delay_and_advancement_ordering(sweep, report):
    margin = 0.5
    base = {name: sweep[name, 0.0].mean_time() for name in ("sts", "kij")}
    checks = []
    for name in ("sts", "kij"):
        for v0 in (1.125, 1.8):
            checks.append(sweep[name, v0].mean_time() - base[name] > margin)
        checks.append(base[name] - sweep[name, 4.5].mean_time() > margin)
    detail = ", ".join(
        f"{name}: " + "/".join(f"{sweep[name, v0].mean_time():.2f}"
                               for v0 in (0.0, 1.125, 1.8, 4.5))
        for name in ("sts", "kij"))
    report(3, "delay below, advancement above the barrier top", all(checks),
            f"means (V0 = 0/1.125/1.8/4.5) {detail}, margin > {margin}")


def test_criterion_04_models_converge_at_high_barrier(sweep, report):
    d_45 = model_distance(sweep["sts", 4.5], sweep["kij", 4.5])
    d_20 = model_distance(sweep["sts", 20.0], sweep["kij", 20.0])
    report(4, "model convergence at V0 = 20", d_20 < d_45 and d_20 < 0.05,
            f"L1(V0=20) = {d_20:.4f} < L1(V0=4.5) = {d_45:.4f}, tol 0.05")


def test_criterion_05_models_differ_at_moderate_barrier(sweep, report):
    d_zero = model_distance(sweep["sts", 0.0], sweep["kij", 0.0])
    dists = {v0: model_distance(sweep["sts", v0], sweep["kij", v0])
             for v0 in (1.125, 1.8, 4.5)}
    ok = all(d > 10.0 * d_zero for d in dists.values())
    report(5, "model divergence for V0 > 0", ok,
            f"L1(V0=0) = {d_zero:.3g}; " +
            ", ".join(f"L1({v0}) = {d:.3g}" for v0, d in dists.items()))


def test_criterion_06_transmission_oracle_equivalence(report):
    p = np.linspace(0.501, 4.001, 512)
    worst_t, worst_u = 0.0, 0.0
    for v0 in (1.125, 1.8, 4.5):
        T_closed = transmission_amplitude(p, v0, BARRIER_L)
        T_tm, R_tm = transfer_matrix_T(p, v0, BARRIER_L)
        worst_t = max(worst_t, float(np.max(np.abs(T_closed - T_tm))))
        worst_u = max(worst_u, float(np.max(np.abs(
            np.abs(T_tm) ** 2 + np.abs(R_tm) ** 2 - 1.0))))
    report(6, "closed-form T vs transfer matrix",
            worst_t < 1e-10 and worst_u < 1e-12,
            f"max |dT| = {worst_t:.3g} (tol 1e-10), "
            f"max unitarity defect {worst_u:.3g} (tol 1e-12)")


def test_criterion_07_arrival_equals_transmission_probability(spec, sweep, report):
    # slow over-barrier components at V0 = 1.8 need a longer measurement
    time_factors = {1.125: 4.0, 1.8: 6.0, 4.5: 4.0}
    rows = []
    ok = True
    for v0, tf in time_factors.items():
        model = sweep["kij", v0].arrival_probability
        solver = barrier_transmission_norm(spec, v0, BARRIER_L, time_factor=tf)
        rows.append(f"V0={v0}: |{model:.5f} - {solver:.5f}| = {abs(model - solver):.2e}")
        ok = ok and abs(model - solver) < 1e-3
    report(7, "arrival probability = grid-solver transmitted norm", ok,
            "; ".join(rows) + " (tol 1e-3)")


def test_criterion_08_slice_propagator_equivalence(spec, tgrid, egrid, report):
    worst = 0.0
    for v0 in SWEEP:
        closed = barrier_toa(spec, v0, BARRIER_L, DETECTOR_X, tgrid, egrid=egrid)
        sliced = barrier_toa(spec, v0, BARRIER_L, DETECTOR_X, tgrid, egrid=egrid,
                             n_slices=50)   # 50 slices over [0, 50]: edge-aligned
        worst = max(worst, float(np.max(np.abs(closed.density - sliced.density))))
    report(8, "aligned slice propagation matches closed form", worst < 1e-10,
            f"max-abs density diff {worst:.3g} across the sweep (tol 1e-10)")


def test_criterion_09_normalization_and_positivity(sweep, report):
    worst_int, worst_neg, worst_arr = 0.0, 0.0, 0.0
    for dist in sweep.values():
        worst_int = max(worst_int, abs(dist.integral() - 1.0))
        worst_neg = min(worst_neg, float(dist.density.min()))
        worst_arr = max(worst_arr, dist.arrival_probability - 1.0)
        worst_arr = max(worst_arr, -dist.arrival_probability)
    ok = worst_int < 1e-4 and worst_neg >= 0.0 and worst_arr <= 1e-6
    report(9, "normalization and positivity", ok,
            f"max |integral - 1| = {worst_int:.3g} (tol 1e-4), min density "
            f"{worst_neg:.3g}, arrival probabilities within [0, 1 + 1e-6]")


def test_criterion_10_fourier_layer_self_tests(report):
    egrid = EnergyGrid(1.0, 3.0, 4096)
    tgrid = TimeGrid(-200.0, 200.0, 4096)
    e = egrid.samples
    rng = np.random.default_rng(11)
    a = np.exp(-((e - 2.0) / 0.3) ** 2) * np.exp(1j * np.polyval(rng.normal(size=3), e))
    fft = fourier_E_to_t(a, egrid, tgrid, method="fft")
    direct = fourier_E_to_t(a, egrid, tgrid, method="direct")
    d_paths = float(np.max(np.abs(fft - direct)))

    k = 41
    shifted = fourier_E_to_t(a * np.exp(1j * e * k * tgrid.spacing), egrid, tgrid)
    d_shift = float(np.max(np.abs(shifted[k:] - fft[:-k])) / np.max(np.abs(fft)))

    lhs = np.trapezoid(np.abs(a) ** 2, dx=egrid.spacing)
    rhs = np.trapezoid(np.abs(fft) ** 2, dx=tgrid.spacing)
    d_parseval = abs(rhs - lhs) / lhs

    ok = d_paths < 1e-8 and d_shift < 1e-10 and d_parseval < 1e-6
    report(10, "Fourier-layer self-tests", ok,
            f"fft vs direct {d_paths:.3g} (tol 1e-8), shift covariance "
            f"{d_shift:.3g}, Plancherel {d_parseval:.3g} (tol 1e-6)")


def test_criterion_11_time_dependent_potential_symmetry(report):
    spec = GaussianPacketSpec(x_i=-20.0, p_i=0.5, delta=5.0)
    x = np.linspace(-40.0, 0.0, 201)
    free = time_potential_solution(spec, lambda t: 0.0, x, 10.0)
    const = time_potential_solution(spec, lambda t: 3.7, x, 10.0)
    d_const = float(np.max(np.abs(np.abs(const) ** 2 - np.abs(free) ** 2)))

    cfg = GridSolverConfig(x_min=-70.0, x_max=30.0, n_x=2001, dt=2e-3,
                           t_final=10.0)
    res = crank_nicolson_evolve(spec, PiecewisePotential.free(), cfg,
                                vt=lambda t: 0.05 * t)
    mask = (res.x > -40.0) & (res.x < 0.0)
    ref = time_potential_solution(spec, lambda t: 0.05 * t, res.x[mask], 10.0)
    d_cn = float(np.max(np.abs(res.psi_final[mask] - ref)))

    ok = d_const < 1e-12 and d_cn < 1e-5
    report(11, "uniform V(t) is a pure phase", ok,
            f"constant-V density shift {d_const:.3g} (tol 1e-12), "
            f"ramp vs grid solver {d_cn:.3g} (tol 1e-5)")
