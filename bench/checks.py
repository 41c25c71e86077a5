"""Correctness checks on the files one CLI run leaves behind.

Nothing here imports gevreyflow.  Every check reads report.json and the
series CSVs and compares them with values computed here: closed forms,
independent numpy recomputations from the configured initial data, refits,
or properties the method must have.  Each check returns a list of
problems; an empty list means the outputs are correct.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

# The stated tolerances the packaged configs run at.
CONSERVATION_TOL = 1e-6
ITERATION_TOL = 1e-3
RADIUS_TOL = 1e-2
RADIUS_MATCH_TOL = 0.03
SLOPE_BAND = (1.8, 2.2)
R2_MIN = 0.98
# agreement between a value the program wrote and the same value recomputed here
RECOMPUTE_RTOL = 1e-9


def read_csv(path: Path) -> dict:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {name: np.array([float(r[i]) for r in body]) for i, name in enumerate(header)}


def read_report(scenario_dir: Path) -> tuple[dict, list]:
    """The report document, and problems with its verdicts and hash."""
    doc = json.loads((scenario_dir / "report.json").read_text(encoding="utf-8"))
    problems = []
    payload = {k: doc[k] for k in ("scenario", "config", "fits", "verdicts", "series", "passed")}
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False).encode("utf-8")
    ).hexdigest()
    if digest != doc["content_hash"]:
        problems.append(f"content_hash {doc['content_hash']} does not match the payload ({digest})")
    failed = [name for name, v in doc["verdicts"].items() if not v["passed"]]
    if failed or not doc["passed"] or not doc["verdicts"]:
        problems.append(f"verdicts not all passed: {failed or 'none recorded'}")
    for name in doc["series"]:
        for sub in ("series", "plots"):
            path = scenario_dir / sub / f"{name}.{'csv' if sub == 'series' else 'svg'}"
            if not path.is_file():
                problems.append(f"missing output {path.name}")
    return doc, problems


def _close(a, b, rtol: float = RECOMPUTE_RTOL) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return bool(np.all(np.abs(a - b) <= rtol * np.maximum(np.abs(b), 1e-300)))


def _uniform_cadence(doc: dict, t: np.ndarray) -> bool:
    """Record times are 0, h*record_every, ..., t_end."""
    evo = doc["config"]["evolution"]
    n_rec = math.ceil(evo["t_end"] / (evo["dt"] * evo["record_every"]) - 1e-9)
    return _close(t, np.linspace(0.0, evo["t_end"], n_rec + 1), 1e-12)


def _tolerance(doc: dict, key: str, stated: float, problems: list) -> float:
    echoed = doc["config"]["tolerances"][key]
    if echoed != stated:
        problems.append(f"tolerance {key} = {echoed}, the workload runs at {stated}")
    return stated


# ---------------------------------------------------------------------------
# independent spectral helpers (same conventions as the package docs:
# F_k = (1/N) sum f_j exp(-i xi_k x_j), states band-limited to |k| <= N/4)
# ---------------------------------------------------------------------------


def _grid(config: dict) -> tuple[float, int, np.ndarray, np.ndarray]:
    L, N = float(config["grid"]["L"]), int(config["grid"]["N"])
    k = np.fft.fftfreq(N, d=1.0 / N)
    return L, N, np.arange(N) * (L / N), 2.0 * np.pi * k / L


def sech_spectrum(data: dict, config: dict) -> np.ndarray:
    """Band-limited spectrum of amplitude * sech((x - center) / width)."""
    L, N, x, _ = _grid(config)
    samples = data["amplitude"] / np.cosh(np.minimum(np.abs(x - data["center"]) / data["width"], 700.0))
    F = np.fft.fft(samples) / N
    F[np.abs(np.fft.fftfreq(N, d=1.0 / N)) > N // 4] = 0.0
    return F


def weighted_mass(F: np.ndarray, config: dict, sigma: float) -> float:
    """L * sum cosh(sigma xi)^2 |F_k|^2."""
    L, _, _, xi = _grid(config)
    return float(L * np.sum(np.cosh(sigma * xi) ** 2 * np.abs(F) ** 2))


def functional_a(F: np.ndarray, config: dict, sigma: float, mu: int) -> float:
    """The six-term weighted energy of U = cosh(sigma D) u, by 4x zero-padded
    quadrature (exact for band-limited sixth powers)."""
    L, N, _, xi = _grid(config)
    U = np.cosh(sigma * xi) * F
    M = 4 * N
    big = np.zeros(M, dtype=complex)
    big[: N // 2] = U[: N // 2]
    big[M - N // 2 + 1 :] = U[N // 2 + 1 :]
    fine_xi = 2.0 * np.pi * np.fft.fftfreq(M, d=1.0 / M) / L
    u0 = np.fft.ifft(big * M).real
    u1 = np.fft.ifft(1j * fine_xi * big * M).real
    quad = lambda f: L * float(np.mean(f))  # noqa: E731
    moment = lambda p: L * float(np.sum(xi ** (2 * p) * np.abs(U) ** 2))  # noqa: E731
    return (
        moment(0)
        + moment(1)
        + moment(2)
        - (mu / 6.0) * quad(u0**4)
        - (5.0 * mu / 3.0) * quad(u0**2 * u1**2)
        + quad(u0**6) / 18.0
    )


def ols(x, y) -> tuple[float, float]:
    """(slope, r2) of the least-squares line through (x, y)."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    mx, my = x.mean(), y.mean()
    sxx = float(np.sum((x - mx) ** 2))
    sxy = float(np.sum((x - mx) * (y - my)))
    syy = float(np.sum((y - my) ** 2))
    slope = sxy / sxx
    r2 = 1.0 if syy == 0.0 else 1.0 - float(np.sum((y - my - slope * (x - mx)) ** 2)) / syy
    return slope, r2


# ---------------------------------------------------------------------------
# per-workload checks
# ---------------------------------------------------------------------------


def check_conservation(scenario_dir: Path) -> tuple[dict, list]:
    """Every recorded invariant equals the soliton's closed form
    (12k, -4k^3, 12k^5/5) to the conservation tolerance; the drift series
    is recomputed from the invariants."""
    doc, problems = read_report(scenario_dir)
    tol = _tolerance(doc, "conservation", CONSERVATION_TOL, problems)
    k = doc["config"]["data"]["k"]
    if doc["config"]["equation"]["mu"] != 1 or doc["config"]["data"]["kind"] != "soliton":
        problems.append("conserve workload must run the focusing flow from the exact soliton")
    inv = read_csv(scenario_dir / "series" / "invariants.csv")
    exact = {"inv0": 12.0 * k, "inv1": -4.0 * k**3, "inv2": 12.0 * k**5 / 5.0}
    for name, value in exact.items():
        err = float(np.max(np.abs(inv[name] - value))) / abs(value)
        if not err <= tol:
            problems.append(f"{name} departs from its closed form {value:g} by {err:.3g} > {tol:g}")
    if not _uniform_cadence(doc, inv["t"]):
        problems.append("record times are not the uniform cadence ending at t_end")
    drift = read_csv(scenario_dir / "series" / "drift.csv")
    for name in exact:
        if not _close(drift[f"drift_{name}"], np.abs(inv[name] - inv[name][0]) / abs(inv[name][0]), 1e-12):
            problems.append(f"drift_{name} differs from |{name}(t) - {name}(0)| / |{name}(0)|")
    return doc, problems


def check_coupled(scenario_dir: Path) -> tuple[dict, list]:
    """Window masses under their limit, decay norms under their envelope and
    window residuals under their bound, all recomputed from the CSVs; the
    limit, the envelope and the first mass and norm are recomputed from the
    initial data."""
    doc, problems = read_report(scenario_dir)
    tol = _tolerance(doc, "iteration", ITERATION_TOL, problems)
    cfg, derived = doc["config"], doc["fits"]["derived"]
    sigma, sigma0, T0 = derived["sigma"], cfg["run"]["sigma0"], derived["T0"]
    lam = min(cfg["damping"]["floor"], cfg["damping2"]["floor"])
    F1, F2 = sech_spectrum(cfg["data"], cfg), sech_spectrum(cfg["data2"], cfg)
    mass = lambda s: weighted_mass(F1, cfg, s) + weighted_mass(F2, cfg, s)  # noqa: E731

    windows = read_csv(scenario_dir / "series" / "mass_windows.csv")
    decay = read_csv(scenario_dir / "series" / "decay.csv")
    resid = read_csv(scenario_dir / "series" / "window_residuals.csv")
    k_max = cfg["run"]["k_max"]
    if len(windows["value"]) != k_max + 1 or len(resid["residual"]) != k_max:
        problems.append(f"expected {k_max + 1} window masses and {k_max} residuals")
        return doc, problems

    limit = mass(sigma0) * (1.0 + tol)
    if not _close(windows["limit"], limit):
        problems.append("window mass limit differs from M_sigma0(0) (1 + tol) computed from the data")
    if not _close(windows["value"][0], mass(sigma)):
        problems.append("first window mass differs from M_sigma(0) computed from the data")
    if np.any(windows["value"] > limit):
        problems.append(f"window mass over its limit at k = {int(np.argmax(windows['value'] > limit))}")

    L, _, _, xi = _grid(cfg)
    half = lambda F: math.sqrt(L * float(np.sum(np.cosh(sigma / 2.0 * xi) ** 2 * np.abs(F) ** 2)))  # noqa: E731
    if not _close(decay["norm"][0], max(half(F1), half(F2))):
        problems.append("decay norm at t = 0 differs from the one computed from the data")
    chat_env = math.sqrt(math.sqrt(mass(0.0)) * math.sqrt(mass(sigma0)))
    envelope = chat_env * np.exp(-lam * decay["t"] / 2.0)
    if not _close(decay["envelope"], envelope):
        problems.append("decay envelope differs from sqrt(|v0| |v0|_sigma0) exp(-lambda t / 2)")
    if np.any(decay["norm"] > envelope * (1.0 + tol)):
        problems.append("decay norm above its envelope")
    if not math.isclose(decay["t"][-1], k_max * T0, rel_tol=1e-9):
        problems.append("decay series does not end at k_max * T0")

    recomputed = windows["value"][1:] - math.exp(-2.0 * lam * T0) * windows["value"][:-1]
    if not np.all(np.abs(recomputed - resid["residual"]) <= RECOMPUTE_RTOL * windows["value"][:-1]):
        problems.append("window residuals differ from M_{k+1} - exp(-2 lambda T0) M_k")
    if np.any(resid["residual"] > resid["bound"] * (1.0 + tol)):
        problems.append("window residual above its bound")
    return doc, problems


def check_sigma_scaling(scenario_dir: Path, sigmas: tuple) -> tuple[dict, list]:
    """Refit of the log-log drift slope and r2, recomputed drifts, A_sigma(0)
    recomputed from the data and strictly increasing in sigma."""
    doc, problems = read_report(scenario_dir)
    cfg = doc["config"]
    _tolerance(doc, "slope_lo", SLOPE_BAND[0], problems)
    _tolerance(doc, "slope_hi", SLOPE_BAND[1], problems)
    _tolerance(doc, "r2_min", R2_MIN, problems)
    drift = read_csv(scenario_dir / "series" / "drift_vs_sigma.csv")
    a_sigma = read_csv(scenario_dir / "series" / "a_sigma.csv")
    if drift["sigma"].tolist() != list(sigmas):
        problems.append(f"sigma list {drift['sigma'].tolist()} is not the workload's {list(sigmas)}")
        return doc, problems
    if not _uniform_cadence(doc, a_sigma["t"]):
        problems.append("record times are not the uniform cadence ending at t_end")

    a0 = []
    for sigma, D in zip(drift["sigma"], drift["D"]):
        column = a_sigma[f"A_sigma_{sigma:g}"]
        a0.append(column[0])
        if not _close(D, np.max(column[1:] - column[0]), 1e-12):
            problems.append(f"D({sigma:g}) differs from max_t A_sigma(t) - A_sigma(0)")
    if not np.all(np.diff(a0) > 0):
        problems.append("A_sigma(0) does not increase strictly with sigma")
    F = sech_spectrum(cfg["data"], cfg)
    mu = cfg["equation"]["mu"]
    for sigma, value in zip(drift["sigma"], a0):
        if not _close(value, functional_a(F, cfg, sigma, mu)):
            problems.append(f"A_sigma(0) at sigma = {sigma:g} differs from the recomputed functional")

    kept = drift["included"] > 0
    slope, r2 = ols(np.log(drift["sigma"][kept]), np.log(drift["D"][kept]))
    fit = doc["fits"]["scaling"]
    if not (_close(slope, fit["slope"]) and _close(r2, fit["r2"])):
        problems.append(f"refit (slope {slope:.6g}, r2 {r2:.6g}) differs from the report's")
    if not SLOPE_BAND[0] <= slope <= SLOPE_BAND[1]:
        problems.append(f"drift slope {slope:.4g} outside {SLOPE_BAND}")
    if not r2 >= R2_MIN:
        problems.append(f"fit r2 {r2:.4g} below {R2_MIN}")
    return doc, problems


def check_radius(scenario_dir: Path) -> tuple[dict, list]:
    """Fitted radius at t = 0 within radius_match of pi * width / 2, and the
    calibrated envelope recomputed and respected at every later record."""
    doc, problems = read_report(scenario_dir)
    cfg = doc["config"]
    _tolerance(doc, "radius_match", RADIUS_MATCH_TOL, problems)
    tol = _tolerance(doc, "radius", RADIUS_TOL, problems)
    radius = read_csv(scenario_dir / "series" / "radius.csv")
    t, sigma_hat = radius["t"], radius["sigma_hat"]
    exact = math.pi * cfg["data"]["width"] / 2.0
    err = abs(sigma_hat[0] - exact) / exact
    if not err <= RADIUS_MATCH_TOL:
        problems.append(f"radius at t = 0 is {sigma_hat[0]:.6g}, {err:.3g} away from pi w / 2 = {exact:.6g}")
    c = sigma_hat[1] * math.sqrt(t[1])
    envelope = np.concatenate([[exact], np.minimum(exact, c / np.sqrt(t[1:]))])
    if not _close(radius["envelope"], envelope):
        problems.append("radius envelope differs from min(pi w / 2, c / sqrt(t))")
    if np.any(sigma_hat[2:] < envelope[2:] * (1.0 - tol)):
        problems.append("fitted radius falls below its envelope")
    return doc, problems
