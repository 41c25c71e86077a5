"""integrate against a full-spectrum RK4 oracle built on complex FFTs.

The oracle is the textbook form of the integrating-factor RK4 scheme: full
FFT-ordered spectra, complex fft/ifft for every product, the 1/2-rule mask
|k| <= N/4 applied to the full spectrum, and no shared code with the
half-spectrum integrator beyond the grid and the damping samples (the
initial half spectra are mirrored into full ones by oracles.full_spectrum).
The two differ only in floating-point order, so they must agree to
round-off over a few dozen steps.
"""

import numpy as np
import pytest
from oracles import full_k, full_spectrum

from gevreyflow.dynamics import (
    Equation,
    EvolutionSpec,
    RaisedCosineDamping,
    integrate,
    soliton,
)
from gevreyflow.spectral import Grid, analyze, dealias

STEPS = 40


def oracle_rk4(grid, orders, alphas, mu, dampings, spectra, h, steps):
    """Integrate with full complex spectra; returns the final samples, one
    row per component.  orders/alphas/dampings hold one entry per component;
    a component's cubic term is mu (w1 w2^2)_x / mu (w1^2 w2)_x when there
    are two, mu v^2 v_x when there is one."""
    N = grid.N
    k = full_k(N)
    xi = (2.0 * np.pi / grid.L) * k
    keep = np.abs(k) <= N // 4
    sym = np.array([1j * al * xi**m for m, al in zip(orders, alphas)])
    sym[:, N // 2] = 0.0
    a = np.array([d.values(grid) if d is not None else np.zeros(N) for d in dampings])
    ik = 1j * xi

    def forward(w):
        return np.where(keep, np.fft.fft(w) / N, 0.0)

    def inverse(F):
        return np.fft.ifft(F * N).real

    def nonlinear(V):
        v = np.array([inverse(F) for F in V])
        if len(V) == 1:
            vx = inverse(ik * V[0])
            return np.array([forward(-mu * v[0] ** 2 * vx - a[0] * v[0])])
        p1, p2 = v[0] * v[1] ** 2, v[0] ** 2 * v[1]
        return np.array([
            forward(-a[0] * v[0]) - mu * ik * forward(p1),
            forward(-a[1] * v[1]) - mu * ik * forward(p2),
        ])

    E = np.exp(sym * (h / 2.0))
    V = np.array(spectra, dtype=complex)
    for _ in range(steps):
        k1 = nonlinear(V)
        k2 = nonlinear(E * (V + (h / 2.0) * k1))
        k3 = nonlinear(E * V + (h / 2.0) * k2)
        k4 = nonlinear(E * E * V + h * (E * k3))
        V = E * E * V + (h / 6.0) * (E * E * k1 + 2.0 * E * k2 + 2.0 * E * k3 + k4)
    return np.array([inverse(F) for F in V])


def run_both(eq, fields, dt):
    spec = EvolutionSpec(equation=eq, dt=dt, t_end=STEPS * dt, record_every=STEPS)
    traj = integrate(spec, fields if len(fields) == 2 else fields[0])
    first, final = (traj.states[0], traj.final) if len(fields) == 2 else ((traj.states[0],), (traj.final,))
    start = np.array([f.samples for f in first])
    got = np.array([f.samples for f in final])
    grid = fields[0].grid
    C = len(eq.alphas)
    args = ((eq.m,) * C, eq.alphas, eq.mu, eq.dampings or (None,) * C)
    spectra = [full_spectrum(dealias(f).spectrum, grid.N) for f in fields]
    want = oracle_rk4(grid, *args, spectra, traj.plan.h, STEPS)
    return start, got, want


def sech_field(grid, amplitude, center):
    return analyze(amplitude / np.cosh(grid.x - center), grid)


@pytest.mark.parametrize(
    "case",
    ["mkdv-soliton", "damped-m5", "coupled"],
)
def test_integrate_matches_full_spectrum_oracle(case):
    g = Grid(64.0, 256)
    a = RaisedCosineDamping(floor=1.0, amplitude=0.5, length=64.0)
    if case == "mkdv-soliton":
        u0, _ = soliton(1.0, 32.0, g)
        start, got, want = run_both(Equation(mu=1), (u0,), 2e-4)
    elif case == "damped-m5":
        start, got, want = run_both(Equation(mu=-1, m=5, dampings=(a,)), (sech_field(g, 0.7, 32.0),), 2e-4)
    else:
        eq = Equation(mu=-1, alphas=(1.0, 0.5), dampings=(a, RaisedCosineDamping(0.5, 0.0, g.L)))
        start, got, want = run_both(eq, (sech_field(g, 0.7, 30.0), sech_field(g, 0.5, 34.0)), 2e-4)
    scale = np.abs(want).max()
    # the state moved far past round-off, so the agreement is not vacuous
    assert np.abs(got - start).max() > 1e-3 * scale
    assert np.abs(got - want).max() <= 1e-13 * scale
