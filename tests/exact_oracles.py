"""An exact reference for the lattice scheme that does not run the scheme.

With constant coefficients and data that are trigonometric polynomials in x,
the problem the scheme converges to as h -> 0 at a fixed dt has a closed
form: the continuum equation under the same drift-implicit Euler-Maruyama
steps and the same Wiener increments.  In 1-D with one noise index, each
Fourier mode k follows one scalar recurrence,

    (1 + dt (a k^2 - i b k - c)) u_{n+1}
        = u_n + dt f(t_{n+1}) + ((i sigma k + nu) u_n + g(t_n)) dW_n,

where f and g are the data's coefficients of mode k (Kloeden and Platen,
Numerical Solution of Stochastic Differential Equations, 1992, for the
left-point noise term).  On a cardinal element (hat1d) the lattice value at a
site is compared with the mode sum there.
"""

import numpy as np


def terminal_modes(ks, u0, dt, increments, a=0.0, b=0.0, c=0.0, sigma=0.0, nu=0.0,
                   f=None, g=None):
    """The coefficients of the modes ks, (samples, modes), after the steps
    of a (samples, steps) block of increments from the initial coefficients
    u0, one per mode.  f(t) and g(t), when given, are the data's coefficients
    of the modes ks at time t."""
    ks = np.asarray(ks, dtype=float)
    implicit = 1.0 + dt * (a * ks**2 - 1j * b * ks - c)
    explicit = 1j * sigma * ks + nu
    u = np.tile(np.asarray(u0, dtype=complex), (len(increments), 1))
    for n, dw in enumerate(np.asarray(increments, dtype=float).T):
        noise = explicit * u if g is None else explicit * u + g(n * dt)
        rhs = u + noise * dw[:, None]
        if f is not None:
            rhs += dt * f((n + 1) * dt)
        u = rhs / implicit
    return u


def on_sites(ks, modes, x):
    """The real field sum_k modes[:, k] exp(i k x) at the points x: (samples, len(x))."""
    return np.real(modes @ np.exp(1j * np.outer(ks, x)))
