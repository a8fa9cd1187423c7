"""Measurement model for the continuous-variable detectors.

Three detector variants built around mixing the signal with a Fock state
|n> on a balanced beamsplitter and reading two conjugate quadratures:

* CV-n: both quadrature outcomes kept, aggregated into one complex alpha;
  element (1/2pi) D(alpha)|n><n|D+(alpha).
* PRCV-n: local-oscillator phase randomized, outcome collapses to
  R = x1^2 + p2^2; the element is diagonal in the Fock basis.
* DPRCV-1: PRCV-1 with R split into a click region [0, t] and its
  complement; the click response per Fock level k is G(t, k).

The module also carries numeric verification helpers (phase averaging,
completeness residuals) for the closed forms above.
"""

import math

import numpy as np

from .errors import check_threshold
from .fock import displacement_element
from .special import dark_count_probability, detector_efficiency, g_function, laguerre


def prcv_povm_diag(ancilla_n, big_r, k):
    """Fock-diagonal element k of the phase-randomized detector at outcome R.

    Equals n! e^{-R} R^{k-n} (L_n^{k-n}(R))^2 / k!; evaluated in the
    symmetric form min! / max! e^{-R} R^{|k-n|} (L_min^{|k-n|}(R))^2 so that
    k < n costs no negative powers of R and R = 0 is exact. For the ancilla-1
    detector this is e^{-R} R^{k-1} (k - R)^2 / k!.
    Accepts scalar or ndarray R.
    """
    if ancilla_n < 0 or k < 0:
        raise ValueError("Fock indices must be non-negative")
    big_r = np.asarray(big_r, dtype=float)
    if not np.all(big_r >= 0):  # so a NaN R fails too
        raise ValueError("R must be non-negative")
    lo, hi = min(ancilla_n, k), max(ancilla_n, k)
    d = hi - lo
    ratio = math.factorial(lo) / math.factorial(hi)
    value = ratio * np.exp(-big_r) * big_r**d * laguerre(lo, d, big_r) ** 2
    return value if value.ndim else float(value)


def cvn_povm_element(ancilla_n, alpha, cutoff):
    """CV-n element (1/2pi) D(alpha)|n><n|D+(alpha), truncated at `cutoff`:
    a (cutoff + 1, cutoff + 1) complex array.

    Rank one by construction; entry (j, k) is
    (1/2pi) <j|D(alpha)|n> conj(<k|D(alpha)|n>). With this normalization the
    elements integrate to the identity over the outcome measure dR dtheta
    (R = |alpha|^2), which is the convention the radial elements inherit:
    integrating prcv_povm_diag over dR alone already gives 1 per level.
    """
    if cutoff < ancilla_n:
        raise ValueError(f"cutoff {cutoff} must cover the ancilla level {ancilla_n}")
    v = np.array([displacement_element(j, ancilla_n, alpha) for j in range(cutoff + 1)])
    return np.outer(v, v.conj()) / (2.0 * np.pi)


def dprcv1_povm(t, cutoff):
    """Click / no-click pair of the discretized ancilla-1 detector, as two
    (cutoff + 1, cutoff + 1) complex arrays.

    Both operators are Fock-diagonal: the click element carries G(t, k) and
    the no-click element 1 - G(t, k), so they sum to the identity exactly.
    """
    t = check_threshold(t)
    diag = np.array([g_function(t, k) for k in range(cutoff + 1)])
    return np.diag(diag).astype(complex), np.diag(1.0 - diag).astype(complex)


def detector_curves(t_grid):
    """Efficiency and dark-count curves on a threshold grid.

    Returns an (n, 3) array of rows (t, eta(t), p_dark(t)) where
    eta(t) = 1 - e^{-t}(1 + t^2) and p_dark(t) = 1 - e^{-t}(1 + t).
    The two curves cross at t = 1.
    """
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1:
        raise ValueError("t_grid must be one-dimensional")
    if np.any(t < 0):
        raise ValueError("thresholds must be non-negative")
    return np.column_stack([t, detector_efficiency(t), dark_count_probability(t)])


def prcv_completeness_residual(ancilla_n, cutoff, r_max):
    """Per-level defect of integrating the phase-randomized element over [0, r_max].

    residual[k] = |1 - int_0^{r_max} prcv_povm_diag(n, R, k) dR| by adaptive
    quadrature; decreasing in r_max with an e^{-r_max} poly(r_max) tail.
    Raises if the quadrature cannot certify the requested accuracy.
    """
    from scipy import integrate

    if not r_max > 0:
        raise ValueError(f"r_max must be positive, got {r_max}")
    residuals = np.empty(cutoff + 1)
    for k in range(cutoff + 1):
        value, abserr = integrate.quad(
            lambda big_r: prcv_povm_diag(ancilla_n, big_r, k),
            0.0,
            r_max,
            epsabs=1e-12,
            epsrel=1e-12,
            limit=200,
        )
        if abserr > 1e-9:
            raise RuntimeError(
                f"quadrature did not converge for level {k}: achieved tolerance {abserr:.3e}"
            )
        residuals[k] = abs(1.0 - value)
    return residuals


def prcv_phase_average(ancilla_n, big_r, cutoff, n_theta=2048):
    """Grid average over the oscillator phase of the CV-n element at radius sqrt(R).

    Averages 2pi * cvn_povm_element(n, sqrt(R) e^{i theta}, cutoff) over a
    uniform theta grid; returns a (cutoff + 1, cutoff + 1) complex array. The
    result should be Fock-diagonal with diagonal prcv_povm_diag(n, R, k); both
    facts are what the callers verify.
    """
    if cutoff < ancilla_n:
        raise ValueError(f"cutoff {cutoff} must cover the ancilla level {ancilla_n}")
    alphas = math.sqrt(big_r) * np.exp(2j * np.pi * np.arange(n_theta) / n_theta)
    v = np.array([displacement_element(j, ancilla_n, alphas) for j in range(cutoff + 1)])
    return v @ v.conj().T / n_theta
