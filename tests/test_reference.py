"""The closed forms against a 40-digit solve of their first-order conditions.

At an interior optimum of  e0(s, rho) - rho * R,  with

    e0(s, rho) = -ln sum_r w_r B_r(s)^rho,   B_r(s) = sum_xhat q(xhat) e^{-s gap[r, xhat]},

both partial derivatives vanish.  With pi_r proportional to w_r B_r(s)^rho and
g_r(s) the mean of gap[r, .] under the tilted codebook law of row r, they
read

    sum_r pi_r g_r(s) = 0        (d/ds; the factor rho is dropped),
    -sum_r pi_r ln B_r(s) = R    (d/drho).

mpmath solves them by Newton's method at 40 digits, started from the
engine's optimizers.  The engine's values must match the reference to
1e-12 and the codebook search's screened values to a hundredth of the
screening margin.  The engine's optimizers are only as good as golden
section makes them at a flat maximum (about the square root of the
tolerance), so their errors are logged, not asserted.
"""

import logging

import mpmath as mp
import numpy as np
import pytest

from conftest import fig_path
from rcexp import exponents, optimize
from rcexp.modelspec import load_model
from rcexp.probability import Channel, Distribution

log = logging.getLogger(__name__)

DIGITS = 40


def _parts(q: Distribution, p: Channel, level: float):
    """Row weights and gaps of the channel exponent, as mpf, on q's support."""
    sup = np.flatnonzero(q.probs > 0.0)
    qm = [mp.mpf(float(q.probs[x])) for x in sup]
    pm = [[mp.mpf(float(v)) for v in p.probs[x]] for x in sup]
    lvl = mp.mpf(level)
    w, gap = [], []
    for i in range(len(sup)):
        for y in range(p.output_size):
            w.append(qm[i] * pm[i][y])
            gap.append([mp.log(pm[i][y]) - mp.log(pm[j][y]) - lvl for j in range(len(sup))])
    return w, gap, qm


def _moments(w, gap, qm, s, rho):
    """e0(s, rho) and the two first-order conditions at (s, rho)."""
    terms, means, logs = [], [], []
    for wr, row in zip(w, gap):
        tilted = [qx * mp.exp(-s * g) for qx, g in zip(qm, row)]
        b = mp.fsum(tilted)
        logs.append(mp.log(b))
        means.append(mp.fsum(t * g for t, g in zip(tilted, row)) / b)
        terms.append(wr * mp.exp(rho * logs[-1]))
    z = mp.fsum(terms)
    pi = [t / z for t in terms]
    return (-mp.log(z), mp.fsum(a * g for a, g in zip(pi, means)),
            -mp.fsum(a * b for a, b in zip(pi, logs)))


def _reference(q, p, rate, level, s0, rho0):
    """(value, s*, rho*) from the first-order conditions, at DIGITS digits."""
    with mp.workdps(DIGITS):
        w, gap, qm = _parts(q, p, level)
        r = mp.mpf(rate)

        def conditions(s, rho):
            _, ds, drho = _moments(w, gap, qm, s, rho)
            return [ds, drho - r]

        s, rho = mp.findroot(conditions, (mp.mpf(s0), mp.mpf(rho0)))
        value = _moments(w, gap, qm, s, rho)[0] - rho * r
        return value, s, rho


def _channel(seed: int, k: int) -> Channel:
    rng = np.random.default_rng(seed)
    raw = rng.random((k, k)) + 0.05 + 1.5 * np.eye(k)
    return Channel(raw / raw.sum(axis=1, keepdims=True))


def _model(name: str):
    if name == "fig1":
        spec = load_model(fig_path("fig1.json"))
        return spec.codebook, spec.channel
    k, seed = {"2x2": (2, 11), "3x3": (3, 29)}[name]
    p = _channel(seed, k)
    return Distribution(np.full(k, 1.0 / k) + np.linspace(-0.1, 0.1, k) / k), p


_EXACT = {"error-extended": exponents.margin_error_exponent,
          "e-bound": exponents.forney_bound_exponent}

# (model, kind, R, D): the sup family (error-extended) and the bounded-tilt
# family (e-bound) at optima inside their domains, with levels of both signs.
_CASES = [
    ("fig1", "error-extended", 0.05, 0.0),
    ("fig1", "error-extended", 0.08, -0.1),
    ("fig1", "e-bound", 0.04, 0.05),
    ("fig1", "e-bound", 0.1, -0.05),
    ("2x2", "error-extended", 0.1, 0.0),
    ("2x2", "error-extended", 0.15, -0.1),
    ("2x2", "e-bound", 0.04, 0.05),
    ("2x2", "e-bound", 0.08, -0.05),
    ("3x3", "error-extended", 0.2, 0.0),
    ("3x3", "error-extended", 0.25, -0.1),
    ("3x3", "e-bound", 0.15, 0.1),
    ("3x3", "e-bound", 0.2, -0.05),
]


@pytest.mark.parametrize("model, kind, rate, level", _CASES)
def test_engine_and_screen_match_the_40_digit_reference(model, kind, rate, level):
    q, p = _model(model)
    res = _EXACT[kind](q, p, rate, level)
    value, s_ref, rho_ref = _reference(q, p, rate, level, res.optimizer_s, res.optimizer_rho)
    # The case must have the interior optimum the conditions describe.
    assert 0 < rho_ref < 1 and s_ref > 0
    if kind == "e-bound":
        assert s_ref < 1
    ref = float(value)
    assert ref > 0
    screen = exponents._screen_value(kind, q, p, rate, level)
    log.info("%s %s R=%g D=%g: value %.1e, screen %.1e, rho* %.1e, s* %.1e (relative)",
             model, kind, rate, level, abs(res.value - ref) / ref, abs(screen - ref) / ref,
             float(abs(res.optimizer_rho - rho_ref) / rho_ref),
             float(abs(res.optimizer_s - s_ref) / s_ref))
    assert abs(res.value - ref) <= 1e-12 * max(1.0, abs(ref))
    assert abs(screen - ref) <= optimize.SCREEN_MARGIN / 100 * max(1.0, abs(ref))
