"""The closed forms against a 40-digit solve of their first-order conditions.

At an interior optimum of  e0(s, rho) - rho * R,  with

    e0(s, rho) = -ln sum_r w_r B_r(s)^rho,   B_r(s) = sum_xhat q(xhat) e^{-s gap[r, xhat]},

both partial derivatives vanish.  With pi_r proportional to w_r B_r(s)^rho and
g_r(s) the mean of gap[r, .] under the tilted codebook law of row r, they
read

    sum_r pi_r g_r(s) = 0        (d/ds; the factor rho is dropped),
    -sum_r pi_r ln B_r(s) = R    (d/drho).

An optimum may sit on a bound of its box instead: rho = 0 where the value
is 0, rho at the slope cap, or s = 1 for the bounded-tilt family.  The
variable held at its bound then drops out: the reference solves the
conditions of the free variables and checks that the held one's derivative
points out of the box.  (At rho = 0 the tilt condition, with pi = w, is
that of the slope's right derivative at 0, which must not exceed R.)

mpmath solves the conditions by Newton's method at 40 digits, started from
the engine's optimizers.  The engine's values and the codebook search's
screened values must match the reference to 1e-12, relative to
max(1, |value|); the screened values also to a hundredth of the screening
margin, the bound the search relies on.  The engine's optimizers are only
as good as golden section makes them at a flat maximum (about the square
root of the tolerance), so their errors are logged, not asserted.

The screen's derivative kernel, ``exponents._e0_derivs``, is checked against
mpmath's numerical derivatives of e0 at 40 digits.
"""

import logging
import math

import mpmath as mp
import numpy as np
import pytest

from conftest import fig_path
from rcexp import exponents, optimize
from rcexp.modelspec import load_model
from rcexp.probability import Channel, Distribution
from rcexp.rates import finiteness_boundary

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


def _reference(q, p, rate, level, s0, rho0, s_held=None, rho_held=None):
    """(value, s*, rho*, d/ds, d/drho - R) at DIGITS digits.

    Solves the first-order conditions of the variables not held from
    (s0, rho0); the last two entries are the conditions at the solution.
    """
    with mp.workdps(DIGITS):
        w, gap, qm = _parts(q, p, level)
        r = mp.mpf(rate)

        def conditions(s, rho):
            _, ds, drho = _moments(w, gap, qm, s, rho)
            return [ds, drho - r]

        if s_held is None and rho_held is None:
            s, rho = mp.findroot(conditions, (mp.mpf(s0), mp.mpf(rho0)))
        elif s_held is None:
            rho = mp.mpf(rho_held)
            s = mp.findroot(lambda s: conditions(s, rho)[0], mp.mpf(s0))
        elif rho_held is None:
            s = mp.mpf(s_held)
            rho = mp.findroot(lambda rho: conditions(s, rho)[1], mp.mpf(rho0))
        else:
            s, rho = mp.mpf(s_held), mp.mpf(rho_held)
        e0, ds, drho = _moments(w, gap, qm, s, rho)
        return e0 - rho * r, s, rho, ds, drho - r


def _component(q, p, rate, level, found, rho_hi, s_hi):
    """The reference of the maximum over rho in [0, rho_hi] and s in [0, s_hi]
    whose engine solution is ``found`` = (value, rho*, s*).

    The slope is held at 0 where the value is 0 and at ``rho_hi`` where the
    engine's rho* is; the tilt at ``s_hi`` where the engine's s* is.  Returns
    the reference value and rho*, and the held bounds as text ("" when the
    optimum is interior).
    """
    value, rho, s = found
    held = {}
    if value == 0.0:
        held["rho"], s = 0.0, 0.5  # the engine reports s* = 0 there
    elif rho == rho_hi:
        held["rho"] = rho_hi
    if s == s_hi:
        held["s"] = s_hi
    ref, s_ref, rho_ref, ds, drho = _reference(q, p, rate, level, s, rho, held.get("s"),
                                               held.get("rho"))
    if "rho" not in held:
        assert 0 < rho_ref < rho_hi and ref > 0
    elif held["rho"] == 0.0:
        # The value at rho = 0 is 0; -ln sum w is 0 up to the rounding of w.
        assert drho <= 0
        ref = 0
    else:
        assert drho >= 0
    if "s" in held:
        assert ds >= 0
    else:
        assert 0 < s_ref < s_hi
        if value != 0.0:
            log.info("  s* %.1e", float(abs(s - s_ref) / s_ref))
    if "rho" not in held:
        log.info("  rho* %.1e", float(abs(rho - rho_ref) / rho_ref))
    return float(ref), float(rho_ref), " ".join(f"{k}={v:g}" for k, v in sorted(held.items()))


def _check_values(engine, screen, ref):
    # Relative errors, absolute where the value is 0.
    log.info("  value %.1e, screen %.1e", abs(engine - ref) / (ref or 1.0),
             abs(screen - ref) / (ref or 1.0))
    bound = max(1.0, abs(ref))
    assert abs(engine - ref) <= 1e-12 * bound
    assert abs(screen - ref) <= 1e-12 * bound
    assert abs(screen - ref) <= optimize.SCREEN_MARGIN / 100 * bound


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
# The box (rho_hi, s_hi) of each kind's maximum.
_BOX = {"error-extended": (1.0, math.inf), "e-bound": (1.0, 1.0)}

# (model, kind, R, D, held): the sup family (error-extended) and the
# bounded-tilt family (e-bound), with levels of both signs, at optima inside
# their boxes ("") and on the bounds ``held`` names.  At rho = 1 and s = 1
# (the last e-bound case) the value is -D - R.
_CASES = [
    ("fig1", "error-extended", 0.05, 0.0, ""),
    ("fig1", "error-extended", 0.08, -0.1, ""),
    ("fig1", "e-bound", 0.04, 0.05, ""),
    ("fig1", "e-bound", 0.1, -0.05, ""),
    ("2x2", "error-extended", 0.1, 0.0, ""),
    ("2x2", "error-extended", 0.15, -0.1, ""),
    ("2x2", "e-bound", 0.04, 0.05, ""),
    ("2x2", "e-bound", 0.08, -0.05, ""),
    ("3x3", "error-extended", 0.2, 0.0, ""),
    ("3x3", "error-extended", 0.25, -0.1, ""),
    ("3x3", "e-bound", 0.15, 0.1, ""),
    ("3x3", "e-bound", 0.2, -0.05, ""),
    ("fig1", "error-extended", 0.02, 0.1, "rho=1"),
    ("2x2", "error-extended", 0.05, -0.2, "rho=1"),
    ("3x3", "e-bound", 0.02, 0.3, "rho=1"),
    ("fig1", "e-bound", 0.3, -0.2, "s=1"),
    ("2x2", "e-bound", 0.3, -0.2, "s=1"),
    ("3x3", "e-bound", 0.3, -0.05, "s=1"),
    ("fig1", "e-bound", 0.05, -0.6, "rho=1 s=1"),
    ("fig1", "error-extended", 0.05, 0.3, "rho=0"),
    ("2x2", "e-bound", 0.05, 0.1, "rho=0"),
    ("3x3", "error-extended", 0.3, 0.0, "rho=0"),
]


# Interior cases keep the ids they had before the ``held`` column existed.
@pytest.mark.parametrize("model, kind, rate, level, held", _CASES,
                         ids=["-".join(map(str, case if case[4] else case[:4]))
                              for case in _CASES])
def test_engine_and_screen_match_the_40_digit_reference(model, kind, rate, level, held):
    q, p = _model(model)
    res = _EXACT[kind](q, p, rate, level)
    log.info("%s %s R=%g D=%g (%s):", model, kind, rate, level, held or "interior")
    ref, _, got = _component(q, p, rate, level,
                             (res.value, res.optimizer_rho, res.optimizer_s), *_BOX[kind])
    assert got == held
    _check_values(res.value, exponents._screen_value(kind, q, p, rate, level), ref)


# (model, R, D): tradeoff exponents whose first component (rho in
# [0, RHO_CAP], s in [0, 1]) peaks at a slope above 1.  In the first three
# the margin component is the smaller one; in the last the first component
# is, with its tilt at 1.
_TRADEOFF_CASES = [
    ("fig1", 0.05, -0.1),
    ("2x2", 0.02, -0.2),
    ("3x3", 0.01, -0.1),
    ("2x2", 0.12, -0.26),
]


@pytest.mark.parametrize("model, rate, level", _TRADEOFF_CASES)
def test_tradeoff_exponent_matches_the_40_digit_reference(model, rate, level):
    q, p = _model(model)
    lnw, gap, lnq = exponents._channel_parts(q, p, level)
    first = exponents._first_component(lnw, gap, lnq, rate, finiteness_boundary(q, p, level),
                                       exponents.RHO_CAP)
    second = exponents.margin_error_exponent(q, p, rate, level)
    log.info("%s forney-tradeoff R=%g D=%g:", model, rate, level)
    ref1, rho1, _ = _component(q, p, rate, level, first[:3], exponents.RHO_CAP, 1.0)
    ref2, _, _ = _component(q, p, rate, level,
                            (second.value, second.optimizer_rho, second.optimizer_s),
                            *_BOX["error-extended"])
    assert 1 < rho1 < exponents.RHO_CAP
    res = exponents.forney_exponent(q, p, rate, level)
    for got, ref in zip(res.component_values, (ref1, ref2)):
        assert abs(got - ref) <= 1e-12 * max(1.0, ref)
    _check_values(res.value, exponents._screen_value("forney-tradeoff", q, p, rate, level),
                  min(ref1, ref2))


@pytest.mark.parametrize("seed", range(16))
def test_e0_derivs_match_40_digit_derivatives(seed):
    # Random 2x2 to 3x3 channels and levels, a codebook letter of zero mass in
    # every fourth case, tilts from 0 to 1e3 and slopes up to 64.
    rng = np.random.default_rng([5, seed])
    k, outputs = (int(v) for v in rng.integers(2, 4, size=2))
    raw = rng.random((k, outputs)) + 0.05
    p = Channel(raw / raw.sum(axis=1, keepdims=True))
    probs = rng.random(k) + 0.05
    if seed % 4 == 1:
        probs[seed % k] = 0.0
    q = Distribution(probs / probs.sum())
    level = float(rng.uniform(-0.3, 0.3))
    s = (0.0, 1e3, float(10 ** rng.uniform(-3, 3)))[seed % 3]
    rho = (64.0, float(64 * 10 ** rng.uniform(-4, 0)))[seed % 2]
    got = exponents._e0_derivs(*exponents._channel_parts(q, p, level), rho, s)
    with mp.workdps(DIGITS):
        w, gap, qm = _parts(q, p, level)

        def e0(s, rho):
            return -mp.log(mp.fsum(
                wr * mp.fsum(qx * mp.exp(-s * g) for qx, g in zip(qm, row)) ** rho
                for wr, row in zip(w, gap)))

        x = (mp.mpf(s), mp.mpf(rho))
        d_s, d_ss, d_rho, d_rr, d_sr = (mp.diff(e0, x, n)
                                         for n in ((1, 0), (2, 0), (0, 1), (0, 2), (1, 1)))
        # The kernel returns the two tilt derivatives divided by rho.
        want = (e0(*x), d_s / x[1], d_ss / x[1], d_rho, d_rr, d_sr)
    for g, ref in zip(got, want):
        assert abs(g - ref) <= 1e-10 * max(1, abs(ref))
