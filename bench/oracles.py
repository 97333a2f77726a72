"""Independent reference values for checking divkit's outputs.

Nothing here imports divkit.  Brackets come from closed forms (Gaussians) or
plain numpy sums (discrete masses); the families are written out from their
defining formulas; fits are checked against numpy moments (gamma = 0) or for
stationarity of an objective computed here (gamma > 0).

A spec is a dict with ``family``, ``gamma`` and, as the family needs them,
``eta`` (dpd | ps), ``phi`` (identity | log | power:z), ``xi``
(identity | power:p) and ``zeta``.
"""

from __future__ import annotations

import math

import numpy as np

LOG_2PI = math.log(2.0 * math.pi)


# ---------------------------------------------------------------------------
# brackets
# ---------------------------------------------------------------------------


def gaussian_brackets(g: tuple[float, float], f: tuple[float, float],
                      gamma: float) -> dict:
    """Brackets of two unit-mass Gaussians given as (mu, sigma)."""
    (mu_g, s_g), (mu_f, s_f) = g, f
    delta = mu_g - mu_f
    if gamma == 0.0:
        kl = math.log(s_f / s_g) + (s_g**2 + delta**2) / (2.0 * s_f**2) - 0.5
        g_log_g = -0.5 * (LOG_2PI + 1.0 + 2.0 * math.log(s_g))
        return _at_zero(kl, 1.0, 1.0, g_log_g)
    width = gamma * s_g**2 + s_f**2
    cross = ((2.0 * math.pi * s_f**2) ** (-gamma / 2.0) * s_f / math.sqrt(width)
             * math.exp(-gamma * delta**2 / (2.0 * width)))
    return {"X": cross, "Y": _gaussian_power(s_f, gamma), "Z": _gaussian_power(s_g, gamma)}


def _gaussian_power(sigma: float, gamma: float) -> float:
    return (2.0 * math.pi * sigma**2) ** (-gamma / 2.0) / math.sqrt(1.0 + gamma)


def discrete_brackets(g: np.ndarray, f: np.ndarray, gamma: float) -> dict:
    """Brackets of two mass vectors on a shared support, by numpy sums."""
    if gamma == 0.0:
        pos = g > 0.0
        return _at_zero(float(np.sum(g[pos] * np.log(g[pos] / f[pos]))),
                        float(g.sum()), float(f.sum()),
                        float(np.sum(g[pos] * np.log(g[pos]))))
    return {"X": float(np.sum(g * f**gamma)), "Y": float(np.sum(f ** (1.0 + gamma))),
            "Z": float(np.sum(g ** (1.0 + gamma)))}


def _at_zero(ll: float, mg: float, mf: float, g_log_g: float) -> dict:
    # at gamma = 0 the triple degenerates to the total masses (Mg, Mf, Mg)
    return {"X": mg, "Y": mf, "Z": mg, "L": ll, "Mg": mg, "Mf": mf, "g_log_g": g_log_g}


def holder_gap(b: dict, gamma: float) -> float:
    """Z^(1/(1+g)) Y^(g/(1+g)) - X, which Hoelder's inequality keeps >= 0."""
    return (b["Z"] ** (1.0 / (1.0 + gamma)) * b["Y"] ** (gamma / (1.0 + gamma))
            - b["X"])


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------


def _eta(name: str, z: float, gamma: float) -> float:
    if name == "dpd":
        return gamma - (1.0 + gamma) * z
    if name == "ps":
        return -(z ** (1.0 + gamma))
    raise ValueError(name)


def _phi(name: str, z: float) -> float:
    if name == "identity":
        return z
    if name == "log":
        return math.log(z)
    if name.startswith("power:"):
        zeta = float(name.split(":")[1])
        return (z**zeta - 1.0) / zeta
    raise ValueError(name)


def _phi_prime(name: str, z: float) -> float:
    if name == "identity":
        return 1.0
    if name == "log":
        return 1.0 / z
    if name.startswith("power:"):
        zeta = float(name.split(":")[1])
        return z ** (zeta - 1.0)
    raise ValueError(name)


def _xi(name: str, z: float) -> float:
    if name == "identity":
        return z
    if name.startswith("power:"):
        return z ** float(name.split(":")[1])
    raise ValueError(name)


def family_values(spec: dict, b: dict) -> tuple[float, float]:
    """(score, divergence) of the spec's family on the brackets b."""
    family, gamma = spec["family"], spec["gamma"]
    if family == "jhhb" and spec["zeta"] == 0.0:
        family, spec = "fdpd", dict(spec, phi="log")
    if gamma == 0.0:
        return _family_values_at_zero(family, spec, b)
    x, y, z = b["X"], b["Y"], b["Z"]
    if family == "holder":
        s = _eta(spec["eta"], x / y, gamma) * y
        return s, s + z
    if family == "fdpd":
        phi = spec["phi"]
        s = gamma * _phi(phi, y) - (1.0 + gamma) * _phi(phi, x)
        return s, _phi(phi, z) / gamma - (1.0 + gamma) * _phi(phi, x) / gamma + _phi(phi, y)
    if family == "jhhb":
        zeta = spec["zeta"]
        s = (gamma * y**zeta - (1.0 + gamma) * x**zeta + 1.0) / zeta
        return s, (z**zeta / gamma - (1.0 + gamma) * x**zeta / gamma + y**zeta) / zeta
    if family == "xi_holder":
        xi_x, xi_y = _xi(spec["xi"], x), _xi(spec["xi"], y)
        s = _eta(spec["eta"], xi_x / xi_y, gamma) * xi_y
        return s, s + _xi(spec["xi"], z)
    raise ValueError(family)


def _family_values_at_zero(family: str, spec: dict, b: dict) -> tuple[float, float]:
    ll, mg, mf = b["L"], b["Mg"], b["Mf"]
    g_log_f = b["g_log_g"] - ll
    if family == "holder":
        return -g_log_f + mf, ll - mg + mf
    if family == "fdpd":
        phi = spec["phi"]
        slope = _phi_prime(phi, mg)
        return (-slope * g_log_f + _phi(phi, mf),
                slope * ll - _phi(phi, mg) + _phi(phi, mf))
    raise ValueError(f"no gamma = 0 reference for {family}")


def close(actual: float, expected: float, rel: float, abs_: float = 0.0) -> bool:
    return abs(actual - expected) <= max(rel * abs(expected), abs_)


# ---------------------------------------------------------------------------
# Gaussian-model fits
# ---------------------------------------------------------------------------


def empirical_objective(x: np.ndarray, spec: dict):
    """The plug-in score of N(mu, e^u) on the samples x, as a function of (mu, u).

    X = mean f(x_i)^gamma is evaluated in log space; Y is the closed form.
    """
    gamma = spec["gamma"]
    family = spec["family"]

    def objective(mu: float, u: float) -> float:
        log_f = -0.5 * ((x - mu) * math.exp(-u)) ** 2 - u - 0.5 * LOG_2PI
        big_x = float(np.mean(np.exp(gamma * log_f)))
        big_y = math.exp(-gamma * (0.5 * LOG_2PI + u)) / math.sqrt(1.0 + gamma)
        if family == "fdpd" and spec["phi"] == "identity":
            return gamma * big_y - (1.0 + gamma) * big_x
        if family == "jhhb" and spec["zeta"] == 0.0:
            return gamma * math.log(big_y) - (1.0 + gamma) * math.log(big_x)
        if family == "xi_holder" and spec["eta"] == "dpd":
            return (gamma * _xi(spec["xi"], big_y)
                    - (1.0 + gamma) * _xi(spec["xi"], big_x))
        raise ValueError(f"no empirical objective for {spec}")

    return objective


def newton_step(objective, mu: float, u: float, h: float = 1e-4,
                h2: float = 1e-3) -> tuple[float, bool]:
    """Length of the Newton step from (mu, u) and whether the Hessian is
    positive definite there, by central differences.

    At a stationary minimum the step is ~0; its size is in the units of the
    parameters, so one tolerance serves every family and sample.
    """
    f0 = objective(mu, u)
    grad = np.array([(objective(mu + h, u) - objective(mu - h, u)) / (2 * h),
                     (objective(mu, u + h) - objective(mu, u - h)) / (2 * h)])
    h_mm = (objective(mu + h2, u) - 2 * f0 + objective(mu - h2, u)) / h2**2
    h_uu = (objective(mu, u + h2) - 2 * f0 + objective(mu, u - h2)) / h2**2
    h_mu = (objective(mu + h2, u + h2) - objective(mu + h2, u - h2)
            - objective(mu - h2, u + h2) + objective(mu - h2, u - h2)) / (4 * h2**2)
    hess = np.array([[h_mm, h_mu], [h_mu, h_uu]])
    positive = h_mm > 0.0 and h_mm * h_uu - h_mu**2 > 0.0
    step = np.linalg.solve(hess, grad) if positive else grad
    return float(np.max(np.abs(step))), bool(positive)


# Nelder-Mead stops at simplex size 1e-7 in (mu, log sigma); a returned point
# this far from stationarity is not a minimum of the stated objective.
STATIONARY_STEP = 1e-5
MLE_TOL = 1e-6


def check_fit(x: np.ndarray, spec: dict, mu_hat: float, sigma_hat: float) -> str | None:
    """None if (mu_hat, sigma_hat) is the spec's minimum-score fit on x."""
    if spec["gamma"] == 0.0:
        mean, std = float(np.mean(x)), float(np.std(x))
        if not (abs(mu_hat - mean) <= MLE_TOL * std and close(sigma_hat, std, MLE_TOL)):
            return (f"MLE fit ({mu_hat!r}, {sigma_hat!r}) differs from the sample "
                    f"mean and std ({mean!r}, {std!r})")
        return None
    step, positive = newton_step(empirical_objective(x, spec), mu_hat, math.log(sigma_hat))
    if not positive or step > STATIONARY_STEP:
        return (f"{spec} fit ({mu_hat!r}, {sigma_hat!r}) is not a stationary minimum: "
                f"Newton step {step:.3e}, positive Hessian {positive}")
    return None


def contaminated_sample(n: int, epsilon: float, outlier: float, seed_key) -> np.ndarray:
    """The sample `divkit sweep` draws for one epsilon: standard normal draws
    from numpy's default generator seeded with seed_key, then the outliers."""
    rng = np.random.default_rng(seed_key)
    n_out = int(round(epsilon * n))
    return np.concatenate([rng.standard_normal(n - n_out), np.full(n_out, float(outlier))])


# ---------------------------------------------------------------------------
# verify reports
# ---------------------------------------------------------------------------


def jhhb_representation_error(b: dict, zeta: float) -> float:
    """|-tau(-S_holder) - S_direct| at the bracket, with the jhhb eta generator."""
    gamma = b["gamma"]
    x, y = b["X"], b["Y"]
    z = x / y
    if zeta == 0.0:
        s_holder = -(z ** (1.0 + gamma)) * y
        via = -math.log(-s_holder)
        direct = gamma * math.log(y) - (1.0 + gamma) * math.log(x)
    else:
        w = (1.0 + gamma) * z**zeta - gamma
        s_holder = -math.copysign(abs(w) ** (1.0 / zeta), w) * y
        t = -s_holder
        via = -(math.copysign(abs(t) ** zeta, t) - 1.0) / zeta
        direct = (gamma * y**zeta - (1.0 + gamma) * x**zeta + 1.0) / zeta
    return abs(via - direct)


def lower_bound_gap(b: dict, phi: str) -> float:
    """gamma phi(Y) - (1+gamma) phi(X) + phi(X)^(1+gamma) / phi(Y)^gamma."""
    gamma = b["gamma"]
    px, py = _phi(phi, b["X"]), _phi(phi, b["Y"])
    return gamma * py - (1.0 + gamma) * px + px ** (1.0 + gamma) / py**gamma
