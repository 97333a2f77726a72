import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divkit import (
    DivergenceSpec,
    DomainError,
    EvaluationError,
    RepresentationError,
    bdpd_phi,
    bhd_eta,
    custom_eta,
    custom_phi,
    custom_xi,
    dpd_eta,
    eta_from_table,
    exp_minus_one_phi,
    identity_phi,
    identity_xi,
    jhhb_eta,
    log_phi,
    phi_from_table,
    power_phi,
    power_xi,
    ps_eta,
    validate_eta,
    validate_phi,
    validate_psi,
    validate_xi,
)
from divkit.generators import PRESETS, certificate_grid, log_certificate_grid, parse_generator

GAMMA_GRID = [0.1, 0.5, 1.0, 2.0]


@pytest.mark.parametrize("gamma", GAMMA_GRID)
def test_builtin_etas_certify(gamma):
    for eta in (dpd_eta(gamma), ps_eta(gamma), bhd_eta(1.5, gamma), bhd_eta(3.0, gamma),
                jhhb_eta(0.25, gamma), jhhb_eta(2.0, gamma)):
        cert = validate_eta(eta)
        assert cert.valid, (eta.label(), cert)


def test_dpd_is_valid_example():
    assert validate_eta(dpd_eta(1.0)).valid


def test_ps_sits_exactly_on_the_lower_bound():
    eta = ps_eta(0.7)
    z = certificate_grid()
    gap = eta(z) + z**1.7
    assert np.all(gap == 0.0)
    assert validate_eta(eta).valid


def test_normalization_counterexample():
    # eta(z) = -2 z**(1+gamma) has eta(1) = -2
    bad = custom_eta(lambda z: -2.0 * np.asarray(z, float) ** 2.0, gamma=1.0)
    cert = validate_eta(bad)
    assert not cert.valid
    assert cert.failure == "normalization"
    assert cert.points == (1.0,)
    assert cert.value == pytest.approx(-1.0)


def test_lower_bound_counterexample():
    # eta(z) = 1 - 2 z**2 keeps eta(1) = -1 but dips below -z**2 past z = 1
    bad = custom_eta(lambda z: 1.0 - 2.0 * np.asarray(z, float) ** 2, gamma=1.0)
    cert = validate_eta(bad)
    assert not cert.valid
    assert cert.failure == "lower-bound"
    assert cert.points[0] > 1.0
    assert cert.value < 0.0


def test_non_finite_eta_is_an_evaluation_error():
    bad = custom_eta(lambda z: np.where(np.asarray(z, float) > 10.0, np.nan, -1.0), 1.0)
    with pytest.raises(EvaluationError, match="z="):
        validate_eta(bad)


@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
def test_jhhb_eta_zeta_one_is_the_dpd_generator(gamma):
    z = certificate_grid()
    assert np.max(np.abs(jhhb_eta(1.0, gamma)(z) - dpd_eta(gamma)(z))) <= 1e-12


def test_jhhb_eta_zeta_zero_is_the_lower_bound():
    z = certificate_grid()
    assert np.array_equal(jhhb_eta(0.0, 1.5)(z), ps_eta(1.5)(z))


@pytest.mark.parametrize("zeta", [0.25, 1.0, 3.0])
def test_jhhb_eta_normalization(zeta):
    assert jhhb_eta(zeta, 0.8)(1.0) == pytest.approx(-1.0, abs=1e-15)


@pytest.mark.parametrize("zeta,gamma", [(z, g) for z in (0.25, 0.5, 1.0, 2.0)
                                        for g in (0.5, 1.0, 2.0)])
def test_jhhb_eta_respects_the_lower_bound(zeta, gamma):
    assert validate_eta(jhhb_eta(zeta, gamma)).valid


def test_jhhb_eta_rejects_negative_zeta():
    with pytest.raises(DomainError):
        jhhb_eta(-0.5, 1.0)


@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
def test_bhd_bridges_dpd_and_ps(gamma):
    z = certificate_grid()
    assert np.max(np.abs(bhd_eta(1.0 + gamma, gamma)(z) - dpd_eta(gamma)(z))) <= 1e-12
    assert np.max(np.abs(bhd_eta(1.0, gamma)(z) - ps_eta(gamma)(z))) <= 1e-12


def test_bhd_rejects_kappa_below_one():
    with pytest.raises(DomainError):
        bhd_eta(0.5, 1.0)


@settings(max_examples=40, deadline=None)
@given(zeta=st.floats(0.1, 3.0), gamma=st.floats(0.1, 3.0))
def test_jhhb_eta_certificate_property(zeta, gamma):
    assert validate_eta(jhhb_eta(zeta, gamma)).valid


# ---------------------------------------------------------------------------
# psi certificates
# ---------------------------------------------------------------------------


def test_log_phi_lift_is_affine_and_valid():
    assert validate_phi(log_phi()).valid


def test_identity_phi_lift_is_exponential_and_valid():
    assert validate_phi(identity_phi()).valid


# above zeta ~ 2.2, (e^(zeta t) - 1)/zeta is -1/zeta to within half an ulp
# near t = log 1e-6, so neighbouring grid values of the lift are equal floats
@pytest.mark.parametrize("zeta", [0.5, 1.0, 2.0, 2.5, 3.0, 5.0, 300.0])
def test_power_phi_valid(zeta):
    assert validate_phi(power_phi(zeta)).valid


def test_bdpd_phi_valid():
    assert validate_phi(bdpd_phi(1.0, 1.0)).valid
    assert validate_phi(bdpd_phi(0.0, 2.0)).valid


def test_exp_minus_one_phi_valid():
    # valid as a generator even though it is not scale-compatible
    assert validate_phi(exp_minus_one_phi()).valid


def test_decreasing_phi_gives_monotonicity_counterexample():
    cert = validate_phi(custom_phi(lambda z: -np.asarray(z, float)))
    assert not cert.valid
    assert cert.failure == "monotonicity"
    assert len(cert.points) == 2


def test_a_flat_then_rising_lift_fails_at_its_first_tie():
    # max(z, 1) is flat up to z = 1; its first rise, about 2.8e-3, is no rounding
    cert = validate_phi(custom_phi(lambda z: np.maximum(np.asarray(z, float), 1.0)))
    t = log_certificate_grid()
    assert not cert.valid
    assert (cert.failure, cert.points, cert.value) == ("monotonicity", (t[0], t[1]), 0.0)


@pytest.mark.parametrize("eta, z", [(ps_eta(400.0), "5.88677"),
                                    (jhhb_eta(400.0, 1.0), "5.90306")], ids=["ps", "jhhb"])
def test_an_eta_past_float_range_raises_without_a_warning(eta, z):
    # warnings are errors here: numpy's overflow warning would escape first
    with pytest.raises(EvaluationError, match=f"^eta evaluated non-finite at z={z}$"):
        validate_eta(eta)


def test_a_xi_lift_at_minus_infinity_fails_without_a_warning():
    # xi = z**400 underflows to 0 below z ~ 0.155, and log 0 - log 0 is NaN;
    # as a custom xi its lift is evaluated, where the preset's is 400 t
    cert = validate_xi(custom_xi(lambda z: np.power(z, 400.0)))
    t = log_certificate_grid()
    assert not cert.valid
    assert (cert.failure, cert.points) == ("monotonicity", (t[0], t[1]))


def test_concave_lift_gives_convexity_counterexample():
    # xi(z) = log(1 + z) has psi = log(log(1 + e^t)), which is concave
    cert = validate_xi(custom_xi(lambda z: np.log1p(np.asarray(z, float))))
    assert not cert.valid
    assert cert.failure == "convexity"
    assert cert.value < -1e-9


def test_a_xi_that_is_nan_on_the_grid_names_the_first_such_z():
    nan_above_two = custom_xi(lambda z: np.where(np.asarray(z) > 2.0, np.nan, z))
    with pytest.raises(EvaluationError, match=r"^xi evaluated non-finite at z=2\.\d*$"):
        validate_xi(nan_above_two)


@pytest.mark.parametrize("build, message", [
    (lambda: bdpd_phi(-1.0, 1.0), "bdpd requires finite lam1 >= 0, got -1.0"),
    (lambda: bdpd_phi(math.inf, 1.0), "bdpd requires finite lam1 >= 0, got inf"),
    (lambda: bdpd_phi(1.0, 0.0), "lam2 must be finite and > 0, got 0.0"),
    (lambda: power_phi(math.nan), "zeta must be finite and > 0, got nan"),
    (lambda: power_xi(-1.0), "zeta must be finite and > 0, got -1.0"),
], ids=["bdpd-negative-lam1", "bdpd-infinite-lam1", "bdpd-zero-lam2", "power-phi-nan",
        "power-xi-negative"])
def test_a_preset_parameter_out_of_range_raises(build, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        build()


def test_negative_xi_is_rejected():
    cert = validate_xi(custom_xi(lambda z: np.asarray(z, float) - 1.0))
    assert not cert.valid


@pytest.mark.parametrize("zeta", [0.5, 1.0, 2.0, 400.0])  # z**400 underflows, 400 t does not
def test_xi_presets_valid(zeta):
    assert validate_xi(identity_xi()).valid
    assert validate_xi(power_xi(zeta)).valid


def test_a_custom_generator_called_on_a_float_raises_its_own_error():
    # a float reaches fn as it is, never through the array fallback's loop
    for generator in (custom_eta(lambda z: math.log(z - 1.0), 1.0),
                      custom_phi(lambda z: math.log(z - 1.0)),
                      custom_xi(lambda z: math.log(z - 1.0))):
        with pytest.raises(ValueError, match="^math domain error$"):
            generator(0.5)


def _log_below_half(z):
    return math.log(z - 0.5)


@pytest.mark.parametrize("build, error", [
    (lambda: {"family": "holder", "eta": custom_eta(_log_below_half, 1.0)},
     ValueError("math domain error")),
    (lambda: {"family": "fdpd", "phi": custom_phi(_log_below_half)},
     ValueError("math domain error")),
    (lambda: {"family": "xi_holder", "eta": dpd_eta(1.0), "xi": custom_xi(_log_below_half)},
     ValueError("math domain error")),
    (lambda: {"family": "fdpd", "phi": custom_phi(lambda z: len(z))},
     TypeError("len() of unsized object")),
    (lambda: {"family": "fdpd", "phi": custom_phi(lambda z: {}[z])},
     TypeError("unhashable type: 'numpy.ndarray'")),
    (lambda: {"family": "holder", "eta": custom_eta(lambda z: len(z), 1.0)},
     TypeError("len() of unsized object")),
    (lambda: {"family": "xi_holder", "eta": dpd_eta(1.0), "xi": custom_xi(lambda z: z.foo)},
     AttributeError("'numpy.ndarray' object has no attribute 'foo'")),
], ids=["eta", "phi", "xi", "phi-len", "phi-dict-key", "eta-len", "xi-attribute"])
def test_a_custom_generator_that_raises_in_the_array_loop_names_z(build, error):
    # each fn raises on the certificate's grid, or returns no array of its
    # shape, so the grid goes through the element loop, where fn raises on
    # the first z: log(z - 0.5) below z = 0.5, len and a dict key on a 0-d
    # array, and an attribute no array has.  A phi certificate samples
    # phi(exp(t)) from z = 1e-6; the loop names that z, not t.
    z = "1e-06" if "phi" in build() else "0"
    with pytest.raises(EvaluationError, match=f"^generator raised {re.escape(repr(error))} "
                                              f"at z={z}$") as raised:
        DivergenceSpec(gamma=1.0, **build())
    assert type(raised.value.__cause__) is type(error)


def test_validate_psi_direct():
    assert validate_psi(lambda t: np.asarray(t, float)).valid  # affine
    assert validate_psi(lambda t: np.exp(np.asarray(t, float))).valid
    assert not validate_psi(lambda t: -np.exp(np.asarray(t, float))).valid


def test_validate_psi_rejects_infinity_ahead_of_the_saturated_tail():
    grid = log_certificate_grid()
    for psi in (lambda t: np.where(t < grid[3], np.inf, t),      # from the left end
                lambda t: np.where(np.abs(t) < 1.0, np.inf, t)):  # finite after it
        with pytest.raises(EvaluationError, match="^psi evaluated non-finite at t="):
            validate_psi(psi)


def test_validate_psi_rejects_a_nan_in_the_convexity_stencil():
    # finite on the grid, NaN just past its right end
    psi = lambda t: np.where(t <= log_certificate_grid()[-1], t, np.nan)  # noqa: E731
    with pytest.raises(EvaluationError, match="^psi evaluated non-finite near t=13.8155$"):
        validate_psi(psi)


def test_phi_prime_presets_and_finite_difference():
    z = np.array([0.3, 1.0, 4.0])
    assert np.allclose(power_phi(0.5).phi_prime(z), z**-0.5)
    assert np.allclose(log_phi().phi_prime(z), 1.0 / z)
    custom = custom_phi(lambda v: np.asarray(v, float) ** 2)
    assert np.allclose(custom.phi_prime(z), 2.0 * z, rtol=1e-6)
    assert bdpd_phi(1.0, 2.0).phi_prime(z).tolist() == (1.0 / (1.0 + 2.0 * z)).tolist()
    assert bdpd_phi(1.0, 2.0).phi_prime(2.0) == 0.2
    # a supplied derivative, scalar-only: called element by element on an array
    given = custom_phi(math.log, dfn=lambda v: 1.0 / float(v))
    assert given.phi_prime(z).tolist() == (1.0 / z).tolist()
    assert given.phi_prime(4.0) == 0.25


def test_log_phi_extended_value_at_zero():
    assert log_phi()(0.0) == -math.inf


# ---------------------------------------------------------------------------
# tabulated generators
# ---------------------------------------------------------------------------


def test_eta_from_table_roundtrip(tmp_path):
    z = np.geomspace(1e-7, 1e7, 4001)
    z = np.union1d(z, [0.0])
    table = tmp_path / "eta.csv"
    rows = "\n".join(f"{float(zi)!r},{float(1.0 - 2.0 * zi)!r}" for zi in z)
    table.write_text("z,value\n" + rows + "\n")
    eta = eta_from_table(table, gamma=1.0)
    assert validate_eta(eta).valid
    assert eta(0.25) == pytest.approx(0.5, abs=1e-9)


def test_table_requires_increasing_z(tmp_path):
    table = tmp_path / "bad.csv"
    table.write_text("z,value\n1.0,0.0\n1.0,1.0\n")
    with pytest.raises(DomainError):
        eta_from_table(table, gamma=1.0)


@pytest.mark.parametrize("rows", ["0,0\nnan,1\n2,2\n3,3\n", "0,0\n1,1\n2,nan\n",
                                  "0,0\n1,inf\n", "-inf,0\n1,1\n", "0,0\n1,1\ninf,2\n"],
                         ids=["nan-z", "nan-value", "inf-value", "minus-inf-z", "inf-z"])
def test_table_requires_finite_cells(tmp_path, rows):
    table = tmp_path / "bad.csv"
    table.write_text("z,value\n" + rows)
    message = f"^generator table {re.escape(repr(table))} must have finite z and value$"
    with pytest.raises(DomainError, match=message):
        phi_from_table(table)


def test_a_one_row_table_is_rejected(tmp_path):
    table = tmp_path / "one.csv"
    table.write_text("z,value\n1,0\n")
    with pytest.raises(DomainError, match=f"^generator table {re.escape(repr(table))} "
                                          "needs at least two rows$"):
        phi_from_table(table)


def test_phi_and_xi_from_table(tmp_path):
    from divkit import phi_from_table, xi_from_table

    z = np.geomspace(1e-7, 1e7, 2001)
    table = tmp_path / "lin.csv"
    table.write_text("z,value\n" + "\n".join(f"{float(zi)!r},{float(zi)!r}" for zi in z)
                     + "\n")
    phi = phi_from_table(table)  # identity, tabulated
    assert validate_phi(phi).valid
    assert phi(2.5) == pytest.approx(2.5, rel=1e-9)
    assert phi.phi_prime(2.5) == pytest.approx(1.0, rel=1e-5)  # finite difference
    xi = xi_from_table(table)
    assert validate_xi(xi).valid


# ---------------------------------------------------------------------------
# name tables: parse and label
# ---------------------------------------------------------------------------

POSITIVE = st.floats(min_value=0.0, max_value=1e6, exclude_min=True)
# the admissible range of each parameter field of the presets
FIELD_VALUES = {"kappa": st.floats(1.0, 1e6), "zeta": POSITIVE,
                "lam1": st.floats(0.0, 1e6), "lam2": POSITIVE}
NAMED = [(kind, name) for kind, presets in PRESETS.items() for name in presets]


@pytest.mark.parametrize("kind, name", NAMED)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_label_reads_back_to_the_same_generator(kind, name, data):
    preset = PRESETS[kind][name]
    params = [data.draw(FIELD_VALUES[field], label=field) for field in preset.params]
    gamma = [data.draw(POSITIVE, label="gamma")] if kind == "eta" else []
    generator = preset.make(*params, *gamma)
    assert parse_generator(kind, generator.label(), *gamma) == generator


# one generator of every preset, and custom ones that take arrays or scalars only
EVERY_KIND = {f"{kind}-{name}": parse_generator(
    kind, ":".join([name, *("2" for _ in preset.params)]), *([1.0] if kind == "eta" else []))
    for kind, presets in PRESETS.items() for name, preset in presets.items()} | {
    "eta-custom": custom_eta(lambda z: 1.0 - 2.0 * z, 1.0),
    "eta-custom-scalar-only": custom_eta(lambda z: -math.pow(z, 2.0), 1.0),
    "phi-custom": custom_phi(np.log1p), "phi-custom-scalar-only": custom_phi(math.log1p),
    "xi-custom": custom_xi(np.sqrt), "xi-custom-scalar-only": custom_xi(math.sqrt),
}


@pytest.mark.parametrize("name", sorted(EVERY_KIND))
@pytest.mark.parametrize("z", [0.5, np.float64(0.5), np.array(0.5)], ids=["float", "numpy", "0-d"])
def test_every_generator_gives_a_python_float_on_a_float(name, z):
    generator = EVERY_KIND[name]
    value = generator(z)
    assert type(value) is float
    assert generator(np.array([z, 2.0]))[0] == value


@pytest.mark.parametrize("kind, text", [
    ("phi", "power:0.123456789"), ("xi", "power:1e-300"), ("eta", "bhd:1.0000000001"),
    ("phi", "bdpd:0.1:0.2"),
])
def test_a_label_that_g_format_would_round_reads_back(kind, text):
    gamma = [0.5] if kind == "eta" else []
    generator = parse_generator(kind, text, *gamma)
    assert parse_generator(kind, generator.label(), *gamma) == generator


@pytest.mark.parametrize("generator, label", [
    (power_phi(0.5), "power:0.5"), (power_phi(2.0), "power:2"),
    (bdpd_phi(1.0, 1.0), "bdpd:1:1"), (bhd_eta(2.0, 1.0), "bhd:2"),
    (jhhb_eta(0.0, 1.0), "jhhb:0"), (power_xi(0.25), "power:0.25"),
    (dpd_eta(1.0), "dpd"), (log_phi(), "log"), (identity_xi(), "identity"),
    (power_phi(0.123456789), "power:0.123456789"),
    (custom_phi(lambda z: z), "custom"),
])
def test_labels(generator, label):
    assert generator.label() == label


def test_exp_minus_one_is_a_named_kind():
    assert exp_minus_one_phi() == exp_minus_one_phi()
    assert exp_minus_one_phi().label() == "exp-minus-one"
    assert parse_generator("phi", "exp-minus-one") == exp_minus_one_phi()


def test_file_generators_load_their_table(tmp_path):
    table = tmp_path / "lin.csv"
    table.write_text("z,value\n0,0\n1,1\n2,2\n")
    xi = parse_generator("xi", f"file:{table}")
    assert xi.kind == "custom" and xi(1.5) == 1.5
    eta = parse_generator("eta", f"file:{table}", 0.5)
    assert eta.gamma == 0.5


def test_a_malformed_table_row_is_a_divkit_error(tmp_path):
    table = tmp_path / "bad.csv"
    table.write_text("z,value\n0,1\n1,-1\nabc,3\n")
    with pytest.raises(RepresentationError):
        eta_from_table(table, gamma=1.0)
