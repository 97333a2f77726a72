import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divkit import (
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
    power_phi,
    power_xi,
    ps_eta,
    validate_eta,
    validate_phi,
    validate_psi,
    validate_xi,
)
from divkit.generators import PRESETS, certificate_grid, parse_generator

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
    assert cert.reason == "normalization"
    assert cert.z_star == 1.0
    assert cert.gap == pytest.approx(-1.0)


def test_lower_bound_counterexample():
    # eta(z) = 1 - 2 z**2 keeps eta(1) = -1 but dips below -z**2 past z = 1
    bad = custom_eta(lambda z: 1.0 - 2.0 * np.asarray(z, float) ** 2, gamma=1.0)
    cert = validate_eta(bad)
    assert not cert.valid
    assert cert.reason == "lower-bound"
    assert cert.z_star > 1.0
    assert cert.gap < 0.0


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


@pytest.mark.parametrize("zeta", [0.5, 1.0, 2.0])
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


def test_concave_lift_gives_convexity_counterexample():
    # xi(z) = log(1 + z) has psi = log(log(1 + e^t)), which is concave
    cert = validate_xi(custom_xi(lambda z: np.log1p(np.asarray(z, float))))
    assert not cert.valid
    assert cert.failure == "convexity"
    assert cert.value < -1e-9


def test_negative_xi_is_rejected():
    cert = validate_xi(custom_xi(lambda z: np.asarray(z, float) - 1.0))
    assert not cert.valid


@pytest.mark.parametrize("zeta", [0.5, 1.0, 2.0])
def test_xi_presets_valid(zeta):
    assert validate_xi(identity_xi()).valid
    assert validate_xi(power_xi(zeta)).valid


def test_validate_psi_direct():
    assert validate_psi(lambda t: np.asarray(t, float)).valid  # affine
    assert validate_psi(lambda t: np.exp(np.asarray(t, float))).valid
    assert not validate_psi(lambda t: -np.exp(np.asarray(t, float))).valid


def test_phi_prime_presets_and_finite_difference():
    z = np.array([0.3, 1.0, 4.0])
    assert np.allclose(power_phi(0.5).phi_prime(z), z**-0.5)
    assert np.allclose(log_phi().phi_prime(z), 1.0 / z)
    custom = custom_phi(lambda v: np.asarray(v, float) ** 2)
    assert np.allclose(custom.phi_prime(z), 2.0 * z, rtol=1e-6)


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
