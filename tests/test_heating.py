"""Cross-zone heating-rate comparison."""
import pytest

from ionreadout import HeatingPoint, field_noise_ratio, kick_heating_rate, scale_heating

# measured points: detector-free reference zone and the detector zone
REFERENCE = HeatingPoint(rate_quanta_s=63.0, frequency_mhz=2.0, distance_um=39.0)
DETECTOR = HeatingPoint(rate_quanta_s=113.0, frequency_mhz=5.3, distance_um=35.0)
ALPHA = 1.7


def test_frequency_rescaling_reference_value():
    assert scale_heating(REFERENCE, 5.3, ALPHA) == pytest.approx(12.0177, abs=5e-4)


def test_rescaling_to_same_frequency_is_identity():
    assert scale_heating(REFERENCE, 2.0, ALPHA) == 63.0
    assert scale_heating(REFERENCE, 5.3, 0.0) == 63.0


def test_zone_comparison_reference_value():
    assert field_noise_ratio(REFERENCE, DETECTOR, ALPHA) == pytest.approx(6.0992, abs=5e-4)


def test_identical_zones_give_unity():
    assert field_noise_ratio(REFERENCE, REFERENCE, ALPHA) == 1.0


def test_consistently_scaled_zone_gives_unity():
    rate = scale_heating(REFERENCE, 5.3, ALPHA) * (39.0 / 35.0) ** 4
    b = HeatingPoint(rate_quanta_s=rate, frequency_mhz=5.3, distance_um=35.0)
    assert field_noise_ratio(REFERENCE, b, ALPHA) == pytest.approx(1.0, rel=1e-12)


def test_ratio_composes_along_a_chain():
    a = HeatingPoint(10.0, 2.0, 40.0)
    b = HeatingPoint(25.0, 3.0, 45.0)
    c = HeatingPoint(70.0, 5.0, 50.0)
    chained = field_noise_ratio(a, b, ALPHA) * field_noise_ratio(b, c, ALPHA)
    assert chained == pytest.approx(field_noise_ratio(a, c, ALPHA), rel=1e-12)


def test_ratio_inverts_when_zones_swap():
    fwd = field_noise_ratio(REFERENCE, DETECTOR, ALPHA)
    rev = field_noise_ratio(DETECTOR, REFERENCE, ALPHA)
    assert fwd * rev == pytest.approx(1.0, rel=1e-12)


def test_recoil_kick_rate():
    assert kick_heating_rate(0.009, 1000.0) == pytest.approx(9.0, rel=1e-12)
    assert kick_heating_rate(0.0, 1000.0) == 0.0
    assert kick_heating_rate(0.009, 0.0) == 0.0


def test_validation():
    with pytest.raises(ValueError):
        HeatingPoint(-1.0, 2.0, 40.0)
    with pytest.raises(ValueError):
        HeatingPoint(10.0, 0.0, 40.0)
    with pytest.raises(ValueError):
        HeatingPoint(10.0, 2.0, -5.0)
    with pytest.raises(ValueError):
        scale_heating(REFERENCE, -1.0, ALPHA)
    with pytest.raises(ValueError):
        kick_heating_rate(-0.1, 10.0)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("name", ["rate_quanta_s", "frequency_mhz", "distance_um"])
def test_point_rejects_non_finite_fields(name, value):
    fields = {"rate_quanta_s": 63.0, "frequency_mhz": 2.0, "distance_um": 39.0, name: value}
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        HeatingPoint(**fields)
    with pytest.raises(ValueError, match="^target frequency must be finite"):
        scale_heating(REFERENCE, value, ALPHA)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_exponents_and_kick_inputs_reject_non_finite_values(value):
    with pytest.raises(ValueError, match="^alpha must be finite"):
        scale_heating(REFERENCE, 5.3, value)
    with pytest.raises(ValueError, match="^alpha must be finite"):
        field_noise_ratio(REFERENCE, DETECTOR, value)
    with pytest.raises(ValueError, match="^quanta_per_count must be finite"):
        kick_heating_rate(value, 1000.0)
    with pytest.raises(ValueError, match="^count_rate_s must be finite"):
        kick_heating_rate(0.009, value)
