"""The per-process calibration memo behind ``calibrate_cell``.

A calibration depends on a scenario only through its noise environment,
so kinds that share an environment share one entry, built from values:
equal environments from distinct objects hit, any changed value misses.
"""

from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.analysis.experiments import scenarios
from repro.analysis.registry import get_experiment
from repro.noise.models import NoiseParameters
from repro.noise.spam import SpamModel
from repro.scenarios.spec import SCENARIO_KINDS, build_scenario

N = 6


@pytest.fixture
def cfg():
    return get_experiment("arena").config("smoke")


@pytest.fixture(autouse=True)
def fresh_memo():
    scenarios._calibrated_environment.cache_clear()
    yield
    scenarios._calibrated_environment.cache_clear()


def _environment(kind):
    return scenarios.calibration_environment(
        build_scenario(kind, N).noise_parameters()
    )


def test_scenario_kinds_form_two_environments():
    environments = {_environment(kind) for kind in SCENARIO_KINDS}
    assert len(environments) == 2
    others = [k for k in SCENARIO_KINDS if k != "asymmetric-spam"]
    assert len({_environment(kind) for kind in others}) == 1


def test_shared_environment_returns_one_object_equal_to_a_fresh_pass(cfg):
    first = scenarios.calibrate_cell(cfg, N, build_scenario("over-rotation", N))
    second = scenarios.calibrate_cell(
        cfg, N, build_scenario("correlated-burst", N)
    )
    assert second is first
    scenarios._calibrated_environment.cache_clear()
    fresh = scenarios.calibrate_cell(cfg, N, build_scenario("correlated-burst", N))
    assert fresh is not first
    thresholds, bank, batteries = first
    assert fresh[0].table == thresholds.table and thresholds.table
    assert fresh[1].by_test == bank.by_test
    assert (fresh[1].verify_mean, fresh[1].verify_std) == (
        bank.verify_mean,
        bank.verify_std,
    )
    assert sorted(fresh[2]) == sorted(batteries) == sorted(cfg.repetition_counts)


def test_asymmetric_spam_gets_its_own_entry(cfg):
    shared = scenarios.calibrate_cell(cfg, N, build_scenario("over-rotation", N))
    spam = scenarios.calibrate_cell(cfg, N, build_scenario("asymmetric-spam", N))
    assert spam is not shared
    assert spam[1].by_test != shared[1].by_test
    info = scenarios._calibrated_environment.cache_info()
    assert (info.misses, info.currsize) == (2, 2)


def _stub(monkeypatch):
    """Record the noise each calibration pass receives."""
    seen = []
    monkeypatch.setattr(
        scenarios,
        "_calibrate",
        lambda cfg, n_qubits, noise: seen.append(noise) or (object(), None, {}),
    )
    return seen


def _spec_of(noise):
    """A duck-typed spec: ``calibrate_cell`` reads only its noise."""
    return SimpleNamespace(noise_parameters=lambda: noise)


def test_equal_environments_from_distinct_objects_hit(cfg, monkeypatch):
    seen = _stub(monkeypatch)
    spec = build_scenario("asymmetric-spam", N)
    first = scenarios.calibrate_cell(cfg, N, spec)
    again = build_scenario("asymmetric-spam", N)
    assert again is not spec
    assert scenarios.calibrate_cell(cfg, N, again) is first
    assert scenarios.calibrate_cell(cfg, N, replace(spec, name="copy")) is first
    noise = spec.noise_parameters()
    copy = NoiseParameters(
        amplitude_sigma=noise.amplitude_sigma,
        spam=SpamModel(noise.spam.p01, noise.spam.p10),
    )
    assert copy.spam is not noise.spam
    assert scenarios.calibrate_cell(cfg, N, _spec_of(copy)) is first
    assert len(seen) == 1
    # The pass runs on a channel rebuilt from the key's values.
    assert scenarios.calibration_environment(seen[0]) == (
        scenarios.calibration_environment(noise)
    )


@pytest.mark.parametrize(
    "change",
    [
        {"amplitude_sigma": 0.11},
        {"amplitude_sigma_1q": 0.01},
        {"phase_noise_rms": 0.05},
        {"residual_odd_population": 0.01},
        {"spam": SpamModel(0.02, 0.005)},
        {"spam": SpamModel(0.005, 0.02)},
        {"spam": None},
        {"spam": SpamModel(0.0, 0.0)},
    ],
    ids=[
        "amplitude_sigma",
        "amplitude_sigma_1q",
        "phase_noise_rms",
        "residual_odd_population",
        "spam_p01",
        "spam_p10",
        "spam_off",
        "spam_zero",
    ],
)
def test_any_changed_environment_value_misses(cfg, monkeypatch, change):
    seen = _stub(monkeypatch)
    base = NoiseParameters(amplitude_sigma=0.1, spam=SpamModel(0.005, 0.005))
    first = scenarios.calibrate_cell(cfg, N, _spec_of(base))
    changed = replace(base, **change)
    assert scenarios.calibrate_cell(cfg, N, _spec_of(changed)) is not first
    assert len(seen) == 2
    assert scenarios.calibration_environment(seen[1]) == (
        scenarios.calibration_environment(changed)
    )


def test_machine_size_is_part_of_the_key(cfg, monkeypatch):
    seen = _stub(monkeypatch)
    spec = build_scenario("over-rotation", N)
    scenarios.calibrate_cell(cfg, N, spec)
    scenarios.calibrate_cell(cfg, N + 2, spec)
    assert len(seen) == 2
