"""Fig. 3's batched sequence simulation against its closed form.

With every stochastic source off, a q-gate MS sequence with static angle
error ``eps`` on the pair is ``XX(q pi/2 + sum of signed eps)``, so its
fidelity to ``XX(q pi/2)|00>`` is ``cos^2(sum / 2)``: ``q eps`` in phase,
and ``eps`` or ``0`` echoed (the error's sign alternates gate by gate).
"""

import math

import numpy as np
import pytest

from repro.analysis.experiments.fig3 import (
    Fig3Config,
    _sequence_fidelities_batch,
)
from repro.noise.one_over_f import OneOverFProcess


@pytest.mark.parametrize("echoed", [False, True])
def test_noiseless_sequence_fidelity_matches_closed_form(echoed):
    cfg = Fig3Config(
        amplitude_sigma=0.0,
        phase_noise_rms=0.0,
        residual_odd_population=0.0,
        realizations=3,
    )
    static_error = 0.11
    rng = np.random.default_rng(5)
    phase = OneOverFProcess(0.0, rng)
    for n_gates in range(1, 9):
        net_error = static_error * (n_gates % 2 if echoed else n_gates)
        fidelities = _sequence_fidelities_batch(
            static_error, n_gates, echoed, cfg, rng, phase, phase
        )
        assert fidelities.shape == (cfg.realizations,)
        np.testing.assert_allclose(
            fidelities, math.cos(net_error / 2.0) ** 2, atol=1e-12
        )
