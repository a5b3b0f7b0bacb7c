"""The 1/f phase-noise generator has the spectrum it is asked for.

Every row of :func:`~repro.noise.one_over_f.one_over_f_block` is shaped
by ``1/f^(alpha/2)`` in amplitude, so its periodogram falls as
``1/f^alpha``; :func:`~repro.noise.one_over_f.estimate_psd_exponent`
fits that slope back.  A single 4096-sample row scatters by about 0.1
around ``alpha`` (0.885-1.110 over 240 rows at ``alpha = 1``); the mean
of 36 rows sits within 0.01.
"""

import numpy as np
import pytest

from repro.noise.one_over_f import (
    SERIES_SAMPLES,
    estimate_psd_exponent,
    one_over_f_block,
)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_block_rows_fit_their_spectral_exponent(alpha):
    fits = np.array(
        [
            estimate_psd_exponent(row)
            for seed in range(3)
            for row in one_over_f_block(
                12, SERIES_SAMPLES, 0.05, np.random.default_rng(seed), alpha=alpha
            )
        ]
    )
    assert fits.shape == (36,)
    assert np.max(np.abs(fits - alpha)) < 0.2, fits
    assert abs(fits.mean() - alpha) < 0.05, fits.mean()
