"""1/f (flicker) noise generation.

The paper's simulator includes "1/f phase noise" on MS gates (Sec. VI).  We
synthesize discrete-time noise whose power spectral density falls as
``1/f^alpha`` (``alpha = 1`` by default) using frequency-domain shaping:
white Gaussian noise is filtered by ``1/f^{alpha/2}`` and transformed back.
The lowest (DC) bin is zeroed so the series has zero mean; the output is
rescaled to a requested RMS amplitude.

:class:`OneOverFProcess` wraps a generated series behind a continuous-time
lookup so gate-level error models can ask "what is the phase offset at time
t?" while circuits execute.
"""

from __future__ import annotations

import numpy as np

#: Default series length and sample spacing (seconds) of a phase process.
SERIES_SAMPLES = 4096
SERIES_DT = 1e-3

__all__ = [
    "one_over_f_series",
    "one_over_f_block",
    "OneOverFProcess",
    "estimate_psd_exponent",
]


def one_over_f_series(
    n_samples: int,
    rms: float,
    rng: np.random.Generator,
    alpha: float = 1.0,
) -> np.ndarray:
    """Generate ``n_samples`` of zero-mean noise with a 1/f^alpha spectrum.

    Parameters
    ----------
    n_samples:
        Length of the series (>= 2).
    rms:
        Target root-mean-square amplitude of the output.
    rng:
        Random generator.
    alpha:
        Spectral exponent; 1.0 gives classic flicker noise.
    """
    return one_over_f_block(1, n_samples, rms, rng, alpha=alpha)[0]


def one_over_f_block(
    n_series: int,
    n_samples: int,
    rms: float,
    rng: np.random.Generator,
    alpha: float = 1.0,
) -> np.ndarray:
    """``n_series`` independent 1/f^alpha series, ``(n_series, n_samples)``.

    Equal, row for row and in the RNG state it leaves, to ``n_series``
    consecutive :func:`one_over_f_series` calls: each row's real and
    imaginary spectrum draws come from one ``standard_normal`` block in
    the same order, and one inverse FFT transforms every row.
    """
    if n_samples < 2:
        raise ValueError("need at least two samples")
    if rms < 0:
        raise ValueError("rms must be non-negative")
    freqs = np.fft.rfftfreq(n_samples, d=1.0)
    shaping = np.zeros_like(freqs)
    nonzero = freqs > 0
    shaping[nonzero] = freqs[nonzero] ** (-alpha / 2.0)
    draws = rng.standard_normal((n_series, 2, len(freqs)))
    spectrum = shaping * (draws[:, 0] + 1.0j * draws[:, 1])
    series = np.fft.irfft(spectrum, n=n_samples)
    series -= series.mean(axis=-1, keepdims=True)
    for row, std in zip(series, series.std(axis=-1)):
        if std > 0 and rms > 0:
            row *= rms / std
        else:
            row[:] = 0.0
    return series


class OneOverFProcess:
    """Continuous-time lookup over a pre-generated 1/f noise series.

    The series spans ``n_samples * dt`` seconds and wraps around beyond
    that horizon (adequate for experiments much shorter than the horizon).
    """

    def __init__(
        self,
        rms: float,
        rng: np.random.Generator,
        n_samples: int = SERIES_SAMPLES,
        dt: float = SERIES_DT,
        alpha: float = 1.0,
    ):
        if dt <= 0:
            raise ValueError("dt must be positive")
        self.dt = dt
        self.series = one_over_f_series(n_samples, rms, rng, alpha=alpha)

    def value_at(self, t: float) -> float:
        """Noise value at time ``t`` seconds (nearest-sample lookup)."""
        if t < 0:
            raise ValueError("time must be non-negative")
        idx = int(round(t / self.dt)) % len(self.series)
        return float(self.series[idx])

    def values_at(self, ts: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`value_at` over an array of times."""
        ts = np.asarray(ts, dtype=float)
        if np.any(ts < 0):
            raise ValueError("time must be non-negative")
        idx = np.rint(ts / self.dt).astype(np.int64) % len(self.series)
        return self.series[idx]


def estimate_psd_exponent(series: np.ndarray) -> float:
    """Least-squares estimate of the spectral exponent of a series.

    Fits ``log PSD = -alpha * log f + c`` over the interior frequency bins
    and returns ``alpha``.  Used by tests to confirm the generator produces
    flicker-like spectra.
    """
    series = np.asarray(series, dtype=float)
    n = len(series)
    if n < 64:
        raise ValueError("series too short for a PSD fit")
    spectrum = np.abs(np.fft.rfft(series)) ** 2
    freqs = np.fft.rfftfreq(n, d=1.0)
    # Skip DC and the extreme high-frequency bins where windowing bites.
    lo, hi = 1, int(0.4 * len(freqs))
    log_f = np.log(freqs[lo:hi])
    log_p = np.log(spectrum[lo:hi] + 1e-30)
    slope, _ = np.polyfit(log_f, log_p, 1)
    return float(-slope)
