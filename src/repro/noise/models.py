"""Gate-level noise model tying the individual noise sources together.

Sec. VI specifies the simulator ingredients used to validate the protocol:

* "10 % random amplitude errors for all two-qubit gates" — per-application
  multiplicative Gaussian noise on the MS rotation angle;
* "residual coupling to the motional modes that generates 1 % odd
  population" — modelled, as the paper suggests in Sec. III, by small
  random single-qubit rotations following each MS gate;
* "1/f phase noise" — per-ion drive-phase offsets drawn from a flicker
  process sampled at gate times.

On top of these, each coupling carries a *deterministic* miscalibration
(the under-rotation being diagnosed), applied multiplicatively:
``theta_actual = theta_nominal * (1 - under_rotation) * (1 + xi)``.

:class:`GateNoiseModel` draws the realized parameters of a circuit's MS,
residual-kick and R slots, one ``(n_batch, ...)`` block per call; the
MS and R methods also take amplitude noise drawn by the caller and
per-slot arrays with extra leading axes, so one call builds the blocks
of several tests side by side.  When
only amplitude noise is enabled the realized MS phases stay on the pi
grid (XX-only), so the fast engine remains applicable (the setting
used for the 16/32-qubit scaling runs, matching Sec. VII's "we suppress
phase noise and residual couplings ... leaving only 10 % random amplitude
errors").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .one_over_f import SERIES_DT, SERIES_SAMPLES, one_over_f_block
from .spam import SpamModel

__all__ = ["NoiseParameters", "GateNoiseModel"]


@dataclass
class NoiseParameters:
    """Tunable strengths of the error sources.

    Attributes
    ----------
    amplitude_sigma:
        Std. dev. of per-application multiplicative MS angle noise
        (0.10 in the paper's simulations).
    amplitude_sigma_1q:
        Same for one-qubit gates (much smaller in practice).
    phase_noise_rms:
        RMS of the per-ion 1/f drive-phase offset in radians (0 disables).
    residual_odd_population:
        Mean odd-state population produced by residual motional coupling
        after one fully-entangling MS gate (0.01 in Sec. VI; 0 disables).
    spam:
        Optional readout-error model.
    """

    amplitude_sigma: float = 0.10
    amplitude_sigma_1q: float = 0.0
    phase_noise_rms: float = 0.0
    residual_odd_population: float = 0.0
    spam: SpamModel | None = None

    def __post_init__(self) -> None:
        if self.amplitude_sigma < 0 or self.amplitude_sigma_1q < 0:
            raise ValueError("amplitude noise must be non-negative")
        if self.phase_noise_rms < 0:
            raise ValueError("phase_noise_rms must be non-negative")
        if not 0.0 <= self.residual_odd_population < 1.0:
            raise ValueError("residual_odd_population must be in [0, 1)")

    @classmethod
    def noiseless(cls) -> "NoiseParameters":
        """All error sources disabled (for protocol-correctness tests)."""
        return cls(amplitude_sigma=0.0)

    @classmethod
    def paper_scaling(cls) -> "NoiseParameters":
        """Sec. VII scaling study: amplitude noise only."""
        return cls(amplitude_sigma=0.10)

    @classmethod
    def amplitude_only(
        cls, sigma: float = 0.10, spam: SpamModel | None = None
    ) -> "NoiseParameters":
        """Amplitude noise at ``sigma`` (optionally with a SPAM channel).

        The XX-preserving environment the fault-scenario taxonomy builds
        on: readout errors keep realizations X-diagonal (SPAM enters at
        sampling time), so scenarios in this environment run on both the
        exact XX engine and the dense plans.
        """
        return cls(amplitude_sigma=sigma, spam=spam)

    @classmethod
    def paper_physical(cls) -> "NoiseParameters":
        """Sec. VI physical validation: all sources on."""
        return cls(
            amplitude_sigma=0.10,
            phase_noise_rms=0.05,
            residual_odd_population=0.01,
            spam=SpamModel(p01=0.005, p10=0.005),
        )

    def is_xx_preserving(self) -> bool:
        """True if noisy MS realizations remain diagonal in the X basis."""
        return self.phase_noise_rms == 0.0 and self.residual_odd_population == 0.0


@dataclass
class GateNoiseModel:
    """Realizes noisy native-gate applications.

    Parameters
    ----------
    n_qubits:
        Register width (used to allocate per-ion phase-noise processes).
    params:
        Noise strengths.
    rng:
        Random generator driving all stochastic draws.

    With phase noise on, each ion's 1/f drive-phase series is one row of
    a stacked ``(n_qubits, SERIES_SAMPLES)`` array, drawn in one block
    (equal to building one :class:`~repro.noise.one_over_f.OneOverFProcess`
    per ion in turn), so a batch of lookups is a single gather.
    """

    n_qubits: int
    params: NoiseParameters
    rng: np.random.Generator
    _phase_series: np.ndarray | None = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.n_qubits < 1:
            raise ValueError("need at least one qubit")
        self._phase_series = (
            one_over_f_block(
                self.n_qubits,
                SERIES_SAMPLES,
                self.params.phase_noise_rms,
                self.rng,
            )
            if self.params.phase_noise_rms > 0
            else None
        )

    def _phase_index(self, ts: np.ndarray) -> np.ndarray:
        """Series sample index of each gate time (nearest sample, wrapped)."""
        ts = np.asarray(ts, dtype=float)
        if np.any(ts < 0):
            raise ValueError("time must be non-negative")
        return np.rint(ts / SERIES_DT).astype(np.int64) % SERIES_SAMPLES

    # -- per-noise-realization parameter draws ------------------------------------

    def noisy_ms_params_block(
        self,
        q1: np.ndarray,
        q2: np.ndarray,
        thetas: np.ndarray,
        unders: np.ndarray,
        phi1: np.ndarray,
        phi2: np.ndarray,
        ts: np.ndarray,
        xi: np.ndarray | None = None,
    ) -> np.ndarray:
        """Per-realization MS parameters for a whole circuit's MS slots.

        ``q1``/``q2``/``thetas``/``unders``/``phi1``/``phi2`` hold one
        entry per MS/XX application, in program order: the targets, the
        nominal angle, the coupling's under-rotation and the two drive
        phases (nominal plus the coupling's drive-phase offset).  ``ts``
        has shape ``(n_ms, n_batch)`` with each slot's per-realization
        gate times.  All amplitude noise is drawn in a single RNG call
        (unless the caller passes ``xi``, shaped like ``ts``) and the
        phase noise of both targets is read with one gather each, so the
        cost is a handful of vectorized operations regardless of circuit
        depth.  Returns shape ``ts.shape + (3,)``.  The per-slot arrays
        may carry further axes before the batch axis (``ts`` then has
        shape ``(n_ms, ..., n_batch)``): a battery pass builds all tests
        of one stack in one call.
        """
        ts = np.asarray(ts, dtype=float)
        if np.shape(thetas) != ts.shape[:-1]:
            raise ValueError("one MS slot entry per row of ts required")
        if xi is None:
            if self.params.amplitude_sigma > 0:
                xi = self.rng.normal(0.0, self.params.amplitude_sigma, ts.shape)
            else:
                xi = np.zeros(ts.shape)
        out = np.empty(ts.shape + (3,))
        out[..., 0] = thetas[..., None] * (1.0 - unders[..., None]) * (1.0 + xi)
        out[..., 1] = phi1[..., None]
        out[..., 2] = phi2[..., None]
        if self._phase_series is not None:
            idx = self._phase_index(ts)
            out[..., 1] += self._phase_series[q1[..., None], idx]
            out[..., 2] += self._phase_series[q2[..., None], idx]
        return out

    def residual_kick_params_block(
        self, n_kicks: int, n_batch: int, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Per-realization kick parameters for ``n_kicks`` residual slots.

        Residual bus coupling is modelled as random single-qubit
        rotations after each MS gate, one per target.  A kick of angle
        ``d`` leaves ``sin^2(d/2)`` population in odd states; for small
        angles two independent kicks of std. dev. ``d0`` give mean odd
        population ``d0^2 / 2``, hence ``d0 = sqrt(2 p_odd)``.  The whole
        circuit's kicks are drawn at once; returns shape
        ``(n_kicks, n_batch, 2)`` of ``(angle, axis)`` rows, written into
        ``out`` when given (a view into a stacked block, say).
        """
        d0 = math.sqrt(2.0 * self.params.residual_odd_population)
        if out is None:
            out = np.empty((n_kicks, n_batch, 2))
        out[:, :, 0] = self.rng.normal(0.0, d0, (n_kicks, n_batch))
        out[:, :, 1] = self.rng.uniform(0.0, 2.0 * math.pi, (n_kicks, n_batch))
        return out

    def noisy_r_params(
        self,
        q: int | np.ndarray,
        theta_nominal: float | np.ndarray,
        phi: float | np.ndarray,
        ts: np.ndarray,
        xi: np.ndarray | None = None,
    ) -> np.ndarray:
        """Per-realization ``(theta, phi)`` rows for one R slot: ``(n_batch, 2)``.

        ``q``/``theta_nominal``/``phi`` may instead be arrays of several
        slots' values, with ``ts`` (and ``xi``, the amplitude noise when
        the caller drew it) one batch axis longer; the result is then
        ``ts.shape + (2,)``.
        """
        ts = np.asarray(ts, dtype=float)
        if xi is None:
            if self.params.amplitude_sigma_1q > 0:
                xi = self.rng.normal(0.0, self.params.amplitude_sigma_1q, ts.shape)
            else:
                xi = np.zeros(ts.shape)
        theta = np.asarray(theta_nominal)[..., None] * (1.0 + xi)
        phi_a = np.empty(ts.shape)
        phi_a[...] = np.asarray(phi)[..., None]
        if self._phase_series is not None:
            phi_a += self._phase_series[
                np.asarray(q)[..., None], self._phase_index(ts)
            ]
        return np.stack([theta, phi_a], axis=-1)
