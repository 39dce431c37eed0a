"""Batched spectral (FFT) time-domain pathway for fitted macromodels.

The per-step trapezoidal integrator (:mod:`repro.systems.timedomain`) costs
one back-substitution per time step *per model*; validating a whole batch of
fitted macromodels in the time domain that way is the batch layer's last
per-model loop.  This module provides the spectral alternative, following the
scale / zero-pad / batched-FFT / crop-and-scale recipe of NUFFT gridders:

1. **Evaluate** ``H(j omega)`` on a conjugate-symmetric uniform frequency
   grid through the shared sweep-evaluation kernel
   (:mod:`repro.systems.evaluation` -- this is its second large-batch
   consumer after the frequency-sweep consumers of PR 3).
2. **Zero-pad / oversample**: the grid is the rfft grid of an oversampled
   time axis (next power of two above ``oversample * n_points``), so the
   periodization window is much longer than the requested horizon and
   time-domain aliasing of slowly decaying impulse tails is pushed below the
   truncation error.
3. **One batched** ``np.fft.irfft`` across *all* models of a batch (the FFT
   cost is shared, and the transform is the only O(N log N) step).
4. **Crop** to the requested ``n_points`` samples and **scale** by ``1/dt``
   (the continuous-time inverse Fourier integral's measure).

Feed-through is handled analytically: ``H(infinity) = D`` contributes
``D delta(t)`` to the impulse response, which no sampled spectrum can
represent, so the strictly proper part ``H - D`` is transformed and ``D`` is
re-added where it belongs (as the instantaneous term of the *step*
response).  At ``t = 0`` the spectral impulse carries the half-jump value
``h(0+)/2`` (Fourier inversion converges to the jump midpoint), so
comparisons against the integrator skip the first sample.

Non-uniform frequency samples -- exactly what the minimal-sampling
experiments produce -- enter the same pipeline through NUFFT-style gridding
(:func:`grid_nonuniform_spectrum`): each uniform grid point gathers from its
neighbouring samples with linear-kernel weights, the band edge is tapered
with a raised cosine to avoid a hard truncation edge, and the result is the
same conjugate-symmetric spectrum the exact evaluation path feeds to the
batched inverse FFT.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.backends import get_backend

__all__ = [
    "SpectralGrid",
    "build_spectral_grid",
    "evaluate_spectrum",
    "spectral_window",
    "impulse_from_spectrum",
    "step_from_impulse",
    "batch_time_responses",
    "grid_nonuniform_spectrum",
    "DEFAULT_OVERSAMPLE",
    "DEFAULT_TAPER_FRACTION",
    "DEFAULT_WINDOW",
]

#: Default ratio between the FFT periodization window and the requested time
#: horizon.  8x pushes wrap-around (time-aliasing) of impulse tails that have
#: decayed to ``exp(-a 8 T)`` of their peak below typical truncation error.
DEFAULT_OVERSAMPLE = 8

#: Fraction of the gridded band over which a raised-cosine taper rolls the
#: highest non-uniform samples off to zero (see :func:`grid_nonuniform_spectrum`).
DEFAULT_TAPER_FRACTION = 0.1

#: Spectral window applied by :func:`batch_time_responses`.  An impulse
#: response jumps from 0 to ``h(0+)`` at ``t = 0``, so the plain truncated
#: inverse transform rings (Gibbs: a fixed ~9 % overshoot next to the jump
#: that refinement moves but never shrinks).  The Lanczos sigma factors
#: ``sinc(k / k_max)`` damp exactly those oscillations -- on a decaying test
#: pole they cut the error away from the jump by ~3 orders of magnitude --
#: while leaving the Parseval-exact raw transform available via
#: ``window="none"``.
DEFAULT_WINDOW = "lanczos"

_WINDOWS = ("none", "lanczos")


def _feedthrough(model) -> np.ndarray:
    """The model's feed-through matrix (``D`` for systems, ``d`` for rationals)."""
    for name in ("D", "d"):
        value = getattr(model, name, None)
        if value is not None:
            return np.asarray(value)
    raise TypeError(
        f"{type(model).__name__} exposes neither 'D' nor 'd'; cannot split off "
        "the feed-through term for the spectral transform"
    )


@dataclass(frozen=True)
class SpectralGrid:
    """The paired time/frequency grids of one spectral transform.

    Attributes
    ----------
    time:
        The requested (cropped) output time axis, ``n_points`` uniform
        samples from ``0`` to ``t_final``.
    dt:
        Time step ``t_final / (n_points - 1)``.
    n_fft:
        Length of the oversampled (zero-padded) transform; a power of two
        at least ``oversample * n_points``.
    oversample:
        The requested oversampling factor (kept for reporting).
    """

    time: np.ndarray
    dt: float
    n_fft: int
    oversample: int

    @property
    def n_points(self) -> int:
        """Number of cropped output samples."""
        return int(self.time.size)

    @property
    def frequencies_hz(self) -> np.ndarray:
        """The conjugate-symmetric (rfft) frequency grid, in Hz.

        ``n_fft // 2 + 1`` uniform samples from DC to the Nyquist frequency
        ``1 / (2 dt)``; the negative half-axis is implied by Hermitian
        symmetry of real impulse responses.
        """
        return np.fft.rfftfreq(self.n_fft, d=self.dt)

    @property
    def df(self) -> float:
        """Frequency resolution ``1 / (n_fft * dt)`` of the oversampled grid."""
        return 1.0 / (self.n_fft * self.dt)


def build_spectral_grid(
    t_final: float, n_points: int, *, oversample: int = DEFAULT_OVERSAMPLE
) -> SpectralGrid:
    """Build the paired time/frequency grids for a spectral transform.

    Parameters
    ----------
    t_final:
        End of the requested time horizon (must be positive).
    n_points:
        Number of output time samples (at least 2, like the integrator).
    oversample:
        Periodization window as a multiple of the horizon (at least 1); the
        FFT length is the next power of two of ``oversample * n_points``.
    """
    if t_final <= 0:
        raise ValueError("t_final must be positive")
    if int(n_points) != n_points or n_points < 2:
        raise ValueError(f"n_points must be an integer >= 2, got {n_points!r}")
    if int(oversample) != oversample or oversample < 1:
        raise ValueError(f"oversample must be an integer >= 1, got {oversample!r}")
    n_points = int(n_points)
    dt = float(t_final) / (n_points - 1)
    n_fft = 1 << int(np.ceil(np.log2(int(oversample) * n_points)))
    time = dt * np.arange(n_points)
    return SpectralGrid(time=time, dt=dt, n_fft=n_fft, oversample=int(oversample))


def evaluate_spectrum(model, grid: SpectralGrid, *, method: str = "auto") -> np.ndarray:
    """The strictly proper spectrum ``H(j 2 pi f) - D`` on the grid's rfft axis.

    Evaluation runs through the model's ``frequency_response`` -- i.e. the
    shared vectorized sweep kernel (:mod:`repro.systems.evaluation`) for
    descriptor systems and the vectorized Cauchy contraction for
    pole-residue models -- so the dense conjugate-symmetric grid is exactly
    the kind of large batch the kernel was built for.

    Returns the ``(n_freq, p, m)`` spectrum with the feed-through already
    subtracted (see the module docstring for why).
    """
    response = np.asarray(model.frequency_response(grid.frequencies_hz, method=method))
    return response - _feedthrough(model)[np.newaxis, :, :]


def spectral_window(grid: SpectralGrid, kind: str = DEFAULT_WINDOW) -> np.ndarray:
    """Window weights over the rfft grid (``(n_freq,)``; all-ones for ``"none"``).

    ``"lanczos"`` returns the sigma-approximation factors ``sinc(k / k_max)``
    that suppress Gibbs ringing of jump discontinuities (see
    :data:`DEFAULT_WINDOW`).
    """
    if kind not in _WINDOWS:
        raise ValueError(f"window must be one of {_WINDOWS}, got {kind!r}")
    n_freq = grid.n_fft // 2 + 1
    if kind == "none":
        return np.ones(n_freq)
    return np.sinc(np.arange(n_freq) / (n_freq - 1))


def _windowed(spectrum: np.ndarray, grid: SpectralGrid, window: str) -> np.ndarray:
    if window == "none":
        return spectrum
    return spectrum * spectral_window(grid, window)[:, np.newaxis, np.newaxis]


def impulse_from_spectrum(
    spectrum: np.ndarray, grid: SpectralGrid, *, crop: bool = True
) -> np.ndarray:
    """Inverse-transform rfft-grid spectra to impulse responses.

    ``spectrum`` has shape ``(..., n_freq, p, m)`` with
    ``n_freq = n_fft // 2 + 1``; any number of leading batch axes is allowed
    and the single :func:`numpy.fft.irfft` call is batched across all of
    them.  The result approximates the continuous inverse Fourier integral
    ``h(t) = (1 / 2 pi) int H(j w) e^{j w t} dw``: the inverse DFT is scaled
    by ``1 / dt`` (the quadrature measure ``dw / 2 pi = df = 1 / (N dt)``
    against the DFT's ``1 / N`` normalisation) and cropped to the grid's
    requested ``n_points`` unless ``crop=False`` (a Parseval energy check
    needs the full periodization window).

    The transform is ``np.fft.irfft``, called through the
    :func:`repro.backends.get_backend` record.
    """
    spectrum = np.asarray(spectrum)
    n_freq = grid.n_fft // 2 + 1
    if spectrum.ndim < 3 or spectrum.shape[-3] != n_freq:
        raise ValueError(
            f"spectrum must have shape (..., {n_freq}, p, m) for n_fft={grid.n_fft}, "
            f"got {spectrum.shape}"
        )
    impulse = get_backend().irfft(spectrum, n=grid.n_fft, axis=-3) / grid.dt
    if crop:
        n_out = grid.n_points
        impulse = impulse[..., :n_out, :, :]
    return impulse


def step_from_impulse(
    impulse: np.ndarray, grid: SpectralGrid, *, feedthrough: Optional[np.ndarray] = None
) -> np.ndarray:
    """Step responses by cumulative trapezoidal quadrature of impulse responses.

    ``s(t) = D + int_0^t h(tau) dtau`` -- the feed-through's ``D delta(t)``
    term integrates to the instantaneous step ``D`` (added when given), and
    the strictly proper part is integrated with the trapezoidal rule on the
    grid, vectorized over any leading batch axes of ``impulse``.
    """
    impulse = np.asarray(impulse)
    steps = np.zeros_like(impulse)
    if impulse.shape[-3] > 1:
        increments = 0.5 * grid.dt * (impulse[..., 1:, :, :] + impulse[..., :-1, :, :])
        steps[..., 1:, :, :] = np.cumsum(increments, axis=-3)
    if feedthrough is not None:
        steps = steps + np.asarray(feedthrough)[np.newaxis, :, :]
    return steps


def batch_time_responses(
    models: Sequence,
    grid: SpectralGrid,
    *,
    method: str = "auto",
    window: str = DEFAULT_WINDOW,
) -> tuple[np.ndarray, np.ndarray]:
    """Impulse and step responses of many models through one batched IFFT.

    All models must share one transfer-function shape ``(p, m)``.  Each
    model's strictly proper spectrum is evaluated through the shared sweep
    kernel, the spectra are stacked into a ``(n_models, n_freq, p, m)``
    array, and a *single* ``np.fft.irfft`` call transforms the whole batch
    (step 3 of the module recipe); the cumulative step integration is
    likewise one vectorized pass.

    Returns ``(impulse, step)``, each of shape
    ``(n_models, n_points, p, m)``.
    """
    models = list(models)
    if not models:
        raise ValueError("batch_time_responses needs at least one model")
    shapes = {_feedthrough(model).shape for model in models}
    if len(shapes) != 1:
        raise ValueError(f"models must share one (p, m) shape, got {sorted(shapes)}")
    spectra = np.stack([evaluate_spectrum(model, grid, method=method) for model in models])
    spectra = _windowed(spectra, grid, window)
    feedthroughs = np.stack([_feedthrough(model) for model in models])
    impulse = impulse_from_spectrum(spectra, grid)
    step = step_from_impulse(impulse, grid) + feedthroughs[:, np.newaxis, :, :]
    return impulse, step


def grid_nonuniform_spectrum(
    frequencies_hz,
    samples,
    grid: SpectralGrid,
    *,
    feedthrough: Optional[np.ndarray] = None,
    taper_fraction: float = DEFAULT_TAPER_FRACTION,
) -> np.ndarray:
    """NUFFT-style gridding of non-uniform frequency samples onto the rfft grid.

    The minimal-sampling experiments (and any measured Touchstone sweep)
    produce samples ``H(j 2 pi f_i)`` at non-uniform ``f_i``; this routine
    interpolates them onto the uniform conjugate-symmetric grid so they can
    ride the same batched inverse FFT as exactly evaluated models:

    * each uniform grid point inside the sampled band gathers from its two
      neighbouring samples with linear-kernel weights (the classic
      triangular gridding kernel),
    * below the lowest sample the first sample is held (DC extrapolation),
    * above the highest sample the spectrum rolls off to zero over a raised
      cosine spanning ``taper_fraction`` of the band, avoiding the hard
      truncation edge that would ring through the transform,
    * when ``feedthrough`` is given it is subtracted from the samples first
      (the strictly proper convention of :func:`evaluate_spectrum`), so the
      gridded spectrum plugs into :func:`impulse_from_spectrum` /
      :func:`step_from_impulse` unchanged.

    Returns the ``(n_freq, p, m)`` gridded spectrum.
    """
    freqs = np.asarray(frequencies_hz, dtype=float).ravel()
    values = np.asarray(samples, dtype=complex)
    if values.ndim == 2:
        values = values[:, np.newaxis, :]
    if values.ndim != 3 or values.shape[0] != freqs.size:
        raise ValueError(
            f"samples must have shape (k, p, m) matching {freqs.size} frequencies, "
            f"got {values.shape}"
        )
    if freqs.size < 2:
        raise ValueError("gridding needs at least two non-uniform samples")
    if np.any(np.diff(freqs) <= 0):
        order = np.argsort(freqs, kind="stable")
        freqs = freqs[order]
        values = values[order]
        if np.any(np.diff(freqs) <= 0):
            raise ValueError("non-uniform frequencies must be distinct")
    if not 0.0 <= taper_fraction < 1.0:
        raise ValueError(f"taper_fraction must lie in [0, 1), got {taper_fraction}")
    if feedthrough is not None:
        values = values - np.asarray(feedthrough)[np.newaxis, :, :]

    target = grid.frequencies_hz
    spectrum = np.zeros((target.size,) + values.shape[1:], dtype=complex)

    f_lo, f_hi = float(freqs[0]), float(freqs[-1])
    in_band = target <= f_hi
    if np.any(in_band):
        pts = np.minimum(np.maximum(target[in_band], f_lo), f_hi)
        # linear-kernel gather: locate each grid point between its two
        # neighbouring samples and blend them with triangular weights
        hi = np.searchsorted(freqs, pts, side="left")
        hi = np.clip(hi, 1, freqs.size - 1)
        lo = hi - 1
        span = freqs[hi] - freqs[lo]
        weight = (pts - freqs[lo]) / span
        spectrum[in_band] = (
            (1.0 - weight)[:, np.newaxis, np.newaxis] * values[lo]
            + weight[:, np.newaxis, np.newaxis] * values[hi]
        )
        if taper_fraction > 0.0:
            # raised-cosine roll-off over the top taper_fraction of the band
            # (half-cosine from 1 at the knee to 0 at the band edge)
            knee = f_hi - taper_fraction * (f_hi - f_lo)
            tapered = in_band & (target > knee)
            if np.any(tapered):
                phase = (target[tapered] - knee) / (f_hi - knee)
                window = 0.5 * (1.0 + np.cos(np.pi * phase))
                spectrum[tapered] *= window[:, np.newaxis, np.newaxis]
    return spectrum
