"""Shared Loewner pipeline used by the VFTI, MFTI and recursive MFTI front-ends.

The front-ends differ only in how they pick tangential data; once the
:class:`~repro.core.tangential.TangentialData` exists, the remaining steps --
assemble the pencil (real when a real model is asked for), project through
the rank-revealing SVD, package the result -- are identical and live here.

The module also hosts the *front-end registry*: every interpolation front-end
(``mfti``, ``vfti``, ``mfti-recursive``) registers itself under a method name,
and :func:`run_fit` dispatches on that name.  The registry is the single entry
point shared by interactive use, the experiment drivers and the batch engine
(:mod:`repro.batch`), so a fit described as ``(data, method, options)`` runs
through exactly the same code no matter which layer requested it.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.loewner import build_loewner_pencil
from repro.core.options import InterpolationOptions
from repro.core.realization import svd_realization
from repro.core.results import MacromodelResult
from repro.core.tangential import TangentialData

__all__ = [
    "realize_from_tangential",
    "register_frontend",
    "available_methods",
    "frontend_spec",
    "run_fit",
]


@dataclass(frozen=True)
class FrontendSpec:
    """A registered interpolation front-end.

    Attributes
    ----------
    name:
        Method name used for dispatch (``"mfti"``, ``"vfti"``, ...).
    runner:
        The timed front-end callable:
        ``runner(data, *, options=None, **kwargs)``.
    options_type:
        The options dataclass the front-end expects.
    """

    name: str
    runner: Callable[..., MacromodelResult]
    options_type: type[InterpolationOptions]


_FRONTENDS: dict[str, FrontendSpec] = {}


def register_frontend(name: str, *, options_type: type[InterpolationOptions]):
    """Register the decorated callable as the front-end for ``name``.

    The registered (and returned) callable is a wrapper that times each call
    and stamps the wall-clock seconds on the result's ``elapsed_seconds`` --
    the one fit timer every front-end shares.  Used by the front-end modules
    themselves; user code normally only calls :func:`run_fit` /
    :func:`available_methods`.
    """

    def decorate(runner: Callable[..., MacromodelResult]):
        @functools.wraps(runner)
        def timed(*args, **kwargs) -> MacromodelResult:
            started = time.perf_counter()
            result = runner(*args, **kwargs)
            return dataclasses.replace(result, elapsed_seconds=time.perf_counter() - started)

        _FRONTENDS[name] = FrontendSpec(name=name, runner=timed, options_type=options_type)
        return timed

    return decorate


def _ensure_frontends_loaded() -> None:
    """Import the front-end modules so their ``register_frontend`` calls ran."""
    from repro.core import mfti, recursive, vfti  # noqa: F401  (import = registration)


def available_methods() -> tuple[str, ...]:
    """Names of every registered interpolation front-end, sorted."""
    _ensure_frontends_loaded()
    return tuple(sorted(_FRONTENDS))


def frontend_spec(method: str) -> FrontendSpec:
    """Look up the :class:`FrontendSpec` registered under ``method``."""
    _ensure_frontends_loaded()
    try:
        return _FRONTENDS[method]
    except KeyError:
        raise ValueError(
            f"unknown method {method!r}; available: {', '.join(sorted(_FRONTENDS))}"
        ) from None


def run_fit(
    data,
    *,
    method: str = "mfti",
    options: Optional[InterpolationOptions] = None,
    cache=None,
    **kwargs,
) -> MacromodelResult:
    """Run one macromodel fit, dispatching on the method name.

    Parameters
    ----------
    data:
        The :class:`~repro.data.dataset.FrequencyData` to interpolate.
    method:
        Registered front-end name (see :func:`available_methods`).
    options:
        Options object of the method's expected type; keyword arguments are
        accepted as a shortcut exactly like on the front-ends themselves.
    cache:
        Optional :class:`~repro.cache.FitCache`.  When given, the fit is
        looked up by content (dataset fingerprint + method + options) and
        replayed on a hit; a fresh fit populates the cache.  Keyword
        shortcuts are normalised into the options object first, so they
        share cache entries with the explicit-options spelling.
        Nondeterministic fits (unseeded random directions) always bypass
        the cache.
    """
    spec = frontend_spec(method)
    if options is not None and not isinstance(options, spec.options_type):
        raise TypeError(
            f"method {method!r} expects {spec.options_type.__name__} options, "
            f"got {type(options).__name__}"
        )
    if cache is not None:
        # deferred import: repro.cache consumes this registry module
        from repro.cache.fitcache import fit_with_cache

        result, _, _ = fit_with_cache(
            data, method=method, options=options, cache=cache, **kwargs
        )
        return result
    return spec.runner(data, options=options, **kwargs)


def realize_from_tangential(
    tangential: TangentialData,
    options: InterpolationOptions,
    *,
    method: str,
    n_samples_used: int,
    metadata: dict | None = None,
) -> MacromodelResult:
    """Run the Loewner realization pipeline on prepared tangential data.

    ``build_loewner_pencil(tangential, real=options.real_output)`` assembles
    the pencil -- for a real model only the ``+j omega`` half of the complex
    pencil is ever computed -- and the SVD realization projects it.  The
    result does not keep the pencil: ``build_loewner_pencil(
    result.tangential)`` rebuilds it on demand.

    Parameters
    ----------
    tangential:
        The right/left tangential data (already including conjugates when a
        real model is requested).
    options:
        Shared interpolation options (real output, SVD mode, rank rule, ...).
    method:
        Name recorded on the result (``"mfti"``, ``"vfti"``, ...).
    n_samples_used:
        Number of sampled matrices that contributed to ``tangential``.
    metadata:
        Extra key/value pairs stored on the result.
    """
    pencil = build_loewner_pencil(tangential, real=options.real_output)
    system, diagnostics = svd_realization(
        pencil,
        order=options.order,
        rank_tolerance=options.rank_tolerance,
        rank_method=options.rank_method,
        mode=options.svd_mode,
        x0=options.x0,
    )
    info = dict(metadata or {})
    info.setdefault("options", options)
    return MacromodelResult(
        system=system,
        method=method,
        realization=diagnostics,
        tangential=tangential,
        n_samples_used=int(n_samples_used),
        metadata=info,
    )
