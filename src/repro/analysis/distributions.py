"""Distribution fitting and goodness-of-fit for failure interarrivals.

Section 4: "frequently, for mathematical convenience ... failures are
modeled as occurring independently (exponential interarrival times)"; the
paper finds this appropriate only for low-level physical processes (the
Thunderbird ECC alerts, Figure 5, "appears exponential and is roughly log
normal with a heavy left tail") and warns that for everything else "in
even the best visual fit cases, heavy tails result in very poor statistical
goodness-of-fit metrics ... such modeling of this data is misguided."

This module makes those statements measurable: MLE fits for exponential,
lognormal, and Weibull models, Kolmogorov-Smirnov goodness-of-fit, and a
model comparison that reports — as the paper insists — when *no* model
fits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np


def _stats():
    """``scipy.stats``, imported on first use.

    scipy is a runtime dependency of the fits alone; importing it here
    rather than at module load keeps it out of every process that never
    fits a distribution (``repro study``, the service, sharded parents).
    """
    from scipy import stats

    return stats


@dataclass(frozen=True)
class FitResult:
    """One fitted model with its KS goodness-of-fit."""

    name: str
    params: Tuple[float, ...]
    log_likelihood: float
    ks_statistic: float
    ks_pvalue: float

    @property
    def acceptable(self) -> bool:
        """Conventional alpha = 0.05 acceptance of the KS test."""
        return self.ks_pvalue >= 0.05


def _clean(sample: Sequence[float]) -> np.ndarray:
    array = np.asarray(list(sample), dtype=float)
    array = array[array > 0]
    if array.size < 2:
        raise ValueError("need at least two positive observations to fit")
    return array


def fit_exponential(sample: Sequence[float]) -> FitResult:
    """MLE exponential fit (rate = 1/mean), KS-tested against the sample."""
    array = _clean(sample)
    stats = _stats()
    scale = float(array.mean())
    loglik = float(np.sum(stats.expon.logpdf(array, scale=scale)))
    ks = stats.kstest(array, "expon", args=(0, scale))
    return FitResult(
        name="exponential",
        params=(scale,),
        log_likelihood=loglik,
        ks_statistic=float(ks.statistic),
        ks_pvalue=float(ks.pvalue),
    )


def fit_lognormal(sample: Sequence[float]) -> FitResult:
    """MLE lognormal fit (on log-space mean/sigma), KS-tested."""
    array = _clean(sample)
    stats = _stats()
    logs = np.log(array)
    mu = float(logs.mean())
    sigma = float(logs.std(ddof=0))
    sigma = max(sigma, 1e-9)
    loglik = float(
        np.sum(stats.lognorm.logpdf(array, s=sigma, scale=np.exp(mu)))
    )
    ks = stats.kstest(array, "lognorm", args=(sigma, 0, np.exp(mu)))
    return FitResult(
        name="lognormal",
        params=(mu, sigma),
        log_likelihood=loglik,
        ks_statistic=float(ks.statistic),
        ks_pvalue=float(ks.pvalue),
    )


def fit_weibull(sample: Sequence[float]) -> FitResult:
    """MLE Weibull fit (shape, scale), KS-tested.

    Weibull is the classic reliability-engineering alternative; shape < 1
    means a decreasing hazard (bursty), shape = 1 reduces to exponential.
    """
    array = _clean(sample)
    stats = _stats()
    shape, _, scale = stats.weibull_min.fit(array, floc=0)
    loglik = float(
        np.sum(stats.weibull_min.logpdf(array, shape, 0, scale))
    )
    ks = stats.kstest(array, "weibull_min", args=(shape, 0, scale))
    return FitResult(
        name="weibull",
        params=(float(shape), float(scale)),
        log_likelihood=loglik,
        ks_statistic=float(ks.statistic),
        ks_pvalue=float(ks.pvalue),
    )


def fit_all(sample: Sequence[float]) -> Dict[str, FitResult]:
    """All three fits keyed by model name."""
    return {
        fit.name: fit
        for fit in (
            fit_exponential(sample),
            fit_lognormal(sample),
            fit_weibull(sample),
        )
    }


@dataclass(frozen=True)
class ModelComparison:
    """Outcome of comparing candidate models on one sample."""

    fits: Dict[str, FitResult]
    best_name: Optional[str]

    @property
    def best(self) -> Optional[FitResult]:
        return self.fits[self.best_name] if self.best_name else None

    @property
    def none_fit(self) -> bool:
        """True when every candidate is rejected — the paper's common case
        ("heavy tails result in very poor statistical goodness-of-fit")."""
        return all(not fit.acceptable for fit in self.fits.values())


def compare_models(sample: Sequence[float]) -> ModelComparison:
    """Fit all models; the best is the acceptable one with the highest
    likelihood, or ``None`` when all are rejected by KS at alpha = 0.05."""
    fits = fit_all(sample)
    acceptable = [fit for fit in fits.values() if fit.acceptable]
    if not acceptable:
        return ModelComparison(fits=fits, best_name=None)
    best = max(acceptable, key=lambda fit: fit.log_likelihood)
    return ModelComparison(fits=fits, best_name=best.name)


def empirical_cdf(sample: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    """Sorted values and empirical CDF heights (the Figure 5(a) view)."""
    array = np.sort(np.asarray(list(sample), dtype=float))
    if array.size == 0:
        return array, array
    heights = np.arange(1, array.size + 1) / array.size
    return array, heights


def exponentiality_score(sample: Sequence[float]) -> float:
    """A [0, 1] score of how exponential (independent) a gap sample looks.

    Combines the KS p-value with a CV penalty: a truly Poisson process has
    CV ~ 1, so score = p_value * exp(-|cv - 1|).  Used by the Figure 5
    bench to assert ECC >> other categories.
    """
    array = _clean(sample)
    fit = fit_exponential(array)
    cv = float(array.std() / array.mean()) if array.mean() > 0 else 0.0
    return fit.ks_pvalue * float(np.exp(-abs(cv - 1.0)))
