"""Rank-normalized split R-hat and bulk effective sample size.

Follows Vehtari, Gelman, Simpson, Carpenter and Buerkner, "Rank-normalization,
folding, and localization: an improved R-hat for assessing convergence of
MCMC", Bayesian Analysis 16 (2021).  Draws are given as an array of shape
(n_chains, n_draws).  Every chain is split in half, so a single chain still
gives two sequences and a finite R-hat.
"""

import numpy as np
from scipy.special import ndtri


def _split(draws):
    draws = np.atleast_2d(np.asarray(draws, dtype=float))
    half = draws.shape[1] // 2
    if half < 2:
        raise ValueError("need at least 4 draws per chain")
    # an odd middle draw is dropped so both halves have equal length
    return np.concatenate([draws[:, :half], draws[:, -half:]], axis=0)


def _rank_normalize(draws):
    """Normal scores of the pooled ranks; tied draws share their mean rank."""
    _, inverse, counts = np.unique(draws, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    mean_rank = (ends - counts + 1 + ends) / 2
    ranks = mean_rank[inverse].reshape(draws.shape)
    return ndtri((ranks - 0.375) / (draws.size + 0.25))


def _rhat(chains):
    m, n = chains.shape
    within = chains.var(axis=1, ddof=1).mean()
    between = n * chains.mean(axis=1).var(ddof=1)
    if within <= 0:
        return float("inf")
    return float(np.sqrt(((n - 1) / n * within + between / n) / within))


def _autocov(chains):
    """Biased autocovariance of each row, by FFT."""
    m, n = chains.shape
    centred = chains - chains.mean(axis=1, keepdims=True)
    size = 1 << (2 * n - 1).bit_length()
    spec = np.fft.rfft(centred, size, axis=1)
    return np.fft.irfft(spec * spec.conj(), size, axis=1)[:, :n] / n


def _ess(chains):
    """Effective sample size of (m, n) sequences, with Geyer's initial
    monotone sequence on the combined autocorrelation."""
    m, n = chains.shape
    acov = _autocov(chains)
    mean_var = acov[:, 0].mean() * n / (n - 1)
    var_plus = mean_var * (n - 1) / n
    if m > 1:
        var_plus += chains.mean(axis=1).var(ddof=1)
    if var_plus <= 0:
        return float("nan")
    rho = 1.0 - (mean_var - acov.mean(axis=0)) / var_plus
    rho[0] = 1.0
    # sum autocorrelation pairs while they stay positive
    pairs = []
    for k in range(0, n - 1, 2):
        p = rho[k] + rho[k + 1]
        if p <= 0:
            break
        pairs.append(p)
    pairs = np.minimum.accumulate(np.asarray(pairs))
    tau = -1.0 + 2.0 * pairs.sum()
    tau = max(tau, 1.0 / np.log10(m * n))
    return float(m * n / tau)


def ess_bulk(draws):
    """Bulk ESS: ESS of the rank-normalized split chains."""
    return _ess(_rank_normalize(_split(draws)))


def rhat(draws):
    """Rank-normalized split R-hat: the larger of the bulk value and the
    value for the draws folded about their median."""
    split = _split(draws)
    folded = np.abs(split - np.median(split))
    return max(_rhat(_rank_normalize(split)), _rhat(_rank_normalize(folded)))
