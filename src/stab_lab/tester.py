"""Monte Carlo simulation of Bell difference sampling and the two decision
procedures built on it: the tolerant fidelity test and the low-rank-vs-Haar
distinguisher.

Shots are simulated at the distribution level: the outcome z is drawn from
the exact difference distribution q = f*f and the agreement bit from
Bernoulli((1 + f(z))/2). A run of shots is two arrays, the int64 outcomes z
and the bool agreement bits, and R-hat is a count over the second. The z-law
is that of the physical 4-copy Bell measurement for every state, complex
amplitudes included (Gross-Nezami-Walter, arXiv:1712.08628). A full 4-copy
simulator (n <= 6) cross-checks it: the two laws agree to rounding (total
variation below 1e-15 on Haar states at n = 1..6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .charfn import bell_diff_distribution, char_function
from .states import MAX_QUBITS, StateVector, convolve, fwht, haar_unit


MAX_SHOTS = 10_000_000


class TesterError(ValueError):
    __test__ = False  # keep pytest from collecting the Test* name


@dataclass(frozen=True)
class TestDecision:
    statistic: float  # R-hat
    threshold: float
    verdict: str  # "close" or "far"
    shots: int
    seed: int


def bell_difference_sample(
    state: StateVector, shots: int, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Draw i.i.d. outcomes z ~ q and agreement bits ~ Bernoulli((1+f(z))/2);
    returns (z, same) as int64 and bool arrays of length shots."""
    if not 1 <= shots <= MAX_SHOTS:
        raise TesterError(f"shots must be in [1, {MAX_SHOTS}]")
    t = char_function(state.normalized())
    q = bell_diff_distribution(t)
    probs = q / q.sum()
    rng = np.random.default_rng(seed)
    zs = rng.choice(len(probs), size=shots, p=probs)
    f_at = t.flat()[zs]
    same = rng.random(shots) < 0.5 * (1.0 + f_at)
    return zs, same


def estimate_R(state: StateVector, shots: int, seed: int = 0) -> float:
    """R-hat = 2 * (fraction of agreement bits) - 1; unbiased for
    sum_z q(z) f(z) with standard error at most 1/sqrt(shots)."""
    _, same = bell_difference_sample(state, shots, seed)
    return 2.0 * int(np.count_nonzero(same)) / shots - 1.0


def _decide(state: StateVector, tau: float, shots: int, seed: int) -> TestDecision:
    r_hat = estimate_R(state, shots, seed)
    verdict = "close" if r_hat >= tau else "far"
    return TestDecision(r_hat, tau, verdict, shots, seed)


def tolerant_test(
    state: StateVector,
    eps1: float,
    eps2: float,
    shots: int,
    seed: int = 0,
    threshold: Optional[float] = None,
) -> TestDecision:
    """Decide fidelity >= eps1 ("close") versus <= eps2 ("far") from R-hat.

    The default threshold eps1**8 / 2 descends from the one-sided chain
    R >= (U3 norm)^16 >= F^8 >= eps1^8 in the close case, with the factor 2
    as an equal sampling margin; the worst-case constants behind the far-case
    guarantee are astronomically weak, so desk-scale separation is validated
    empirically instead (see the calibration corpus).
    """
    if not 0 < eps2 < eps1 <= 1:
        raise TesterError("need 0 < eps2 < eps1 <= 1")
    tau = eps1**8 / 2 if threshold is None else threshold
    return _decide(state, tau, shots, seed)


def rank_vs_haar_test(
    state: StateVector,
    k: int,
    shots: int,
    seed: int = 0,
    thresholds: Optional[dict] = None,
) -> TestDecision:
    """Decide rank <= k ("close") versus Haar-random ("far") using the same
    statistic with an empirically calibrated threshold per (n, k)."""
    if k < 1:
        raise TesterError("k must be at least 1")
    if thresholds is None or (state.n, k) not in thresholds:
        raise TesterError(
            f"no calibrated threshold for (n={state.n}, k={k}); run calibrate"
        )
    return _decide(state, thresholds[(state.n, k)], shots, seed)


def calibrate(
    n: int,
    k: int,
    seed: int = 0,
    corpus_size: int = 100,
    shots: int = 10_000,
) -> dict:
    """Empirical threshold for rank<=k vs Haar at size n: the midpoint of the
    class medians of R-hat over seeded corpora."""
    if min(n, k, corpus_size) < 1:
        raise TesterError("calibrate needs n, k and corpus_size of at least 1")
    from .measures import random_low_rank_state

    rng = np.random.default_rng(seed)
    low, haar = [], []
    for i in range(corpus_size):
        ls = random_low_rank_state(n, k, rng)
        low.append(estimate_R(ls, shots, seed=int(rng.integers(0, 2**63))))
        hs = StateVector.from_unit(haar_unit(n, rng))
        haar.append(estimate_R(hs, shots, seed=int(rng.integers(0, 2**63))))
    med_low = float(np.median(low))
    med_haar = float(np.median(haar))
    return {
        "n": n,
        "k": k,
        "seed": seed,
        "corpus_size": corpus_size,
        "shots": shots,
        "median_low_rank": med_low,
        "median_haar": med_haar,
        "threshold": 0.5 * (med_low + med_haar),
    }


# ---------------------------------------------------------------------------
# Full 4-copy cross-check (n <= 6)


def bell_pair_distribution(state: StateVector) -> np.ndarray:
    """Outcome law of a single Bell-basis measurement on two copies of the
    (possibly complex) state: p(z) proportional to |<W_z phi*, phi>|^2 —
    the two-copy amplitude collapses to this inner product with the
    elementwise-conjugated state. Up to a sign that is the Walsh transform
    at alpha of x -> u(x) u(x + y), z = (y, alpha): one transform per row y,
    written out rather than through char_function, which it cross-checks."""
    if state.n > MAX_QUBITS:
        raise TesterError(f"4-copy cross-check capped at n = {MAX_QUBITS}")
    u = state.unit()
    idx = np.arange(state.N)
    p = np.abs(fwht(u * u[idx[:, None] ^ idx], axis=1)).ravel() ** 2
    return p / p.sum()


def four_copy_difference_law(state: StateVector) -> np.ndarray:
    """Law of z1 + z2 over two independent Bell measurements on 4 copies:
    the XOR self-convolution of the single-measurement law."""
    p = bell_pair_distribution(state)
    return len(p) * convolve(p, p).real


def sampler_vs_four_copy_tv(state: StateVector) -> float:
    """Total variation distance between the distribution-level sampler's z-law
    (q = f*f) and the physical 4-copy law; zero up to rounding for every
    state, complex amplitudes included."""
    q = bell_diff_distribution(char_function(state.normalized()))
    phys = four_copy_difference_law(state)
    return 0.5 * float(np.abs(q - phys).sum())
