"""Monte Carlo simulation of Bell difference sampling and the two decision
procedures built on it: the tolerant fidelity test and the low-rank-vs-Haar
distinguisher.

Shots are simulated at the distribution level: the outcome z is drawn from
the exact difference distribution q = f*f and the agreement bit from
Bernoulli((1 + f(z))/2). A run of shots is two arrays, the int64 outcomes z
and the bool agreement bits, and R-hat is a count over the second. The shot
step (_shots) takes a state's table and law; bell_difference_sample builds
them for one state, and calibrate for a whole corpus through charfn's batch
kernels, a chunk of states at a time, after drawing the corpus. The z-law
is that of the physical 4-copy Bell measurement for every state, complex
amplitudes included (Gross-Nezami-Walter, arXiv:1712.08628). A full 4-copy
simulator (n <= 6) cross-checks it: the two laws agree to rounding (the
tests assert total variation below 1e-14 on real, T-tensor and Haar states
at n = 1..6; the largest seen on 100 Haar states per n is 1.6e-15).

The outcomes are exactly those of Generator.choice(len(q), shots, p=q/sum q)
on the same seed, drawn faster. choice builds cdf = p.cumsum() / its last
entry, draws u = rng.random(shots) and returns searchsorted(cdf, u,
side="right"), one binary search over all of cdf per shot. _draw keeps cdf and
u and finds the same index through a guide table. The first entry above u is
always an index where cdf strictly rises (the entry before it is at most u),
so the search runs over the rising entries only. Their values c are bucketed
into K equal cells of [0, 1), K a power of two at least twice the number of
rises: c*K, u*K and the cell edges b/K are then exact, so one bincount of
ceil(c*K) gives every cell's bounds, the counts of c at most b/K and (b+1)/K.
A shot in a cell that no c splits is settled by that lookup; a vectorized
binary search inside the bounds settles the rest. Every comparison is one of u
with an entry of cdf, as in choice's search, so z is the same array bit for
bit: tests/test_tester.py checks it against choice, and against searchsorted
on cdf entries, cell edges and crowded cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .charfn import (
    bell_diff_distribution,
    char_function,
    char_tables,
    chunk_states,
    diff_laws,
)
from .states import MAX_QUBITS, StateVector, convolve, fwht, haar_unit


MAX_SHOTS = 10_000_000
MAX_CORPUS = 10_000  # states per class of a calibrate corpus
_CHUNK = 1 << 16  # shots per guide lookup in _draw


class TesterError(ValueError):
    __test__ = False  # keep pytest from collecting the Test* name


@dataclass(frozen=True, slots=True)
class TestDecision:
    statistic: float  # R-hat
    threshold: float
    verdict: str  # "close" or "far"
    shots: int
    seed: int


def _check_shots(shots: int) -> None:
    if not 1 <= shots <= MAX_SHOTS:
        raise TesterError(f"shots must be in [1, {MAX_SHOTS}]")


def bell_difference_sample(
    state: StateVector, shots: int, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Draw i.i.d. outcomes z ~ q and agreement bits ~ Bernoulli((1+f(z))/2);
    returns (z, same) as int64 and bool arrays of length shots."""
    _check_shots(shots)
    t = char_function(state.normalized())
    return _shots(t.flat(), bell_diff_distribution(t), shots, seed)


def _shots(
    f: np.ndarray, q: np.ndarray, shots: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """The shot step of one state, given its flat table f and its law q:
    outcomes z ~ q, then agreement bits ~ Bernoulli((1+f(z))/2), both from
    one generator seeded by seed."""
    rng = np.random.default_rng(seed)
    zs = _draw(rng, q / q.sum(), shots)
    f_at = f[zs]
    f_at += 1.0  # in place: the same two roundings as 0.5 * (1.0 + f_at)
    f_at *= 0.5
    same = rng.random(shots) < f_at
    return zs, same


def _draw(rng: np.random.Generator, probs: np.ndarray, shots: int) -> np.ndarray:
    """rng.choice(len(probs), size=shots, p=probs), bit for bit, by a guide
    table over the rises of the cdf (see the module docstring). Like choice
    it holds two arrays of shot length, u and the result; the lookup's own
    arrays are per chunk of _CHUNK shots."""
    cdf = probs.cumsum()
    if not 0 < cdf[-1] < np.inf:  # also nan
        raise TesterError("the distribution's mass is not finite and positive")
    cdf /= cdf[-1]
    rise = np.flatnonzero(np.concatenate(([cdf[0] > 0], cdf[1:] > cdf[:-1])))
    c = cdf[rise]
    K = 1 << (2 * len(c) - 1).bit_length()
    # guide[b] = #{c <= b/K} = #{ceil(c*K) <= b}; the answer for u in cell
    # b = floor(u*K) lies in [guide[b], guide[b + 1]] (and below len(c))
    guide = np.bincount(np.ceil(c * K).astype(int), minlength=K + 1).cumsum()
    split = guide[1:] > guide[:-1]  # the cells that some c splits
    u = rng.random(shots)
    z = np.empty(shots, dtype=np.int64)
    for at in range(0, shots, _CHUNK):
        uc = u[at : at + _CHUNK]
        # floor(u*K), each shot's cell, cast straight into an index array
        lo = np.multiply(uc, K, out=np.empty(len(uc), dtype=np.intp), casting="unsafe")
        todo = np.flatnonzero(split[lo])
        hi = guide[1:][lo[todo]]
        lo = guide[lo]
        # A binary search inside the cell's bounds settles the shots left open.
        while todo.size:
            mid = (lo[todo] + hi) >> 1
            above = c[mid] > uc[todo]
            hi = np.where(above, mid, hi)
            lo[todo] = np.where(above, lo[todo], mid + 1)
            keep = lo[todo] < hi
            todo, hi = todo[keep], hi[keep]
        z[at : at + _CHUNK] = rise[lo]
    return z


def estimate_R(state: StateVector, shots: int, seed: int = 0) -> float:
    """R-hat = 2 * (fraction of agreement bits) - 1; unbiased for
    sum_z q(z) f(z) with standard error at most 1/sqrt(shots)."""
    return _r_hat(bell_difference_sample(state, shots, seed)[1])


def _r_hat(same: np.ndarray) -> float:
    return 2.0 * int(np.count_nonzero(same)) / len(same) - 1.0


def _decide(state: StateVector, tau: float, shots: int, seed: int) -> TestDecision:
    if not math.isfinite(tau):  # nan or inf gives one verdict for every state
        raise TesterError(f"threshold must be finite, got {tau}")
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
    class medians of R-hat over seeded corpora.

    n, k, corpus_size (at most MAX_CORPUS) and shots are checked before
    anything is drawn or the stabilizer table is looked up. The whole corpus
    and each state's shot seed are drawn first, in the order of a per-state
    loop: for each i a rank-k state, its seed, a Haar state, its seed. Their
    tables and laws are then built a chunk of charfn.chunk_states(n) states
    at a time, and each state of a chunk runs bell_difference_sample's shot
    step. Every R-hat is the same bits as estimate_R on that state and seed.
    """
    if min(n, k, corpus_size) < 1:
        raise TesterError("calibrate needs n, k and corpus_size of at least 1")
    if corpus_size > MAX_CORPUS:
        raise TesterError(f"corpus_size must be at most {MAX_CORPUS}")
    _check_shots(shots)
    from .measures import random_low_rank_state

    rng = np.random.default_rng(seed)
    amps, seeds = [], []
    for _ in range(corpus_size):
        amps.append(random_low_rank_state(n, k, rng).normalized().g)
        seeds.append(int(rng.integers(0, 2**63)))
        amps.append(StateVector.from_unit(haar_unit(n, rng)).normalized().g)
        seeds.append(int(rng.integers(0, 2**63)))
    g = np.array(amps)
    r_hat = []
    step = chunk_states(n)
    for at in range(0, len(g), step):
        f = char_tables(g[at : at + step]).reshape(-1, 4**n)
        for fb, qb, sb in zip(f, diff_laws(f), seeds[at : at + step]):
            r_hat.append(_r_hat(_shots(fb, qb, shots, sb)[1]))
    med_low = float(np.median(r_hat[0::2]))
    med_haar = float(np.median(r_hat[1::2]))
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
    return len(p) * convolve(p, p)


def sampler_vs_four_copy_tv(state: StateVector) -> float:
    """Total variation distance between the distribution-level sampler's z-law
    (q = f*f) and the physical 4-copy law; zero up to rounding for every
    state, complex amplitudes included."""
    q = bell_diff_distribution(char_function(state.normalized()))
    phys = four_copy_difference_law(state)
    return 0.5 * float(np.abs(q - phys).sum())
