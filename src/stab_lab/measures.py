"""Stabilizer complexity measures — Gowers-3 norm, stabilizer fidelity,
stabilizer rank — plus Gram-matrix eigenvalue machinery and the small-scale
relations experiment tying the three measures together.

All exhaustive searches run over the complete stabilizer enumeration, so
results at n <= 4 (fidelity) and n <= 2 (rank) are exact, not heuristic.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .charfn import char_function
from .clifford import (
    TABLE_MAX_N,
    StabilizerState,
    stabilizer_at,
    stabilizer_unit_matrix,
    stabilizer_vectors,
)
from .states import FamilySpec, StateVector, make_state

SINGULAR_TOL = 1e-9
STABILIZER_FIDELITY_TOL = 1e-9
RANK_RESIDUAL_TOL = 1e-9
_CHUNK = 4096
MAX_TRIALS = 100_000  # sampled subsets per (k, n) in lambda_star_scan
MAX_GRAM_STATES = 8  # states per Gram matrix
_PAIR_ROWS = 64  # rows of i per block of the rank search's pair sweep
_PLANE_BLOCK = 256  # subsets per block of the hyperplane table's build


class MeasureError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Gowers norms


def gowers_norm_direct(state: StateVector, d: int) -> float:
    """Brute-force E_{x,y_1..y_d}[D_{y_1}...D_{y_d} g(x)], the 2^d-th power
    of the degree-d uniformity norm. Exponential loop; d=3 capped at n=4."""
    if d not in (1, 2, 3):
        raise MeasureError("only degrees 1, 2, 3 are supported")
    if d == 3 and state.n > 4:
        raise MeasureError("degree-3 brute force capped at n = 4")
    g = state.g
    N = state.N
    idx = np.arange(N)
    if d == 1:
        xy = idx[:, None] ^ idx[None, :]
        acc = np.einsum("xy,x->", g[xy], np.conj(g)) / N**2
    elif d == 2:
        x = idx[:, None, None]
        y1 = idx[None, :, None]
        y2 = idx[None, None, :]
        acc = np.einsum(
            "abc,abc,abc,abc->",
            g[x ^ y1 ^ y2],
            np.conj(g[x ^ y1]),
            np.conj(g[x ^ y2]),
            g[x],
        ) / N**3
    else:
        x = idx[:, None, None, None]
        y1 = idx[None, :, None, None]
        y2 = idx[None, None, :, None]
        y3 = idx[None, None, None, :]
        cg = np.conj(g)
        acc = (
            np.einsum(
                "abcd,abcd,abcd,abcd,abcd,abcd,abcd,abcd->",
                g[x ^ y1 ^ y2 ^ y3],
                cg[x ^ y1 ^ y2],
                cg[x ^ y1 ^ y3],
                cg[x ^ y2 ^ y3],
                g[x ^ y1],
                g[x ^ y2],
                g[x ^ y3],
                cg[x],
            )
            / N**4
        )
    if abs(acc.imag) > 1e-10:
        raise MeasureError(f"uniformity average has imaginary part {acc.imag:g}")
    return float(acc.real)


def gowers3(state: StateVector) -> float:
    """(1/N) sum_z f(z)^2 — the 8th power of the degree-3 norm, via tables."""
    t = char_function(state)
    return float(np.sum(t.f**2) / state.N)


# ---------------------------------------------------------------------------
# Fidelity and rank


def _fidelity_scan(state: StateVector) -> tuple[float, int]:
    """max_{s} |<s|phi>|^2 and the enumeration index of its first argmax."""
    if state.n > TABLE_MAX_N:
        raise MeasureError(f"exhaustive fidelity capped at n = {TABLE_MAX_N}")
    # |<s|phi>| = |S conj(phi)|: conjugating phi, not S, spares a table copy
    overlaps = np.abs(stabilizer_unit_matrix(state.n) @ state.unit().conj()) ** 2
    best = int(np.argmax(overlaps))
    return float(overlaps[best]), best


def stabilizer_fidelity(state: StateVector) -> tuple[float, StabilizerState]:
    """Exact max_{s} |<s|phi>|^2 with an argmax witness, exhaustively over the
    full stabilizer enumeration (ties broken by enumeration order)."""
    fid, best = _fidelity_scan(state)
    return fid, stabilizer_at(state.n, best)


def _first_hit(
    U: np.ndarray, w: np.ndarray, depth: int, thr: float
) -> Optional[tuple[int, ...]]:
    """Lexicographically first depth-subset of U's rows whose span leaves w a
    squared residual <= thr, or None. U and w arrive with the span of the
    chosen prefix already projected out; a row whose projected norm^2 is at
    most SINGULAR_TOL is dependent and adds nothing to the span."""
    M = len(U)
    nrm = np.einsum("ij,ij->i", U.conj(), U).real  # ||u_j||^2
    b = U.conj() @ w  # <u_j, w>
    w2 = float(np.vdot(w, w).real)
    # 1 / ||u_j||^2, and 0 for a dependent row, which then projects nothing out
    inv = np.divide(1.0, nrm, out=np.zeros(M), where=nrm > SINGULAR_TOL)
    if depth == 1:
        hits = np.flatnonzero(w2 - np.abs(b) ** 2 * inv <= thr)
        return (int(hits[0]),) if len(hits) else None
    if depth == 2:
        # every pair (i, j > i) in closed form: project u_i out of u_j and w
        for lo in range(0, M - 1, _PAIR_ROWS):
            hi = min(lo + _PAIR_ROWS, M - 1)
            G = U[lo:hi].conj() @ U[lo:].T  # G[a, c] = <u_{lo+a}, u_{lo+c}>
            inv_i = inv[lo:hi, None]
            nj = nrm[lo:] - np.abs(G) ** 2 * inv_i
            bj = b[lo:] - G.conj() * (b[lo:hi, None] * inv_i)
            w2p = w2 - np.abs(b[lo:hi, None]) ** 2 * inv_i
            gain = np.divide(
                np.abs(bj) ** 2, nj, out=np.zeros_like(nj), where=nj > SINGULAR_TOL
            )
            res = w2p - gain
            upper = np.arange(lo, M) > np.arange(lo, hi)[:, None]
            hits = np.flatnonzero(upper & (res <= thr))
            if len(hits):
                a, c = divmod(int(hits[0]), M - lo)
                return lo + a, lo + c
        return None
    for p in range(M - depth + 1):
        rest = U[p + 1:] - np.outer(U[p + 1:] @ U[p].conj() * inv[p], U[p])
        hit = _first_hit(rest, w - b[p] * inv[p] * U[p], depth - 1, thr)
        if hit is not None:
            return (p,) + tuple(p + 1 + h for h in hit)
    return None


def _wedge_steps(N: int) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Gathers that wedge N - 1 rows of C^N together one row at a time. The
    wedge of rows 0..i-1 has one entry per sorted i-set K of columns, in
    itertools.combinations order; step i takes it to rows 0..i by
    (w ^ v)_K = sum_t (-1)^(i - t) w_(K minus k_t) v_(k_t) over K's columns
    k_t, as (entries of w, columns of v, signs), i + 1 terms per new K."""
    steps, sets = [], list(itertools.combinations(range(N), 1))
    for i in range(1, N - 1):
        new = list(itertools.combinations(range(N), i + 1))
        place = {K: q for q, K in enumerate(sets)}
        left = [place[K[:t] + K[t + 1:]] for K in new for t in range(i + 1)]
        right = [k for K in new for k in K]
        sign = [(-1) ** (i - t) for _ in new for t in range(i + 1)]
        steps.append((np.array(left, int), np.array(right, int), np.array(sign, float)))
        sets = new
    return steps


@functools.lru_cache(maxsize=None)
def _hyperplanes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct hyperplanes of C^N that (N - 1)-subsets of the n-qubit
    stabilizer table span, as (normals, subsets), in the lexicographic order
    of the first subset that spans each; n <= 2. Row k of subsets is that
    first subset, and row k of normals a unit c with sum_j c_j u_j = 0 for
    every u in hyperplane k, so |c . v|^2 is v's squared residual against it.

    Subsets go through in itertools.combinations order, _PLANE_BLOCK at a
    time. c is the wedge of the subset's rows read by missing column (the
    signed maximal minors); its norm^2 is the Gram determinant, and at most
    SINGULAR_TOL marks a dependent subset, which spans less. A hyperplane is
    keyed by the stabilizer rows it holds, those with |c . s|^2 <=
    SINGULAR_TOL (one bit each; at n = 2 the others give at least 1/12), so
    equal keys are the same hyperplane exactly. A key that no earlier block
    held is new, and the block's first subset with it is its first subset."""
    if n > 2:
        raise MeasureError("hyperplane table capped at n = 2")
    S = stabilizer_unit_matrix(n)
    M, N = S.shape
    steps = _wedge_steps(N)
    bits = np.uint64(1) << np.arange(M, dtype=np.uint64)
    flat = itertools.chain.from_iterable(itertools.combinations(range(M), N - 1))
    # sorted; a dependent subset gets key 0, which no hyperplane has, since
    # a subset's own rows lie in its span
    keys = np.zeros(1, np.uint64)
    normals, subsets = [], []
    while len(block := np.fromiter(itertools.islice(flat, _PLANE_BLOCK * (N - 1)), int)):
        block = block.reshape(-1, N - 1)
        A = S[block]
        w = A[:, 0]
        for i, (left, right, sign) in enumerate(steps, 1):
            w = (w[:, left] * A[:, i, right] * sign).reshape(len(A), -1, i + 1).sum(axis=2)
        c = w[:, ::-1] * (-1.0) ** np.arange(N)  # column l: the minor without l
        norm = np.linalg.norm(c, axis=1)
        spans = norm**2 > SINGULAR_TOL
        c = np.divide(c, norm[:, None], out=np.zeros_like(c), where=spans[:, None])
        key = np.where(spans, (np.abs(c @ S.T) <= math.sqrt(SINGULAR_TOL)) @ bits, 0)
        _, first = np.unique(key, return_index=True)
        known = keys[np.minimum(np.searchsorted(keys, key[first]), len(keys) - 1)]
        first = np.sort(first[known != key[first]])
        keys = np.sort(np.concatenate([keys, key[first]]))
        normals.append(c[first])
        subsets.append(block[first])
    table = np.concatenate(normals), np.concatenate(subsets)
    for part in table:  # every caller shares the cached arrays
        part.setflags(write=False)
    return table


def _hyperplane_hit(n: int, v: np.ndarray, thr: float) -> Optional[tuple[int, ...]]:
    """_first_hit(S, v, N - 1, thr) on the full stabilizer table S, read off
    the hyperplane table: the least stored subset whose hyperplane leaves v
    a squared residual <= thr, or None."""
    normals, subsets = _hyperplanes(n)
    hits = np.flatnonzero(np.abs(normals @ v) ** 2 <= thr)
    return tuple(int(i) for i in subsets[hits[0]]) if len(hits) else None


def stabilizer_rank(
    state: StateVector, delta: float = 0.0
) -> tuple[object, Optional[tuple[int, ...]]]:
    """Smallest r such that some r-subset of stabilizer states contains the
    state in its span, up to least-squares residual delta.

    Exact for n <= 2; for n = 3 only r <= 2 is searched, and a miss returns
    the bound pair (3, 2^n) with no witness. For each r the witness is the
    lexicographically first r-subset (enumeration indices) whose squared
    residual is at most delta^2 + RANK_RESIDUAL_TOL.

    The step r = N - 1 (n = 1 and 2) asks whether the state lies within
    delta of a hyperplane, and reads the answer off the cached table of the
    hyperplanes that stabilizer subsets span (_hyperplanes): against an
    independent subset the squared residual is |<h|v>|^2 for the
    hyperplane's unit normal h, so the subsets that qualify are those of the
    qualifying hyperplanes. A dependent subset spans no more than some
    smaller subset inside it, which step r - 1 has already tried. So the
    first qualifying subset is the least first subset of a qualifying
    hyperplane, the same witness for every delta.

    Every other step is depth-first over lexicographic prefixes. It carries
    the stabilizer rows and the state with the span of the chosen prefix
    projected out, so adding u_j leaves ||w||^2 - |<u_j, w>|^2 / ||u_j||^2.
    The last two indices are scored for every pair at once in closed form,
    _PAIR_ROWS rows of i at a time, and the first hit in row-major order is
    the first pair. A row whose projected norm^2 is at most SINGULAR_TOL lies
    in the span already and counts as adding nothing, as a pseudo-inverse of
    the subset's Gram matrix would drop it.
    """
    if delta < 0:
        raise MeasureError("delta must be nonnegative")
    n = state.n
    if n > 3:
        raise MeasureError("rank search capped at n = 3")
    tol = max(delta, RANK_RESIDUAL_TOL)
    thr = tol * tol + RANK_RESIDUAL_TOL  # inf, not OverflowError, for huge delta
    S = stabilizer_unit_matrix(n)
    v = state.unit()
    r_cap = state.N if n <= 2 else 2
    for r in range(1, r_cap + 1):
        if r == state.N - 1:
            hit = _hyperplane_hit(n, v, thr)
        else:
            hit = _first_hit(S, v, r, thr)
        if hit is not None:
            return r, hit
    if n <= 2:
        raise MeasureError("no spanning subset found (cannot happen: basis states span)")
    return (3, state.N), None


# ---------------------------------------------------------------------------
# Gram matrices


@dataclass(frozen=True)
class GramMatrix:
    k: int
    entries: np.ndarray  # (k, k) complex, Hermitian, unit diagonal

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=complex)
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)
        if entries.shape != (self.k, self.k):
            raise MeasureError("Gram matrix shape mismatch")


def _quantize_overlap(
    value: complex, roots: int, tol: float
) -> Optional[tuple[int, int]]:
    """Express value as e^(2 pi i ell / roots) * 2^(-m/2); (ell, m) or None.
    Zero maps to None by convention."""
    mag = abs(value)
    if mag <= tol:
        return None
    m = round(-2 * math.log2(mag))
    if m < 0 or abs(mag - 2 ** (-m / 2)) > tol:
        return None
    phase = value / mag
    for ell in range(roots):
        if abs(phase - np.exp(2j * math.pi * ell / roots)) <= tol:
            return ell, m
    return None


def quantize_overlap(value: complex, tol: float = 1e-10) -> Optional[tuple[int, int]]:
    """Express value as i^ell * 2^(-m/2) (quarter roots of unity only).
    Returns (ell, m) or None. Zero maps to None by convention."""
    return _quantize_overlap(value, 4, tol)


def quantize_overlap_eighth(
    value: complex, tol: float = 1e-10
) -> Optional[tuple[int, int]]:
    """Express value as e^(i pi ell / 4) * 2^(-m/2) (eighth roots of unity).
    Returns (ell, m) or None."""
    return _quantize_overlap(value, 8, tol)


def gram_lambda_min(states: Sequence[StabilizerState]) -> tuple[GramMatrix, float]:
    """Exact Gram matrix of the given stabilizer states and its minimum
    eigenvalue; lambda_min below 1e-9 flags a singular (dependent) family.
    G is lambda_star_scan's einsum, so a scan row's witness states give back
    its min_lambda bit for bit."""
    k = len(states)
    if not 1 <= k <= MAX_GRAM_STATES:
        raise MeasureError(
            f"Gram machinery supports 1 <= k <= {MAX_GRAM_STATES} states"
        )
    n = states[0].n
    if any(s.n != n for s in states):
        raise MeasureError("Gram machinery needs states on one qubit count")
    vecs = stabilizer_vectors(states)[None] / math.sqrt(1 << n)
    entries = np.einsum("kin,kjn->kij", vecs.conj(), vecs)[0]
    gram = GramMatrix(k, entries)
    lam = float(np.linalg.eigvalsh(entries)[0])
    return gram, lam


@dataclass(frozen=True)
class ScanRow:
    k: int
    n: int
    min_lambda: float
    witness: tuple[int, ...]
    exhaustive: bool
    samples: int = 0


_EXHAUSTIVE_BUDGET = {(2, 1), (3, 1), (2, 2), (3, 2), (2, 3)}


def _combination_blocks(M: int, k: int, size: int):
    """itertools.combinations(range(M), k) as arrays of up to size rows,
    whole-array and column-major. The subset of lexicographic rank r mirrors
    (m -> M - 1 - m) the one of colexicographic rank C(M, k) - 1 - r, whose
    elements, largest first, are for j = k..1 the largest c with
    C(c, j) <= the rank left."""
    tables = [np.array([math.comb(c, j) for c in range(M)]) for j in range(k, 0, -1)]
    total = math.comb(M, k)
    for lo in range(0, total, size):
        rank = total - 1 - np.arange(lo, min(lo + size, total))
        block = np.empty((k, len(rank)), int)
        for t, table in enumerate(tables):
            c = np.searchsorted(table, rank, side="right") - 1
            rank -= table[c]
            np.subtract(M - 1, c, out=block[t])
        yield block.T


def _pair_codes(S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every overlap <s_a|s_b> of S's rows as (codes, values): values holds
    each distinct overlap once, by its exact bytes, and codes[a, b] indexes
    it. The entries come from the scan's einsum, _CHUNK // M rows of a at a
    time, and only their codes are kept."""
    M = len(S)
    rows = max(1, _CHUNK // M)
    codes = np.empty((M, M), np.uint16)
    index = {}  # (real bits, imaginary bits) of an overlap -> its code
    for lo in range(0, M, rows):
        T = np.einsum("kin,kjn->kij", S[None, lo:lo + rows].conj(), S[None])[0]
        # the block's distinct entries: real and imaginary bits apart, then pairs
        (re, i_re), (im, i_im) = (
            np.unique(part, return_inverse=True)
            for part in T.reshape(-1).view(np.int64).reshape(-1, 2).T
        )
        pair = i_re * len(im) + i_im
        held = np.flatnonzero(np.bincount(pair))
        lut = np.zeros(len(re) * len(im), np.uint16)
        lut[held] = [
            index.setdefault((int(re[p // len(im)]), int(im[p % len(im)])), len(index))
            for p in held
        ]
        codes[lo:lo + rows] = lut[pair].reshape(T.shape)
    return codes, np.array(list(index), np.int64).view(complex).ravel()


def _fold(
    best: tuple, lam: np.ndarray, group: np.ndarray, subsets: np.ndarray
) -> tuple:
    """The running (min_lambda, witness) of a scan after subsets, whose
    lambda_min are lam[group]: the smallest at or above SINGULAR_TOL, on the
    first subset that reaches it. An earlier block keeps a tie."""
    lams = np.where(lam >= SINGULAR_TOL, lam, math.inf)[group]
    i = int(np.argmin(lams))
    if lams[i] < best[0]:
        return float(lams[i]), tuple(int(x) for x in subsets[i])
    return best


def _exhaustive_min(codes: np.ndarray, values: np.ndarray, k: int) -> tuple:
    """_fold over every k-subset of the pair table's rows, _CHUNK at a time.
    A subset's key is its Gram matrix as k^2 codes, so equal keys are equal
    Gram matrices, and eigvalsh runs once per key, on its first subset."""
    M = len(codes)
    flat = codes.ravel()
    best = (math.inf, None)
    # the keys met so far, sorted, and their lambda_min; -1 is no subset's key
    keys, lams = np.array([-1]), np.array([math.inf])
    for block in _combination_blocks(M, k, _CHUNK):
        cols = block.T
        key = np.ravel_multi_index(
            [flat[a * M + b] for a in cols for b in cols], (len(values),) * (k * k)
        )
        distinct, group = np.unique(key, return_inverse=True)
        at = np.searchsorted(keys, distinct)
        new = np.flatnonzero(keys.take(at, mode="clip") != distinct)
        if len(new):
            first = np.full(len(distinct), len(key))
            np.minimum.at(first, group, np.arange(len(key)))
            sub = block[first[new]]
            G = values[flat[sub[:, :, None] * M + sub[:, None, :]]]
            keys = np.insert(keys, at[new], distinct[new])
            lams = np.insert(lams, at[new], np.linalg.eigvalsh(G)[:, 0])
            at = np.searchsorted(keys, distinct)
        best = _fold(best, lams[at], group, block)
    return best


def _sampled_min(S: np.ndarray, k: int, draws) -> tuple:
    """_fold over the drawn k-subsets, _CHUNK at a time; each chunk is
    grouped by the exact bytes of its Gram matrices, one eigvalsh a group."""
    flat = itertools.chain.from_iterable(draws)
    best = (math.inf, None)
    while len(chunk := np.fromiter(itertools.islice(flat, _CHUNK * k), int)):
        chunk = chunk.reshape(-1, k)
        V = S[chunk]
        G = np.einsum("kin,kjn->kij", V.conj(), V)
        keys = G.reshape(len(G), -1).view(np.dtype((np.void, G[0].nbytes)))
        _, first, group = np.unique(
            keys.ravel(), return_index=True, return_inverse=True
        )
        best = _fold(best, np.linalg.eigvalsh(G[first])[:, 0], group, chunk)
    return best


def lambda_star_scan(
    k_max: int,
    n_max: int,
    mode: str = "exhaustive",
    trials: int = 2000,
    seed: int = 0,
) -> list[ScanRow]:
    """Minimum lambda_min over nonsingular Gram matrices of k distinct
    enumerated stabilizers, per (k, n), for k <= MAX_GRAM_STATES and n <= 4.
    Exhaustive mode is budget-limited to (k <= 3, n <= 2) and (k = 2,
    n <= 3), and every (k, n) it would visit is checked against that budget
    before any stabilizer table is built; sampled mode draws seeded random
    subsets, 1 <= trials <= MAX_TRIALS of them per (k, n). A row with no
    nonsingular subset has min_lambda inf and no witness; in sampled mode a
    k above the number of states at n draws no subset (samples 0).

    A row with k >= 2 reports the smallest computed lambda_min at or above
    SINGULAR_TOL and the first subset, in enumeration (or draw) order, that
    reaches it, whatever the chunk size; both modes end in _fold, the one
    tie rule. G is einsum("kin,kjn->kij") of the subset's unit vectors, and
    equal input bits give equal eigenvalues, so eigvalsh runs once per
    distinct G and every lambda_min is the one the subset's own eigensolve
    would give, bit for bit. Stabilizer overlaps take only a few values,
    i^ell 2^(-m/2), so few Gram matrices differ. Exhaustive mode computes
    each pair overlap once (_pair_codes): the einsum of rows a and b has the
    very bytes of G[i, j] in the einsum of any subset with a at place i and
    b at place j (a test checks every budget row), so a subset's k^2 codes
    name its G. Sampled mode reaches n = 4, where the table would hold
    1.35e9 pairs, so it computes each chunk's G and groups them by bytes.

    The k = 1 rows are the exact value 1.0, the lambda_min of the 1 x 1 Gram
    matrix [1] of any unit vector, on state (0,); the computed diagonal can
    read 0.9999999999999998 (state 2 at n = 1, state 8 at n = 3). The value
    holds for every 1-subset without a draw, so sampled mode marks the row
    exhaustive too, with samples 0."""
    if mode not in ("exhaustive", "sampled"):
        raise MeasureError(f"unknown scan mode {mode!r}")
    if k_max < 1 or n_max < 1:
        raise MeasureError("k_max and n_max must be at least 1")
    if k_max > MAX_GRAM_STATES:
        raise MeasureError(
            f"k_max must be at most {MAX_GRAM_STATES} (the Gram machinery's cap)"
        )
    if n_max > TABLE_MAX_N:
        raise MeasureError(
            f"n_max must be at most {TABLE_MAX_N} (the stabilizer table's cap)"
        )
    if mode == "sampled" and not 1 <= trials <= MAX_TRIALS:
        raise MeasureError(f"trials must be in [1, {MAX_TRIALS}]")
    if mode == "exhaustive":
        for n in range(1, n_max + 1):
            for k in range(2, k_max + 1):
                if (k, n) not in _EXHAUSTIVE_BUDGET:
                    raise MeasureError(
                        f"exhaustive scan budget exceeded at (k={k}, n={n}); "
                        "use sampled mode"
                    )
    rows = []
    rng = np.random.default_rng(seed)
    for n in range(1, n_max + 1):
        S = stabilizer_unit_matrix(n)
        pairs = _pair_codes(S) if mode == "exhaustive" and k_max > 1 else None
        rows.append(ScanRow(1, n, 1.0, (0,), True))
        for k in range(2, k_max + 1):
            if mode == "exhaustive":
                rows.append(ScanRow(k, n, *_exhaustive_min(*pairs, k), True))
                continue
            samples = trials if k <= len(S) else 0
            draws = (
                np.sort(rng.choice(len(S), size=k, replace=False)).tolist()
                for _ in range(samples)
            )
            rows.append(ScanRow(k, n, *_sampled_min(S, k, draws), False, samples))
    return rows


# ---------------------------------------------------------------------------
# Reports and experiments


@dataclass(frozen=True)
class MeasureReport:
    n: int
    gowers3_pow8: float
    fidelity: float
    fidelity_witness: int  # enumeration index
    rank: object  # int or (lower, upper)
    rank_witness: Optional[tuple[int, ...]]

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "gowers3_pow8": self.gowers3_pow8,
            "fidelity": self.fidelity,
            "fidelity_witness": self.fidelity_witness,
            "rank": list(self.rank) if isinstance(self.rank, tuple) else self.rank,
            "rank_witness": list(self.rank_witness) if self.rank_witness else None,
        }


def measure_report(state: StateVector) -> MeasureReport:
    """Norm, fidelity and rank of one state. Above the rank-search cap
    (n = 4) the rank is the bound pair (lower, 2^n), with lower = 2 whenever
    the fidelity shows the state is not itself a stabilizer state."""
    fid, wit_index = _fidelity_scan(state)
    if state.n <= 3:
        rank, rank_wit = stabilizer_rank(state)
    else:
        lower = 1 if fid >= 1 - STABILIZER_FIDELITY_TOL else 2
        rank, rank_wit = (lower, state.N), None
    return MeasureReport(state.n, gowers3(state), fid, wit_index, rank, rank_wit)


def counterexample_state(n: int, seed: int) -> StateVector:
    """1/2 |0> + (sqrt(3)/2) |phi> with phi a random state orthogonal to |0>:
    fidelity is at least 1/4 regardless of how complex phi is."""
    rng = np.random.default_rng(seed)
    N = 1 << n
    vec = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    vec[0] = 0.0
    vec /= np.linalg.norm(vec)
    out = 0.5 * np.eye(N, dtype=complex)[0] + (math.sqrt(3) / 2) * vec
    return StateVector.from_unit(out)


def relations_corpus(seed: int = 0) -> list[FamilySpec]:
    """The standard n <= 2 corpus of the relations experiment: uniform,
    basis and t_tensor states plus five seeded Haar states per n."""
    specs = []
    for n in (1, 2):
        specs.append(FamilySpec("uniform", n))
        specs.append(FamilySpec("basis", n))
        specs.append(FamilySpec("t_tensor", n))
        for s in range(5):
            specs.append(FamilySpec("haar", n, seed=seed + s))
    return specs


def relations_experiment(
    specs: Sequence[FamilySpec], seed: int = 0
) -> dict:
    """Per-state (rank, 1 - fidelity, 1 - gowers3) triples over an n <= 2
    corpus, the implication checks between the three measures, and the
    bounded-fidelity counterexample family."""
    rows = []
    for spec in specs:
        if spec.n > 2:
            raise MeasureError("relations corpus must stay at n <= 2")
        state = make_state(spec).normalized()
        rank, _ = stabilizer_rank(state)
        fid, _ = stabilizer_fidelity(state)
        rows.append(
            {
                "kind": spec.kind,
                "n": spec.n,
                "seed": spec.seed,
                "rank": rank,
                "one_minus_fidelity": 1.0 - fid,
                "one_minus_gowers3": 1.0 - gowers3(state),
            }
        )
    bounds = {}
    for row in rows:
        k = row["rank"]
        bounds[k] = max(bounds.get(k, 0.0), row["one_minus_fidelity"])
    checks = {
        "rank1_is_stabilizer": all(
            row["one_minus_fidelity"] <= 1e-9 and row["one_minus_gowers3"] <= 1e-9
            for row in rows
            if row["rank"] == 1
        ),
        "fidelity_gowers_together": all(
            row["one_minus_gowers3"] <= 1e-9 or row["one_minus_fidelity"] > 0
            for row in rows
        ),
        "observed_bound_by_rank": {int(k): v for k, v in sorted(bounds.items())},
    }
    counterexamples = []
    for i in range(5):
        psi = counterexample_state(2, seed + i)
        fid, _ = stabilizer_fidelity(psi)
        rank, _ = stabilizer_rank(psi)
        counterexamples.append({"seed": seed + i, "fidelity": fid, "rank": rank})
    checks["counterexample_fidelity_floor"] = all(
        c["fidelity"] >= 0.25 - 1e-9 for c in counterexamples
    )
    return {"rows": rows, "checks": checks, "counterexamples": counterexamples}


def random_low_rank_state(
    n: int, k: int, rng: np.random.Generator
) -> StateVector:
    """Random normalized combination of k distinct enumerated stabilizers."""
    S = stabilizer_unit_matrix(n)
    picks = rng.choice(len(S), size=k, replace=False)
    coeffs = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    vec = coeffs @ S[picks]
    nrm = np.linalg.norm(vec)
    if nrm < 1e-9:
        return random_low_rank_state(n, k, rng)
    return StateVector.from_unit(vec / nrm)


def delta_k_probe(k: int, n: int, trials: int = 100, seed: int = 0) -> dict:
    """Minimum observed fidelity over random rank<=k combinations, reported
    next to the 2^-k reference level. Informational only — no pass/fail."""
    rng = np.random.default_rng(seed)
    worst = 1.0
    for _ in range(trials):
        state = random_low_rank_state(n, k, rng)
        fid, _ = stabilizer_fidelity(state)
        worst = min(worst, fid)
    return {"k": k, "n": n, "trials": trials, "min_fidelity": worst, "ref": 2.0**-k}
