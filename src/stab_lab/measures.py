"""Stabilizer complexity measures — Gowers-3 norm, stabilizer fidelity,
stabilizer rank — plus Gram-matrix eigenvalue machinery and the small-scale
relations experiment tying the three measures together.

All exhaustive searches run over the complete stabilizer enumeration, so
results are exact, not heuristic: fidelity at n <= 4, rank at n <= 2 (a cached
span table) and at n = 3 for r <= 2 (a miss there gives the bound pair (3, 8)).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .charfn import char_function, char_tables
from .clifford import (
    TABLE_MAX_N,
    StabilizerState,
    expected_stabilizer_count,
    stabilizer_at,
    stabilizer_unit_matrix,
    stabilizer_vectors,
)
from .states import FamilySpec, StateVector, make_state

SINGULAR_TOL = 1e-9
STABILIZER_FIDELITY_TOL = 1e-9
RANK_RESIDUAL_TOL = 1e-9
_CHUNK = 4096
MAX_TRIALS = 100_000  # subsets drawn per sampled row of lambda_star_scan
MAX_GRAM_STATES = 8  # states per Gram matrix
_PAIR_ROWS = 32  # rows per block of the floor pair step (and the tests' sweep)
_SCORE_CHUNK = 2048  # candidate pairs scored at a time by the floor pair step
_FAR_FLOOR = 0.5  # the pair floor 1 - |g| at |g| = 1/2, the step's least
_FLOOR_SLACK = 1e-9  # relative, so that rounding only adds candidates
_SPAN_BLOCK = 256  # candidates per block of the span table's build: under 1 MiB


class MeasureError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Gowers norms


def gowers_norm_direct(state: StateVector, d: int) -> float:
    """Brute-force E_{x,y_1..y_d}[D_{y_1}...D_{y_d} g(x)], the 2^d-th power
    of the degree-d uniformity norm: one product over the 2^d cube, a factor
    per corner x + sum_{i in w} y_i, g there or conj(g) when d - |w| is odd.
    The factors go largest w first, each size in itertools.combinations
    order: einsum multiplies them in the order given, and another order moves
    the last bits of the value. Exponential loop; d=3 capped at n=4."""
    if d not in (1, 2, 3):
        raise MeasureError("only degrees 1, 2, 3 are supported")
    if d == 3 and state.n > 4:
        raise MeasureError("degree-3 brute force capped at n = 4")
    g = state.g
    N = state.N
    x, *ys = np.ix_(*[np.arange(N)] * (d + 1))
    operands = []
    for size in reversed(range(d + 1)):
        for w in itertools.combinations(ys, size):
            corner = g[functools.reduce(np.bitwise_xor, w, x)]
            operands += [np.conj(corner) if (d - size) % 2 else corner, range(d + 1)]
    acc = np.einsum(*operands, []) / N ** (d + 1)
    if abs(acc.imag) > 1e-10:
        raise MeasureError(f"uniformity average has imaginary part {acc.imag:g}")
    return float(acc.real)


def table_gowers3(f: np.ndarray) -> np.ndarray:
    """(1/N) sum_z f(z)^2 for each (N, N) table of a stack (..., N, N) — the
    8th power of the degree-3 norm. One np.sum over the last two axes gives
    each table the same bits as a sum over that table alone."""
    return np.sum(f**2, axis=(-2, -1)) / f.shape[-1]


def gowers3(state: StateVector) -> float:
    """The 8th power of the degree-3 norm of one state, via its table."""
    return float(table_gowers3(char_function(state).f))


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


def _row_terms(U: np.ndarray, w: np.ndarray) -> tuple:
    """The terms of the rank search's closed forms that one row brings: conj(U),
    ||u_j||^2, 1 / ||u_j||^2 (0 for a dependent row, whose norm^2 is at most
    SINGULAR_TOL, so that it projects nothing out), <u_j, w>, and ||w||^2."""
    Uc = U.conj()
    nrm = np.einsum("ij,ij->i", Uc, U).real
    inv = np.divide(1.0, nrm, out=np.zeros(len(U)), where=nrm > SINGULAR_TOL)
    return Uc, nrm, inv, Uc @ w, float(np.vdot(w, w).real)


def _row_hit(terms: tuple, thr: float) -> Optional[tuple[int]]:
    """The first row whose span leaves w a squared residual <= thr, or None."""
    _, _, inv, b, w2 = terms
    hits = np.flatnonzero(w2 - np.abs(b) ** 2 * inv <= thr)
    return (int(hits[0]),) if len(hits) else None


def _pair_residual(G, b_i, inv_i, b_j, nrm_j, w2: float) -> np.ndarray:
    """w's squared residual against span{u_i, u_j} for pairs i < j in closed
    form, from G = <u_i, u_j>: project u_i out of u_j and w."""
    nj = nrm_j - np.abs(G) ** 2 * inv_i  # ||u_j||^2 with u_i projected out
    bj = b_j - G.conj() * (b_i * inv_i)  # <u_j, w> with u_i projected out
    ok = nj > SINGULAR_TOL  # a dependent u_j gains nothing
    gain = np.divide(np.abs(bj) ** 2, nj, out=np.zeros(nj.shape), where=ok)
    return (w2 - np.abs(b_i) ** 2 * inv_i) - gain


def _floor_pair_hit(
    S: np.ndarray, terms: tuple, thr: float
) -> Optional[tuple[int, int]]:
    """The full pair sweep's first hit (the tests' _first_hit(S, w, 2, thr))
    on a stabilizer table S (n <= 3), from w's _row_terms, scoring only the
    pairs that the Gram floor allows.

    The Gram matrix of unit u_i, u_j with g = <u_i, u_j> has least
    eigenvalue 1 - |g|, so their span holds at most
    (|<u_i, w>|^2 + |<u_j, w>|^2) / (1 - |g|) of ||w||^2, and a pair can
    leave w within thr only if beta_i + beta_j >= 1 - |g|, where
    beta_i = |<u_i, w>|^2 / ||u_i||^2 / (||w||^2 - thr). Distinct stabilizer
    states at n <= 3 have |g|^2 = 1/2 (near pairs) or |g|^2 <= 1/4, and the
    one floor is beta_i + beta_j >= max(1/2, 1 - |g_ij|), less the relative
    slack _FLOOR_SLACK, so that rounding can only add candidates. With beta
    sorted, the pairs that reach 1/2 form a staircase, whose g is computed
    _PAIR_ROWS rows of the permuted table at a time; _pair_residual scores
    its candidates _SCORE_CHUNK at a time, and the least within thr wins.

    The floor is exact for |g| <= 1/2 and too high for a near pair, but no
    near pair is a first hit: its plane holds six stabilizer states, whose
    least pair is orthogonal and comes first, and leaves w within thr
    whenever the near pair does. So this is the full sweep's first hit,
    except at a rounding tie: when w's squared residual against a near
    pair's plane is thr to within rounding, the sweep may take the near pair
    while the orthogonal pair's computed residual lands just above thr, and
    this step returns a later pair or None."""
    Uc, nrm, inv, b, w2 = terms
    room = w2 - thr
    if not room > 0:
        return 0, 1  # every pair, and every row, leaves w within thr
    beta = np.abs(b) ** 2 * inv / room
    M = len(S)
    best = M * M
    order = np.argsort(-beta, kind="stable")
    s = beta[order]
    # row a of the sorted table pairs with the c in (a, ends[a]), where
    # s_a + s_c reaches 1/2; ends falls as a grows, so the rows with a
    # partner are the first A
    floor = _FAR_FLOOR * (1 - _FLOOR_SLACK)
    ends = np.searchsorted(-s, s - floor, side="right")
    A = int(np.count_nonzero(ends > np.arange(1, M + 1)))
    upper = ~np.tri(_PAIR_ROWS, dtype=bool)
    for lo in range(0, A, _PAIR_ROWS):
        hi, end = min(lo + _PAIR_ROWS, A), ends[lo]
        G = Uc[order[lo:hi]] @ S[order[lo:end]].T
        need = np.abs(G)  # |g|, then the floor less beta_a + beta_c
        np.subtract(1.0, need, out=need)
        need *= 1 - _FLOOR_SLACK
        np.maximum(need, floor, out=need)
        need -= s[lo:hi, None]
        need -= s[lo:end]
        keep = need <= 0.0
        keep[:, :hi - lo] &= upper[:hi - lo, :hi - lo]
        flat = np.flatnonzero(keep)
        del need, keep
        for k in range(0, len(flat), _SCORE_CHUNK):
            a, c = np.divmod(flat[k:k + _SCORE_CHUNK], end - lo)
            i, j, g = order[lo + a], order[lo + c], G[a, c]
            np.conjugate(g, out=g, where=i > j)  # <u_min, u_max>
            i, j = np.minimum(i, j), np.maximum(i, j)
            hit = _pair_residual(g, b[i], inv[i], b[j], nrm[j], w2) <= thr
            best = int((i[hit] * M + j[hit]).min(initial=best))
    return divmod(best, M) if best < M * M else None


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


def _form_coords(V: np.ndarray, index: np.ndarray) -> np.ndarray:
    """x(v) for each v on V's last axis: conj(v) v^T as floats, at index."""
    X = V.conj()[..., :, None] * V[..., None, :]
    return X.reshape(*V.shape[:-1], -1).view(np.float64)[..., index]


def _complement_forms(V: np.ndarray, index, weights) -> tuple:
    """The rows of _span_table for a block V (k, r, N) of r-subsets, r < N,
    and the mask of the independent ones, whose Gram determinant exceeds
    SINGULAR_TOL. The complement projector P is in closed form:
    I - U G^-1 U^H for r <= 2, with G^-1 written out, and w w^H / ||w||^2
    at r = 3, where w = conj(c) and c_l = det[e_l, U], the signed minors."""
    k, r, N = V.shape
    if r == 3:  # c = D v_3, with D the Hodge dual of v_1 ^ v_2
        u, v, w = V.swapaxes(0, 1)
        p, q = np.triu_indices(N, 1)
        D = np.zeros((k, N, N), complex)
        m = u[:, p] * v[:, q] - u[:, q] * v[:, p]
        D[:, p, q] = m[:, ::-1] * [1, -1, 1, 1, -1, 1]
        c = np.einsum("kls,ks->kl", D - D.swapaxes(1, 2), w)
        det = np.einsum("kl,kl->k", c.conj(), c).real  # ||c||^2 = det G
        P = c.conj()[:, :, None] * c[:, None, :]  # det G times P, as below
    else:
        G = V.conj() @ V.swapaxes(1, 2)  # G[k, a, b] = <v_a, v_b>
        det = np.linalg.det(G).real
        adj = np.ones_like(G)  # det G G^-1 = adj G: 1, or tr(G) I - G at r = 2
        if r == 2:
            adj = np.einsum("kaa->k", G)[:, None, None] * np.eye(2) - G
        P = np.einsum("kai,kab,kbj->kij", -V, adj, V.conj())
        P += det[:, None, None] * np.eye(N)
    keep = det > SINGULAR_TOL
    P = P[keep] / det[keep, None, None]
    return P.reshape(-1, N * N).view(np.float64)[:, index] * weights, keep


@functools.lru_cache(maxsize=None)
def _span_table(n: int) -> tuple[np.ndarray, tuple, np.ndarray]:
    """Every distinct span of an r-subset of the n-qubit stabilizer table,
    n <= 2 and 1 <= r < N, as (A, subsets, index), by r and then by first
    subset in itertools.combinations order; subsets[k] is span k's. Row k of
    A is span k's complement projector P as a real quadratic form, so that
    A @ _form_coords(v, index) is v^H P v, v's squared residual, for every
    span: real parts of conj(v_i) v_j, i <= j, and imaginary parts, i < j,
    weighted 1 (i = j), 2 and -2.

    A first subset less its last row is the first subset of its own span, so
    the candidates at r extend each first subset at r - 1 by each later row,
    in order, _SPAN_BLOCK at a time. A span is keyed by the table rows it
    holds, s^H P s <= SINGULAR_TOL (at n = 2 the others give at least 1/12),
    and a block's first candidate with a new key is its first subset."""
    if n > 2:
        raise MeasureError("span tables capped at n = 2")
    S = stabilizer_unit_matrix(n)
    M, N = S.shape
    i, j = np.triu_indices(N)
    off = i < j
    index = np.concatenate([2 * (i * N + j), 2 * (i * N + j)[off] + 1])
    weights = np.concatenate([np.where(off, 2.0, 1.0), np.full(off.sum(), -2.0)])
    # 64 - M zero rows pad a key to 64 bits; every span holds them
    rows = np.pad(_form_coords(S, index), ((0, 64 - M), (0, 0)))
    keys = np.zeros(1, np.uint64)  # sorted; 0 is no span's key
    forms, subsets = [], []
    prev = np.full((1, 1), -1, np.int8)  # the empty subset, as if after row -1
    for r in range(1, N):
        later = np.arange(M, dtype=np.int8) > prev[:, -1:]
        grid = np.broadcast_to(np.arange(M, dtype=np.int8), later.shape)
        candidates = np.column_stack(
            [np.repeat(prev, later.sum(1), axis=0), grid[later]])[:, -r:]
        firsts = []
        for lo in range(0, len(candidates), _SPAN_BLOCK):
            block = candidates[lo:lo + _SPAN_BLOCK]
            form, keep = _complement_forms(S[block], index, weights)
            held = form @ rows.T <= SINGULAR_TOL
            key = np.packbits(held, axis=1).view(np.uint64).ravel()
            _, first = np.unique(key, return_index=True)
            known = keys[np.minimum(np.searchsorted(keys, key[first]), len(keys) - 1)]
            first = np.sort(first[known != key[first]])
            keys = np.sort(np.concatenate([keys, key[first]]))
            forms.append(form[first])
            firsts.append(block[keep][first])
        prev = np.concatenate(firsts)
        subsets += zip(*prev.T.tolist())
    A = np.concatenate(forms)
    A.setflags(write=False)  # every caller shares the cached table
    index.setflags(write=False)
    return A, tuple(subsets), index


def _table_hit(n: int, v: np.ndarray, thr: float) -> Optional[tuple[int, ...]]:
    """The first subset in _span_table(n) within thr of v, or None: the least
    r, and the first r-subset, since a dependent one spans no more."""
    A, subsets, index = _span_table(n)
    hits = np.flatnonzero(A @ _form_coords(v, index) <= thr)
    return subsets[hits[0]] if len(hits) else None


def stabilizer_rank(
    state: StateVector, delta: float = 0.0
) -> tuple[object, Optional[tuple[int, ...]]]:
    """Smallest r such that some r-subset of stabilizer states contains the
    state in its span, up to least-squares residual delta.

    Exact for n <= 2; for n = 3 only r <= 2 is searched, and a miss returns
    the bound pair (3, 2^n) with no witness. For each r the witness is the
    lexicographically first r-subset (enumeration indices) whose squared
    residual is at most delta^2 + RANK_RESIDUAL_TOL.

    At n <= 2 the search is one product over the cached table of every span
    of an r-subset, r < N (_table_hit): the first row within the threshold
    names both r and the witness. It rounds differently from the pair
    sweep's closed forms, so the two may name different subsets only where a
    residual is the threshold to within a few ulps. A miss is rank N, with
    the computational basis, the table's first N rows, as witness. At n = 3,
    step r = 1 is _row_hit's closed form and r = 2 is _floor_pair_hit."""
    if not delta >= 0:  # NaN too, which every residual test would fail
        raise MeasureError("delta must be nonnegative")
    n = state.n
    if n > 3:
        raise MeasureError("rank search capped at n = 3")
    tol = max(delta, RANK_RESIDUAL_TOL)
    thr = tol * tol + RANK_RESIDUAL_TOL  # inf, not OverflowError, for huge delta
    v = state.unit()
    if n <= 2:
        hit = _table_hit(n, v, thr)
        return (len(hit), hit) if hit is not None else (state.N, tuple(range(state.N)))
    S = stabilizer_unit_matrix(n)
    terms = _row_terms(S, v)
    if (hit := _row_hit(terms, thr)) is not None:
        return 1, hit
    hit = _floor_pair_hit(S, terms, thr)
    return (2, hit) if hit is not None else ((3, state.N), None)


# ---------------------------------------------------------------------------
# Gram matrices


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


def gram_lambda_min(states: Sequence[StabilizerState]) -> tuple[np.ndarray, float]:
    """Exact Gram matrix of the given stabilizer states, as a read-only
    (k, k) complex array, and its minimum eigenvalue; lambda_min below 1e-9
    flags a singular (dependent) family. G is lambda_star_scan's einsum, so
    a scan row's witness states give back its min_lambda bit for bit."""
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
    entries.setflags(write=False)
    return entries, float(np.linalg.eigvalsh(entries)[0])


@dataclass(frozen=True)
class ScanRow:
    k: int
    n: int
    min_lambda: float
    witness: tuple[int, ...]
    exhaustive: bool
    samples: int = 0


_EXHAUSTIVE_BUDGET = {(2, 1), (3, 1), (2, 2), (3, 2), (2, 3)}


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


def _scan_min(blocks) -> tuple:
    """The smallest lambda_min at or above SINGULAR_TOL over the k-subsets
    in blocks and the first subset that reaches it, an earlier block keeping
    a tie, or (inf, None). blocks yields (subsets, keys, gram): equal keys
    are equal Gram matrices, and gram(rows) gives those of subsets[rows].
    The keys met so far are kept sorted with their lambda_min (inf below
    SINGULAR_TOL), and eigvalsh runs once per key, on its first subset."""
    best = (math.inf, None)
    keys, lams = None, np.empty(0)
    for subsets, key, gram in blocks:
        distinct, group = np.unique(key, return_inverse=True)
        if keys is None:
            keys = distinct[:0]
        at = np.searchsorted(keys, distinct)
        new = (np.flatnonzero(keys.take(at, mode="clip") != distinct) if len(keys)
               else np.arange(len(distinct)))
        if len(new):
            first = np.full(len(distinct), len(key))
            np.minimum.at(first, group, np.arange(len(key)))
            lam = np.linalg.eigvalsh(gram(first[new]))[:, 0]
            lam = np.where(lam >= SINGULAR_TOL, lam, math.inf)
            keys = np.insert(keys, at[new], distinct[new])
            lams = np.insert(lams, at[new], lam)
            at = np.searchsorted(keys, distinct)
        lam = lams[at][group]
        i = int(np.argmin(lam))
        if lam[i] < best[0]:
            best = float(lam[i]), tuple(int(x) for x in subsets[i])
    return best


def _code_blocks(codes: np.ndarray, values: np.ndarray, k: int):
    """Every k-subset of the pair table's rows for _scan_min, _CHUNK at a
    time: a subset's key is its Gram matrix as k^2 codes, and its Gram
    matrix is read off the table."""
    M = len(codes)
    flat = codes.ravel()
    for block in _combination_blocks(M, k, _CHUNK):
        cols = block.T
        key = np.ravel_multi_index(
            [flat[a * M + b] for a in cols for b in cols], (len(values),) * (k * k)
        )

        def gram(rows, block=block):
            sub = block[rows]
            return values[flat[sub[:, :, None] * M + sub[:, None, :]]]

        yield block, key, gram


def _drawn_blocks(S: np.ndarray, k: int, rng: np.random.Generator, trials: int):
    """trials k-subsets of S's rows for _scan_min, each a sorted
    rng.choice without replacement, _CHUNK at a time: a block's Gram
    matrices come from one einsum, and a subset's key is its G's bytes."""
    for lo in range(0, trials, _CHUNK):
        draws = [rng.choice(len(S), size=k, replace=False)
                 for _ in range(min(_CHUNK, trials - lo))]
        block = np.sort(draws)
        V = S[block]
        G = np.einsum("kin,kjn->kij", V.conj(), V)
        key = G.reshape(len(G), -1).view(np.dtype((np.void, G[0].nbytes)))
        yield block, key.ravel(), G.__getitem__


def lambda_star_scan(
    k_max: int, n_max: int, trials: int = 2000, seed: int = 0
) -> list[ScanRow]:
    """Minimum lambda_min over nonsingular Gram matrices of k distinct
    enumerated stabilizers, per (k, n), for k <= MAX_GRAM_STATES and n <= 4.
    Each row chooses its scan by its size: a (k, n) in _EXHAUSTIVE_BUDGET
    visits every k-subset, and any other draws trials seeded random subsets
    from one generator, in (n, k) order; 1 <= trials <= MAX_TRIALS is
    checked whether or not a row samples. A row with no nonsingular subset
    has min_lambda inf and no witness; a k above the number of states at n
    draws no subset (samples 0).

    A row with k >= 2 reports the smallest computed lambda_min at or above
    SINGULAR_TOL and the first subset, in enumeration (or draw) order, that
    reaches it, whatever the chunk size; both row kinds run _scan_min, the
    one loop and tie rule. G is einsum("kin,kjn->kij") of the subset's
    unit vectors, and equal input bits give equal eigenvalues, so eigvalsh
    runs once per distinct G in a scan and every lambda_min is the one the
    subset's own eigensolve would give, bit for bit. Stabilizer overlaps
    take only a few values, i^ell 2^(-m/2), so few Gram matrices differ.
    Exhaustive rows compute each pair overlap once (_pair_codes): the
    einsum of rows a and b has the very bytes of G[i, j] in the einsum of
    any subset with a at place i and b at place j (a test checks every
    budget row), so a subset's k^2 codes name its G. Sampled rows reach
    n = 4, where the table would hold 1.35e9 pairs, so each block computes
    its own G, keys it by its bytes and is scanned on its own, as such keys
    seldom repeat across blocks.

    The k = 1 rows are the exact value 1.0, the lambda_min of the 1 x 1 Gram
    matrix [1] of any unit vector, on state (0,); the computed diagonal can
    read 0.9999999999999998 (state 2 at n = 1, state 8 at n = 3). The value
    holds for every 1-subset without a draw, so they are exhaustive at
    every n, with samples 0."""
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
    if not 1 <= trials <= MAX_TRIALS:
        raise MeasureError(f"trials must be in [1, {MAX_TRIALS}]")
    rows = []
    # made at the first sampled row, so an all-exhaustive scan loads no
    # numpy.random
    rng = None
    for n in range(1, n_max + 1):
        S = stabilizer_unit_matrix(n)
        pairs = None
        rows.append(ScanRow(1, n, 1.0, (0,), True))
        for k in range(2, k_max + 1):
            if (k, n) in _EXHAUSTIVE_BUDGET:
                pairs = pairs or _pair_codes(S)
                rows.append(ScanRow(k, n, *_scan_min(_code_blocks(*pairs, k)), True))
            else:
                samples = trials if k <= len(S) else 0
                rng = rng or np.random.default_rng(seed)
                # a scan per block: byte keys seldom repeat across blocks,
                # and min keeps the earlier block of a tie
                best = min((_scan_min([b]) for b in _drawn_blocks(S, k, rng, samples)),
                           key=lambda r: r[0], default=(math.inf, None))
                rows.append(ScanRow(k, n, *best, False, samples))
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
    if any(spec.n > 2 for spec in specs):
        raise MeasureError("relations corpus must stay at n <= 2")
    states = [make_state(spec).normalized() for spec in specs]
    sizes = np.array([spec.n for spec in specs], dtype=int)
    norms = np.empty(len(states))
    for n in set(sizes.tolist()):  # the gowers3 of each size's states as one batch
        at = np.flatnonzero(sizes == n)
        norms[at] = table_gowers3(char_tables(np.array([states[i].g for i in at])))
    rows = []
    for spec, state, norm in zip(specs, states, norms.tolist()):
        rank, _ = stabilizer_rank(state)
        fid, _ = stabilizer_fidelity(state)
        rows.append(
            {
                "kind": spec.kind,
                "n": spec.n,
                "seed": spec.seed,
                "rank": rank,
                "one_minus_fidelity": 1.0 - fid,
                "one_minus_gowers3": 1.0 - norm,
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
    """Random normalized combination of k distinct enumerated stabilizers.
    n and k are checked against the table's size before it is built."""
    if not 1 <= n <= TABLE_MAX_N:
        raise MeasureError(
            f"n must be in [1, {TABLE_MAX_N}] (the stabilizer table's cap)"
        )
    count = expected_stabilizer_count(n)
    if not 1 <= k <= count:
        raise MeasureError(f"k must be in [1, {count}] at n = {n}, got {k}")
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
