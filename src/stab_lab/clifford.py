"""Weyl operators, Clifford circuits, and stabilizer-state canonical forms.

A stabilizer state is stored as an affine support A = offset + span(basis)
together with phase data in the parameter coordinates y of A: amplitude on
x(y) is i^<ell,y> * (-1)^Q(y), where Q(y) = sum_{i<=j} M_ij y_i y_j is given
by an upper-triangular bit matrix whose diagonal carries the linear sign
part. Enumeration over these forms hits each physical state exactly once.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from . import InvariantError
from .gf2 import span_points, symp_unpack
from .states import StateVector, dot_parity, quadratic_parity, sign_table

BALANCE_TRIES = 1000  # random real Cliffords balance draws before giving up
SUPPORT_TOL = 1e-9  # the decoder's one tolerance: support and amplitude match
TABLE_MAX_N = 4  # the stabilizer enumeration and its tables stop here
_UNIT_CHUNK = 1 << 14  # amplitudes per ell chunk of stabilizer_unit_matrix


class GateError(ValueError):
    pass


class BalanceError(RuntimeError, InvariantError):
    """Raised when rejection sampling finds no balancing circuit in budget."""

    def __init__(self, tries: int, best_moment: float):
        super().__init__(
            f"no balancing circuit found in {tries} tries "
            f"(best fourth moment {best_moment:.6g})"
        )
        self.tries = tries
        self.best_moment = best_moment


MAX_CIRCUIT_QUBITS = 15  # n^2 gate codes fit in one byte


@functools.lru_cache(maxsize=None)
def _gate_codes(n: int) -> tuple[tuple[tuple, ...], MappingProxyType]:
    """The n-qubit gate table in code order, H_i at code i, then CNOT_ij for
    i != j, and its inverse {gate: code}. Every caller shares them, so
    neither is writable."""
    if not 0 <= n <= MAX_CIRCUIT_QUBITS:
        raise GateError(f"circuits are capped at n = {MAX_CIRCUIT_QUBITS}, got {n}")
    table = [("H", i) for i in range(n)]
    table += [("CNOT", i, j) for i in range(n) for j in range(n) if i != j]
    return tuple(table), MappingProxyType({g: k for k, g in enumerate(table)})


@functools.lru_cache(maxsize=None)
def _halves(n: int) -> tuple[tuple[int, ...], ...]:
    """At index f, the y in [0, 2^n) with <f, y> = 0."""
    N = 1 << n
    return tuple(
        tuple(y for y in range(N) if not (y & f).bit_count() & 1) for f in range(N)
    )


@dataclass(frozen=True, init=False, slots=True)
class CliffordCircuit:
    """A gate word on n qubits; gates are ("H", i) | ("CNOT", i, j). The
    word holds one byte per gate, its code in the n-qubit gate table."""

    n: int
    word: bytes

    def __init__(self, n: int, gates=()):
        codes = _gate_codes(n)[1]
        word = bytearray()
        for gate in gates:
            code = codes.get(tuple(gate))
            if code is None:
                name = gate[0]
                if name not in ("H", "CNOT"):
                    raise GateError(f"unknown gate {name}")
                if any(q >= n or q < 0 for q in gate[1:]):
                    raise GateError(f"gate {gate} is out of range for n={n}")
                if name == "CNOT" and gate[1] == gate[2]:
                    raise GateError("CNOT needs distinct qubits")
                raise GateError(f"malformed gate {gate}")
            word.append(code)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "word", bytes(word))

    @classmethod
    def _from_word(cls, n: int, word: bytes) -> "CliffordCircuit":
        """A circuit from gate codes that are valid by construction."""
        circuit = object.__new__(cls)
        object.__setattr__(circuit, "n", n)
        object.__setattr__(circuit, "word", word)
        return circuit

    @property
    def gates(self) -> tuple[tuple, ...]:
        table = _gate_codes(self.n)[0]
        return tuple(table[k] for k in self.word)

    def __repr__(self) -> str:
        return f"CliffordCircuit(n={self.n}, gates={self.gates!r})"

    def inverse(self) -> "CliffordCircuit":
        """The reversed word, since H and CNOT are involutions."""
        return CliffordCircuit._from_word(self.n, self.word[::-1])


def apply_clifford(circuit: CliffordCircuit, state: StateVector) -> StateVector:
    """circuit |state>, one gate code of the word at a time, in Python
    numbers, touching amplitudes only at H. The state is held as G[L x]:
    CNOT_ct, x -> C x = x ^ (x_c << t), takes L to L C (column c gains
    column t) and row t of L^-1 gains row c. With w = L e_i and f row i of
    L^-1, the y with <f, y> = 0 are _halves(n)[f] and the y ^ w are the
    rest. H_i takes each pair (u, v) = (G[y], G[y ^ w]) to ((u + v) k,
    (u - v) k), k = 1 / sqrt 2, the factor numpy's complex division by
    sqrt 2 scales by. These are the gate-at-a-time loop's sum and
    difference, so every amplitude equals the loop's
    (test_apply_clifford_equals_gate_loop_oracle)."""
    n = circuit.n
    if n != state.n:
        raise GateError("circuit and state sizes differ")
    gates, halves = _gate_codes(n)[0], _halves(n)
    G = state.g.tolist() if state.g.imag.any() else state.g.real.tolist()
    k = 1 / math.sqrt(2)
    cols = [1 << j for j in range(n)]
    rows = cols.copy()
    for code in circuit.word:
        if code >= n:  # CNOT
            _, c, t = gates[code]
            cols[c] ^= cols[t]
            rows[t] ^= rows[c]
        else:  # H
            w = cols[code]
            for y in halves[rows[code]]:
                yw = y ^ w
                u, v = G[y], G[yw]
                G[y], G[yw] = (u + v) * k, (u - v) * k
    return StateVector(n, np.array(G)[span_points(cols)])


def _weyl_label(n: int, z: int) -> tuple[int, int]:
    """(y, alpha) of the n-qubit Weyl label z, which must lie in [0, 4^n)."""
    if not 0 <= z < 1 << (2 * n):
        raise GateError(f"Weyl label {z} does not fit n = {n}")
    return symp_unpack(n, z)


def apply_weyl(state: StateVector, z: int) -> StateVector:
    """W_z |phi> with W_(y,a) = i^(y.a) X^y Z^a."""
    n, N = state.n, state.N
    y, alpha = _weyl_label(n, z)
    t = state.g * sign_table(N, alpha)
    out = t[np.arange(N) ^ y] * (1j ** ((y & alpha).bit_count()))
    return StateVector(n, out)


def weyl_expectation(state: StateVector, z: int) -> complex:
    """<phi| X^y Z^a |phi> (no quadrature prefactor)."""
    y, alpha = _weyl_label(state.n, z)
    idx = np.arange(state.N)
    shifted = (state.g * sign_table(state.N, alpha))[idx ^ y]
    return complex(np.mean(np.conj(state.g) * shifted))


def _ones(bits: int) -> list[int]:
    """The indices of the set bits of bits, in increasing order."""
    out = []
    while bits:
        out.append((bits & -bits).bit_length() - 1)
        bits &= bits - 1
    return out


def _sweep(n: int, k: int, v: int, w: int) -> bytes:
    """An H/CNOT word on qubits k..n-1 whose conjugation takes the Paulis v
    and w to X_k and Z_k, up to sign. v and w are symplectic points
    (y << n | alpha) on those qubits, Q-singular (<y, alpha> = 0) and
    paired (<v, w> = 1). Conjugation by H_i swaps bit i of y and alpha, and
    by CNOT_ct adds y_c to y_t and alpha_t to alpha_c; both keep Q and the
    pairing. The word has at most two H gates.

    v: its Y's, an even number, go in pairs Y_a Y_b -> X_a Z_b (CNOT_ab);
    its Z's gather on one qubit, which H turns to X; its X's gather on k.
    w, followed through those gates, now has alpha_k = 1: CNOT_ik turns
    each other Y_i to X_i, those X's gather on one qubit, which H turns to
    Z, and CNOT_ik clears each Z_i. What is left of y_k is Q(w) = 0."""
    table, codes = _gate_codes(n)
    mask = (1 << n) - 1
    word = []

    def cnot(c, t):
        word.append(codes[("CNOT", c, t)])

    y, alpha = v >> n, v & mask
    ys = _ones(y & alpha)
    for a, b in zip(ys[::2], ys[1::2]):
        cnot(a, b)
        y ^= 1 << b
        alpha ^= 1 << a
    zs = _ones(alpha)
    for i in zs[1:]:
        cnot(i, zs[0])
    if zs:
        word.append(codes[("H", zs[0])])
        y |= 1 << zs[0]
    xs = _ones(y)
    if xs[0] != k:
        cnot(xs[0], k)
    for i in xs:
        if i != k:
            cnot(k, i)
    y, alpha = w >> n, w & mask
    for gate in map(table.__getitem__, word):
        if gate[0] == "H":
            if (y ^ alpha) >> gate[1] & 1:
                y ^= 1 << gate[1]
                alpha ^= 1 << gate[1]
        else:
            y ^= (y >> gate[1] & 1) << gate[2]
            alpha ^= (alpha >> gate[2] & 1) << gate[1]
    others = mask ^ (1 << k)
    for i in _ones(y & alpha & others):
        cnot(i, k)
    alpha &= ~y
    xs = _ones(y & others)
    for i in xs[1:]:
        cnot(xs[0], i)
    if xs:
        word.append(codes[("H", xs[0])])
        alpha |= 1 << xs[0]
    for i in _ones(alpha & others):
        cnot(i, k)
    return bytes(word)


def _real_clifford_word(n: int, pairs) -> CliffordCircuit:
    """The word of one leaf of random_real_clifford's choice tree: pairs[k]
    = (v, w), the points that the step at qubit k takes to (X_k, Z_k). The
    steps are undone deepest first, each by its sweep reversed (H and CNOT
    are involutions)."""
    word = b"".join(_sweep(n, k, *pairs[k])[::-1] for k in reversed(range(n)))
    return CliffordCircuit._from_word(n, word)


_DRAW_BATCH = 8  # 64-bit generator outputs per call in random_real_clifford


def random_real_clifford(n: int, seed: int = 0) -> CliffordCircuit:
    """A seeded H/CNOT word that is exactly uniform on O+(2n, 2), the
    isometries of Q(y, alpha) = <y, alpha>: the real Clifford group modulo
    sign and the 4^n real Paulis (Nebe-Rains-Sloane, arXiv:math/0001038).
    A real Pauli P applied last only permutes the amplitudes and flips their
    signs, which keeps the fourth moment, and P W_z P^T = +-W_z keeps
    f(z) = |<C phi|W_z|C phi>|^2; so both are constant on each Pauli coset,
    and one word a coset serves balance as the whole group would. The draw
    is a Koenig-Smolin recursion (arXiv:1406.2170) restricted to Q-singular
    points: for k = 0..n-1, with m = n - k qubits left, v is uniform on the
    (2^m - 1)(2^(m-1) + 1) nonzero singular points of qubits k..n-1, and w
    on the 4^(m-1) singular points paired with v. These counts multiply to
    |O+(2n, 2)|, and _real_clifford_word maps the choices one to one onto
    it, so each element has probability 1 / |O+(2n, 2)|. v and w come by
    rejection from uniform 2n-bit candidates, cut from the generator's raw
    64-bit outputs, _DRAW_BATCH outputs a call. A word has at most
    2n^2 + n gates, at most 2n of them H (_sweep)."""
    if n < 1:
        raise GateError("need at least one qubit")
    _gate_codes(n)  # raises past the circuit cap, before any draw
    raw = np.random.default_rng(seed).bit_generator.random_raw
    width, full = 2 * n, (1 << (2 * n)) - 1
    draw = (
        r >> shift & full
        for _ in itertools.count()
        for r in raw(_DRAW_BATCH).tolist()
        for shift in range(0, 64 - width + 1, width)
    ).__next__

    def singular(z):
        return not ((z >> n) & z).bit_count() & 1

    pairs = []
    for k in range(n):
        qubits = ((1 << n) - (1 << k)) * ((1 << n) + 1)  # k..n-1 in both halves
        v = w = 0
        while not (v and singular(v)):
            v = draw() & qubits
        while not (singular(w) and ((v >> n) & w ^ (w >> n) & v).bit_count() & 1):
            w = draw() & qubits
        pairs.append((v, w))
    return _real_clifford_word(n, pairs)


@dataclass(frozen=True, slots=True)
class StabilizerState:
    """Canonical form over affine support offset + span(basis).

    Parameter y_i selects basis[i]. ell holds the i-phase linear form and
    q_upper the sign form, both over the m parameter bits: row i of q_upper
    holds bits j >= i, and its diagonal bit is the linear sign part, since
    y_i^2 = y_i. stabilizer_from_statevector returns the RREF basis of the
    direction space (decreasing order) and the coset's least point as offset.

    __post_init__ checks widths only: 0 <= offset < 2^n, each basis vector in
    [1, 2^n), 0 <= ell < 2^m, and each q_upper row in [0, 2^m) and upper
    triangular. It does not check that the basis is independent or in RREF,
    nor that the offset is reduced against it, so forms built by hand may
    differ from the decoder's for the same state.
    """

    n: int
    offset: int
    basis: tuple[int, ...]
    ell: int = 0
    q_upper: tuple[int, ...] = ()

    def __post_init__(self):
        n, m = self.n, len(self.basis)
        if not 0 <= self.offset < 1 << n:
            raise ValueError(f"offset {self.offset} does not fit n = {n}")
        if self.basis and not (0 < min(self.basis) and max(self.basis) < 1 << n):
            raise ValueError(f"basis vectors must lie in [1, 2^{n})")
        if not 0 <= self.ell < 1 << m:
            raise ValueError(f"ell {self.ell} does not fit m = {m}")
        if len(self.q_upper) != m:
            raise ValueError("need one q_upper row per basis vector")
        for i, row in enumerate(self.q_upper):
            if not 0 <= row < 1 << m or row & ((1 << i) - 1):
                raise ValueError(f"q_upper rows must be upper triangular in [0, 2^{m})")

    @property
    def m(self) -> int:
        return len(self.basis)

    def to_json(self) -> str:
        return json.dumps(
            {
                "n": self.n,
                "offset": format(self.offset, f"0{self.n}b"),
                "basis": [format(b, f"0{self.n}b") for b in self.basis],
                "ell": format(self.ell, f"0{max(self.m, 1)}b"),
                "Q_upper": [format(r, f"0{max(self.m, 1)}b") for r in self.q_upper],
            }
        )

    @staticmethod
    def from_json(text: str) -> "StabilizerState":
        data = json.loads(text)
        return StabilizerState(
            n=int(data["n"]),
            offset=int(data["offset"], 2),
            basis=tuple(int(b, 2) for b in data["basis"]),
            ell=int(data["ell"], 2),
            q_upper=tuple(int(r, 2) for r in data["Q_upper"]),
        )


def _amplitudes(scale: float, m: int, ells, rows) -> np.ndarray:
    """scale * i^<ell, y> * (-1)^Q(y) for y in range(2^m), on the last axis.
    ells (an integer array) and the q_upper rows (m integer arrays, see
    quadratic_parity) broadcast over the leading axes."""
    y = np.arange(1 << m)
    phase = np.where(dot_parity(y, ells), 1j, 1) * (1 - 2 * quadratic_parity(y, rows))
    phase *= scale
    return phase


def stabilizer_vectors(states) -> np.ndarray:
    """Row k = g-convention amplitudes of states[k] (all on the same n).

    Runs of consecutive states that share a support direction are built
    together: point y of state k is offset_k + span(basis)[y], with amplitude
    sqrt(N / 2^m) * i^<ell_k, y> * (-1)^Q_k(y)."""
    N = 1 << states[0].n
    out = np.zeros((len(states), N), dtype=complex)
    start = 0
    for basis, run in itertools.groupby(states, key=lambda s: s.basis):
        run = list(run)
        offsets = np.array([s.offset for s in run])[:, None]
        ells = np.array([s.ell for s in run])[:, None]
        rows = np.array([s.q_upper for s in run], dtype=np.int64).T
        np.put_along_axis(
            out[start : start + len(run)],
            offsets ^ span_points(basis),
            _amplitudes(math.sqrt(N / (1 << len(basis))), len(basis), ells, rows),
            axis=1,
        )
        start += len(run)
    return out


def stabilizer_to_statevector(s: StabilizerState) -> StateVector:
    return StateVector(s.n, stabilizer_vectors([s])[0])


def stabilizer_from_statevector(state: StateVector) -> StabilizerState:
    """Recover the canonical form of a normalized statevector that is a
    stabilizer state up to global phase; raise ValueError if it is not one.

    The support is every x with |g(x)| > SUPPORT_TOL. Each support point y
    gets its quarter-turn index k(y) = <ell, y> + 2Q(y) mod 4 from the phase
    of its amplitude relative to y = 0, all at once; ell and the diagonal of
    Q come from k at the unit vectors, the rest of Q from k at their pairs.
    SUPPORT_TOL is the one tolerance: the rebuilt state, times the phase of
    the amplitude at y = 0, must equal the input within it at every x."""
    n, g = state.n, state.g
    support = np.flatnonzero(np.abs(g) > SUPPORT_TOL)
    if not support.size:
        raise ValueError("zero vector")
    # Sorted, a coset a + V (a its least point, b_0 > ... > b_(m-1) the RREF
    # rows of V) lists a + sum_i c_i b_i in the order of the bits c read as
    # a binary number, c_0 highest: a row's pivot is set in that row alone
    # and clear in a. So the points at positions 2^(m-1), ..., 2, 1 are
    # a + b_0, ..., a + b_(m-1), and the support is a coset exactly when
    # those rows span it back point for point.
    m = support.size.bit_length() - 1
    aff_offset = int(support[0])
    basis = tuple(int(x) ^ aff_offset for x in support[(1 << np.arange(m))[::-1]])
    if support.size != 1 << m or not np.array_equal(
        aff_offset ^ span_points(basis[::-1]), support
    ):
        raise ValueError("support is not an affine subspace")
    amps = g[aff_offset ^ span_points(basis)]
    k = np.rint(np.angle(amps * np.conj(amps[0])) / (np.pi / 2)).astype(np.int64) & 3
    unit = 1 << np.arange(m)
    ell = int(np.sum((k[unit] & 1) << np.arange(m)))
    d = k[unit] >> 1
    # Q(e_i + e_j) = d_i + d_j + M_ij, and the diagonal of the pair table is d
    M = np.triu((k[unit[:, None] | unit] >> 1) ^ d[:, None] ^ d)
    cand = StabilizerState(n, aff_offset, basis, ell, tuple((M @ unit).tolist()))
    phase = amps[0] / abs(amps[0])
    if not np.all(np.abs(stabilizer_to_statevector(cand).g * phase - g) <= SUPPORT_TOL):
        raise ValueError("amplitudes are not those of a stabilizer state")
    return cand


def _form_bits(m: int) -> int:
    """log2 of the number of upper-triangular m x m sign forms."""
    return m * (m + 1) // 2


def _sign_rows(m: int, q):
    """The q_upper rows of sign form number q (an int, or an integer array
    for many forms). Row i ranges over the 2^(m-i) values with no bit below
    i, in increasing order, and row m-1 varies fastest."""
    rows = [0] * m
    for i in reversed(range(m)):
        q, digit = divmod(q, 1 << (m - i))
        rows[i] = digit << i
    return rows


@functools.lru_cache(maxsize=None)
def _layout(n: int) -> tuple[tuple[int, tuple[int, ...], tuple[int, ...]], ...]:
    """The enumeration order: for each subspace of F2^n, in all_subspaces
    order, the first index of its block of states, its RREF basis and its
    sorted coset offsets, which are the x with no pivot bit (each coset's
    least point). State k of a dim-m block has the mixed-radix digits
    (offset, ell, sign form), radices (2^(n-m), 2^m, 2^(m(m+1)/2))."""
    if n > TABLE_MAX_N:
        raise ValueError(f"stabilizer enumeration capped at n = {TABLE_MAX_N}")
    from .gf2 import all_subspaces

    out, start = [], 0
    for sub in all_subspaces(n):
        pivots = sum(1 << (b.bit_length() - 1) for b in sub.basis)
        offsets = tuple(x for x in range(1 << n) if not x & pivots)
        out.append((start, sub.basis, offsets))
        start += len(offsets) << (sub.dim + _form_bits(sub.dim))
    return tuple(out)


def stabilizer_at(n: int, k: int) -> StabilizerState:
    """The k-th enumerated n-qubit stabilizer state, unranked inside its
    subspace's block of the layout."""
    layout = _layout(n)
    if not 0 <= k < expected_stabilizer_count(n):
        raise IndexError(f"stabilizer index {k} out of range at n = {n}")
    start, basis, offsets = next(b for b in reversed(layout) if b[0] <= k)
    m = len(basis)
    o, rest = divmod(k - start, 1 << (m + _form_bits(m)))
    ell, q = divmod(rest, 1 << _form_bits(m))
    return StabilizerState(n, offsets[o], basis, ell, tuple(_sign_rows(m, q)))


@functools.lru_cache(maxsize=None)
def enumerate_stabilizers(n: int) -> tuple[StabilizerState, ...]:
    """All physical n-qubit stabilizer states, each exactly once, in layout
    order; count is 2^n * prod_{k=1..n}(2^k + 1)."""
    return tuple(
        StabilizerState(n, offset, basis, ell, tuple(_sign_rows(len(basis), q)))
        for _, basis, offsets in _layout(n)
        for offset in offsets
        for ell in range(1 << len(basis))
        for q in range(1 << _form_bits(len(basis)))
    )


def expected_stabilizer_count(n: int) -> int:
    count = 1 << n
    for k in range(1, n + 1):
        count *= (1 << k) + 1
    return count


@functools.lru_cache(maxsize=None)
def stabilizer_unit_matrix(n: int) -> np.ndarray:
    """Row k = unit-convention amplitudes of the k-th enumerated stabilizer.

    Built block by block from the layout, with no StabilizerState made: a
    subspace's amplitudes over every (ell, sign form) are computed in ell
    chunks of at most _UNIT_CHUNK amplitudes, each written at every coset."""
    layout = _layout(n)
    N = 1 << n
    out = np.zeros((expected_stabilizer_count(n), N), dtype=complex)
    for start, basis, offsets in layout:
        m = len(basis)
        forms = 1 << _form_bits(m)
        rows = np.array(_sign_rows(m, np.arange(forms)), dtype=np.int64)
        step = max(1, _UNIT_CHUNK // (forms << m))
        # rounded as stabilizer_vectors' rows over sqrt(N), so the bytes match
        scale = math.sqrt(N / (1 << m)) / math.sqrt(N)
        span = span_points(basis)
        for e0 in range(0, 1 << m, step):
            ells = np.arange(e0, min(e0 + step, 1 << m))
            # (ell, form, y); not C-ordered, so it is written without a reshape
            chunk = _amplitudes(scale, m, ells[:, None, None], rows)
            for o, offset in enumerate(offsets):
                first = start + ((o << m) + e0) * forms
                dest = out[first : first + len(ells) * forms]
                dest.reshape(len(ells), forms, N)[..., offset ^ span] = chunk
    out.setflags(write=False)  # every caller shares the cached table
    return out


def fourth_moment(state: StateVector) -> float:
    """sum_x |<x|phi>|^4 in the unit convention."""
    return float(np.sum(np.abs(state.unit()) ** 4))


def balance(state: StateVector, seed: int = 0) -> tuple[CliffordCircuit, StateVector]:
    """Real Clifford C with fourth moment of C|phi> at most 3/N. Identity is
    tried first; then seeded rejection sampling over BALANCE_TRIES draws of
    random_real_clifford, each exactly uniform on O+(2n, 2) and seeded by
    the next draw of default_rng(seed). For a real state the real Clifford
    group is an orthogonal 2-design, so its mean fourth moment is 3 / (N + 2)
    (Hashagen-Flammia-Gross-Wallman, arXiv:1801.06121). The fourth moment
    is constant on each coset of the real Paulis, so a uniform element of
    O+(2n, 2) has the same law, and by Markov's inequality a try balances
    with probability p >= 2 / (N + 2). The tries are independent, so their
    number is geometric with mean 1 / p and BalanceError has probability at
    most (N / (N + 2))^BALANCE_TRIES, about 4e-14 at n = 6."""
    threshold = 3.0 / state.N
    identity = CliffordCircuit(state.n, ())
    best = fourth_moment(state)
    if best <= threshold:
        return identity, state
    rng = np.random.default_rng(seed)
    for _ in range(BALANCE_TRIES):
        circuit = random_real_clifford(state.n, seed=int(rng.integers(0, 2**63)))
        cand = apply_clifford(circuit, state)
        moment = fourth_moment(cand)
        if moment <= threshold:
            return circuit, cand
        best = min(best, moment)
    raise BalanceError(BALANCE_TRIES, best)
