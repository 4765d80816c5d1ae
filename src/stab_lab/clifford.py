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

import numpy as np

from .gf2 import span_points, symp_unpack
from .states import StateVector, dot_parity, quadratic_parity, sign_table

BALANCE_TRIES = 1000  # random real Cliffords balance draws before giving up
SUPPORT_TOL = 1e-9  # the decoder's one tolerance: support and amplitude match
TABLE_MAX_N = 4  # the stabilizer enumeration and its tables stop here


class GateError(ValueError):
    pass


class BalanceError(RuntimeError):
    """Raised when rejection sampling finds no balancing circuit in budget."""

    def __init__(self, tries: int, best_moment: float):
        super().__init__(
            f"no balancing circuit found in {tries} tries "
            f"(best fourth moment {best_moment:.6g})"
        )
        self.tries = tries
        self.best_moment = best_moment


MAX_CIRCUIT_QUBITS = 15  # n^2 + 2n gate codes fit in one byte


@functools.lru_cache(maxsize=None)
def _gate_codes(n: int) -> tuple[tuple[tuple, ...], dict, np.ndarray]:
    """The n-qubit gate table in code order, H_i, Z_i, S_i, then CNOT_ij for
    i != j; its inverse {gate: code}; and the codes of the real gates, in
    table order, as uint8."""
    if not 0 <= n <= MAX_CIRCUIT_QUBITS:
        raise GateError(f"circuits are capped at n = {MAX_CIRCUIT_QUBITS}, got {n}")
    table = [(name, i) for name in ("H", "Z", "S") for i in range(n)]
    table += [("CNOT", i, j) for i in range(n) for j in range(n) if i != j]
    real = [k for k, gate in enumerate(table) if gate[0] != "S"]
    return tuple(table), {g: k for k, g in enumerate(table)}, np.array(real, np.uint8)


@functools.lru_cache(maxsize=None)
def _halves(n: int) -> tuple[tuple[int, ...], ...]:
    """At index f, the y in [0, 2^n) with <f, y> = 0."""
    N = 1 << n
    return tuple(
        tuple(y for y in range(N) if not (y & f).bit_count() & 1) for f in range(N)
    )


@dataclass(frozen=True, init=False, slots=True)
class CliffordCircuit:
    """A gate word on n qubits; gates are ("H", i) | ("S", i) | ("Z", i) |
    ("CNOT", i, j). The word holds one byte per gate, its code in the
    n-qubit gate table."""

    n: int
    word: bytes

    def __init__(self, n: int, gates=()):
        _, codes, _ = _gate_codes(n)
        word = bytearray()
        for gate in gates:
            code = codes.get(tuple(gate))
            if code is None:
                name = gate[0]
                if name not in ("H", "S", "Z", "CNOT"):
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
        """The reversed word with each S_i expanded to S_i then Z_i, since
        S_i^-1 = Z_i S_i; H, Z and CNOT are involutions."""
        word = self.word[::-1]
        for k in range(2 * self.n, 3 * self.n):
            word = word.replace(bytes([k]), bytes([k, k - self.n]))
        return CliffordCircuit._from_word(self.n, word)


def apply_clifford(circuit: CliffordCircuit, state: StateVector) -> StateVector:
    """circuit |state>, one gate code of the word at a time, in Python
    numbers, touching amplitudes only at H and S. The state is held as
    (-1)^<z, x> G[L x]: Z_i flips bit i of z; CNOT_ct, x -> C x =
    x ^ (x_c << t), takes L to L C (column c gains column t), row t of L^-1
    gains row c, and z becomes C^T z. With w = L e_i and f row i of L^-1,
    the y with <f, y> = 0 are _halves(n)[f] and the y ^ w are the rest. H_i,
    with b = (-1)^(z_i), takes each pair (u, v) = (G[y], G[y ^ w]) to
    ((u + b v) k, (b u - v) k), k = 1 / sqrt 2, the factor numpy's complex
    division by sqrt 2 scales by. S_i multiplies each G[y ^ w] by 1j; a
    diagonal gate commutes with the sign frame, so z stays. Up to the signs
    of both terms these are the gate-at-a-time loop's sum, difference and
    product by i, and rounding commutes with negation, so every amplitude equals
    the loop's, though a zero may come out with the other sign
    (test_apply_clifford_equals_gate_loop_oracle)."""
    n, N = circuit.n, state.N
    if n != state.n:
        raise GateError("circuit and state sizes differ")
    gates, halves = _gate_codes(n)[0], _halves(n)
    G = state.g.tolist() if state.g.imag.any() else state.g.real.tolist()
    k = 1 / math.sqrt(2)
    cols = [1 << j for j in range(n)]
    rows = cols.copy()
    z = 0
    for code in circuit.word:
        if code >= 3 * n:  # CNOT
            _, c, t = gates[code]
            cols[c] ^= cols[t]
            rows[t] ^= rows[c]
            z ^= (z >> t & 1) << c
        elif code >= 2 * n:  # S
            i = code - 2 * n
            w = cols[i]
            for y in halves[rows[i]]:
                G[y ^ w] *= 1j
        elif code >= n:  # Z
            z ^= 1 << (code - n)
        elif z >> code & 1:  # H, b = -1
            w = cols[code]
            for y in halves[rows[code]]:
                yw = y ^ w
                u, v = G[y], G[yw]
                G[y], G[yw] = (u - v) * k, (-u - v) * k
        else:  # H, b = 1
            w = cols[code]
            for y in halves[rows[code]]:
                yw = y ^ w
                u, v = G[y], G[yw]
                G[y], G[yw] = (u + v) * k, (u - v) * k
    return StateVector(n, np.array(G)[span_points(cols)] * sign_table(N, z))


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


def random_real_clifford(
    n: int, depth: int | None = None, seed: int = 0
) -> CliffordCircuit:
    """Seeded random word over {H, Z, CNOT}; depth defaults to 40 n^2, long
    enough that the draw is statistically indistinguishable from uniform in
    the orthogonal 2-design test."""
    if n < 1:
        raise GateError("need at least one qubit")
    if depth is None:
        depth = 40 * n * n
    if depth < 0:
        raise GateError(f"circuit depth must be >= 0, got {depth}")
    real = _gate_codes(n)[2]
    picks = np.random.default_rng(seed).integers(0, len(real), size=depth)
    return CliffordCircuit._from_word(n, real[picks].tobytes())


@dataclass(frozen=True, slots=True)
class StabilizerState:
    """Canonical form over affine support offset + span(basis).

    basis is the RREF basis of the direction space (decreasing order);
    parameter y_i selects basis[i]. ell holds the i-phase linear form, q_upper
    the upper-triangular (diagonal included) sign form, both over the m
    parameter bits.
    """

    n: int
    offset: int
    basis: tuple[int, ...]
    ell: int = 0
    q_upper: tuple[int, ...] = ()

    def __post_init__(self):
        m = len(self.basis)
        if len(self.q_upper) != m:
            raise ValueError("need one q_upper row per basis vector")
        for i, row in enumerate(self.q_upper):
            if row & ((1 << i) - 1):
                raise ValueError("q_upper rows must be upper triangular")

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


def _amplitudes(N: int, m: int, ells, rows) -> np.ndarray:
    """sqrt(N / 2^m) * i^<ell, y> * (-1)^Q(y) for y in range(2^m), on the
    last axis. ells (an integer array) and the q_upper rows (m integer
    arrays, see quadratic_parity) broadcast over the leading axes."""
    y = np.arange(1 << m)
    phase = np.where(dot_parity(y, ells), 1j, 1) * (1 - 2 * quadratic_parity(y, rows))
    phase *= math.sqrt(N / (1 << m))
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
            _amplitudes(N, len(basis), ells, rows),
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
    subspace's amplitudes over every (ell, sign form) are computed once and
    written at each of its cosets."""
    layout = _layout(n)
    N = 1 << n
    out = np.zeros((expected_stabilizer_count(n), N), dtype=complex)
    for start, basis, offsets in layout:
        m = len(basis)
        rows = np.array(_sign_rows(m, np.arange(1 << _form_bits(m))), dtype=np.int64)
        # (ell, form, y); not C-ordered, so it is written without a reshape
        block = _amplitudes(N, m, np.arange(1 << m)[:, None, None], rows)
        size = block.shape[0] * block.shape[1]
        span = span_points(basis)
        for o, offset in enumerate(offsets):
            coset = out[start + o * size : start + (o + 1) * size]
            coset.reshape(block.shape[:2] + (N,))[..., offset ^ span] = block
    out /= math.sqrt(N)
    return out


def fourth_moment(state: StateVector) -> float:
    """sum_x |<x|phi>|^4 in the unit convention."""
    return float(np.sum(np.abs(state.unit()) ** 4))


def balance(state: StateVector, seed: int = 0) -> tuple[CliffordCircuit, StateVector]:
    """Real Clifford C with fourth moment of C|phi> at most 3/N. Identity is
    tried first; then seeded rejection sampling over BALANCE_TRIES random
    real Cliffords."""
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
