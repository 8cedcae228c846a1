"""Exact two-qubit Clifford group with device-level circuit realizations.

Clifford channels are represented as signed permutations of the Pauli
labels (index 0, the identity label, is always fixed with sign +1).
Composition, inversion and tensor products are integer operations, so
the full group of 11520 two-qubit elements is enumerated and manipulated
without any floating point error.

The group is built the way a cross-resonance device realizes it: every
element is assigned a circuit made of single-qubit pulse layers drawn
from {X,Y} rotations and an entangling layer implementing
exp(+i*pi*ZX/4).  Elements split into four classes by entangling-gate
cost:

* single-qubit class (576): products A (x) B of one-qubit Cliffords,
* CNOT-like (5184): one entangling layer,
* iSWAP-like (5184): two entangling layers,
* SWAP-like (576): three entangling layers.
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import pauli

# Single-qubit pulse alphabet.  "I" only appears as padding inside a
# layer, never as a standalone word entry.
GATE_NAMES = ("I", "X90", "X-90", "Y90", "Y-90", "X180", "Y180")

_GENERATORS = ("X90", "X-90", "Y90", "Y-90", "X180", "Y180")

CLASS_NAMES = ("single_qubit", "cnot_like", "iswap_like", "swap_like")

CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
ISWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]], dtype=complex
)
SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


@functools.lru_cache(maxsize=None)
def gate_unitary(name: str) -> np.ndarray:
    """2x2 unitary of a named pulse, e.g. X90 = exp(-i*pi/4*X)."""
    if name == "I":
        return pauli.I2
    axis = {"X": pauli.SIGMA_X, "Y": pauli.SIGMA_Y}[name[0]]
    angle = {"90": np.pi / 2, "-90": -np.pi / 2, "180": np.pi}[name[1:]]
    return pauli.matexp_hermitian_generator(axis, angle / 2.0)


# The entangling primitive the device provides (an echoed cross-resonance
# gate refocuses to this, see the device module): exp(+i*pi*ZX/4).
ZX_UNITARY = pauli.matexp_hermitian_generator(
    np.kron(pauli.SIGMA_Z, pauli.SIGMA_X), -np.pi / 4
)


@dataclass(frozen=True)
class SignedPauliPerm:
    """A Clifford channel as a signed permutation of Pauli labels.

    ``perm[j]`` and ``sign[j]`` say that the channel maps label j to
    ``sign[j]`` times label ``perm[j]``.  Length 4 for one qubit,
    16 for two; slot 0 (the identity label) is pinned.
    """

    perm: tuple[int, ...]
    sign: tuple[int, ...]

    def __post_init__(self):
        n = len(self.perm)
        if len(self.sign) != n:
            raise ValueError("perm and sign lengths differ")
        if sorted(self.perm) != list(range(n)):
            raise ValueError("perm is not a permutation")
        if self.perm[0] != 0 or self.sign[0] != 1:
            raise ValueError("identity label must map to itself with sign +1")
        if any(s not in (-1, 1) for s in self.sign):
            raise ValueError("signs must be +1 or -1")

    @classmethod
    def identity(cls, n_qubits: int) -> "SignedPauliPerm":
        n = 4 ** n_qubits
        return cls(tuple(range(n)), (1,) * n)

    @classmethod
    def from_unitary(cls, u: np.ndarray, atol: float = 1e-9) -> "SignedPauliPerm":
        """Build from a unitary; raises ValueError if it is not Clifford."""
        r = pauli.unitary_to_ptm(u)
        rounded = np.round(r)
        if np.max(np.abs(r - rounded)) > atol:
            raise ValueError("unitary does not map Paulis to signed Paulis")
        n = r.shape[0]
        perm = []
        sign = []
        for j in range(n):
            col = rounded[:, j]
            hits = np.nonzero(col)[0]
            if len(hits) != 1 or abs(col[hits[0]]) != 1:
                raise ValueError("transfer matrix is not a signed permutation")
            perm.append(int(hits[0]))
            sign.append(int(col[hits[0]]))
        return cls(tuple(perm), tuple(sign))

    def compose(self, other: "SignedPauliPerm") -> "SignedPauliPerm":
        """self after other (matrix product self @ other)."""
        op, os_ = other.perm, other.sign
        sp, ss = self.perm, self.sign
        perm = tuple(sp[op[j]] for j in range(len(sp)))
        sign = tuple(os_[j] * ss[op[j]] for j in range(len(sp)))
        return SignedPauliPerm(perm, sign)

    def inverse(self) -> "SignedPauliPerm":
        n = len(self.perm)
        perm = [0] * n
        sign = [1] * n
        for j in range(n):
            perm[self.perm[j]] = j
            sign[self.perm[j]] = self.sign[j]
        return SignedPauliPerm(tuple(perm), tuple(sign))

    def tensor(self, other: "SignedPauliPerm") -> "SignedPauliPerm":
        """Two-qubit element acting as self on qubit 1, other on qubit 2."""
        if len(self.perm) != 4 or len(other.perm) != 4:
            raise ValueError("tensor expects two one-qubit elements")
        perm = [0] * 16
        sign = [1] * 16
        for a in range(4):
            for b in range(4):
                perm[4 * a + b] = 4 * self.perm[a] + other.perm[b]
                sign[4 * a + b] = self.sign[a] * other.sign[b]
        return SignedPauliPerm(tuple(perm), tuple(sign))

    def to_ptm(self) -> np.ndarray:
        n = len(self.perm)
        r = np.zeros((n, n))
        r[list(self.perm), range(n)] = self.sign
        return r

    @property
    def key(self) -> tuple:
        return (self.perm, self.sign)


@functools.lru_cache(maxsize=None)
def gate_perm(name: str) -> SignedPauliPerm:
    return SignedPauliPerm.from_unitary(gate_unitary(name))


@functools.lru_cache(maxsize=None)
def zx_perm() -> SignedPauliPerm:
    return SignedPauliPerm.from_unitary(ZX_UNITARY)


@dataclass(frozen=True)
class Layer:
    """One time slice of a circuit.

    kind "1q": simultaneous pulse pairs on the two qubits, in time
    order; the shorter word is padded with "I".  kind "zx": one
    application of the entangling primitive exp(+i*pi*ZX/4).
    """

    kind: str
    pulses: tuple[tuple[str, str], ...] = ()

    def perm(self) -> SignedPauliPerm:
        if self.kind == "zx":
            return zx_perm()
        acc = SignedPauliPerm.identity(2)
        for g1, g2 in self.pulses:
            acc = gate_perm(g1).tensor(gate_perm(g2)).compose(acc)
        return acc

    @property
    def n_slots(self) -> int:
        return len(self.pulses) if self.kind == "1q" else 0


Circuit = tuple[Layer, ...]


def single_qubit_layer(word1: tuple[str, ...], word2: tuple[str, ...]) -> Layer | None:
    """Zip two pulse words into one layer; None if both are empty."""
    if not word1 and not word2:
        return None
    n = max(len(word1), len(word2))
    w1 = word1 + ("I",) * (n - len(word1))
    w2 = word2 + ("I",) * (n - len(word2))
    return Layer("1q", tuple(zip(w1, w2)))


def circuit_perm(circuit: Circuit) -> SignedPauliPerm:
    """Fold the exact channel of a circuit (layers in time order)."""
    acc = SignedPauliPerm.identity(2)
    for layer in circuit:
        acc = layer.perm().compose(acc)
    return acc


def word_perm(word: tuple[str, ...]) -> SignedPauliPerm:
    """Exact one-qubit channel of a pulse word (time order)."""
    acc = SignedPauliPerm.identity(1)
    for g in word:
        acc = gate_perm(g).compose(acc)
    return acc


@functools.lru_cache(maxsize=None)
def c1_elements() -> tuple[tuple[SignedPauliPerm, ...], tuple[tuple[str, ...], ...]]:
    """The 24 one-qubit Cliffords with shortest pulse words (BFS).

    Returns (elements, words) in discovery order, identity first.  Word
    entries are in time order.
    """
    ident = SignedPauliPerm.identity(1)
    words: dict[tuple, tuple[str, ...]] = {ident.key: ()}
    order = [ident]
    queue = deque([ident])
    while queue:
        elem = queue.popleft()
        word = words[elem.key]
        for g in _GENERATORS:
            new = gate_perm(g).compose(elem)
            if new.key not in words:
                words[new.key] = word + (g,)
                order.append(new)
                queue.append(new)
    if len(order) != 24:
        raise RuntimeError(f"one-qubit Clifford search found {len(order)} elements")
    return tuple(order), tuple(words[e.key] for e in order)


@functools.lru_cache(maxsize=None)
def s1_elements() -> tuple[SignedPauliPerm, SignedPauliPerm, SignedPauliPerm]:
    """The axis-cycling subgroup {I, S, S^2} with S: X->Y->Z->X."""
    s = SignedPauliPerm(perm=(0, 2, 3, 1), sign=(1, 1, 1, 1))
    return (SignedPauliPerm.identity(1), s, s.compose(s))


class CliffordTable:
    """The full two-qubit Clifford group, indexed, with circuits.

    Attributes
    ----------
    elements : list of SignedPauliPerm, length 11520
    circuits : list of Circuit, aligned with ``elements``
    class_ids : int array, 0..3 per element (see CLASS_NAMES)
    perm_array, sign_array : (11520, 16) int arrays for fast twirling
    """

    def __init__(self):
        c1, c1_words = c1_elements()
        s1 = s1_elements()
        w1 = {e.key: w for e, w in zip(c1, c1_words)}

        cnot_perm = SignedPauliPerm.from_unitary(CNOT)
        iswap_perm = SignedPauliPerm.from_unitary(ISWAP)
        swap_perm = SignedPauliPerm.from_unitary(SWAP)
        zx = zx_perm()

        # Class-1 products and a factor lookup used by the core search.
        pair_of: dict[tuple, tuple[SignedPauliPerm, SignedPauliPerm]] = {}
        class1: list[SignedPauliPerm] = []
        for a in c1:
            for b in c1:
                ab = a.tensor(b)
                pair_of[ab.key] = (a, b)
                class1.append(ab)

        # CNOT = (post1 x post2) . ZX exactly (up to global phase).
        cnot_post = cnot_perm.compose(zx.inverse())
        if cnot_post.key not in pair_of:
            raise RuntimeError("CNOT correction layer is not single-qubit")
        cnot_post_pair = pair_of[cnot_post.key]

        # iSWAP = (post1 x post2) . ZX . M . ZX . (pre1 x pre2) for some
        # class-1 middle M and an S-pair pre-layer; the first match in
        # enumeration order keeps the build deterministic.
        iswap_middle = None
        iswap_post_pair = None
        iswap_pre = None
        for m in class1:
            tot_inv = zx.compose(m.compose(zx)).inverse()
            for pa in s1:
                for pb in s1:
                    pre = pa.tensor(pb)
                    cand = iswap_perm.compose(pre.inverse()).compose(tot_inv)
                    if cand.key in pair_of:
                        iswap_middle = m
                        iswap_post_pair = pair_of[cand.key]
                        iswap_pre = (pa, pb)
                        break
                if iswap_middle is not None:
                    break
            if iswap_middle is not None:
                break
        if iswap_middle is None:
            raise RuntimeError("no two-entangler decomposition of iSWAP found")

        # SWAP from the textbook three-CNOT identity: with
        # CNOT = P.ZX and the reversed CNOT = (HxH).CNOT.(HxH),
        # SWAP = P.ZX.(HxH).P.ZX.(HxH).P.ZX, i.e. both middles equal
        # (HxH).P where P is the CNOT correction layer.
        h = SignedPauliPerm.from_unitary(
            np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        )
        p1, p2 = cnot_post_pair
        swap_middle = h.compose(p1).tensor(h.compose(p2))
        check = cnot_post.compose(zx).compose(
            swap_middle.compose(zx).compose(swap_middle.compose(zx))
        )
        if check.key != swap_perm.key:
            raise RuntimeError("three-entangler SWAP identity failed to verify")
        swap_middle_words = (w1[h.compose(p1).key], w1[h.compose(p2).key])
        iswap_middle_pair = pair_of[iswap_middle.key]
        iswap_middle_words = (
            w1[iswap_middle_pair[0].key],
            w1[iswap_middle_pair[1].key],
        )

        elements: list[SignedPauliPerm] = []
        circuits: list[Circuit] = []
        class_ids: list[int] = []
        index: dict[tuple, int] = {}

        def add(elem: SignedPauliPerm, circuit: Circuit, cls: int) -> None:
            if elem.key in index:
                raise RuntimeError("duplicate element during group build")
            index[elem.key] = len(elements)
            elements.append(elem)
            circuits.append(circuit)
            class_ids.append(cls)

        def layers(*maybe: Layer | None) -> Circuit:
            return tuple(l for l in maybe if l is not None)

        zx_layer = Layer("zx")

        # class 1: A x B
        for a in c1:
            wa = w1[a.key]
            for b in c1:
                elem = a.tensor(b)
                add(elem, layers(single_qubit_layer(wa, w1[b.key])), 0)

        # classes 2 and 3: (A x B) . core . (sa x sb).  The circuit
        # absorbs the core's own pre-layer (an S-pair) into the sampled
        # S-pair, and the core's post corrections into A and B.
        ident1 = SignedPauliPerm.identity(1)
        for core_perm, cls, post_pair, middles, core_pre in (
            (cnot_perm, 1, cnot_post_pair, (), (ident1, ident1)),
            (iswap_perm, 2, iswap_post_pair, (iswap_middle_words,), iswap_pre),
        ):
            for sa in s1:
                for sb in s1:
                    pre = single_qubit_layer(
                        w1[core_pre[0].compose(sa).key],
                        w1[core_pre[1].compose(sb).key],
                    )
                    right = core_perm.compose(sa.tensor(sb))
                    for a in c1:
                        pa = a.compose(post_pair[0])
                        for b in c1:
                            pb = b.compose(post_pair[1])
                            elem = a.tensor(b).compose(right)
                            body: list[Layer | None] = [pre, zx_layer]
                            for mw in middles:
                                body += [single_qubit_layer(*mw), zx_layer]
                            body.append(
                                single_qubit_layer(w1[pa.key], w1[pb.key])
                            )
                            add(elem, layers(*body), cls)

        # class 4: (A x B) . SWAP
        for a in c1:
            pa = w1[a.compose(p1).key]
            for b in c1:
                pb = w1[b.compose(p2).key]
                elem = a.tensor(b).compose(swap_perm)
                circuit = layers(
                    zx_layer,
                    single_qubit_layer(*swap_middle_words),
                    zx_layer,
                    single_qubit_layer(*swap_middle_words),
                    zx_layer,
                    single_qubit_layer(pa, pb),
                )
                add(elem, circuit, 3)

        if len(elements) != 11520:
            raise RuntimeError(f"group build produced {len(elements)} elements")

        self.elements = elements
        self.circuits = circuits
        self.class_ids = np.array(class_ids, dtype=np.int8)
        self._index = index
        self.perm_array = np.array([e.perm for e in elements], dtype=np.intp)
        self.sign_array = np.array([e.sign for e in elements], dtype=np.int8)
        self.inverse_indices = np.array(
            [index[e.inverse().key] for e in elements], dtype=np.intp
        )

    def __len__(self) -> int:
        return len(self.elements)

    def index_of(self, elem: SignedPauliPerm) -> int:
        """Table index of an element; ValueError if not a group member."""
        try:
            return self._index[elem.key]
        except KeyError:
            raise ValueError("element is not in the two-qubit Clifford group") from None

    def contains(self, elem: SignedPauliPerm) -> bool:
        return elem.key in self._index

    def compose_indices(self, second: int, first: int) -> int:
        return self._index[self.elements[second].compose(self.elements[first]).key]

    def decompose(self, target: SignedPauliPerm | np.ndarray) -> Circuit:
        """Circuit of a group element given as a perm or a unitary."""
        if isinstance(target, np.ndarray):
            target = SignedPauliPerm.from_unitary(target)
        return self.circuits[self.index_of(target)]


@functools.lru_cache(maxsize=None)
def clifford_table() -> CliffordTable:
    """Build (once per process) and return the shared group table."""
    return CliffordTable()


@dataclass(frozen=True)
class GroupStats:
    class_sizes: tuple[int, int, int, int]
    avg_entangling_layers: float
    avg_pulses: float          # non-identity single-qubit pulses per element
    avg_pulse_slots: float     # counting identity padding
    max_word_length: int


def group_stats(table: CliffordTable | None = None) -> GroupStats:
    table = table or clifford_table()
    sizes = tuple(int(np.sum(table.class_ids == c)) for c in range(4))
    n_zx = 0
    n_pulses = 0
    n_slots = 0
    max_word = 0
    for circuit in table.circuits:
        for layer in circuit:
            if layer.kind == "zx":
                n_zx += 1
            else:
                n_slots += 2 * layer.n_slots
                n_pulses += sum(
                    (g1 != "I") + (g2 != "I") for g1, g2 in layer.pulses
                )
                max_word = max(max_word, layer.n_slots)
    n = len(table)
    return GroupStats(
        class_sizes=sizes,
        avg_entangling_layers=n_zx / n,
        avg_pulses=n_pulses / n,
        avg_pulse_slots=n_slots / n,
        max_word_length=max_word,
    )


def twirl_ptm(r: np.ndarray, table: CliffordTable | None = None) -> np.ndarray:
    """Average of C^-1 E C over the whole group, vectorized.

    For any channel this lands on a depolarizing channel
    diag(1, a, ..., a) with a = (trace(R) - 1) / 15.
    """
    table = table or clifford_table()
    r = np.asarray(r, dtype=float)
    p = table.perm_array
    s = table.sign_array.astype(float)
    conj = s[:, :, None] * s[:, None, :] * r[p[:, :, None], p[:, None, :]]
    return conj.mean(axis=0)
