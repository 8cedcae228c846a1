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
import operator
from collections import deque
from collections.abc import Sequence
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

# Layer ids, as in CliffordTable.layer_ids: 24*i + j is the pulse layer
# of one-qubit words i and j (id 0, two empty words, is no layer), and
# ZX_LAYER_ID the entangling layer.  A circuit has at most MAX_LAYERS.
ZX_LAYER_ID = 576
MAX_LAYERS = 6


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


# --- integer arithmetic on (perm, sign) rows -------------------------------
#
# Arrays of elements are kept as a perm row and a sign row per element
# (the fields of SignedPauliPerm).  "a after b" is then two gathers,
# perm = a.perm[b.perm] and sign = b.sign * a.sign[b.perm], broadcast
# over any leading axes.

# IX, IZ, XI, ZI: their images fix a Clifford channel (every other label
# is a product of them), so a signed image each, 5 bits (label 1..15 and
# a sign bit), makes a 20-bit key that tells group elements apart.
_KEY_LABELS = np.array([1, 3, 4, 12])
_KEY_WEIGHTS = 1 << (5 * np.arange(4, dtype=np.int64))


def compose_rows(a_perm, a_sign, b_perm, b_sign):
    """(perm, sign) rows of a after b, over matching leading axes."""
    perm = np.take_along_axis(a_perm, b_perm, axis=-1)
    return perm, b_sign * np.take_along_axis(a_sign, b_perm, axis=-1)


def _inverse(perm, sign):
    inv = np.argsort(perm, axis=-1)
    return inv, np.take_along_axis(sign, inv, axis=-1)


def _image_keys(perm, sign):
    """Keys from the signed images of the key labels (last axis, 4)."""
    return (2 * perm.astype(np.int64) + (sign < 0)) @ _KEY_WEIGHTS


def _keys(perm, sign):
    return _image_keys(perm[..., _KEY_LABELS], sign[..., _KEY_LABELS])


def _stack(elems) -> tuple[np.ndarray, np.ndarray]:
    """(perm, sign) arrays of a sequence of SignedPauliPerm."""
    return (np.array([e.perm for e in elems], dtype=np.intp),
            np.array([e.sign for e in elems], dtype=np.int8))


def _pair_rows(perm, sign) -> tuple[np.ndarray, np.ndarray]:
    """Two-qubit rows of every pair of n one-qubit rows: row n*i + j is
    element i on qubit 1 tensor element j on qubit 2."""
    n = len(perm)
    return ((4 * perm[:, None, :, None]
             + perm[None, :, None, :]).reshape(n * n, 16),
            (sign[:, None, :, None]
             * sign[None, :, None, :]).reshape(n * n, 16))


class _KeyIndex:
    """Index lookup in a set of group elements by their sorted keys."""

    def __init__(self, perm: np.ndarray, sign: np.ndarray):
        keys = _keys(perm, sign)
        self._order = np.argsort(keys, kind="stable")
        self._keys = keys[self._order]
        self._perm = perm
        self._sign = sign

    def has_duplicates(self) -> bool:
        return bool(np.any(self._keys[1:] == self._keys[:-1]))

    def locate(self, keys) -> np.ndarray:
        """Indices of keys known to belong to members of the set."""
        return self._order[np.searchsorted(self._keys, keys)]

    def find(self, perm: np.ndarray, sign: np.ndarray) -> np.ndarray:
        """Index of each (perm, sign) row, or -1 where the row is not a
        member; rows are compared in full, so any signed permutation
        may be looked up."""
        keys = _keys(perm, sign)
        pos = np.minimum(np.searchsorted(self._keys, keys),
                         len(self._keys) - 1)
        index = self._order[pos]
        hit = ((self._keys[pos] == keys)
               & np.all(self._perm[index] == perm, axis=-1)
               & np.all(self._sign[index] == sign, axis=-1))
        return np.where(hit, index, -1)


class _ElementView(Sequence):
    """Read-only sequence of a table's elements, each made on access as a
    validated SignedPauliPerm from its array rows."""

    def __init__(self, perm: np.ndarray, sign: np.ndarray):
        self._perm = perm
        self._sign = sign

    def __len__(self) -> int:
        return len(self._perm)

    def __getitem__(self, index) -> SignedPauliPerm:
        k = operator.index(index)
        return SignedPauliPerm(tuple(self._perm[k].tolist()),
                               tuple(self._sign[k].tolist()))


class CliffordTable:
    """The full two-qubit Clifford group, indexed, with circuits.

    Attributes
    ----------
    perm_array, sign_array : (11520, 16) int arrays, the elements: row k
        maps Pauli label j to sign_array[k, j] times label
        perm_array[k, j]; like the other arrays here, read-only
    elements : read-only sequence of SignedPauliPerm, made from those rows
        on access
    circuits : list of Circuit, aligned with the rows
    layer_ids : (11520, MAX_LAYERS) int16 array, the circuits as layer ids
        in time order, padded with 0 (no layer).  The pulse layer of
        words i and j has id 24*i + j, which is also the table row of
        its exact element; ZX_LAYER_ID is the entangling layer
    layers : tuple of the Layer of each id, None for id 0
    class_ids : int array, 0..3 per element (see CLASS_NAMES)
    inverse_indices : int array, index of each element's inverse
    """

    def __init__(self):
        c1, c1_words = c1_elements()
        s1 = s1_elements()
        c1_index = {e.key: i for i, e in enumerate(c1)}
        # one shared Layer per layer id; id 0, two empty words, is None
        layers = (*(single_qubit_layer(wa, wb) for wa in c1_words
                    for wb in c1_words), Layer("zx"))

        def pair_id(a: SignedPauliPerm, b: SignedPauliPerm) -> int:
            return 24 * c1_index[a.key] + c1_index[b.key]

        # Class-1 products: row 24*i + j is c1[i] (x) c1[j].
        pair_perm, pair_sign = _pair_rows(*_stack(c1))
        class1 = _KeyIndex(pair_perm, pair_sign)

        cnot_perm = SignedPauliPerm.from_unitary(CNOT)
        iswap_perm = SignedPauliPerm.from_unitary(ISWAP)
        swap_perm = SignedPauliPerm.from_unitary(SWAP)
        zx = zx_perm()

        # CNOT = (post1 x post2) . ZX exactly (up to global phase).
        cnot_post = cnot_perm.compose(zx.inverse())
        post = int(class1.find(*_stack([cnot_post]))[0])
        if post < 0:
            raise RuntimeError("CNOT correction layer is not single-qubit")
        cnot_post_pair = (c1[post // 24], c1[post % 24])

        # iSWAP = (post1 x post2) . ZX . M . ZX . (pre1 x pre2) for some
        # class-1 middle M and an S-pair pre-layer; the first match in
        # enumeration order (M, then pre1, then pre2) keeps the build
        # deterministic.  All 576 x 9 candidates are tried at once.
        zx_rows = _stack([zx])
        core_p, core_s = _inverse(*compose_rows(
            *zx_rows, *compose_rows(pair_perm, pair_sign, *zx_rows)))
        s_pairs = [(pa, pb) for pa in s1 for pb in s1]
        left_p, left_s = compose_rows(
            *_stack([iswap_perm]),
            *_inverse(*_stack([pa.tensor(pb) for pa, pb in s_pairs])))
        # (576, 9) candidates: iSWAP . pre^-1 . (ZX . M . ZX)^-1
        hits = class1.find(*compose_rows(
            left_p[None], left_s[None], core_p[:, None], core_s[:, None]
        )).ravel()
        first = np.flatnonzero(hits >= 0)
        if first.size == 0:
            raise RuntimeError("no two-entangler decomposition of iSWAP found")
        m, s = divmod(int(first[0]), len(s_pairs))
        post = int(hits[first[0]])
        iswap_post_pair = (c1[post // 24], c1[post % 24])
        iswap_pre = s_pairs[s]

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
        swap_middle = pair_id(h.compose(p1), h.compose(p2))

        def post_ids(post_pair) -> np.ndarray:
            """Post layer of (A x B) . core for every (A, B) in class-1
            order: the core's post corrections absorbed into A and B."""
            qa = np.array([c1_index[a.compose(post_pair[0]).key] for a in c1])
            qb = np.array([c1_index[b.compose(post_pair[1]).key] for b in c1])
            return (24 * qa[:, None] + qb[None, :]).ravel()

        blocks = [(pair_perm, pair_sign)]
        circuits: list[Circuit] = [() if l is None else (l,)
                                   for l in layers[:ZX_LAYER_ID]]
        id_blocks = [np.arange(576)[:, None]]
        class_ids = [0] * 576

        def add_block(right: SignedPauliPerm, head: tuple, posts, cls: int):
            """(A x B) . right for every class-1 (A, B), in class-1 order.
            ``head`` and ``posts`` are layer ids; 0 (no layer) is dropped
            from the head and ends the circuit as a post."""
            blocks.append(compose_rows(pair_perm, pair_sign, *_stack([right])))
            head = [i for i in head if i]
            head_layers = tuple(layers[i] for i in head)
            circuits.extend(head_layers + (layers[i],) if i else head_layers
                            for i in posts.tolist())
            ids = np.empty((576, len(head) + 1), dtype=np.intp)
            ids[:, :-1] = head
            ids[:, -1] = posts
            id_blocks.append(ids)
            class_ids.extend([cls] * 576)

        # classes 2 and 3: (A x B) . core . (sa x sb).  The circuit
        # absorbs the core's own pre-layer (an S-pair) into the sampled
        # S-pair, and the core's post corrections into A and B.
        ident1 = SignedPauliPerm.identity(1)
        for core_perm, cls, post_pair, middles, core_pre in (
            (cnot_perm, 1, cnot_post_pair, (), (ident1, ident1)),
            (iswap_perm, 2, iswap_post_pair, (m,), iswap_pre),
        ):
            posts = post_ids(post_pair)
            for sa in s1:
                for sb in s1:
                    pre = pair_id(core_pre[0].compose(sa),
                                  core_pre[1].compose(sb))
                    head = (pre, ZX_LAYER_ID)
                    for middle in middles:
                        head += (middle, ZX_LAYER_ID)
                    add_block(core_perm.compose(sa.tensor(sb)), head, posts,
                              cls)

        # class 4: (A x B) . SWAP
        add_block(swap_perm, (ZX_LAYER_ID, swap_middle, ZX_LAYER_ID,
                              swap_middle, ZX_LAYER_ID),
                  post_ids(cnot_post_pair), 3)

        perm = np.concatenate([p for p, _ in blocks])
        sign = np.concatenate([s for _, s in blocks])
        self._index = _KeyIndex(perm, sign)
        if self._index.has_duplicates():
            raise RuntimeError("duplicate element during group build")
        if len(perm) != 11520:
            raise RuntimeError(f"group build produced {len(perm)} elements")

        self.perm_array = perm
        self.sign_array = sign
        self.elements = _ElementView(perm, sign)
        self.circuits = circuits
        self.layers = layers
        self.layer_ids = np.zeros((len(perm), MAX_LAYERS), dtype=np.int16)
        start = 0
        for ids in id_blocks:
            self.layer_ids[start:start + len(ids), :ids.shape[1]] = ids
            start += len(ids)
        self.class_ids = np.array(class_ids, dtype=np.int8)
        self.inverse_indices = self._index.locate(
            _keys(*_inverse(perm, sign)))
        # the arrays are the elements, shared by every user of the table
        for array in (perm, sign, self.layer_ids, self.class_ids,
                      self.inverse_indices):
            array.setflags(write=False)

    def __len__(self) -> int:
        return len(self.perm_array)

    @functools.cached_property
    def head_split(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The circuits split before their last layer, as ``(heads,
        head_of, last)``: circuit k is the layer ids ``heads[head_of[k]]``
        (0-padded, MAX_LAYERS - 1 wide) followed by layer ``last[k]``,
        which is 0 for the empty circuit.  The distinct heads are few
        (38 for this table), so a channel per head and one product per
        element give every element's channel.  Derived from
        ``layer_ids`` on first use; the arrays are read-only.
        """
        ids = self.layer_ids
        rows = np.arange(len(ids))
        end = np.maximum(np.count_nonzero(ids, axis=1) - 1, 0)
        last = ids[rows, end]
        head = ids.astype(np.int64)
        head[rows, end] = 0
        head = head[:, :-1]
        # one integer per head row: its layer ids, 10 bits each
        codes = head @ (1 << (10 * np.arange(MAX_LAYERS - 1, dtype=np.int64)))
        _, first, head_of = np.unique(codes, return_index=True,
                                      return_inverse=True)
        split = (head[first], head_of.astype(np.int16), last)
        for array in split:
            array.setflags(write=False)
        return split

    def find(self, perm, sign) -> np.ndarray:
        """Table index of each (perm, sign) row, -1 for non-members."""
        return self._index.find(np.asarray(perm), np.asarray(sign))

    def _position(self, elem: SignedPauliPerm) -> int:
        if len(elem.perm) != 16:
            return -1
        return int(self.find(*_stack([elem]))[0])

    def index_of(self, elem: SignedPauliPerm) -> int:
        """Table index of an element; ValueError if not a group member."""
        k = self._position(elem)
        if k < 0:
            raise ValueError("element is not in the two-qubit Clifford group")
        return k

    def contains(self, elem: SignedPauliPerm) -> bool:
        return self._position(elem) >= 0

    def compose_indices(self, second, first):
        """Index of element ``second`` after element ``first``; both may
        be int arrays of one shape (an int for two ints).  Only the key
        labels' images are composed."""
        images = self.perm_array[first][..., _KEY_LABELS]
        outer = np.asarray(second)[..., None]
        keys = _image_keys(
            self.perm_array[outer, images],
            self.sign_array[first][..., _KEY_LABELS]
            * self.sign_array[outer, images],
        )
        found = self._index.locate(keys)
        return int(found) if found.ndim == 0 else found

    def ptm(self, index) -> np.ndarray:
        """Ideal transfer matrix of element ``index``; for an int array
        of indices, one matrix per index (shape ``index.shape + (16, 16)``)."""
        perm = self.perm_array[index][..., None, :]
        r = np.zeros(perm.shape[:-2] + (16, 16))
        np.put_along_axis(r, perm, self.sign_array[index][..., None, :],
                          axis=-2)
        return r

    def decompose(self, target: SignedPauliPerm | np.ndarray) -> Circuit:
        """Circuit of a group element given as a perm or a unitary."""
        if isinstance(target, np.ndarray):
            target = SignedPauliPerm.from_unitary(target)
        return self.circuits[self.index_of(target)]


def fold_layer_ids(layer_ids, layer_perm, layer_sign
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Exact channels of circuits given as layer ids (time order, one
    row per circuit) as (perm, sign) rows; row i of ``layer_perm`` and
    ``layer_sign`` is the action of layer id i (see :func:`layer_rows`).
    The fold takes one gather per layer position: the vectorised
    counterpart of :func:`circuit_perm`.
    """
    layer_ids = np.asarray(layer_ids)
    perm = np.broadcast_to(np.arange(16), (len(layer_ids), 16))
    sign = np.ones((len(layer_ids), 16), dtype=np.int8)
    for column in layer_ids.T:
        perm, sign = compose_rows(layer_perm[column], layer_sign[column],
                                  perm, sign)
    return perm, sign


def layer_rows(layers: Sequence[Layer | None]
               ) -> tuple[np.ndarray, np.ndarray]:
    """Exact actions of layers as (perm, sign) rows, the identity for
    None: the array counterpart of :meth:`Layer.perm`.  Pulse layers are
    folded slot by slot from the gate_perm rows of the pulse alphabet,
    all layers at once."""
    gates = {name: i for i, name in enumerate(GATE_NAMES)}
    pulse_perm, pulse_sign = _pair_rows(
        *_stack([gate_perm(name) for name in GATE_NAMES]))
    slots = max(layer.n_slots for layer in layers if layer is not None)
    # gate pair of each slot, padded with (I, I), pair 0
    pairs = np.zeros((len(layers), slots), dtype=np.intp)
    for k, layer in enumerate(layers):
        if layer is not None:
            pairs[k, :layer.n_slots] = [len(GATE_NAMES) * gates[g1] + gates[g2]
                                        for g1, g2 in layer.pulses]
    # the slots fold like layer ids, with gate pairs for layers
    perm, sign = fold_layer_ids(pairs, pulse_perm, pulse_sign)
    zx = [k for k, layer in enumerate(layers)
          if layer is not None and layer.kind == "zx"]
    perm[zx], sign[zx] = _stack([zx_perm()])
    return perm, sign


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
