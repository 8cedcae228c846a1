"""Exact two-qubit Clifford group with device-level circuit realizations.

Clifford channels are represented as signed permutations of the Pauli
labels (index 0, the identity label, is always fixed with sign +1), held
as integer (perm, sign) rows.  All arithmetic, composition, inversion
and tensor products, is done on numpy arrays of such rows, so the full
group of 11520 two-qubit elements is enumerated and manipulated without
any floating point error.  :class:`SignedPauliPerm` is the validated
form of one element, for input and inspection; it does no arithmetic.

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
    def from_unitary(cls, u: np.ndarray) -> "SignedPauliPerm":
        """Build from a unitary; raises ValueError if its transfer matrix
        is not a signed permutation within 1e-9."""
        r = pauli.unitary_to_ptm(u)
        rounded = np.round(r)
        if np.max(np.abs(r - rounded)) > 1e-9:
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

    def to_ptm(self) -> np.ndarray:
        return rows_ptm(np.array(self.perm), np.array(self.sign))

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

# perm rows of the axis-cycling subgroup {I, S, S^2} of the one-qubit
# group, S: X -> Y -> Z -> X; every sign is +1
_AXIS_CYCLES = np.array([[0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]])


def compose_rows(a_perm, a_sign, b_perm, b_sign):
    """(perm, sign) rows of a after b, over matching leading axes."""
    perm = np.take_along_axis(a_perm, b_perm, axis=-1)
    return perm, b_sign * np.take_along_axis(a_sign, b_perm, axis=-1)


def _inverse(perm, sign):
    inv = np.argsort(perm, axis=-1)
    return inv, np.take_along_axis(sign, inv, axis=-1)


def rows_ptm(perm, sign) -> np.ndarray:
    """Transfer matrices of (perm, sign) rows, one per row (shape
    ``perm.shape[:-1] + (n, n)``): column j holds ``sign[j]`` in row
    ``perm[j]``."""
    perm = np.asarray(perm)[..., None, :]
    n = perm.shape[-1]
    r = np.zeros(perm.shape[:-2] + (n, n))
    np.put_along_axis(r, perm, np.asarray(sign)[..., None, :], axis=-2)
    return r


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


def pulse_pair_rows(names: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """(perm, sign) rows of every pair of named pulses: row n*i + j is
    pulse ``names[i]`` on qubit 1 and ``names[j]`` on qubit 2."""
    return _pair_rows(*_stack([gate_perm(name) for name in names]))


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


class _RowView(Sequence):
    """Read-only sequence over aligned array rows: item k is made on
    access as ``make(*(array[k] for array in arrays))``.  ``arrays`` are
    the rows themselves, for callers that work on them directly."""

    def __init__(self, make, *arrays: np.ndarray):
        self._make = make
        self.arrays = arrays

    def __len__(self) -> int:
        return len(self.arrays[0])

    def __getitem__(self, index):
        k = operator.index(index)
        return self._make(*(array[k] for array in self.arrays))


def _element(perm: np.ndarray, sign: np.ndarray) -> SignedPauliPerm:
    return SignedPauliPerm(tuple(perm.tolist()), tuple(sign.tolist()))


def _circuit(layers: tuple, ids: np.ndarray) -> Circuit:
    return tuple(layers[i] for i in ids.tolist() if i)


@functools.lru_cache(maxsize=None)
def c1_elements() -> tuple[_RowView, tuple[tuple[str, ...], ...]]:
    """The 24 one-qubit Cliffords with shortest pulse words (BFS).

    Returns (elements, words) in discovery order, identity first.  The
    elements are a read-only sequence of SignedPauliPerm whose
    ``arrays`` are the read-only (24, 4) perm and sign rows.  Word
    entries are in time order.
    """
    gen_perm, gen_sign = _stack([gate_perm(g) for g in _GENERATORS])
    perm, sign = [np.arange(4)], [np.ones(4, dtype=np.int8)]
    words = [()]
    seen = {perm[0].tobytes() + sign[0].tobytes()}
    # the lists are the queue: element k is expanded after all before it
    k = 0
    while k < len(words):
        new_perm, new_sign = compose_rows(gen_perm, gen_sign,
                                          perm[k][None], sign[k][None])
        for g, p, s in zip(_GENERATORS, new_perm, new_sign):
            key = p.tobytes() + s.tobytes()
            if key not in seen:
                seen.add(key)
                perm.append(p)
                sign.append(s)
                words.append(words[k] + (g,))
        k += 1
    if len(words) != 24:
        raise RuntimeError(f"one-qubit Clifford search found {len(words)} elements")
    rows = (np.array(perm), np.array(sign))
    for array in rows:
        array.setflags(write=False)
    return _RowView(_element, *rows), tuple(words)


class CliffordTable:
    """The full two-qubit Clifford group, indexed, with circuits.

    Attributes
    ----------
    perm_array, sign_array : (11520, 16) int arrays, the elements: row k
        maps Pauli label j to sign_array[k, j] times label
        perm_array[k, j]; like the other arrays here, read-only
    elements : read-only sequence of SignedPauliPerm, made from those rows
        on access
    layer_ids : (11520, MAX_LAYERS) int16 array, the circuits as layer ids
        in time order, padded with 0 (no layer), and their only stored
        form.  The pulse layer of words i and j has id 24*i + j, which is
        also the table row of its exact element; ZX_LAYER_ID is the
        entangling layer
    layers : tuple of the Layer of each id, None for id 0
    circuits : read-only sequence of Circuit, row k of layer_ids decoded
        through layers on access
    class_ids : int array, 0..3 per element (see CLASS_NAMES)
    inverse_indices : int array, index of each element's inverse
    """

    def __init__(self):
        c1, c1_words = c1_elements()
        # one shared Layer per layer id; id 0, two empty words, is None
        layers = (*(single_qubit_layer(wa, wb) for wa in c1_words
                    for wb in c1_words), Layer("zx"))

        # The exact action of every layer id: row 24*i + j is the class-1
        # element c1[i] (x) c1[j], row ZX_LAYER_ID the entangling layer.
        pair_perm, pair_sign = _pair_rows(*c1.arrays)
        class1 = _KeyIndex(pair_perm, pair_sign)
        zx_rows = _stack([zx_perm()])
        layer_perm = np.concatenate([pair_perm, zx_rows[0]])
        layer_sign = np.concatenate([pair_sign, zx_rows[1]])

        # one-qubit products as indices: mul[a, b] is c1[a] after c1[b],
        # read off the products of the rows c1[a] (x) I, ids 24*a
        one_perm, one_sign = layer_perm[:576:24], layer_sign[:576:24]
        mul = class1.find(*compose_rows(one_perm[:, None], one_sign[:, None],
                                        one_perm[None], one_sign[None])) // 24

        def unitary_rows(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            return _stack([SignedPauliPerm.from_unitary(u)])

        def first_post(targets, heads) -> tuple[int, int]:
            """The first (head, target) pair, heads outer, that a class-1
            post layer P completes as P . head = target, and P's id.
            ``targets`` are (perm, sign) rows, ``heads`` rows of layer
            ids; the pair of head h and target t is number
            ``h * len(targets) + t``."""
            inv_perm, inv_sign = _inverse(
                *fold_layer_ids(heads, layer_perm, layer_sign))
            hits = class1.find(*compose_rows(
                targets[0][None], targets[1][None],
                inv_perm[:, None], inv_sign[:, None])).ravel()
            first = np.flatnonzero(hits >= 0)
            if first.size == 0:
                raise RuntimeError("no circuit of the template reaches the "
                                   "target gate")
            return int(first[0]), int(hits[first[0]])

        # CNOT = P . ZX for a class-1 post layer P.
        _, cnot_post = first_post(unitary_rows(CNOT), [[ZX_LAYER_ID]])

        # iSWAP = P . ZX . M . ZX . pre for some class-1 middle M and an
        # S-pair pre-layer; the first match in enumeration order (M,
        # then the S-pair) keeps the build deterministic.  All 576 x 9
        # candidates are tried at once.
        s_pairs = class1.find(*_pair_rows(
            _AXIS_CYCLES, np.ones(_AXIS_CYCLES.shape, dtype=np.int8)))
        cores = np.full((576, 3), ZX_LAYER_ID)
        cores[:, 1] = np.arange(576)
        first, iswap_post = first_post(
            compose_rows(*unitary_rows(ISWAP),
                         *_inverse(layer_perm[s_pairs], layer_sign[s_pairs])),
            cores)
        iswap_middle, s = divmod(first, len(s_pairs))
        iswap_pre = int(s_pairs[s])

        # SWAP from the textbook three-CNOT identity: with
        # CNOT = P.ZX and the reversed CNOT = (HxH).CNOT.(HxH),
        # SWAP = P.ZX.(HxH).P.ZX.(HxH).P.ZX, i.e. both middles equal
        # (HxH).P where P is the CNOT post layer.
        hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        h = class1.find(*unitary_rows(np.kron(hadamard, pauli.I2)))[0] // 24
        p1, p2 = divmod(cnot_post, 24)
        swap_middle = int(24 * mul[h, p1] + mul[h, p2])
        swap_head = (ZX_LAYER_ID, swap_middle, ZX_LAYER_ID, swap_middle,
                     ZX_LAYER_ID)
        if first_post(unitary_rows(SWAP), [swap_head])[1] != cnot_post:
            raise RuntimeError("three-entangler SWAP identity failed to verify")

        def post_ids(post: int) -> np.ndarray:
            """Post layer of (A x B) . P for every (A, B) in class-1
            order, P the layer ``post``: P absorbed into A and B."""
            p1, p2 = divmod(post, 24)
            return (24 * mul[:, p1, None] + mul[None, :, p2]).ravel()

        # The blocks of 576 elements, one element per class-1 (A, B),
        # each a head (layer ids, 0 for no layer), its post layer per
        # element, and a class.  Class 1 is the pairs themselves.
        # Classes 2 and 3 are (A x B) . core . (sa x sb) for each S-pair
        # (sa, sb): the circuit absorbs the core's pre-layer (an S-pair)
        # into the sampled S-pair, and the core's post layer into A and
        # B.  Class 4 is (A x B) . SWAP.
        heads, posts, class_ids = [()], [np.arange(576)], [0]
        sa, sb = np.divmod(s_pairs, 24)
        for core_pre, middles, post, cls in (
            (0, (), cnot_post, 1),
            (iswap_pre, (iswap_middle, ZX_LAYER_ID), iswap_post, 2),
        ):
            pa, pb = divmod(core_pre, 24)
            for pre in (24 * mul[pa, sa] + mul[pb, sb]).tolist():
                heads.append((pre, ZX_LAYER_ID, *middles))
                posts.append(post_ids(post))
                class_ids.append(cls)
        heads.append(swap_head)
        posts.append(post_ids(cnot_post))
        class_ids.append(3)

        # A circuit is its head, without the no-layer ids, then its post.
        # Each block's elements are its post rows after its head's fold.
        heads = [[i for i in head if i] for head in heads]
        head_ids = np.zeros((len(heads), MAX_LAYERS), dtype=np.int16)
        for b, head in enumerate(heads):
            head_ids[b, :len(head)] = head
        posts = np.array(posts)
        self.layer_ids = np.repeat(head_ids, 576, axis=0)
        self.layer_ids[np.arange(posts.size),
                       np.repeat([len(head) for head in heads], 576)
                       ] = posts.ravel()
        head_perm, head_sign = fold_layer_ids(head_ids, layer_perm,
                                              layer_sign)
        perm, sign = (rows.reshape(-1, 16) for rows in compose_rows(
            layer_perm[posts], layer_sign[posts],
            head_perm[:, None], head_sign[:, None]))
        self._index = _KeyIndex(perm, sign)
        if self._index.has_duplicates():
            raise RuntimeError("duplicate element during group build")
        if len(perm) != 11520:
            raise RuntimeError(f"group build produced {len(perm)} elements")

        self.perm_array = perm
        self.sign_array = sign
        self.elements = _RowView(_element, perm, sign)
        self.layers = layers
        self.circuits = _RowView(functools.partial(_circuit, layers),
                                 self.layer_ids)
        self.class_ids = np.repeat(np.array(class_ids, dtype=np.int8), 576)
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
        return rows_ptm(self.perm_array[index], self.sign_array[index])

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
    The fold takes one gather per layer position.
    """
    layer_ids = np.asarray(layer_ids)
    perm = np.tile(np.arange(16), (len(layer_ids), 1))
    sign = np.ones((len(layer_ids), 16), dtype=np.int8)
    for column in layer_ids.T:
        perm, sign = compose_rows(layer_perm[column], layer_sign[column],
                                  perm, sign)
    return perm, sign


def layer_rows(layers: Sequence[Layer | None]
               ) -> tuple[np.ndarray, np.ndarray]:
    """Exact actions of layers as (perm, sign) rows, the identity for
    None.  Pulse layers are folded slot by slot from the pulse-pair rows
    of the pulse alphabet, all layers at once."""
    gates = {name: i for i, name in enumerate(GATE_NAMES)}
    pulse_perm, pulse_sign = pulse_pair_rows(GATE_NAMES)
    slots = max((layer.n_slots for layer in layers if layer is not None),
               default=0)
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
    # pulse slots and non-identity pulses of each layer id, 0 for the
    # entangling layer and for id 0 (no layer), gathered over the circuits
    slots, pulses = np.array([
        (0, 0) if layer is None else
        (layer.n_slots,
         sum((g1 != "I") + (g2 != "I") for g1, g2 in layer.pulses))
        for layer in table.layers
    ]).T
    ids = table.layer_ids
    n = len(table)
    return GroupStats(
        class_sizes=sizes,
        avg_entangling_layers=int(np.count_nonzero(ids == ZX_LAYER_ID)) / n,
        avg_pulses=int(pulses[ids].sum()) / n,
        avg_pulse_slots=2 * int(slots[ids].sum()) / n,
        max_word_length=int(slots[ids].max()),
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
