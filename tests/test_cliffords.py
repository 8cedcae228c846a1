"""Tests for the signed-permutation Clifford machinery and the group table.

The integer composition rules are cross-checked against the unitary
path (multiply matrices, then extract the transfer permutation), which
was itself validated against a plain trace-formula oracle.
"""

import copy
import hashlib

import numpy as np
import pytest

from rbsim import pauli, rb
from rbsim.cliffords import (
    CNOT,
    MAX_LAYERS,
    ZX_LAYER_ID,
    Layer,
    SignedPauliPerm,
    c1_elements,
    circuit_perm,
    clifford_table,
    gate_perm,
    gate_unitary,
    group_stats,
    layer_rows,
    s1_elements,
    single_qubit_layer,
    twirl_ptm,
    word_perm,
    zx_perm,
    ZX_UNITARY,
    _keys,
)


def _random_word(rng, length):
    names = ["X90", "X-90", "Y90", "Y-90", "X180", "Y180"]
    return tuple(rng.choice(names) for _ in range(length))


def _word_unitary(word):
    u = np.eye(2, dtype=complex)
    for g in word:
        u = gate_unitary(g) @ u
    return u


def test_compose_matches_unitary_product():
    rng = np.random.default_rng(1)
    for _ in range(20):
        w1 = _random_word(rng, 4)
        w2 = _random_word(rng, 4)
        via_perm = word_perm(w2).compose(word_perm(w1))
        via_unitary = SignedPauliPerm.from_unitary(
            _word_unitary(w2) @ _word_unitary(w1)
        )
        assert via_perm == via_unitary


def test_inverse():
    rng = np.random.default_rng(2)
    ident = SignedPauliPerm.identity(1)
    for _ in range(20):
        w = _random_word(rng, 5)
        x = word_perm(w)
        assert x.compose(x.inverse()) == ident
        assert x.inverse().compose(x) == ident
        assert x.inverse() == SignedPauliPerm.from_unitary(
            _word_unitary(w).conj().T
        )


def test_tensor_matches_kron():
    rng = np.random.default_rng(3)
    for _ in range(10):
        w1 = _random_word(rng, 3)
        w2 = _random_word(rng, 3)
        got = word_perm(w1).tensor(word_perm(w2))
        expect = SignedPauliPerm.from_unitary(
            np.kron(_word_unitary(w1), _word_unitary(w2))
        )
        assert got == expect


def test_to_ptm_is_transfer_matrix():
    x = gate_perm("X90")
    np.testing.assert_allclose(
        x.to_ptm(), pauli.unitary_to_ptm(gate_unitary("X90")), atol=1e-12
    )
    table = clifford_table()
    for k in (0, 1, 577, 6000, 11519):
        np.testing.assert_array_equal(table.ptm(k), table.elements[k].to_ptm())
    # an index array gives one matrix per index
    indices = np.array([[0, 577], [6000, 11519]])
    np.testing.assert_array_equal(
        table.ptm(indices),
        [[table.ptm(k) for k in row] for row in indices.tolist()])


def test_from_unitary_rejects_non_clifford():
    t_gate = np.diag([1.0, np.exp(1j * np.pi / 4)])
    with pytest.raises(ValueError):
        SignedPauliPerm.from_unitary(t_gate)


def test_validation_rejects_malformed():
    with pytest.raises(ValueError):
        SignedPauliPerm(perm=(0, 1, 1, 3), sign=(1, 1, 1, 1))
    with pytest.raises(ValueError):
        SignedPauliPerm(perm=(1, 0, 2, 3), sign=(1, 1, 1, 1))
    with pytest.raises(ValueError):
        SignedPauliPerm(perm=(0, 1, 2, 3), sign=(1, 2, 1, 1))


def test_x90_twice_is_x180():
    assert word_perm(("X90", "X90")) == gate_perm("X180")


def test_one_qubit_group():
    elems, words = c1_elements()
    assert len(elems) == 24
    assert len({e.key for e in elems}) == 24
    assert words[0] == ()
    assert elems[0] == SignedPauliPerm.identity(1)
    assert max(len(w) for w in words) == 3
    # every element's word reproduces it exactly
    for e, w in zip(elems, words):
        assert word_perm(w) == e


def test_s1_cycles_axes():
    ident, s, s2 = s1_elements()
    assert s.compose(s).compose(s) == ident
    assert s.compose(s) == s2
    # S is conjugation by the rotation of 120 degrees about (1,1,1)
    gen = (pauli.SIGMA_X + pauli.SIGMA_Y + pauli.SIGMA_Z) / np.sqrt(3)
    u = pauli.matexp_hermitian_generator(gen, np.pi / 3)
    assert SignedPauliPerm.from_unitary(u) == s


def test_zx_primitive_is_clifford():
    zx = zx_perm()
    lab = pauli.pauli_labels(2)
    # exp(i*pi*ZX/4) fixes ZX and maps ZI -> ZZ... spot-check ZI -> -YX? no:
    # conjugation sends ZI to cos * ZI + sin * (i ZX ZI)/i terms; just check
    # against the unitary path and that it is not single-qubit class
    assert zx == SignedPauliPerm.from_unitary(ZX_UNITARY)
    assert zx.perm[lab.index("ZX")] == lab.index("ZX")


def test_cnot_equals_corrected_zx():
    z90 = SignedPauliPerm.from_unitary(
        pauli.matexp_hermitian_generator(pauli.SIGMA_Z, np.pi / 4)
    )
    x90 = gate_perm("X90")
    got = z90.tensor(x90).compose(zx_perm())
    assert got == SignedPauliPerm.from_unitary(CNOT)


def test_group_census():
    table = clifford_table()
    assert len(table) == 11520
    stats = group_stats(table)
    assert stats.class_sizes == (576, 5184, 5184, 576)
    assert stats.avg_entangling_layers == 1.5
    assert stats.avg_pulses >= 3.8
    assert stats.max_word_length <= 3


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_table_and_sampling_match_reference_hashes():
    """Reference sha256 values of the table and of the default
    campaign's families, computed with an element-by-element
    construction from SignedPauliPerm objects: the array build and the
    array sampling reproduce it exactly."""
    table = clifford_table()
    got = {
        "perm": _sha256(table.perm_array.astype(np.int64).tobytes()),
        "sign": _sha256(table.sign_array.astype(np.int8).tobytes()),
        "class": _sha256(table.class_ids.astype(np.int8).tobytes()),
        "inverse": _sha256(table.inverse_indices.astype(np.int64).tobytes()),
        "circuits": _sha256(repr(table.circuits).encode()),
        "families": _sha256(
            repr(rb.sample_sequences(rb.RBConfig(), table)).encode()),
    }
    assert got == {
        "perm": "c8fa8c9d202201e215e45eb17f67d820"
                "f9283fc0c580406235dc9a47922ed7a2",
        "sign": "531e04be74e92b7d4df6d905432dcd53"
                "5ba606e5f2297bef4da826ab22fedc2b",
        "class": "05260ccec8331c302ff8791bd359702e"
                 "763a93490b132959c87ebc5f1a2ad9ea",
        "inverse": "53c7e8c0ca4716db2e584984abb83d6a"
                   "6b7bf7417799721816f14f5b2341506c",
        "circuits": "1d1d4587cba3f982f108577bf468b611"
                    "43256e3e184b1995728863da7e33e335",
        "families": "5855f85c6e6a3cc7b4356fff7350e84e"
                    "037fd23aad93086e4f65c7ced706f27a",
    }


def test_generator_image_keys_identify_elements():
    table = clifford_table()
    keys = _keys(table.perm_array, table.sign_array)
    assert len(np.unique(keys)) == len(table) == 11520
    assert np.all(keys < 2**20)
    np.testing.assert_array_equal(
        table.find(table.perm_array, table.sign_array), np.arange(len(table)))
    # a signed permutation with a member's key but other rows is no member
    fake = SignedPauliPerm(
        tuple(range(16)), tuple(1 if i != 5 else -1 for i in range(16))
    )
    assert _keys(np.array(fake.perm), np.array(fake.sign)) == keys[0]
    assert not table.contains(fake)
    with pytest.raises(ValueError):
        table.index_of(fake)
    assert not table.contains(SignedPauliPerm.identity(1))


def test_identity_element_has_empty_circuit():
    table = clifford_table()
    i = table.index_of(SignedPauliPerm.identity(2))
    assert table.circuits[i] == ()
    assert table.class_ids[i] == 0


def test_group_closure_sample():
    table = clifford_table()
    rng = np.random.default_rng(11)
    pairs = rng.integers(0, len(table), size=(1000, 2))
    for i, j in pairs:
        k = table.compose_indices(int(i), int(j))
        assert table.elements[k] == table.elements[i].compose(table.elements[j])
    # the array form composes all pairs at once, to the same indices
    np.testing.assert_array_equal(
        table.compose_indices(pairs[:, 0], pairs[:, 1]),
        [table.compose_indices(int(i), int(j)) for i, j in pairs],
    )


def test_inverse_indices():
    table = clifford_table()
    ident = SignedPauliPerm.identity(2)
    rng = np.random.default_rng(13)
    for i in rng.integers(0, len(table), size=200):
        inv = table.elements[table.inverse_indices[i]]
        assert table.elements[i].compose(inv) == ident


def test_pair_subgroup_layout():
    """Indices 24*i + j hold c1[i] (x) c1[j] and the subgroup is closed
    under inversion: simultaneous RB samples and inverts inside it."""
    table = clifford_table()
    c1, _ = c1_elements()
    for i in range(24):
        for j in range(24):
            assert table.elements[24 * i + j] == c1[i].tensor(c1[j])
    assert np.all(table.inverse_indices[:576] < 576)


def test_circuits_reproduce_elements_sample():
    table = clifford_table()
    rng = np.random.default_rng(17)
    for i in rng.integers(0, len(table), size=300):
        assert circuit_perm(table.circuits[i]) == table.elements[i]


def test_layer_ids_decode_to_circuits():
    table = clifford_table()
    ids = table.layer_ids
    assert ids.shape == (len(table), MAX_LAYERS) and ids.dtype == np.int16
    assert not ids.flags.writeable
    decoded = [tuple(table.layers[i] for i in row if i)
               for row in ids.tolist()]
    assert decoded == table.circuits
    # padding only trails the layers
    present = ids != 0
    assert not np.any(~present[:, :-1] & present[:, 1:])
    # the pulse layer of words i and j is id 24*i + j, whose table row
    # is its exact action; the last id is the entangling layer
    _, words = c1_elements()
    assert table.layers[0] is None
    assert table.layers[ZX_LAYER_ID] == Layer("zx")
    for i, wa in enumerate(words):
        for j, wb in enumerate(words):
            if i or j:
                layer = table.layers[24 * i + j]
                assert layer == single_qubit_layer(wa, wb)
                assert layer.perm() == table.elements[24 * i + j]


def test_layer_rows_equal_layer_perm():
    """The array actions of every layer id, pulse by pulse from the
    gate rows, are the Layer.perm() object folds."""
    table = clifford_table()
    perm, sign = layer_rows(table.layers)
    assert perm.shape == sign.shape == (len(table.layers), 16)
    for i, layer in enumerate(table.layers):
        expected = SignedPauliPerm.identity(2) if layer is None else layer.perm()
        assert SignedPauliPerm(tuple(perm[i].tolist()),
                               tuple(sign[i].tolist())) == expected


def _head_split(layer_ids):
    """head_split of a table whose layer ids are replaced."""
    table = copy.copy(clifford_table())
    vars(table).pop("head_split", None)
    table.layer_ids = layer_ids
    return table.head_split


def test_head_split_recomposes_the_layer_ids():
    """Each circuit is its head followed by its last layer; the heads
    are distinct and few.  The split reads only the rows, so it holds
    for rows in any order."""
    table = clifford_table()
    heads, head_of, last = table.head_split
    assert heads.shape == (38, MAX_LAYERS - 1)
    assert len(np.unique(heads, axis=0)) == len(heads)
    assert not any(a.flags.writeable for a in (heads, head_of, last))
    assert table.head_split is table.head_split
    circuits = [tuple(i for i in row if i) for row in table.layer_ids.tolist()]
    joined = [tuple(i for i in heads[h].tolist() + [t] if i)
              for h, t in zip(head_of.tolist(), last.tolist())]
    assert joined == circuits
    order = np.random.default_rng(5).permutation(len(table))
    s_heads, s_head_of, s_last = _head_split(table.layer_ids[order])
    np.testing.assert_array_equal(s_last, last[order])
    np.testing.assert_array_equal(s_heads[s_head_of], heads[head_of[order]])


def test_entangler_count_matches_class():
    table = clifford_table()
    rng = np.random.default_rng(19)
    for i in rng.integers(0, len(table), size=300):
        n_zx = sum(1 for layer in table.circuits[i] if layer.kind == "zx")
        assert n_zx == int(table.class_ids[i])


def test_decompose_roundtrip():
    table = clifford_table()
    circuit = table.decompose(CNOT)
    assert circuit_perm(circuit) == SignedPauliPerm.from_unitary(CNOT)
    assert sum(1 for layer in circuit if layer.kind == "zx") == 1


def test_decompose_rejects_non_member():
    table = clifford_table()
    with pytest.raises(ValueError):
        table.decompose(np.diag([1.0, 1.0, 1.0, np.exp(1j * np.pi / 4)]))


def test_index_of_unknown_element():
    table = clifford_table()
    # a signed permutation that is not a valid Clifford channel: flip one
    # sign of the identity perm (breaks the group's sign structure)
    fake = SignedPauliPerm(
        tuple(range(16)), tuple(1 if i != 5 else -1 for i in range(16))
    )
    if not table.contains(fake):
        with pytest.raises(ValueError):
            table.index_of(fake)


def _random_cptp_ptm(rng):
    """A generic CPTP transfer matrix: unitary mixed with local damping."""

    def rand_u(d):
        z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        q, r = np.linalg.qr(z)
        return q * (np.diagonal(r) / np.abs(np.diagonal(r)))

    gamma = 0.2
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1 - gamma)]])
    k1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]])
    damp = pauli.kraus_to_ptm([k0, k1])
    r = np.kron(damp, damp) @ pauli.unitary_to_ptm(rand_u(4))
    return 0.7 * r + 0.3 * pauli.unitary_to_ptm(rand_u(4))


def test_twirl_lands_on_depolarizing():
    rng = np.random.default_rng(23)
    r = _random_cptp_ptm(rng)
    twirled = twirl_ptm(r)
    alpha = (np.trace(r) - 1.0) / 15.0
    expect = np.diag([1.0] + [alpha] * 15)
    np.testing.assert_allclose(twirled, expect, atol=1e-9)
