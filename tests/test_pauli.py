import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from boxworld import oracle, pauli
from boxworld.errors import DimensionError, DomainError, ResourceError
from boxworld.pauli import (
    AntiCommutingSet,
    PauliString,
    commutes,
    enumerate_anticommuting_sets,
    full_support_strings,
    gamma_set,
    hermitian_basis,
    maximal_anticommuting_sets,
    pauli_product,
    product_of,
    symplectic_form,
)


def strings(max_n=3):
    return (
        st.integers(1, max_n)
        .flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.integers(0, 2**n - 1),
                st.integers(0, 2**n - 1),
                st.integers(0, 3),
            )
        )
        .map(lambda t: PauliString(t[0], t[1], t[2], t[3]))
    )


def pairs(max_n=3):
    return st.integers(1, max_n).flatmap(
        lambda n: st.tuples(
            st.builds(
                PauliString,
                st.just(n),
                st.integers(0, 2**n - 1),
                st.integers(0, 2**n - 1),
                st.integers(0, 3),
            ),
            st.builds(
                PauliString,
                st.just(n),
                st.integers(0, 2**n - 1),
                st.integers(0, 2**n - 1),
                st.integers(0, 3),
            ),
        )
    )


class TestConstruction:
    def test_identity(self):
        s = PauliString.identity(2)
        assert s.is_identity
        assert s.letters() == "II"
        assert s.phase == 0

    def test_single_letters(self):
        assert PauliString.single(1, 0, "X").letters() == "X"
        assert PauliString.single(3, 1, "Z").letters() == "IZI"
        assert PauliString.single(2, 1, "Y").letters() == "IY"

    def test_single_bad_letter(self):
        with pytest.raises(DomainError):
            PauliString.single(1, 0, "W")

    def test_single_bad_position(self):
        with pytest.raises(DimensionError):
            PauliString.single(1, 1, "X")

    def test_hermitian_phase_fixup(self):
        s = PauliString.hermitian(1, 1, 1)
        assert s.letters() == "Y"
        assert s.is_hermitian
        assert s.hermitian_sign() == 1

    def test_phase_wraps_mod_4(self):
        assert PauliString(1, 1, 0, 7).phase == 3

    def test_mask_overflow_rejected(self):
        with pytest.raises(DimensionError):
            PauliString(1, 2, 0, 0)

    def test_text_round_trip(self):
        for text in ("+1 XZY", "-1 II", "+i X", "-i ZZ"):
            assert PauliString.from_text(text).text() == text

    def test_from_text_without_tag(self):
        s = PauliString.from_text("XZ")
        assert s.letters() == "XZ"
        assert s.phase == 0

    def test_from_text_rejects_garbage(self):
        with pytest.raises(DomainError):
            PauliString.from_text("+1 XQ")
        with pytest.raises(DomainError):
            PauliString.from_text("")

    @given(strings())
    def test_canonical_is_hermitian_same_letters(self, s):
        c = s.canonical()
        assert c.is_hermitian
        assert c.hermitian_sign() == 1
        assert (c.a, c.b) == (s.a, s.b)

    @given(strings())
    def test_basis_key_identifies_letters(self, s):
        assert s.basis_key() == (s.a, s.b)
        assert PauliString.hermitian(s.n, *s.basis_key()).letters() == s.letters()


class TestAlgebra:
    @given(pairs())
    def test_product_matches_dense(self, pair):
        s, t = pair
        left = oracle.dense(pauli_product(s, t))
        right = oracle.dense(s) @ oracle.dense(t)
        assert np.allclose(left, right, atol=1e-12)

    @given(pairs(), strings())
    def test_product_associative(self, pair, r):
        s, t = pair
        if r.n != s.n:
            return
        assert pauli_product(pauli_product(r, s), t) == pauli_product(
            r, pauli_product(s, t)
        )

    @given(strings())
    def test_self_product_is_scalar(self, s):
        sq = pauli_product(s, s)
        assert sq.a == 0 and sq.b == 0

    @given(pairs())
    def test_commutes_iff_symplectic_zero(self, pair):
        s, t = pair
        assert commutes(s, t) == (symplectic_form(s, t) == 0)

    @given(pairs())
    def test_symplectic_vs_dense_commutator(self, pair):
        s, t = pair
        ds, dt = oracle.dense(s), oracle.dense(t)
        if commutes(s, t):
            assert np.allclose(ds @ dt - dt @ ds, 0, atol=1e-12)
        else:
            assert np.allclose(ds @ dt + dt @ ds, 0, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            pauli_product(PauliString.identity(1), PauliString.identity(2))

    @given(strings())
    def test_neg_flips_sign(self, s):
        assert (-s).phase == (s.phase + 2) % 4

    def test_mul_operator(self):
        x = PauliString.single(1, 0, "X")
        z = PauliString.single(1, 0, "Z")
        assert (x * z).letters() == "Y"

    def test_product_of_chain(self):
        x = PauliString.single(2, 0, "X")
        z = PauliString.single(2, 1, "Z")
        assert product_of([x, z]).letters() == "XZ"

    def test_product_of_empty_needs_count(self):
        assert product_of([], n=2).is_identity
        with pytest.raises(DomainError):
            product_of([])

    @given(strings())
    def test_hermitian_strings_are_dense_hermitian(self, s):
        h = PauliString.hermitian(s.n, s.a, s.b)
        assert h.hermitian_residue in (0, 2)
        dense = oracle.dense(h)
        assert np.allclose(dense, dense.conj().T, atol=1e-12)

    @given(pairs())
    def test_hermitian_product_residue_parity(self, pair):
        s, t = pair
        prod = pauli_product(
            PauliString.hermitian(s.n, s.a, s.b), PauliString.hermitian(t.n, t.a, t.b)
        )
        if commutes(s, t):
            assert prod.hermitian_residue in (0, 2)
            assert prod.hermitian_sign() in (-1, 1)
        else:
            assert prod.hermitian_residue in (1, 3)


class TestGammaSet:
    def test_single_system_order(self):
        assert [s.text() for s in gamma_set(1)] == ["+1 X", "+1 Z", "+1 Y"]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_size_and_anticommutation(self, n):
        members = tuple(gamma_set(n))
        assert len(members) == 2 * n + 1
        for i, s in enumerate(members):
            assert s.is_hermitian
            for t in members[i + 1 :]:
                assert not commutes(s, t)

    @pytest.mark.parametrize("n", [1, 2])
    def test_dense_involutions_and_anticommutators(self, n):
        members = tuple(gamma_set(n))
        for i, s in enumerate(members):
            ds = oracle.dense(s)
            assert np.allclose(ds @ ds, np.eye(2**n), atol=1e-12)
            for t in members[i + 1 :]:
                dt = oracle.dense(t)
                assert np.allclose(ds @ dt + dt @ ds, 0, atol=1e-12)

    def test_bad_size(self):
        with pytest.raises(DomainError):
            gamma_set(0)


class TestBases:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_hermitian_basis_count(self, n):
        basis = list(hermitian_basis(n))
        assert len(basis) == 4**n - 1
        assert len({(s.a, s.b) for s in basis}) == len(basis)
        for s in basis:
            assert s.is_hermitian

    def test_hermitian_basis_order(self):
        letters = [s.letters() for s in hermitian_basis(2)]
        assert letters[:5] == ["IX", "IZ", "IY", "XI", "XX"]

    def test_hermitian_basis_identity_flag(self):
        basis = list(hermitian_basis(1, include_identity=True))
        assert basis[0].is_identity
        assert len(basis) == 4

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_full_support_strings(self, n):
        full = full_support_strings(n)
        assert len(full) == 3**n
        for s in full:
            assert s.has_full_support
            assert s.weight == n

    def test_full_support_order(self):
        letters = [s.letters() for s in full_support_strings(2)]
        assert letters[:4] == ["XX", "XZ", "XY", "ZX"]

    def test_support_positions(self):
        s = PauliString.from_text("XIZ")
        assert s.support() == (0, 2)
        assert s.weight == 2
        assert not s.has_full_support


class TestAntiCommutingSets:
    def test_single_system_maximal(self):
        sets = enumerate_anticommuting_sets(1)
        assert len(sets) == 1
        assert {s.letters() for s in sets[0]} == {"X", "Z", "Y"}

    def test_sets_are_cliques(self):
        for members in enumerate_anticommuting_sets(2):
            assert len(members) <= 5
            listed = tuple(members)
            for i, s in enumerate(listed):
                for t in listed[i + 1 :]:
                    assert not commutes(s, t)

    def test_alphabet_relative_maximality(self):
        alphabet = [PauliString.from_text(t) for t in ("X", "Z")]
        sets = maximal_anticommuting_sets(alphabet)
        assert len(sets) == 1
        assert len(sets[0]) == 2

    def test_enumeration_gate(self):
        with pytest.raises(ResourceError):
            enumerate_anticommuting_sets(4)

    def test_construction_rejects_commuting_members(self):
        with pytest.raises(DomainError):
            AntiCommutingSet(
                (PauliString.from_text("XI"), PauliString.from_text("IX"))
            )

    def test_construction_rejects_identity(self):
        with pytest.raises(DomainError):
            AntiCommutingSet((PauliString.identity(1),))

    def test_size_bound_enforced(self):
        members = tuple(gamma_set(1))
        big = members + (PauliString.from_text("X"),)
        with pytest.raises(DomainError):
            AntiCommutingSet(big)


class TestLagrangianEnumeration:
    @pytest.mark.parametrize("n,count", [(1, 3), (2, 15), (3, 135), (4, 2295)])
    def test_equals_clique_reference(self, n, count):
        sets = pauli.maximal_commuting_sets(n)
        assert len(sets) == count == np.prod([2**k + 1 for k in range(1, n + 1)])
        assert sets == tuple(pauli._maximal_cliques(tuple(hermitian_basis(n)), 0))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_sets_are_closed_commuting_subspaces(self, n):
        for members in pauli.maximal_commuting_sets(n):
            assert len(members) == 2**n - 1
            keys = {s.basis_key() for s in members}
            assert len(keys) == len(members)
            for i, s in enumerate(members):
                for t in members[i + 1 :]:
                    assert commutes(s, t)
                    assert pauli_product(s, t).basis_key() in keys

    def test_gate_raises_before_enumerating(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("enumeration started")

        monkeypatch.setattr(pauli, "hermitian_basis", refuse)
        with pytest.raises(ResourceError):
            pauli.maximal_commuting_sets(5)
