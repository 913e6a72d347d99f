"""Unit tests for suffix array construction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.succinct import build_suffix_array, inverse_permutation


def naive_suffix_array(data: bytes):
    return sorted(range(len(data)), key=lambda i: data[i:])


class TestSuffixArray:
    @pytest.mark.parametrize(
        "text",
        [
            b"banana",
            b"mississippi",
            b"aaaaaaa",
            b"abcabcabc",
            b"z",
            b"ba",
            b"the quick brown fox",
            bytes(range(1, 256)),
            b"abab" * 40 + b"aab" * 30,  # long repeats: many doubling rounds
        ],
    )
    def test_matches_naive(self, text):
        assert build_suffix_array(text).tolist() == naive_suffix_array(text)

    def test_empty(self):
        assert build_suffix_array(b"").tolist() == []

    def test_random_inputs(self):
        rng = np.random.default_rng(123)
        for _ in range(10):
            length = int(rng.integers(1, 200))
            text = bytes(rng.integers(1, 5, length, dtype=np.uint8))  # tiny alphabet
            assert build_suffix_array(text).tolist() == naive_suffix_array(text)

    @settings(max_examples=80, deadline=None)
    @given(st.binary(min_size=0, max_size=150))
    def test_matches_naive_on_arbitrary_bytes(self, data):
        assert build_suffix_array(data).tolist() == naive_suffix_array(data)

    def test_is_permutation(self):
        sa = build_suffix_array(b"compressing graphs with succinct structures")
        assert sorted(sa.tolist()) == list(range(len(sa)))


class TestInversePermutation:
    def test_inverts(self):
        rng = np.random.default_rng(5)
        perm = rng.permutation(50)
        inverse = inverse_permutation(perm)
        assert (perm[inverse] == np.arange(50)).all()
        assert (inverse[perm] == np.arange(50)).all()

    def test_sa_isa_relationship(self):
        text = b"banana"
        sa = build_suffix_array(text)
        isa = inverse_permutation(sa)
        for position in range(len(text)):
            assert sa[isa[position]] == position
