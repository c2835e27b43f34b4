import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ganevade import features, petk
from ganevade.features import (EmptyInputError, Vocabulary, byte_histogram,
                               extract_imports, extract_strings, fnv1a64,
                               hash_features, load_matrix, load_vocab,
                               save_matrix, save_vocab, select_topk,
                               vectorize)


class TestByteHistogram:
    def test_counts_by_hand(self):
        h = byte_histogram(b"\x00\x00\xff\x41")
        assert h.shape == (256,)
        assert h[0x00] == 0.5
        assert h[0xFF] == 0.25
        assert h[0x41] == 0.25
        assert h.sum() == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            byte_histogram(b"")

    def test_uniform_random_megabyte(self):
        rng = np.random.default_rng(0)
        data = rng.integers(0, 256, size=1 << 20, dtype=np.uint8).tobytes()
        h = byte_histogram(data)
        assert np.abs(h - 1.0 / 256).max() <= 0.001

    def test_counts_property_roundtrip(self):
        data = bytes(range(256)) * 3
        # the frequencies times the length give back the counts exactly
        h = byte_histogram(data)
        np.testing.assert_array_equal(h * len(data), np.full(256, 3.0))


class TestStrings:
    def test_planted_runs(self):
        data = b"\x00\x01hello world\xffshort\x00hi\x00hello world\x02"
        c = extract_strings(data, min_len=5)
        assert c["hello world"] == 2
        assert c["short"] == 1
        assert "hi" not in c

    def test_run_at_end_of_file(self):
        assert extract_strings(b"\x00trailing")["trailing"] == 1

    def test_min_len_boundary(self):
        c = extract_strings(b"abcd\x00abcde", min_len=5)
        assert list(c) == ["abcde"]

    def test_min_len_validation(self):
        with pytest.raises(ValueError):
            extract_strings(b"x", min_len=0)

    def test_printable_range_is_20_to_7e(self):
        # 0x1F and 0x7F both break runs
        c = extract_strings(b" !~~~\x7fabcdef\x1f", min_len=5)
        assert set(c) == {" !~~~", "abcdef"}


class TestImports:
    def test_tokens_from_synthetic_pe(self):
        spec = petk.SynthSpec(imports=["Kernel32.DLL!CreateFileA",
                                       "user32.dll!#17"])
        pe = petk.parse(petk.synth_pe(spec), strict=True)
        assert extract_imports(pe) == {"kernel32.dll!createfilea",
                                       "user32.dll!#17"}

    def test_section_reorder_invariance(self):
        # identical imports, different section payloads: same tokens
        tok = ["libone.dll!alpha", "libtwo.dll!beta"]
        a = petk.synth_pe(petk.SynthSpec(
            sections=[petk.SectionSpec(".text", b"A" * 100),
                      petk.SectionSpec(".data", b"B" * 50)], imports=tok))
        b = petk.synth_pe(petk.SynthSpec(
            sections=[petk.SectionSpec(".data", b"B" * 50),
                      petk.SectionSpec(".text", b"A" * 100)], imports=tok))
        assert extract_imports(petk.parse(a)) == extract_imports(petk.parse(b))


class TestTopK:
    def test_document_frequency_ranks(self):
        docs = [{"a", "b"}, {"a", "b"}, {"a", "c"}]
        vocab = select_topk(docs, 2)
        assert vocab.entries == ["a", "b"]

    def test_lexicographic_tie_break(self):
        docs = [{"zeta", "alpha", "mid"}]
        vocab = select_topk(docs, 2)
        assert vocab.entries == ["alpha", "mid"]

    def test_truncates_when_k_exceeds_tokens(self):
        vocab = select_topk([{"only"}], 10)
        assert vocab.entries == ["only"]

    def test_multiset_counts_do_not_inflate_df(self):
        docs = [Counter({"a": 100, "b": 1}), {"b"}]
        vocab = select_topk(docs, 1)
        assert vocab.entries == ["b"]

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            select_topk([], 5)

    def test_provenance_stable(self):
        docs = [{"x", "y"}, {"y"}]
        assert select_topk(docs, 2).provenance == select_topk(docs, 2).provenance

    def test_generator_gives_the_vocabulary_of_a_list(self):
        docs = [{"a", "b"}, ("c", "a"), Counter({"b": 3, "d": 1}), {"d"}]
        assert select_topk((doc for doc in docs), 3, kind="string") == \
            select_topk(docs, 3, kind="string")
        with pytest.raises(ValueError):
            select_topk(iter([]), 5)


class TestVectorize:
    def test_indicator_and_oov(self):
        vocab = select_topk([{"a", "b", "c"}], 3)
        assert vocab.entries == ["a", "b", "c"]
        v = vectorize({"a", "c", "unknown"}, vocab)
        np.testing.assert_array_equal(v, [1.0, 0.0, 1.0])


class TestHashing:
    def test_fnv_published_vectors(self):
        # standard FNV-1a 64-bit reference values
        assert fnv1a64(b"") == 0xCBF29CE484222325
        assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
        assert fnv1a64(b"foobar") == 0x85944171F73967E8

    def test_hash_is_linear_in_counts(self):
        a = hash_features(Counter({"tok": 3}), 16)
        b = hash_features(Counter({"tok": 1}), 16)
        np.testing.assert_allclose(a, 3 * b)

    def test_set_input_counts_once(self):
        np.testing.assert_array_equal(hash_features({"tok"}, 16),
                                      hash_features(Counter({"tok": 1}), 16))

    def test_sign_from_top_bit(self):
        tok = "a"  # fnv bit 63 is set -> negative bucket
        h = fnv1a64(b"a")
        v = hash_features({tok}, 8)
        expected_sign = 1.0 if (h >> 63) == 0 else -1.0
        assert v[h % 8] == expected_sign

    def test_dim_validation(self):
        with pytest.raises(ValueError):
            hash_features({"x"}, 0)

    def test_collisions_accumulate(self):
        tokens = Counter({f"t{i}": 1 for i in range(100)})
        v = hash_features(tokens, 4)
        signs = []
        for t in tokens:
            h = fnv1a64(t.encode())
            signs.append((h % 4, 1 if (h >> 63) == 0 else -1))
        expected = np.zeros(4)
        for i, s in signs:
            expected[i] += s
        np.testing.assert_array_equal(v, expected)


class TestPersistence:
    def test_vocab_roundtrip(self, tmp_path):
        vocab = select_topk([{"kernel32.dll!exitprocess", "a!b"}], 2)
        path = tmp_path / "v.txt"
        save_vocab(path, vocab)
        back = load_vocab(path)
        assert back.entries == vocab.entries
        assert back.kind == vocab.kind
        assert back.provenance == vocab.provenance

    def test_matrix_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        mat = rng.normal(size=(4, 7))
        path = tmp_path / "m.gevf"
        save_matrix(path, (mat, [f"c{i}" for i in range(7)]))
        back, cols = load_matrix(path)
        assert back.tobytes() == mat.tobytes()
        assert cols == [f"c{i}" for i in range(7)]

    def test_matrix_magic_checked(self, tmp_path):
        path = tmp_path / "bad.gevf"
        path.write_bytes(b"WRONG" + b"\x00" * 8)
        with pytest.raises(ValueError):
            load_matrix(path)

    def test_vocab_keeps_blank_and_padded_tokens(self, tmp_path):
        # a whitespace-only run is a valid string token at min_len 5
        tokens = ["     ", "abcde", " lead", "trail ", "lib!a\nb", ""]
        path = tmp_path / "v.txt"
        save_vocab(path, Vocabulary("string", tokens))
        assert load_vocab(path).entries == tokens

    def test_vocab_key_checked(self, tmp_path):
        path = tmp_path / "v.txt"
        save_vocab(path, Vocabulary("api", ["a!b"]), key="k1")
        assert load_vocab(path, "k1").entries == ["a!b"]
        with pytest.raises(ValueError):
            load_vocab(path, "k2")

    def test_truncated_vocab_rejected(self, tmp_path):
        path = tmp_path / "v.txt"
        save_vocab(path, Vocabulary("api", ["a!b", "c!d"]))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError):
            load_vocab(path)

    def test_matrix_key_checked(self, tmp_path):
        path = tmp_path / "m.gevf"
        save_matrix(path, (np.eye(3), ["a", "b", "c"]), key="k1")
        back, _ = load_matrix(path, "k1")
        assert back.tobytes() == np.eye(3).tobytes()
        with pytest.raises(ValueError):
            load_matrix(path, "k2")

    @pytest.mark.parametrize("cut", [3, 7, 20, 8])
    def test_truncated_matrix_rejected(self, tmp_path, cut):
        path = tmp_path / "m.gevf"
        save_matrix(path, (np.eye(3), ["a", "b", "c"]))
        data = path.read_bytes()
        path.write_bytes(data[:cut] if cut < 20 else data[:-cut])
        with pytest.raises(ValueError):
            load_matrix(path)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.text(alphabet=st.characters(max_codepoint=255)),
                unique=True, max_size=12))
def test_vocab_roundtrip_any_latin1_tokens(tokens):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "v.txt"
        save_vocab(path, Vocabulary("api", tokens))
        assert load_vocab(path).entries == tokens


@settings(max_examples=30, deadline=None)
@given(st.binary(min_size=1, max_size=2048))
def test_histogram_sums_to_one(data):
    h = byte_histogram(data)
    assert h.shape == (256,)
    assert h.sum() == pytest.approx(1.0)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.text(alphabet=st.characters(min_codepoint=33,
                                               max_codepoint=126),
                        min_size=1, max_size=12), max_size=20))
def test_hash_features_order_independent(tokens):
    fwd = hash_features(Counter(tokens), 32)
    rev = hash_features(Counter(reversed(tokens)), 32)
    np.testing.assert_array_equal(fwd, rev)


def hash_by_fnv(tokens, dim):
    """The hashing trick spelled out: one ``fnv1a64`` call per token."""
    out = np.zeros(dim, dtype=np.float64)
    items = tokens.items() if isinstance(tokens, Counter) else ((t, 1) for t in tokens)
    for tok, count in items:
        h = fnv1a64(tok.encode("utf-8"))
        out[h % dim] += (1.0 if (h >> 63) == 0 else -1.0) * count
    return out


HASH_DIMS = (1, 3, 64, 1280)


@settings(max_examples=80, deadline=None)
@given(st.one_of(
           st.sets(st.text(max_size=16), max_size=24),
           st.dictionaries(st.text(max_size=16), st.integers(-3, 1000),
                           max_size=24).map(Counter)),
       st.lists(st.sampled_from(HASH_DIMS), min_size=2, max_size=8))
def test_hash_features_matches_fnv_per_token(tokens, dims):
    """Arbitrary Unicode tokens hashed at interleaved dims in one process:
    every vector is the per-token FNV reference, bit for bit, so no dim is
    ever served another dim's bucket from the memo."""
    for dim in dims + list(HASH_DIMS):
        got = hash_features(tokens, dim)
        assert got.tobytes() == hash_by_fnv(tokens, dim).tobytes()


def test_hash_memo_is_bounded():
    assert features._bucket.cache_info().maxsize == features.HASH_MEMO_SIZE
    unique = {f"unique-token-{i}" for i in range(features.HASH_MEMO_SIZE + 100)}
    assert hash_features(unique, 64).tobytes() == hash_by_fnv(unique, 64).tobytes()
    assert features._bucket.cache_info().currsize <= features.HASH_MEMO_SIZE
