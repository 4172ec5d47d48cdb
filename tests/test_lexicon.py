import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meemi.embeddings import EmbeddingSpace, load_space
from meemi.lexicon import (
    BilingualLexicon,
    HypernymDataset,
    load_hypernyms,
    load_lexicon,
    load_similarity,
    resolve,
    resolve_rows,
    save_hypernyms,
    save_lexicon,
)
from meemi.solvers import load_map


def write(tmp_path, text, name="data.txt"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def space_of(tokens):
    rng = np.random.default_rng(0)
    return EmbeddingSpace(list(tokens), rng.standard_normal((len(tokens), 4)))


class TestLoadLexicon:
    def test_mixed_separators(self, tmp_path):
        lex = load_lexicon(write(tmp_path, "dog\tperro\ncat perro\n"))
        assert lex.pairs == [("dog", "perro"), ("cat", "perro")]

    def test_exact_duplicates_dropped(self, tmp_path):
        lex = load_lexicon(write(tmp_path, "dog perro\ndog perro\n"))
        assert lex.pairs == [("dog", "perro")]

    def test_one_to_many_kept(self, tmp_path):
        lex = load_lexicon(write(tmp_path, "dog perro\ndog can\n"))
        assert len(lex) == 2

    def test_comments_and_blanks_skipped(self, tmp_path):
        lex = load_lexicon(write(tmp_path, "# header\n\ndog perro\n"))
        assert lex.pairs == [("dog", "perro")]

    def test_wrong_arity_names_line(self, tmp_path):
        with pytest.raises(ValueError, match=":1"):
            load_lexicon(write(tmp_path, "dog\n"))


class TestResolve:
    def test_full_coverage(self):
        lex = BilingualLexicon([("a", "x"), ("b", "y")])
        kept, coverage = resolve(lex, space_of("ab"), space_of("xy"))
        assert coverage == 1.0
        assert kept.pairs == lex.pairs

    def test_half_coverage(self):
        lex = BilingualLexicon([("a", "x"), ("q", "y")])
        kept, coverage = resolve(lex, space_of("ab"), space_of("xy"))
        assert coverage == 0.5
        assert kept.pairs == [("a", "x")]

    def test_none_resolvable(self):
        lex = BilingualLexicon([("q", "z")])
        with pytest.raises(ValueError, match="resolves"):
            resolve(lex, space_of("ab"), space_of("xy"))

    def test_fold_resolves(self):
        lex = BilingualLexicon([("A", "x")])
        kept, coverage = resolve(lex, space_of("ab"), space_of("xy"))
        assert coverage == 1.0

    @given(st.integers(0, 5000))
    @settings(max_examples=25)
    def test_monotone_in_vocabulary(self, seed):
        rng = np.random.default_rng(seed)
        tokens = [f"t{i}" for i in range(12)]
        lex = BilingualLexicon([(t, t) for t in tokens])
        small = list(rng.choice(tokens, size=6, replace=False))
        big = small + [t for t in tokens if t not in small][:3]
        def coverage(src_tokens, tgt_tokens):
            try:
                return resolve(lex, space_of(src_tokens), space_of(tgt_tokens))[1]
            except ValueError:
                return 0.0
        assert coverage(big, tokens) >= coverage(small, tokens)
        assert coverage(tokens, big) >= coverage(tokens, small)


class TestResolveRows:
    def test_lexicon_order_and_skipped(self):
        lex = BilingualLexicon([("b", "x"), ("q", "y"), ("a", "y"), ("a", "z"), ("b", "x")])
        src_idx, tgt_idx, kept = resolve_rows(lex, space_of("ab"), space_of("xy"))
        assert src_idx.tolist() == [1, -1, 0, 0, 1]
        assert tgt_idx.tolist() == [0, 1, 1, -1, 0]
        assert src_idx[kept].tolist() == [1, 0, 1]
        assert tgt_idx[kept].tolist() == [0, 1, 0]
        assert np.count_nonzero(~kept) == 2

    def test_exact_match_before_fold(self):
        src = space_of(["Dog", "dog", "cat"])
        lex = BilingualLexicon([("Dog", "x"), ("dog", "x"), ("CAT", "X"), ("DOG", "x")])
        src_idx, tgt_idx, kept = resolve_rows(lex, src, space_of("x"))
        assert src_idx.tolist() == [0, 1, 2, 1]
        assert tgt_idx.tolist() == [0, 0, 0, 0]
        assert kept.all()

    def test_has_the_errors_of_resolve(self):
        src, tgt = space_of("ab"), space_of("xy")
        for lex, message in ((BilingualLexicon([]), "cannot resolve an empty lexicon"),
                             (BilingualLexicon([("q", "z")]), "no lexicon pair resolves")):
            with pytest.raises(ValueError, match=message):
                resolve_rows(lex, src, tgt)
            with pytest.raises(ValueError, match=message):
                resolve(lex, src, tgt)
        src_idx, tgt_idx, kept = resolve_rows(BilingualLexicon([("q", "z"), ("B", "x")]), src, tgt)
        assert src_idx[kept].tolist() == [1] and tgt_idx[kept].tolist() == [0]
        assert kept.tolist() == [False, True]

    @given(st.lists(st.tuples(st.sampled_from("abAqQ"), st.sampled_from("xyXz")), max_size=12))
    def test_agrees_with_resolve(self, pairs):
        src, tgt = space_of("ab"), space_of("xy")
        lex = BilingualLexicon(pairs)
        try:
            src_idx, tgt_idx, mask = resolve_rows(lex, src, tgt)
        except ValueError:
            # refused only when no pair resolves
            assert all(src.index_of(s) is None or tgt.index_of(t) is None for s, t in pairs)
            return
        kept = resolve(lex, src, tgt)[0].pairs
        assert src_idx[mask].tolist() == [src.index_of(s) for s, _ in kept]
        assert tgt_idx[mask].tolist() == [tgt.index_of(t) for _, t in kept]
        assert np.count_nonzero(~mask) == len(pairs) - len(kept)


# tokens as a lexicon file holds them: nonempty, no whitespace
LEX_TOKENS = st.text(st.characters(blacklist_categories=("Cs", "Zs", "Zl", "Zp", "Cc")),
                     min_size=1, max_size=5).filter(lambda t: t.split() == [t])
# hypernym fields may hold inner spaces, but no tab or line break and no padding
HYPER_FIELDS = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=6).filter(
    lambda f: f == f.strip() and not set(f) & set("\t\n\r"))
ANY_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=4)


class TestSaveLexicon:
    @given(st.lists(st.tuples(LEX_TOKENS, LEX_TOKENS), max_size=8, unique=True))
    def test_roundtrip(self, tmp_path_factory, pairs):
        pairs = [(s, t) for s, t in pairs if not s.startswith("#")]
        path = tmp_path_factory.mktemp("lex") / "pairs.dict"
        save_lexicon(BilingualLexicon(pairs), path)
        assert load_lexicon(path).pairs == pairs

    @given(st.lists(st.tuples(ANY_TEXT, ANY_TEXT), max_size=4))
    def test_any_pairs_roundtrip_or_raise(self, tmp_path_factory, pairs):
        path = tmp_path_factory.mktemp("lex") / "pairs.dict"
        try:
            save_lexicon(BilingualLexicon(pairs), path)
        except ValueError:
            return
        assert load_lexicon(path).pairs == pairs

    @pytest.mark.parametrize("pair", [("#tag", "x"), ("", "x"), ("a b", "x"), ("a", ""),
                                      ("a", "b")])
    def test_pair_that_would_not_load_back_is_refused(self, tmp_path, pair):
        path = tmp_path / "pairs.dict"
        with pytest.raises(ValueError, match="would not load back") as err:
            save_lexicon(BilingualLexicon([pair, ("a", "b")]), path)
        assert repr(pair) in str(err.value)
        assert not path.exists()

    def test_hash_inside_or_on_target_is_kept(self, tmp_path):
        pairs = [("a#", "#b"), ("c", "d")]
        save_lexicon(BilingualLexicon(pairs), tmp_path / "pairs.dict")
        assert load_lexicon(tmp_path / "pairs.dict").pairs == pairs


class TestSaveHypernyms:
    @given(st.lists(st.tuples(HYPER_FIELDS, st.lists(HYPER_FIELDS, min_size=1, max_size=3,
                                                     unique=True)),
                    min_size=1, max_size=5, unique_by=lambda e: e[0]))
    def test_roundtrip(self, tmp_path_factory, entries):
        entries = [(q, golds) for q, golds in entries if not q.startswith("#")]
        if not entries:
            return
        path = tmp_path_factory.mktemp("hyp") / "hyper.tsv"
        save_hypernyms(HypernymDataset(entries), path)
        assert load_hypernyms(path).entries == entries

    @given(st.lists(st.tuples(ANY_TEXT, st.lists(ANY_TEXT, max_size=2)), min_size=1, max_size=3))
    def test_any_entries_roundtrip_or_raise(self, tmp_path_factory, entries):
        path = tmp_path_factory.mktemp("hyp") / "hyper.tsv"
        try:
            save_hypernyms(HypernymDataset(entries), path)
        except ValueError:
            return
        assert load_hypernyms(path).entries == entries

    @pytest.mark.parametrize("entry", [("#tag", ["x"]), ("a", []), ("a\nb", ["x"]),
                                       (" a", ["x"]), ("a", ["x\ty"]), ("a", ["x\r"]),
                                       ("a", ["x", "x"]), ("ok", ["other"])])
    def test_entry_that_would_not_load_back_is_refused(self, tmp_path, entry):
        with pytest.raises(ValueError, match="would not load back") as err:
            save_hypernyms(HypernymDataset([("ok", ["fine"]), entry]), tmp_path / "h.tsv")
        assert repr(entry[0]) in str(err.value)


class TestLoadSimilarity:
    def test_basic(self, tmp_path):
        data = load_similarity(write(tmp_path, "car auto 8.9\n"))
        assert data.triples == [("car", "auto", 8.9)]

    def test_comment_header_skipped(self, tmp_path):
        data = load_similarity(write(tmp_path, "# w1 w2 score\ncar auto 8.9\n"))
        assert len(data) == 1

    def test_non_numeric_score(self, tmp_path):
        with pytest.raises(ValueError, match="non-numeric"):
            load_similarity(write(tmp_path, "car auto high\n"))

    def test_wrong_arity(self, tmp_path):
        with pytest.raises(ValueError, match=":1"):
            load_similarity(write(tmp_path, "car auto\n"))

    def test_non_finite_score(self, tmp_path):
        with pytest.raises(ValueError, match="non-finite"):
            load_similarity(write(tmp_path, "car auto inf\n"))


class TestLoadHypernyms:
    def test_multi_column(self, tmp_path):
        data = load_hypernyms(write(tmp_path, "cat\tanimal\tfeline\n"))
        assert data.entries == [("cat", ["animal", "feline"])]

    def test_two_column_grouped(self, tmp_path):
        data = load_hypernyms(write(tmp_path, "cat\tanimal\ncat\tfeline\n"))
        assert data.entries == [("cat", ["animal", "feline"])]

    def test_gold_deduplicated(self, tmp_path):
        data = load_hypernyms(write(tmp_path, "cat\tanimal\tanimal\n"))
        assert data.entries == [("cat", ["animal"])]

    def test_single_field_errors(self, tmp_path):
        with pytest.raises(ValueError, match=":1"):
            load_hypernyms(write(tmp_path, "cat\n"))

    def test_empty_file_errors(self, tmp_path):
        with pytest.raises(ValueError, match="no hypernym"):
            load_hypernyms(write(tmp_path, "# only comments\n"))



def _save_similarity(triples, path):
    path.write_text("".join(f"{a} {b} {score}\n" for a, b, score in triples), encoding="utf-8")


class TestTruncation:
    """A dataset file cut inside its last line is refused with that line's number."""

    @pytest.mark.parametrize("save, load, data", [
        (save_lexicon, load_lexicon, BilingualLexicon([("dog", "perro"), ("cat", "gato")])),
        (_save_similarity, load_similarity, [("cat", "dog", 7.25), ("sun", "moon", 3.15)]),
        (save_hypernyms, load_hypernyms,
         HypernymDataset([("cat", ["animal"]), ("dog", ["mammal", "animal"])])),
    ])
    def test_every_cut_of_the_last_line_is_refused(self, tmp_path, save, load, data):
        path = tmp_path / "data.txt"
        save(data, path)
        raw = path.read_bytes()
        start = raw.rindex(b"\n", 0, len(raw) - 1) + 1
        for cut in range(start + 1, len(raw)):
            path.write_bytes(raw[:cut])
            with pytest.raises(ValueError, match=":2: line has no newline; the file is truncated"):
                load(path)

    @pytest.mark.parametrize("load, text", [
        (load_lexicon, "dog perro\n# end"),
        (load_similarity, "cat dog 7.25\n\n  "),
        (load_hypernyms, "cat\tanimal\n# end"),
        (load_space, "1 2\nw 1.0 0.5\n  "),
        (load_map, "1 1 0\n2.0\n  "),
    ])
    def test_unterminated_comment_or_blank_is_harmless(self, tmp_path, load, text):
        loaded = load(write(tmp_path, text))
        # a LinearMap has no len: its one entry is its 1x1 shape
        assert (loaded.matrix.shape == (1, 1)) if load is load_map else (len(loaded) == 1)
