import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meemi.embeddings import EmbeddingSpace
from meemi.lexicon import (
    BilingualLexicon,
    HypernymDataset,
    load_hypernyms,
    load_lexicon,
    load_similarity,
    paired_rows,
    resolve,
    resolve_rows,
    save_hypernyms,
    save_lexicon,
    split_lexicon,
)


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
        src_idx, tgt_idx, skipped = resolve_rows(lex, space_of("ab"), space_of("xy"))
        assert src_idx.tolist() == [1, 0, 1]
        assert tgt_idx.tolist() == [0, 1, 0]
        assert skipped == 2

    def test_exact_match_before_fold(self):
        src = space_of(["Dog", "dog", "cat"])
        lex = BilingualLexicon([("Dog", "x"), ("dog", "x"), ("CAT", "X"), ("DOG", "x")])
        src_idx, tgt_idx, skipped = resolve_rows(lex, src, space_of("x"))
        assert src_idx.tolist() == [0, 1, 2, 1]
        assert tgt_idx.tolist() == [0, 0, 0, 0]
        assert skipped == 0

    def test_nothing_resolves_is_not_an_error(self):
        for lex in (BilingualLexicon([]), BilingualLexicon([("q", "z")])):
            src_idx, tgt_idx, skipped = resolve_rows(lex, space_of("ab"), space_of("xy"))
            assert src_idx.size == tgt_idx.size == 0
            assert skipped == len(lex)

    def test_paired_rows_has_the_errors_of_resolve(self):
        src, tgt = space_of("ab"), space_of("xy")
        for lex, message in ((BilingualLexicon([]), "cannot resolve an empty lexicon"),
                             (BilingualLexicon([("q", "z")]), "no lexicon pair resolves")):
            with pytest.raises(ValueError, match=message):
                paired_rows(lex, src, tgt)
            with pytest.raises(ValueError, match=message):
                resolve(lex, src, tgt)
        src_idx, tgt_idx = paired_rows(BilingualLexicon([("q", "z"), ("B", "x")]), src, tgt)
        assert src_idx.tolist() == [1] and tgt_idx.tolist() == [0]

    @given(st.lists(st.tuples(st.sampled_from("abAqQ"), st.sampled_from("xyXz")), max_size=12))
    def test_agrees_with_resolve(self, pairs):
        src, tgt = space_of("ab"), space_of("xy")
        lex = BilingualLexicon(pairs)
        src_idx, tgt_idx, skipped = resolve_rows(lex, src, tgt)
        try:
            kept = resolve(lex, src, tgt)[0].pairs
        except ValueError:
            kept = []
        assert src_idx.tolist() == [src.index_of(s) for s, _ in kept]
        assert tgt_idx.tolist() == [tgt.index_of(t) for _, t in kept]
        assert skipped == len(pairs) - len(kept)


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


class TestSplit:
    def lexicon(self, n=10):
        return BilingualLexicon([(f"s{i}", f"t{i}") for i in range(n)])

    def test_reproducible(self):
        first = split_lexicon(self.lexicon(), 6, seed=9)
        second = split_lexicon(self.lexicon(), 6, seed=9)
        assert first[0].pairs == second[0].pairs
        assert first[1].pairs == second[1].pairs
        assert len(first[0]) == 6 and len(first[1]) == 4

    def test_different_seeds_differ(self):
        a = split_lexicon(self.lexicon(30), 15, seed=1)[0].pairs
        b = split_lexicon(self.lexicon(30), 15, seed=2)[0].pairs
        assert a != b

    def test_shared_source_stays_together(self):
        lex = BilingualLexicon([("dog", "perro"), ("dog", "can"), ("cat", "gato"), ("sun", "sol")])
        train, test = split_lexicon(lex, 2, seed=0)
        for side in (train, test):
            dogs = [p for p in side.pairs if p[0] == "dog"]
            assert len(dogs) in (0, 2)

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="n_train"):
            split_lexicon(self.lexicon(10), 10, seed=0)
        with pytest.raises(ValueError, match="n_train"):
            split_lexicon(self.lexicon(10), 0, seed=0)

    @given(st.integers(0, 10_000), st.integers(2, 40))
    @settings(max_examples=50)
    def test_partition_properties(self, seed, n):
        rng = np.random.default_rng(seed)
        pairs = []
        for i in range(n):
            source = f"s{rng.integers(0, n)}"
            pairs.append((source, f"t{i}"))
        lex = BilingualLexicon(list(dict.fromkeys(pairs)))
        if len(lex) < 2:
            return
        n_train = int(rng.integers(1, len(lex)))
        train, test = split_lexicon(lex, n_train, seed)
        assert sorted(train.pairs + test.pairs) == sorted(lex.pairs)
        assert not {s for s, _ in train.pairs} & {s for s, _ in test.pairs}
        again = split_lexicon(lex, n_train, seed)
        assert again[0].pairs == train.pairs and again[1].pairs == test.pairs
