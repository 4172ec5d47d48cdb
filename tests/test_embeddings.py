import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meemi.embeddings import (
    EmbeddingSpace,
    load_space,
    lookup,
    mean_center,
    normalize_unit,
    save_space,
)


def write(tmp_path, text, name="space.vec"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def random_space(seed, n=None, d=None):
    rng = np.random.default_rng(seed)
    n = n or int(rng.integers(2, 30))
    d = d or int(rng.integers(2, 12))
    matrix = rng.standard_normal((n, d))
    return EmbeddingSpace([f"w{i}" for i in range(n)], matrix)


class TestLoad:
    def test_header_file(self, tmp_path):
        space = load_space(write(tmp_path, "2 3\ncat 1 0 0\ndog 0 1 0\n"))
        assert space.vocab == ["cat", "dog"]
        assert space.dim == 3
        assert np.array_equal(space.matrix, [[1, 0, 0], [0, 1, 0]])

    def test_headerless_detection(self, tmp_path):
        with_header = load_space(write(tmp_path, "2 3\ncat 1 0 0\ndog 0 1 0\n", "a.vec"))
        without = load_space(write(tmp_path, "cat 1 0 0\ndog 0 1 0\n", "b.vec"))
        assert with_header.vocab == without.vocab
        assert np.array_equal(with_header.matrix, without.matrix)

    def test_arity_mismatch_names_line(self, tmp_path):
        path = write(tmp_path, "cat 1 0 0\ndog 0 1\n")
        with pytest.raises(ValueError, match=":2"):
            load_space(path)

    def test_non_finite_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="non-finite"):
            load_space(write(tmp_path, "cat 1 nan 0\n"))

    def test_unparseable_component(self, tmp_path):
        with pytest.raises(ValueError, match=":1"):
            load_space(write(tmp_path, "cat 1 oops 0\n"))

    def test_zero_row_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="cat"):
            load_space(write(tmp_path, "cat 0 0 0\ndog 0 1 0\n"))

    def test_empty_file(self, tmp_path):
        with pytest.raises(ValueError, match="no vectors"):
            load_space(write(tmp_path, ""))

    def test_duplicates_keep_first_and_warn(self, tmp_path, caplog):
        path = write(tmp_path, "cat 1 0\ncat 2 0\ndog 0 1\n")
        with caplog.at_level(logging.WARNING):
            space = load_space(path)
        assert space.vocab == ["cat", "dog"]
        assert space.matrix[0, 0] == 1.0
        assert "1 duplicate" in caplog.text

    def test_limit_truncates_in_file_order(self, tmp_path):
        path = write(tmp_path, "a 1 0\nb 0 1\nc 1 1\n")
        assert load_space(path, limit=2).vocab == ["a", "b"]

    @pytest.mark.parametrize("declared", [5, 1], ids=["truncated", "extra-rows"])
    def test_header_count_mismatch_names_file_and_line(self, tmp_path, declared):
        path = write(tmp_path, f"{declared} 3\ncat 1 0 0\ndog 0 1 0\n")
        with pytest.raises(ValueError, match=rf"space\.vec:3: header declares {declared} rows, found 2"):
            load_space(path)

    def test_duplicate_rows_count_toward_header(self, tmp_path):
        space = load_space(write(tmp_path, "3 2\ncat 1 0\ncat 2 0\ndog 0 1\n"))
        assert space.vocab == ["cat", "dog"]

    def test_limit_reads_prefix_without_count_check(self, tmp_path):
        path = write(tmp_path, "3 2\na 1 0\nb 0 1\nc 1 1\n")
        assert load_space(path, limit=2).vocab == ["a", "b"]

    def test_bad_limit(self, tmp_path):
        with pytest.raises(ValueError, match="limit"):
            load_space(write(tmp_path, "a 1 0\n"), limit=0)


class TestSave:
    def test_roundtrip(self, tmp_path):
        space = random_space(0)
        path = tmp_path / "out.vec"
        save_space(space, path)
        back = load_space(path)
        assert back.vocab == space.vocab
        assert np.abs(back.matrix - space.matrix).max() <= 1e-6

    def test_empty_space_refused(self, tmp_path):
        empty = EmbeddingSpace([], np.zeros((0, 3)))
        with pytest.raises(ValueError, match="empty"):
            save_space(empty, tmp_path / "out.vec")

    def test_one_word_space_two_lines(self, tmp_path):
        path = tmp_path / "out.vec"
        save_space(EmbeddingSpace(["cat"], np.array([[1.0, 2.0]])), path)
        assert len(path.read_text().splitlines()) == 2

    @given(seed=st.integers(0, 10_000))
    def test_roundtrip_property(self, tmp_path_factory, seed):
        space = random_space(seed)
        path = tmp_path_factory.mktemp("rt") / "s.vec"
        save_space(space, path)
        back = load_space(path)
        assert back.vocab == space.vocab
        assert np.abs(back.matrix - space.matrix).max() <= 1e-6


class TestNormalize:
    def test_three_four_five(self):
        space = EmbeddingSpace(["a"], np.array([[3.0, 4.0]]))
        assert np.allclose(normalize_unit(space).matrix, [[0.6, 0.8]])

    def test_idempotent(self):
        once = normalize_unit(random_space(1))
        twice = normalize_unit(once)
        assert np.abs(twice.matrix - once.matrix).max() <= 1e-12

    def test_zero_row_errors(self):
        space = EmbeddingSpace(["a", "zero"], np.array([[1.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="zero"):
            normalize_unit(space)

    def test_unit_rows(self):
        norms = np.linalg.norm(normalize_unit(random_space(2)).matrix, axis=1)
        assert np.abs(norms - 1).max() <= 1e-9


class TestCenter:
    def test_example(self):
        space = EmbeddingSpace(["a", "b"], np.array([[1.0, 0.0], [3.0, 0.0]]))
        assert np.array_equal(mean_center(space).matrix, [[-1, 0], [1, 0]])

    def test_single_row_becomes_zero(self):
        centered = mean_center(EmbeddingSpace(["a"], np.array([[2.0, 5.0]])))
        assert np.array_equal(centered.matrix, [[0.0, 0.0]])
        with pytest.raises(ValueError):
            normalize_unit(centered)

    def test_idempotent(self):
        once = mean_center(random_space(3))
        twice = mean_center(once)
        assert np.abs(twice.matrix - once.matrix).max() <= 1e-12

    def test_column_means_zero(self):
        centered = mean_center(random_space(4))
        assert np.abs(centered.matrix.mean(axis=0)).max() <= 1e-9

    @given(st.integers(0, 10_000))
    @settings(max_examples=25)
    def test_unit_center_unit_bound(self, seed):
        space = random_space(seed)
        piped = normalize_unit(mean_center(normalize_unit(space)))
        assert np.abs(np.linalg.norm(piped.matrix, axis=1) - 1).max() <= 1e-9
        assert np.abs(piped.matrix.mean(axis=0)).max() <= piped.dim ** -0.5


class TestLookup:
    def test_exact(self):
        space = EmbeddingSpace(["cat", "dog"], np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert np.array_equal(lookup(space, "cat"), [1, 0])

    def test_lowercase_fold(self):
        space = EmbeddingSpace(["cat"], np.array([[1.0, 2.0]]))
        assert np.array_equal(lookup(space, "Cat"), [1, 2])

    def test_missing(self):
        space = EmbeddingSpace(["cat"], np.array([[1.0, 2.0]]))
        assert lookup(space, "zebra") is None

    def test_exact_wins_over_fold(self):
        space = EmbeddingSpace(["Cat", "cat"], np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert np.array_equal(lookup(space, "Cat"), [1, 0])

    @given(st.integers(0, 10_000))
    @settings(max_examples=25)
    def test_index_bijection(self, seed):
        space = random_space(seed)
        for i, token in enumerate(space.vocab):
            assert np.array_equal(lookup(space, token), space.matrix[i])


class TestInvariants:
    def test_duplicate_tokens_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            EmbeddingSpace(["a", "a"], np.ones((2, 2)))

    def test_whitespace_tokens_rejected(self):
        with pytest.raises(ValueError, match="whitespace"):
            EmbeddingSpace(["a b"], np.ones((1, 2)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="rows"):
            EmbeddingSpace(["a"], np.ones((2, 2)))

    def test_matrix_is_readonly(self):
        space = random_space(5)
        with pytest.raises(ValueError):
            space.matrix[0, 0] = 7.0
