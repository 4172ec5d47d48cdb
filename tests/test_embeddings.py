import ast
import logging
import os
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import meemi
from meemi import embeddings
from meemi.embeddings import (
    EmbeddingSpace,
    format_row,
    load_space,
    normalize_unit,
    save_space,
    unit_rows,
)
from meemi.lexicon import load_hypernyms, load_lexicon, load_similarity
from meemi.solvers import LinearMap, load_map, save_map


def write(tmp_path, text, name="space.vec"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def sidecar(path):
    return path.with_name(path.name + ".npz")


def same_space(a, b):
    """Equal vocab and bit-identical matrices (signed zeros included)."""
    return a.vocab == b.vocab and a.matrix.shape == b.matrix.shape and (
        a.matrix.tobytes() == b.matrix.tobytes()
    )


TOKENS = st.text(
    st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=6
).filter(lambda t: not any(ch.isspace() for ch in t))


@st.composite
def spaces(draw):
    """Spaces with any finite float64 components and no all-zero row."""
    n, d = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    vocab = draw(st.lists(TOKENS, min_size=n, max_size=n, unique=True))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    matrix = draw(hnp.arrays(np.float64, (n, d), elements=finite))
    assume((matrix != 0.0).any(axis=1).all())
    return EmbeddingSpace(vocab, matrix)


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

    @pytest.mark.parametrize("row, message", [
        ("cat 1 0", r"space\.vec:2: expected 3 components for 'cat', found 2"),
        ("cat 1 oops 0", r"space\.vec:2: unparseable matrix entry for 'cat'"),
        ("cat 1 nan 0", r"space\.vec:2: vector for 'cat' contains non-finite entries"),
        ("cat 0 0 0", r"space\.vec:2: all-zero vector for token 'cat'"),
    ])
    def test_row_faults_name_line_and_token(self, tmp_path, row, message):
        with pytest.raises(ValueError, match=message):
            load_space(write(tmp_path, f"dog 0 1 0\n{row}\ndog2 1 1 1\n"))

    @pytest.mark.parametrize("row", ["cat 1 nan 0", "cat 0 0 0"])
    def test_cut_last_row_reports_the_cut_first(self, tmp_path, row):
        with pytest.raises(ValueError, match=r"space\.vec:2: line has no newline"):
            load_space(write(tmp_path, f"dog 0 1 0\n{row}"))

    def test_zero_row_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="cat"):
            load_space(write(tmp_path, "cat 0 0 0\ndog 0 1 0\n"))

    def test_blank_lines_skipped(self, tmp_path):
        space = load_space(write(tmp_path, "2 2\n\ncat 1 0\n  \ndog 0 1\n\n"))
        assert space.vocab == ["cat", "dog"]
        assert np.array_equal(space.matrix, [[1.0, 0.0], [0.0, 1.0]])

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

    @pytest.mark.parametrize("found", [0, 2])
    def test_file_cut_inside_last_row(self, tmp_path, found):
        path = tmp_path / "s.vec"
        save_space(random_space(6, n=4, d=3), path)
        sidecar(path).unlink()
        data = path.read_bytes()
        cut = data.index(b"w3") + 2 if found == 0 else data.rindex(b" ")
        path.write_bytes(data[:cut])
        message = rf"s\.vec:5: expected 3 components for 'w3', found {found}"
        with pytest.raises(ValueError, match=message):
            load_space(path)

    @given(space=spaces())
    @example(space=EmbeddingSpace(["h\u00e9llo", "\u65e5\u672c"],
                                  np.array([[0.5, -1e-310], [2.0, 1.0]])))
    @settings(max_examples=20)
    def test_every_strict_prefix_rejected(self, tmp_path_factory, space):
        path = tmp_path_factory.mktemp("cut") / "s.vec"
        save_space(space, path)
        sidecar(path).unlink()
        data = path.read_bytes()
        for cut in range(len(data)):
            path.write_bytes(data[:cut])
            with pytest.raises(ValueError):
                load_space(path)

    def test_cut_last_row_that_still_parses(self, tmp_path):
        path = write(tmp_path, "2 2\ncat 1.5 0.25\ndog 0.5 1.25")
        with pytest.raises(ValueError, match=r"space\.vec:3: line has no newline"):
            load_space(path)
        with pytest.raises(ValueError, match=r"space\.vec:3: line has no newline"):
            load_space(path, limit=2)

    def test_header_with_no_rows(self, tmp_path):
        with pytest.raises(ValueError, match=r"space\.vec:1: header declares 3 rows, found 0"):
            load_space(write(tmp_path, "3 2\n"))
        with pytest.raises(ValueError, match="no vectors"):
            load_space(write(tmp_path, "0 2\n"))

    def test_text_parse_peak_memory(self, tmp_path):
        """Parsed rows are held as float64 arrays, not lists of Python floats."""
        space = random_space(13, 1000, 300)
        lines = [f"{t} {format_row(row)}\n" for t, row in zip(space.vocab, space.matrix)]
        path = write(tmp_path, "1000 300\n" + "".join(lines))
        tracemalloc.start()
        try:
            loaded = load_space(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert same_space(loaded, space)
        assert peak < 3 * space.matrix.nbytes

    def test_crlf_line_endings(self, tmp_path):
        space = random_space(7)
        path = tmp_path / "s.vec"
        save_space(space, path)
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        assert same_space(load_space(path), space)


@pytest.mark.parametrize("load, head", [
    (load_space, b"2 2\nw 1.0 0.5\n"),
    (load_map, b"2 2 0\n1.0 0.0\n"),
    (load_lexicon, b"dog perro\n"),
    (load_similarity, b"cat dog 7.25\n"),
    (load_hypernyms, b"cat\tanimal\n"),
], ids=["load_space", "load_map", "load_lexicon", "load_similarity", "load_hypernyms"])
def test_non_utf8_file_is_an_error_naming_it(tmp_path, load, head):
    path = tmp_path / "bad.txt"
    path.write_bytes(head + b"x\xff 1.0 0.5\n")
    with pytest.raises(ValueError) as info:
        load(path)
    assert str(info.value) == f"{path}:{len(head.splitlines()) + 1}: not UTF-8 text"


def test_non_utf8_error_names_the_line_of_the_bad_byte(tmp_path):
    # the bad byte lies several KiB into the file, past the first blocks the text layer
    # decodes; under each line ending the line named is the byte's own
    path = tmp_path / "bad.dict"
    for newline in (b"\n", b"\r\n", b"\r"):
        lines = [b"dog perro"] * 5000 + [b"x\xff y", b"cat gato"]
        path.write_bytes(newline.join(lines) + newline)
        with pytest.raises(ValueError) as info:
            load_lexicon(path)
        assert str(info.value) == f"{path}:5001: not UTF-8 text", newline


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

    @pytest.mark.parametrize("vocab, matrix, error, message", [
        (["a", "b"], [[1.0, 2.0], [0.0, 0.0]], ValueError, "all-zero vector of token 'b'"),
        (["a", "b"], [[-0.0, 0.0], [1.0, 2.0]], ValueError, "all-zero vector of token 'a'"),
        # dimension 0: every vector is empty
        (["a", "b"], np.zeros((2, 0)), ValueError, "all-zero vector of token 'a'"),
        (["ok", "bad\udc80"], [[1.0, 2.0], [3.0, 4.0]], UnicodeEncodeError, "surrogates"),
    ], ids=["zero_row", "signed_zero_row", "dimension_0", "token_not_utf8"])
    def test_refuses_what_load_space_refuses_before_writing(
            self, tmp_path, vocab, matrix, error, message):
        with pytest.raises(error, match=message):
            save_space(EmbeddingSpace(vocab, np.array(matrix, dtype=np.float64)),
                       tmp_path / "out.vec")
        assert list(tmp_path.iterdir()) == []

    def test_one_word_space_two_lines(self, tmp_path):
        path = tmp_path / "out.vec"
        save_space(EmbeddingSpace(["cat"], np.array([[1.0, 2.0]])), path)
        assert len(path.read_text().splitlines()) == 2

    @given(space=spaces(), limit=st.integers(1, 7))
    def test_roundtrip_property(self, tmp_path_factory, space, limit):
        path = tmp_path_factory.mktemp("rt") / "s.vec"
        save_space(space, path)
        prefix = EmbeddingSpace(space.vocab[:limit], space.matrix[:limit])
        assert same_space(load_space(path), space)
        assert same_space(load_space(path, limit=limit), prefix)
        sidecar(path).unlink()
        assert same_space(load_space(path), space)
        assert same_space(load_space(path, limit=limit), prefix)

    def test_text_bytes_pinned(self, tmp_path):
        path = tmp_path / "s.vec"
        matrix = np.array([[0.1, -0.0, 1 / 3], [1e-310, 1.7976931348623157e308, -2.5]])
        save_space(EmbeddingSpace(["cat", "h\u00e9llo"], matrix), path)
        assert path.read_bytes() == (
            b"2 3\ncat 0.1 -0.0 0.3333333333333333\n"
            b"h\xc3\xa9llo 1e-310 1.7976931348623157e+308 -2.5\n"
        )


class TestSidecar:
    def test_load_takes_sidecar(self, tmp_path, caplog):
        path = tmp_path / "s.vec"
        save_space(random_space(8), path)
        assert sidecar(path).exists()
        with caplog.at_level(logging.DEBUG, logger="meemi.embeddings"):
            load_space(path)
        assert "loaded from its sidecar" in caplog.text
        assert "parsing text" not in caplog.text

    def test_one_edited_byte_forces_text_path(self, tmp_path, caplog):
        space = EmbeddingSpace(["a", "b"], np.array([[1.5, 2.0], [3.0, 4.0]]))
        path = tmp_path / "s.vec"
        save_space(space, path)
        path.write_bytes(path.read_bytes().replace(b"a 1.5", b"a 1.6"))
        with caplog.at_level(logging.DEBUG, logger="meemi.embeddings"):
            back = load_space(path)
        assert "sidecar is stale" in caplog.text
        assert back.matrix[0, 0] == 1.6

    def test_truncated_text_next_to_valid_sidecar_raises_text_error(self, tmp_path):
        path = tmp_path / "s.vec"
        save_space(random_space(9, n=4, d=3), path)
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:-1]))
        with pytest.raises(ValueError, match=r"s\.vec:4: header declares 4 rows, found 3"):
            load_space(path)

    def test_damaged_or_missing_sidecar_falls_back(self, tmp_path):
        space = random_space(10, n=5, d=3)
        path = tmp_path / "s.vec"
        save_space(space, path)
        good = sidecar(path).read_bytes()
        damaged = [good[:n] for n in range(len(good))]
        damaged += [good[:i] + bytes([good[i] ^ 0x5A]) + good[i + 1:] for i in range(len(good))]
        prefix = EmbeddingSpace(space.vocab[:2], space.matrix[:2])
        for data in damaged:
            sidecar(path).write_bytes(data)
            assert same_space(load_space(path), space)
            assert same_space(load_space(path, limit=2), prefix)
        sidecar(path).write_bytes(b"\x93NUMPY not a zip")
        assert same_space(load_space(path), space)
        sidecar(path).unlink()
        assert same_space(load_space(path), space)

    def test_damaged_kept_row_under_limit_goes_to_text(self, tmp_path):
        # a matrix member of many KiB, so a limited read stops well before its end
        space = random_space(14, n=400, d=4)
        path = tmp_path / "s.vec"
        save_space(space, path)
        data = sidecar(path).read_bytes()
        at = data.index(space.matrix[0].tobytes())
        sidecar(path).write_bytes(data[:at] + bytes([data[at] ^ 0x01]) + data[at + 1:])
        prefix = EmbeddingSpace(space.vocab[:2], space.matrix[:2])
        assert same_space(load_space(path, limit=2), prefix)

    def test_non_finite_sidecar_values_go_to_text(self, tmp_path):
        space = random_space(11, n=3, d=2)
        path = tmp_path / "s.vec"
        save_space(space, path)
        with np.load(sidecar(path)) as npz:
            arrays = dict(npz)
        arrays["matrix"] = arrays["matrix"].copy()
        arrays["matrix"][1, 0] = np.nan
        np.savez(sidecar(path), **arrays)
        assert same_space(load_space(path), space)

    def test_float32_sidecar_goes_to_text(self, tmp_path, caplog):
        space = random_space(12, n=3, d=2)
        path = tmp_path / "s.vec"
        save_space(space, path)
        with np.load(sidecar(path)) as npz:
            arrays = dict(npz)
        arrays["matrix"] = arrays["matrix"].astype(np.float32)
        np.savez(sidecar(path), **arrays)
        with caplog.at_level(logging.DEBUG, logger="meemi.embeddings"):
            back = load_space(path)
        assert "parsing text" in caplog.text
        assert "sidecar is stale" not in caplog.text
        assert same_space(back, space)

    @pytest.mark.parametrize("keep_sidecar", [True, False])
    def test_zero_row_same_error_either_path(self, tmp_path, keep_sidecar):
        # save_space refuses a zero row, so the text and a matching sidecar are written here
        path = write(tmp_path, "2 2\na 1.0 0.0\nz 0.0 -0.0\n", "s.vec")
        if keep_sidecar:
            np.savez(sidecar(path),
                     sha256=np.frombuffer(embeddings._file_sha256(path), dtype=np.uint8),
                     vocab=np.frombuffer(b"a\nz", dtype=np.uint8),
                     matrix=np.array([[1.0, 0.0], [0.0, -0.0]]))
        with pytest.raises(ValueError, match=r"s\.vec:3: all-zero vector for token 'z'"):
            load_space(path)
        assert load_space(path, limit=1).vocab == ["a"]

    def test_limit_reads_only_the_kept_rows(self, tmp_path, caplog):
        space = random_space(13, n=20_000, d=300)
        path = tmp_path / "s.vec"
        save_space(space, path)
        loaded, peaks = [], []
        for keep_sidecar in (True, False):
            if not keep_sidecar:
                sidecar(path).unlink()
            tracemalloc.start()
            try:
                with caplog.at_level(logging.DEBUG, logger="meemi.embeddings"):
                    loaded.append(load_space(path, limit=1000))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert "loaded from its sidecar" in caplog.text
        assert same_space(loaded[0], loaded[1])
        assert same_space(loaded[0], EmbeddingSpace(space.vocab[:1000], space.matrix[:1000]))
        assert peaks[0] < peaks[1]

    def test_two_saves_give_identical_bytes(self, tmp_path, monkeypatch):
        space = random_space(12)
        first, second = tmp_path / "a.vec", tmp_path / "b.vec"
        save_space(space, first)
        monkeypatch.setattr(time, "time", lambda: 1e9)  # a save at another time
        save_space(space, second)
        assert first.read_bytes() == second.read_bytes()
        assert sidecar(first).read_bytes() == sidecar(second).read_bytes()


def uneven_space():
    """1799 x 96: big enough for two halves, cut at row 899 of an odd row count.
    Tokens hold multi-byte UTF-8."""
    space = random_space(5, 1799, 96)
    return EmbeddingSpace([f"w\u00f6rd{i}\u8a9e" for i in range(len(space))], space.matrix)


class TestRangeWriter:
    @pytest.fixture
    def ranges(self, monkeypatch):
        """Set how many ranges a big enough save is cut into: 1 or 2."""
        def set_count(count):
            monkeypatch.setattr(embeddings, "_usable_cpus", lambda: count)

        return set_count

    @pytest.mark.parametrize("count", [1, 2])
    def test_same_bytes_for_any_range_count(self, tmp_path, ranges, forks, count):
        space = uneven_space()
        linear_map = LinearMap(space.matrix)
        saved = {}
        for ranges_used in (1, count):
            ranges(ranges_used)
            out = tmp_path / str(ranges_used)
            out.mkdir(exist_ok=True)
            save_space(space, out / "s.vec")
            save_map(linear_map, out / "m.map")
            saved[ranges_used] = [(out / name).read_bytes()
                                  for name in ("s.vec", "s.vec.npz", "m.map")]
        assert len(forks) == 2 * (count - 1)
        assert saved[count] == saved[1]
        vec, _, map_text = saved[1]
        rows = [format_row(row) for row in space.matrix]
        assert vec.decode("utf-8") == "1799 96\n" + "".join(
            f"{token} {row}\n" for token, row in zip(space.vocab, rows))
        assert map_text.decode("utf-8") == "1799 96 0\n" + "".join(f"{row}\n" for row in rows)
        assert same_space(load_space(out / "s.vec"), space)
        assert load_map(out / "m.map").matrix.tobytes() == space.matrix.tobytes()
        assert sorted(p.name for p in out.iterdir()) == ["m.map", "s.vec", "s.vec.npz"]

    def test_fork_counts(self, tmp_path, monkeypatch, forks):
        monkeypatch.setattr(embeddings, "_usable_cpus", lambda: 2)
        save_space(random_space(1, 1200, 300), tmp_path / "big.vec")
        assert len(forks) == 1
        save_map(LinearMap(random_space(2, 300, 300).matrix), tmp_path / "big.map")
        assert len(forks) == 2
        save_space(random_space(3, 1023, 64), tmp_path / "small.vec")  # 2**16 - 64 components
        assert len(forks) == 2
        save_space(random_space(3, 1024, 64), tmp_path / "edge.vec")  # exactly 2**16 components
        assert len(forks) == 3
        save_space(random_space(3, 1, 1 << 17), tmp_path / "row.vec")  # one row is never halved
        assert len(forks) == 3

    def test_range_count_is_capped(self, tmp_path, monkeypatch, forks):
        monkeypatch.setattr(embeddings, "_usable_cpus", lambda: 64)
        space = random_space(4, 1200, 300)
        save_space(space, tmp_path / "64.vec")
        assert len(forks) == 1
        monkeypatch.delattr(os, "fork")
        save_space(space, tmp_path / "nofork.vec")
        assert len(forks) == 1
        assert (tmp_path / "nofork.vec").read_bytes() == (tmp_path / "64.vec").read_bytes()

    def split_space(self):
        """1100 x 64, so two ranges on two CPUs; column 0 holds the row number from 1."""
        matrix = np.random.default_rng(7).standard_normal((1100, 64))
        matrix[:, 0] = np.arange(1, 1101)
        return EmbeddingSpace([f"w\u00f6rd{i}" for i in range(1100)], matrix)

    def save(self, space, path):
        save_space(space, path)
        return path.read_bytes(), (path.parent / (path.name + ".npz")).read_bytes()

    @pytest.fixture
    def reference(self, tmp_path, ranges):
        """The split space's bytes saved as one range; the test then has two ranges."""
        ranges(1)
        expected = self.save(self.split_space(), tmp_path / "reference.vec")
        ranges(2)
        return expected

    def failing_rows(self, monkeypatch, fails):
        real = embeddings.format_row

        def format_row(row):
            fails(row)
            return real(row)

        monkeypatch.setattr(embeddings, "format_row", format_row)

    def test_failed_fork_formats_in_process(self, tmp_path, monkeypatch, reference):
        tried = []

        def no_fork():
            tried.append(True)
            raise BlockingIOError("no process to spare")

        monkeypatch.setattr(os, "fork", no_fork)
        assert self.save(self.split_space(), tmp_path / "s.vec") == reference
        assert tried == [True]

    def test_range_failing_only_in_a_child_is_formatted_again(self, tmp_path, monkeypatch, forks,
                                                              reference):
        parent = os.getpid()

        def fails(row):
            if os.getpid() != parent:
                raise OSError("only children fail")

        self.failing_rows(monkeypatch, fails)
        assert self.save(self.split_space(), tmp_path / "s.vec") == reference
        assert len(forks) == 1

    def test_failing_range_raises_its_own_error(self, tmp_path, monkeypatch, forks, reference):
        def fails(row):
            if row[0] == 1100.0:
                raise PermissionError("cannot write the last row")

        self.failing_rows(monkeypatch, fails)
        with pytest.raises(PermissionError, match="cannot write the last row"):
            save_space(self.split_space(), tmp_path / "s.vec")
        assert len(forks) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "reference.vec", "reference.vec.npz", "s.vec"]

    def test_first_range_failing_kills_and_reaps_children(self, tmp_path, monkeypatch, forks,
                                                          reference):
        parent = os.getpid()

        def fails(row):
            if os.getpid() != parent and row[0] == 551.0:  # the child's first row
                time.sleep(60)  # long enough to outlast the test if it were awaited
            elif row[0] == 1.0:
                raise ValueError("first range fails")

        self.failing_rows(monkeypatch, fails)
        started = time.perf_counter()
        with pytest.raises(ValueError, match="first range fails"):
            save_space(self.split_space(), tmp_path / "s.vec")
        assert time.perf_counter() - started < 10
        assert len(forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestRunForked:
    def write_line(self, path, text="ok\n"):
        return lambda: path.write_text(text)

    def test_failed_fork_runs_jobs_in_process(self, tmp_path, monkeypatch):
        def no_fork():
            raise BlockingIOError("no process to spare")

        monkeypatch.setattr(os, "fork", no_fork)
        paths = [tmp_path / f"{i}.txt" for i in range(3)]
        embeddings._run_forked(*(self.write_line(path, f"{i}\n") for i, path in enumerate(paths)))
        assert [path.read_text() for path in paths] == ["0\n", "1\n", "2\n"]

    def test_job_failing_only_in_a_child_is_rerun(self, tmp_path, forks):
        parent, path = os.getpid(), tmp_path / "child.txt"

        def write():
            if os.getpid() != parent:
                raise OSError("only children fail")
            path.write_text("written here\n")

        embeddings._run_forked(self.write_line(tmp_path / "first.txt"), write)
        assert path.read_text() == "written here\n"
        assert len(forks) == 1

    def test_failing_job_raises_its_own_error(self, tmp_path):
        def write():
            raise PermissionError("cannot write the map")

        with pytest.raises(PermissionError, match="cannot write the map"):
            embeddings._run_forked(self.write_line(tmp_path / "first.txt"), write)
        assert (tmp_path / "first.txt").read_text() == "ok\n"

    def test_first_job_failing_kills_and_reaps_children(self, forks):
        def fail():
            raise ValueError("first job fails")

        started = time.perf_counter()
        with pytest.raises(ValueError, match="first job fails"):
            embeddings._run_forked(fail, lambda: time.sleep(60), lambda: time.sleep(60))
        assert time.perf_counter() - started < 10
        assert len(forks) == 2
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


def is_os(node):
    return isinstance(node, ast.Name) and node.id == "os"


class ForkPoints(ast.NodeVisitor):
    """The function around each ``os.fork``/``os._exit`` reference, each
    ``getattr(os, "fork")``/``getattr(os, "_exit")`` call and each import of
    either name from ``os`` in a module."""

    NAMES = ("fork", "_exit")

    def __init__(self, module):
        self.scope, self.found = [module], []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_Attribute(self, node):
        if is_os(node.value) and node.attr in self.NAMES:
            self.found.append(".".join(self.scope))
        self.generic_visit(node)

    def visit_ImportFrom(self, node):
        if node.module == "os" and any(alias.name in self.NAMES for alias in node.names):
            self.found.append(".".join(self.scope))

    def visit_Call(self, node):
        args = node.args
        if (isinstance(node.func, ast.Name) and node.func.id == "getattr" and len(args) > 1
                and is_os(args[0]) and getattr(args[1], "value", None) in self.NAMES):
            self.found.append(".".join(self.scope))
        self.generic_visit(node)


def test_one_function_forks():
    """Only ``embeddings._forked``, behind ``_run_forked``, forks or leaves through
    ``os._exit``; ``hasattr(os, "fork")`` may still ask whether forking exists."""
    found = []
    for path in sorted(Path(meemi.__file__).parent.glob("*.py")):
        visitor = ForkPoints(path.stem)
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        found += visitor.found
    assert set(found) == {"embeddings._forked"}
    assert len(found) == 2  # one os.fork and one os._exit


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

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40)
    def test_unit_rows_of_a_row_block_equal_that_block_of_the_whole(self, seed):
        """Rows are divided one by one, so a block re-divided alone keeps its bits."""
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(1, 600)), int(rng.integers(1, 400))
        scales = 10.0 ** rng.uniform(-150, 150, (n, 1))
        matrix = rng.standard_normal((n, d)) * scales
        start = int(rng.integers(0, n))
        stop = int(rng.integers(start + 1, n + 1))
        whole = unit_rows(matrix)
        assert unit_rows(matrix[start:stop]).tobytes() == whole[start:stop].tobytes()


class TestLookup:
    def test_exact(self):
        space = EmbeddingSpace(["cat", "dog"], np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert space.index_of("cat") == 0
        assert space.rows_of(["dog", "cat"]).tolist() == [1, 0]

    def test_lowercase_fold(self):
        space = EmbeddingSpace(["cat"], np.array([[1.0, 2.0]]))
        assert space.index_of("Cat") == 0
        assert space.rows_of(["Cat", "CAT"]).tolist() == [0, 0]

    def test_missing(self):
        space = EmbeddingSpace(["cat"], np.array([[1.0, 2.0]]))
        assert space.index_of("zebra") is None
        assert space.rows_of(["zebra", "cat"]).tolist() == [-1, 0]
        rows = space.rows_of([])
        assert rows.dtype == np.intp and rows.shape == (0,)
        assert EmbeddingSpace([], np.empty((0, 2))).rows_of(["cat"]).tolist() == [-1]

    def test_exact_wins_over_fold(self):
        space = EmbeddingSpace(["Cat", "cat"], np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert space.index_of("Cat") == 0
        assert space.rows_of(["Cat", "cat", "CAT"]).tolist() == [0, 1, 1]

    @given(st.integers(0, 10_000))
    @settings(max_examples=25)
    def test_index_bijection(self, seed):
        space = random_space(seed)
        rows = space.rows_of(space.vocab)
        assert rows.tolist() == list(range(len(space)))
        for i, token in enumerate(space.vocab):
            assert space.index_of(token) == i


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


MATRIX_OWNERS = {
    "EmbeddingSpace": lambda m: EmbeddingSpace(["a", "b"], m),
    "LinearMap": LinearMap,
    "with_matrix": lambda m: EmbeddingSpace(["a", "b"], np.eye(2)).with_matrix(m),
}


class TestMatrixOwnership:
    """Every constructor keeps a C-contiguous float64 matrix itself, made
    read-only, and copies any other matrix, leaving the caller's writeable."""

    @pytest.mark.parametrize("make", MATRIX_OWNERS.values(), ids=MATRIX_OWNERS)
    def test_contiguous_float64_is_kept_and_made_read_only(self, make):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert make(m).matrix is m
        assert not m.flags.writeable

    @pytest.mark.parametrize("make", MATRIX_OWNERS.values(), ids=MATRIX_OWNERS)
    @pytest.mark.parametrize("m", [
        np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32),
        np.array([[1.0, 0.0, 2.0], [3.0, 0.0, 4.0]])[:, ::2],
        np.array([[1.0, 2.0], [3.0, 4.0]], order="F"),
    ], ids=["float32", "strided", "fortran"])
    def test_other_input_is_copied(self, make, m):
        matrix = make(m).matrix
        assert not np.shares_memory(matrix, m)
        assert m.flags.writeable and not matrix.flags.writeable
        assert np.array_equal(matrix, m)


class TestWithMatrix:
    def test_shares_the_checked_vocabulary(self):
        space = random_space(6)
        before = space.matrix.copy()
        derived = space.with_matrix(2 * space.matrix)
        assert derived.vocab is space.vocab and derived._index is space._index
        assert np.array_equal(derived.matrix, 2 * before)
        assert not derived.matrix.flags.writeable
        assert np.array_equal(space.matrix, before)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_rejected(self, bad):
        space = random_space(7, 3, 2)
        matrix = space.matrix.copy()
        matrix[1, 0] = bad
        with pytest.raises(ValueError, match="matrix contains non-finite components"):
            space.with_matrix(matrix)

    def test_mis_shaped_rejected(self):
        space = random_space(8, 3, 2)
        with pytest.raises(ValueError, match="matrix has 2 rows but vocab has 3 tokens"):
            space.with_matrix(np.ones((2, 2)))
        with pytest.raises(ValueError, match=r"2-dimensional, got shape \(6,\)"):
            space.with_matrix(np.ones(6))


def reference_vocab_error(vocab):
    """The per-character vocabulary check the fast path must agree with."""
    seen = set()
    for token in vocab:
        if not token or any(ch.isspace() for ch in token):
            return f"token {token!r} is empty or contains whitespace"
        if token in seen:
            return f"duplicate token {token!r}"
        seen.add(token)
    return None


# whitespace both checks must see, plus two look-alikes that are not whitespace
EDGE_CHARS = "\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2000\u2028\u2029\u202f\u3000\u200b\ufeff \t\n"
VOCAB_TOKENS = st.text(
    st.one_of(st.sampled_from(EDGE_CHARS), st.characters(blacklist_categories=("Cs",))),
    max_size=4,
)


class TestVocabularyCheck:
    @given(vocab=st.lists(VOCAB_TOKENS, max_size=6))
    @settings(max_examples=300)
    def test_accepts_and_rejects_like_the_reference(self, vocab):
        expected = reference_vocab_error(vocab)
        matrix = np.ones((len(vocab), 1))
        if expected is None:
            assert EmbeddingSpace(vocab, matrix).vocab == vocab
        else:
            with pytest.raises(ValueError) as err:
                EmbeddingSpace(vocab, matrix)
            assert str(err.value) == expected

    @pytest.mark.parametrize("ch", list(EDGE_CHARS))
    def test_every_edge_character_rejected(self, ch):
        assert ch.isspace() == (ch not in "\u200b\ufeff")
        vocab = ["ok", f"a{ch}b"]
        if ch.isspace():
            with pytest.raises(ValueError, match="whitespace"):
                EmbeddingSpace(vocab, np.ones((2, 1)))
        else:
            assert len(EmbeddingSpace(vocab, np.ones((2, 1)))) == 2

    def test_first_error_wins(self):
        with pytest.raises(ValueError, match="duplicate token 'a'"):
            EmbeddingSpace(["a", "a", "b c"], np.ones((3, 1)))
        with pytest.raises(ValueError, match="'b c' is empty or contains whitespace"):
            EmbeddingSpace(["b c", "a", "a"], np.ones((3, 1)))
