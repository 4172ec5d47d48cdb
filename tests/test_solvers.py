import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from meemi.embeddings import EmbeddingSpace
from meemi.solvers import (
    LinearMap,
    apply_map,
    fit_least_squares,
    fit_procrustes,
    load_map,
    save_map,
)


def normal_equations_oracle(a, b):
    """Textbook least-squares solution, independent of the library path."""
    return np.linalg.inv(a.T @ a) @ (a.T @ b)


def random_orthogonal(dim, rng):
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


def frobenius(a):
    return float(np.sqrt((a * a).sum()))


class TestProcrustes:
    def test_identity_when_targets_equal_inputs(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((40, 8))
        w = fit_procrustes(a, a)
        assert w.orthogonal
        assert np.abs(w.matrix - np.eye(8)).max() <= 1e-9

    def test_recovers_random_rotation(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((60, 10))
        r = random_orthogonal(10, rng)
        w = fit_procrustes(a, a @ r)
        assert np.abs(w.matrix - r).max() <= 1e-6

    def test_planar_quarter_turn(self):
        a = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 3.0]])
        rotation = np.array([[0.0, 1.0], [-1.0, 0.0]])
        w = fit_procrustes(a, a @ rotation)
        assert np.abs(w.matrix - rotation).max() <= 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="equal dimensions"):
            fit_procrustes(np.ones((3, 2)), np.ones((3, 4)))

    def test_non_finite_input(self):
        a = np.ones((3, 2))
        b = a.copy()
        b[0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            fit_procrustes(a, b)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=10)
    def test_orthogonal_and_beats_random_candidates(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((30, 6))
        b = rng.standard_normal((30, 6))
        w = fit_procrustes(a, b)
        assert np.abs(w.matrix.T @ w.matrix - np.eye(6)).max() <= 1e-8
        best = frobenius(a @ w.matrix - b)
        for _ in range(100):
            candidate = random_orthogonal(6, rng)
            assert best <= frobenius(a @ candidate - b) + 1e-9


class TestLeastSquares:
    def test_identity_full_rank(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((50, 10))
        x = fit_least_squares(a, a)
        assert not x.orthogonal
        assert np.abs(x.matrix - np.eye(10)).max() <= 1e-8

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((200, 20))
        b = rng.standard_normal((200, 20))
        x = fit_least_squares(a, b)
        expected = normal_equations_oracle(a, b)
        assert frobenius(x.matrix - expected) / frobenius(expected) <= 1e-6

    def test_exact_interpolation_when_underdetermined(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((6, 12))
        b = rng.standard_normal((6, 12))
        x = fit_least_squares(a, b)
        assert frobenius(a @ x.matrix - b) <= 1e-8

    def test_gradient_at_optimum_vanishes(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((80, 12))
        b = rng.standard_normal((80, 12))
        x = fit_least_squares(a, b)
        gradient = 2.0 * a.T @ (a @ x.matrix - b)
        assert np.abs(gradient).max() <= 1e-6 * np.abs(a.T @ b).max()

    def test_rank_deficient_returns_min_norm(self):
        rng = np.random.default_rng(6)
        row = rng.standard_normal((1, 5))
        a = np.vstack([row] * 4)
        b = rng.standard_normal((4, 3))
        x = fit_least_squares(a, b)
        # minimum-norm solution is orthogonal to the null space of A
        _, _, vt = np.linalg.svd(a)
        null_basis = vt[1:]
        assert np.abs(null_basis @ x.matrix).max() <= 1e-9

    @given(seed=st.integers(0, 10_000), scale=st.floats(0.1, 50.0))
    @settings(max_examples=25)
    def test_scale_equivariance(self, seed, scale):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((25, 5))
        b = rng.standard_normal((25, 4))
        x = fit_least_squares(a, b).matrix
        x_scaled = fit_least_squares(a, scale * b).matrix
        assert np.abs(x_scaled - scale * x).max() <= 1e-9 * max(1.0, scale)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25)
    def test_first_order_optimality_probe(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((30, 6))
        b = rng.standard_normal((30, 6))
        x = fit_least_squares(a, b).matrix
        base = frobenius(a @ x - b)
        for _ in range(10):
            delta = 1e-4 * rng.standard_normal(x.shape)
            assert base <= frobenius(a @ (x + delta) - b) + 1e-12


class TestApplyMap:
    def space(self, seed=0, n=20, d=6):
        rng = np.random.default_rng(seed)
        return EmbeddingSpace([f"w{i}" for i in range(n)], rng.standard_normal((n, d)))

    def test_identity_map(self):
        space = self.space()
        mapped = apply_map(LinearMap(np.eye(6)), space)
        assert mapped.vocab == space.vocab
        assert np.array_equal(mapped.matrix, space.matrix)

    def test_orthogonal_preserves_norms(self):
        rng = np.random.default_rng(7)
        space = self.space(7)
        mapped = apply_map(LinearMap(random_orthogonal(6, rng), orthogonal=True), space)
        before = np.linalg.norm(space.matrix, axis=1)
        after = np.linalg.norm(mapped.matrix, axis=1)
        assert np.abs(after - before).max() <= 1e-9

    def test_shares_the_checked_vocabulary(self):
        space = self.space()
        mapped = apply_map(LinearMap(np.eye(6) * 2.0), space)
        assert mapped.vocab is space.vocab and mapped._index is space._index

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            apply_map(LinearMap(np.zeros((4, 4))), self.space())

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25)
    def test_orthogonal_preserves_pairwise_cosines(self, seed):
        rng = np.random.default_rng(seed)
        space = self.space(seed, n=12)
        mapped = apply_map(LinearMap(random_orthogonal(6, rng), orthogonal=True), space)
        def cosines(m):
            u = m / np.linalg.norm(m, axis=1, keepdims=True)
            return u @ u.T
        assert np.abs(cosines(mapped.matrix) - cosines(space.matrix)).max() <= 1e-9


class TestLinearMapType:
    def test_orthogonal_flag_validated(self):
        with pytest.raises(ValueError, match="not orthogonal"):
            LinearMap(np.array([[1.0, 0.0], [0.0, 2.0]]), orthogonal=True)

    def test_orthogonal_must_be_square(self):
        with pytest.raises(ValueError, match="square"):
            LinearMap(np.ones((2, 3)), orthogonal=True)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            LinearMap(np.array([[np.inf]]))

    def test_matrix_must_be_2d(self):
        with pytest.raises(ValueError, match="2-dimensional"):
            LinearMap(np.ones(3))

    def test_paired_data_row_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            fit_least_squares(np.ones((2, 3)), np.ones((3, 3)))

    def test_paired_data_empty(self):
        with pytest.raises(ValueError):
            fit_least_squares(np.ones((0, 3)), np.ones((0, 3)))


class TestSerialization:
    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(8)
        original = LinearMap(rng.standard_normal((5, 3)))
        path = tmp_path / "m.map"
        save_map(original, path)
        back = load_map(path)
        assert np.array_equal(back.matrix, original.matrix)
        assert back.orthogonal is False

    def test_orthogonal_flag_survives(self, tmp_path):
        rng = np.random.default_rng(9)
        original = LinearMap(random_orthogonal(6, rng), orthogonal=True)
        path = tmp_path / "m.map"
        save_map(original, path)
        back = load_map(path)
        assert back.orthogonal is True
        assert np.array_equal(back.matrix, original.matrix)

    @given(
        matrix=hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=2, max_dims=2, max_side=5),
            elements=st.floats(allow_nan=False, allow_infinity=False),
        )
    )
    def test_roundtrip_property(self, tmp_path_factory, matrix):
        path = tmp_path_factory.mktemp("rt") / "m.map"
        save_map(LinearMap(matrix), path)
        back = load_map(path)
        assert back.matrix.shape == matrix.shape
        assert back.matrix.tobytes() == matrix.tobytes()

    def test_bytes_pinned(self, tmp_path):
        path = tmp_path / "m.map"
        matrix = np.array([[0.1, -0.0, 1 / 3], [1e-310, 1.7976931348623157e308, -2.5]])
        save_map(LinearMap(matrix), path)
        assert path.read_bytes() == (
            b"2 3 0\n0.1 -0.0 0.3333333333333333\n1e-310 1.7976931348623157e+308 -2.5\n"
        )

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)], ids=["0x0", "0x3", "3x0"])
    def test_refuses_a_zero_dimension_before_writing(self, tmp_path, shape):
        with pytest.raises(ValueError, match=f"refusing to write a {shape[0]}x{shape[1]} map"):
            save_map(LinearMap(np.zeros(shape)), tmp_path / "m.map")
        assert list(tmp_path.iterdir()) == []

    def test_header_format(self, tmp_path):
        path = tmp_path / "m.map"
        save_map(LinearMap(np.ones((2, 3))), path)
        assert path.read_text().splitlines()[0] == "2 3 0"

    def test_bad_header(self, tmp_path):
        path = tmp_path / "m.map"
        path.write_text("2 x 0\n1 2 3\n")
        with pytest.raises(ValueError, match="header"):
            load_map(path)

    def test_orthogonal_flag_other_than_0_or_1(self, tmp_path):
        path = tmp_path / "m.map"
        path.write_text("1 1 2\n1\n")
        with pytest.raises(ValueError, match=r"m\.map:1: orthogonal flag must be 0 or 1"):
            load_map(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "m.map"
        path.write_text("2 2 0\n\n1 2\n  \n3 4\n\n")
        assert np.array_equal(load_map(path).matrix, [[1.0, 2.0], [3.0, 4.0]])

    @given(
        matrix=hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=2, max_dims=2, max_side=4),
            elements=st.floats(allow_nan=False, allow_infinity=False),
        )
    )
    @settings(max_examples=20)
    def test_every_strict_prefix_rejected(self, tmp_path_factory, matrix):
        path = tmp_path_factory.mktemp("cut") / "m.map"
        save_map(LinearMap(matrix), path)
        data = path.read_bytes()
        for cut in range(len(data)):
            path.write_bytes(data[:cut])
            with pytest.raises(ValueError):
                load_map(path)

    def test_cut_entry_names_line(self, tmp_path):
        path = tmp_path / "m.map"
        path.write_text("2 2 0\n1 2\n3 4e-30")
        with pytest.raises(ValueError, match=r"m\.map:3: line has no newline"):
            load_map(path)
        path.write_text("2 2 0\n1 2\n3 4e")
        with pytest.raises(ValueError, match=r"m\.map:3: unparseable matrix entry"):
            load_map(path)

    @pytest.mark.parametrize("entry", ["nan", "inf", "-inf"])
    def test_non_finite_entry_names_line(self, tmp_path, entry):
        path = tmp_path / "m.map"
        path.write_text(f"2 2 0\n1 2\n3 {entry}\n")
        with pytest.raises(ValueError, match=r"m\.map:3: map matrix contains non-finite entries"):
            load_map(path)

    @pytest.mark.parametrize("header", ["0 0 0", "0 3 0", "3 0 0", "0 0 1"])
    def test_empty_dimension_rejected_at_header(self, tmp_path, header):
        path = tmp_path / "m.map"
        path.write_text(header + "\n")
        with pytest.raises(ValueError, match=r"m\.map:1: map dimensions must be positive"):
            load_map(path)

    def test_non_orthogonal_matrix_under_flag_names_file(self, tmp_path):
        path = tmp_path / "m.map"
        path.write_text("2 2 1\n1 0\n0 2\n")
        with pytest.raises(ValueError, match=r"m\.map: matrix is not orthogonal"):
            load_map(path)
        path.write_text("2 3 1\n1 0 0\n0 1 0\n")
        with pytest.raises(ValueError, match=r"m\.map: orthogonal map must be square"):
            load_map(path)

    def test_row_faults_share_the_space_parser_wording(self, tmp_path):
        path = tmp_path / "m.map"
        path.write_text("2 2 0\n1 2\n3\n")
        with pytest.raises(ValueError, match=r"m\.map:3: expected 2 components, found 1$"):
            load_map(path)
        path.write_text("2 2 0\n1 2\n3 x\n")
        with pytest.raises(ValueError, match=r"m\.map:3: unparseable matrix entry$"):
            load_map(path)

    def test_wrong_row_arity(self, tmp_path):
        path = tmp_path / "m.map"
        path.write_text("1 3 0\n1 2\n")
        with pytest.raises(ValueError, match=":2"):
            load_map(path)
