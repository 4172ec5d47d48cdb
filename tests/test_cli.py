import argparse
import ast
import inspect
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import meemi
from meemi import embeddings
from meemi.alignment import AlignmentConfig, align_supervised
from meemi.cli import _count, _path, _ranks, build_parser, main
from meemi.embeddings import EmbeddingSpace, load_space, save_space
from meemi.evaluation import DEFAULT_HYPERNYM_K, RETRIEVAL_MODES, eval_bli, eval_hypernyms
from meemi.lexicon import load_lexicon
from meemi.refinement import apply_meemi, fit_meemi
from meemi.retrieval import DEFAULT_CSLS_K
from meemi.solvers import LinearMap, save_map


@pytest.fixture
def rotated_files(tmp_path):
    code = main(
        "fixture rotated --vocab 200 --dim 16 --sigma 0.05 --seed 42 --out".split()
        + [str(tmp_path / "fx")]
    )
    assert code == 0
    fx = tmp_path / "fx"
    return {
        "src": fx / "src.vec",
        "tgt": fx / "tgt.vec",
        "dict": fx / "gold.dict",
        "map": fx / "rotation.map",
    }


def run_align(paths, out, extra=()):
    return main(
        [
            "align",
            "--src", str(paths["src"]),
            "--tgt", str(paths["tgt"]),
            "--dict", str(paths["dict"]),
            "--out", str(out),
            *extra,
        ]
    )


def usage_error(captured, command):
    """The message of argparse's report of a usage error in ``meemi <command>``,
    once it is checked that stdout is empty and stderr opens with the usage
    line of that command and ends with its ``error:`` line."""
    assert captured.out == ""
    assert captured.err.startswith(f"usage: meemi {command} [-h] ")
    prefix = f"\nmeemi {command}: error: "
    assert prefix in captured.err and captured.err.endswith("\n")
    return captured.err.split(prefix)[-1][:-1]


class TestAlign:
    def test_writes_three_files_and_prints_coverage(self, rotated_files, tmp_path, capsys):
        assert run_align(rotated_files, tmp_path / "out") == 0
        out = capsys.readouterr().out
        assert "coverage 1.0000" in out
        assert "iterations 1" in out
        for name in ("source_mapped.vec", "target_normalized.vec", "alignment.map"):
            assert (tmp_path / "out" / name).exists()

    def test_missing_dict_flag_is_usage_error(self, rotated_files, tmp_path, capsys):
        code = main(
            ["align", "--src", str(rotated_files["src"]), "--tgt", str(rotated_files["tgt"]),
             "--out", str(tmp_path / "out")]
        )
        assert code == 2

    def test_nonexistent_dict_path_is_usage_error(self, rotated_files, tmp_path):
        bad = dict(rotated_files)
        bad["dict"] = tmp_path / "nope.dict"
        assert run_align(bad, tmp_path / "out") == 2
        assert not (tmp_path / "out").exists()

    def test_self_learning_single_iteration_matches_plain(self, rotated_files, tmp_path):
        assert run_align(rotated_files, tmp_path / "plain") == 0
        assert run_align(
            rotated_files, tmp_path / "boot", extra=["--self-learning", "--max-iter", "1"]
        ) == 0
        for name in ("source_mapped.vec", "target_normalized.vec", "alignment.map"):
            assert (tmp_path / "plain" / name).read_bytes() == (
                tmp_path / "boot" / name
            ).read_bytes()

    def test_rerun_is_byte_identical(self, rotated_files, tmp_path):
        assert run_align(rotated_files, tmp_path / "a") == 0
        assert run_align(rotated_files, tmp_path / "b") == 0
        for name in ("source_mapped.vec", "target_normalized.vec", "alignment.map"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestVerbose:
    def test_verbose_logs_to_stderr_and_leaves_stdout(self, rotated_files, tmp_path, capsys):
        oov = tmp_path / "oov.dict"
        oov.write_text(rotated_files["dict"].read_text() + "nope nada\n")
        handlers = list(logging.getLogger("meemi").handlers)
        def run(name, verbose):
            out = tmp_path / name
            align = ["align", "--src", str(rotated_files["src"]),
                     "--tgt", str(rotated_files["tgt"]), "--dict", str(oov),
                     "--self-learning", "--max-iter", "2", "--out", str(out / "a")]
            refine = ["refine", "--src", str(out / "a" / "source_mapped.vec"),
                      "--tgt", str(out / "a" / "target_normalized.vec"),
                      "--dict", str(oov), "--out", str(out / "r")]
            assert [main(args + verbose) for args in (align, refine)] == [0, 0]
            return capsys.readouterr()
        quiet = run("quiet", [])
        loud = run("loud", ["-v"])
        assert quiet.err == ""
        assert loud.out == quiet.out
        assert "self-learning iteration 2: " in loud.err
        assert "induce_dictionary: re-scored " in loud.err
        assert "skipped 1 lexicon pairs with out-of-vocabulary tokens" in loud.err
        assert logging.getLogger("meemi").handlers == handlers
        for name in ("a/source_mapped.vec", "a/alignment.map", "r/source_refined.vec"):
            quiet_bytes = (tmp_path / "quiet" / name).read_bytes()
            assert quiet_bytes == (tmp_path / "loud" / name).read_bytes()


class TestRefine:
    def aligned(self, rotated_files, tmp_path):
        out = tmp_path / "aligned"
        assert run_align(rotated_files, out) == 0
        return out

    def test_outputs_and_positive_shift(self, rotated_files, tmp_path, capsys):
        aligned = self.aligned(rotated_files, tmp_path)
        code = main(
            [
                "refine",
                "--src", str(aligned / "source_mapped.vec"),
                "--tgt", str(aligned / "target_normalized.vec"),
                "--dict", str(rotated_files["dict"]),
                "--out", str(tmp_path / "refined"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        mean_delta = float(out.split("mean_delta")[1].split()[0])
        assert mean_delta > 0.0
        for name in (
            "source_refined.vec",
            "target_refined.vec",
            "meemi.model",
            "meemi.src.map",
            "meemi.tgt.map",
        ):
            assert (tmp_path / "refined" / name).exists()

    def test_zero_coverage_dict_is_data_error(self, rotated_files, tmp_path):
        aligned = self.aligned(rotated_files, tmp_path)
        bad_dict = tmp_path / "bad.dict"
        bad_dict.write_text("ghost phantom\n")
        code = main(
            [
                "refine",
                "--src", str(aligned / "source_mapped.vec"),
                "--tgt", str(aligned / "target_normalized.vec"),
                "--dict", str(bad_dict),
                "--out", str(tmp_path / "refined"),
            ]
        )
        assert code == 1

    def test_map_of_the_wrong_size_is_data_error(self, rotated_files, tmp_path, capsys):
        small = tmp_path / "small.map"
        save_map(LinearMap(np.eye(3), orthogonal=True), small)
        code = main(
            [
                "refine",
                "--src", str(rotated_files["src"]),
                "--tgt", str(rotated_files["tgt"]),
                "--dict", str(rotated_files["dict"]),
                "--map", str(small),
                "--out", str(tmp_path / "refined"),
            ]
        )
        assert code == 1
        assert "alignment map of size 3 does not fit dimension 16" in capsys.readouterr().err
        assert not (tmp_path / "refined" / "meemi.model").exists()

    def test_map_is_only_checked(self, rotated_files, tmp_path, capsys):
        # a valid --map changes no output: only the alignment relates spaces by a map
        aligned = self.aligned(rotated_files, tmp_path)
        capsys.readouterr()
        args = ["refine", "--src", str(aligned / "source_mapped.vec"),
                "--tgt", str(aligned / "target_normalized.vec"),
                "--dict", str(rotated_files["dict"])]
        runs = []
        for name, extra in (("plain", []), ("mapped", ["--map", str(aligned / "alignment.map")])):
            assert main(args + extra + ["--out", str(tmp_path / name)]) == 0
            runs.append((capsys.readouterr().out, tree_bytes(tmp_path / name)))
        assert set(runs[0][1]) == {
            "meemi.model", "meemi.src.map", "meemi.tgt.map", "source_refined.vec",
            "source_refined.vec.npz", "target_refined.vec", "target_refined.vec.npz"}
        assert runs[0] == runs[1]

    def test_rerun_byte_identical(self, rotated_files, tmp_path):
        aligned = self.aligned(rotated_files, tmp_path)
        args = [
            "refine",
            "--src", str(aligned / "source_mapped.vec"),
            "--tgt", str(aligned / "target_normalized.vec"),
            "--dict", str(rotated_files["dict"]),
        ]
        assert main(args + ["--out", str(tmp_path / "r1")]) == 0
        assert main(args + ["--out", str(tmp_path / "r2")]) == 0
        for name in ("source_refined.vec", "target_refined.vec", "meemi.src.map"):
            assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()

    def test_cli_equals_library_composition(self, rotated_files, tmp_path):
        aligned_dir = self.aligned(rotated_files, tmp_path)
        code = main(
            [
                "refine",
                "--src", str(aligned_dir / "source_mapped.vec"),
                "--tgt", str(aligned_dir / "target_normalized.vec"),
                "--dict", str(rotated_files["dict"]),
                "--out", str(tmp_path / "refined"),
            ]
        )
        assert code == 0
        src = load_space(rotated_files["src"])
        tgt = load_space(rotated_files["tgt"])
        lexicon = load_lexicon(rotated_files["dict"])
        pair = align_supervised(src, tgt, lexicon)
        refined = apply_meemi(fit_meemi(pair, lexicon), pair)
        from_cli = load_space(tmp_path / "refined" / "source_refined.vec")
        assert from_cli.vocab == refined.source.vocab
        assert np.array_equal(from_cli.matrix, refined.source.matrix)


class TestInduce:
    def test_writes_dictionary(self, rotated_files, tmp_path):
        aligned = tmp_path / "aligned"
        assert run_align(rotated_files, aligned) == 0
        out_file = tmp_path / "induced.dict"
        code = main(
            [
                "induce",
                "--src", str(aligned / "source_mapped.vec"),
                "--tgt", str(aligned / "target_normalized.vec"),
                "--cap", "50",
                "--out", str(out_file),
            ]
        )
        assert code == 0
        # at sigma 0.05 every frequent source word finds its gold counterpart
        gold = rotated_files["dict"].read_text().splitlines(keepends=True)
        assert out_file.read_text() == "".join(gold[:50])

    def test_comment_like_token_is_an_error_not_a_lost_pair(self, tmp_path, capsys):
        space = EmbeddingSpace(["#tag", "a"], np.array([[1.0, 0.0], [0.0, 1.0]]))
        save_space(space, tmp_path / "s.vec")
        out_file = tmp_path / "induced.dict"
        code = main(["induce", "--src", str(tmp_path / "s.vec"), "--tgt", str(tmp_path / "s.vec"),
                     "--out", str(out_file)])
        assert code == 1
        assert "pair ('#tag', '#tag') would not load back" in capsys.readouterr().err
        assert not out_file.exists()


class TestEval:
    def test_bli_reports_requested_ranks(self, rotated_files, tmp_path, capsys):
        aligned = tmp_path / "aligned"
        assert run_align(rotated_files, aligned) == 0
        code = main(
            [
                "eval", "bli",
                "--src", str(aligned / "source_mapped.vec"),
                "--tgt", str(aligned / "target_normalized.vec"),
                "--test", str(rotated_files["dict"]),
                "--k", "1,5,10",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        for key in ("P@1", "P@5", "P@10"):
            assert key in out

    def test_bli_report_file(self, rotated_files, tmp_path):
        aligned = tmp_path / "aligned"
        assert run_align(rotated_files, aligned) == 0
        report_path = tmp_path / "report.tsv"
        code = main(
            [
                "eval", "bli",
                "--src", str(aligned / "source_mapped.vec"),
                "--tgt", str(aligned / "target_normalized.vec"),
                "--test", str(rotated_files["dict"]),
                "--format", "tsv",
                "--out", str(report_path),
            ]
        )
        assert code == 0
        assert "P@1\t" in report_path.read_text()

    def test_sim_monolingual(self, tmp_path, capsys):
        space = EmbeddingSpace(
            ["a", "b", "c"], np.array([[1.0, 0.0], [0.8, 0.6], [0.0, 1.0]])
        )
        vec = tmp_path / "mono.vec"
        save_space(space, vec)
        data = tmp_path / "sim.txt"
        data.write_text("a b 9\na c 2\nb c 5\n")
        code = main(["eval", "sim", "--src", str(vec), "--dataset", str(data)])
        assert code == 0
        out = capsys.readouterr().out
        assert "pearson_r" in out and "spearman_rho" in out

    def test_sim_cross_requires_tgt(self, tmp_path, capsys):
        vec = tmp_path / "mono.vec"
        save_space(EmbeddingSpace(["a", "b"], np.eye(2)), vec)
        data = tmp_path / "sim.txt"
        data.write_text("a b 1\nb a 2\n")
        code = main(
            ["eval", "sim", "--src", str(vec), "--dataset", str(data), "--cross"]
        )
        assert code == 2
        assert usage_error(capsys.readouterr(), "eval sim") == "--cross requires --tgt"

    def test_sim_tgt_requires_cross(self, tmp_path, capsys):
        src, tgt = tmp_path / "src.vec", tmp_path / "tgt.vec"
        save_space(EmbeddingSpace(["a", "b"], np.eye(2)), src)
        save_space(EmbeddingSpace(["x", "y"], np.eye(2)), tgt)
        data = tmp_path / "sim.txt"
        # a cross-lingual and a monolingual dataset
        for triples in ("a x 1\nb y 2\n", "a b 1\nb a 2\n"):
            data.write_text(triples)
            code = main(["eval", "sim", "--src", str(src), "--tgt", str(tgt),
                         "--dataset", str(data)])
            assert code == 2
            assert usage_error(capsys.readouterr(), "eval sim") == "--tgt requires --cross"

    def test_hyper(self, tmp_path, capsys):
        code = main(
            ["fixture", "taxonomy", "--vocab", "120", "--dim", "10", "--seed", "7",
             "--out", str(tmp_path / "tax")]
        )
        assert code == 0
        code = main(
            [
                "eval", "hyper",
                "--src", str(tmp_path / "tax" / "space.vec"),
                "--train", str(tmp_path / "tax" / "train.tsv"),
                "--test", str(tmp_path / "tax" / "test.tsv"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        for key in ("MRR", "MAP", "P@5"):
            assert key in out

    def test_a_space_paired_with_itself_is_the_monolingual_run(self, tmp_path, capsys):
        tax = tmp_path / "tax"
        assert main(["fixture", "taxonomy", "--vocab", "120", "--dim", "10", "--sigma", "1.0",
                     "--seed", "7", "--out", str(tax)]) == 0
        space, sim = str(tax / "space.vec"), tmp_path / "sim.txt"
        words = load_space(space).vocab
        sim.write_text("".join(f"{words[i]} {words[i + 7]} {i % 5}.0\n" for i in range(40)))
        hyper = ["eval", "hyper", "--train", str(tax / "train.tsv"), "--test", str(tax / "test.tsv")]
        for argv, paired, line in [
            (["eval", "sim", "--dataset", str(sim)], ["--tgt", space, "--cross"], "resolved\t40"),
            (hyper + ["--retrieval", "cosine"], ["--tgt", space], "MRR\t0.972222"),
            (hyper + ["--retrieval", "csls"], ["--tgt", space], "MRR\t0.979167"),
        ]:
            capsys.readouterr()
            assert main(argv + ["--src", space, "--format", "tsv"]) == 0
            alone = capsys.readouterr().out
            assert f"\n{line}\n" in alone
            assert main(argv + ["--src", space, "--format", "tsv"] + paired) == 0
            assert capsys.readouterr().out == alone

    @pytest.mark.parametrize("ks, message", [
        ("1,x", "argument --k: expected int, got 'x'"),
        ("0,1", "argument --k: must be at least 1, got 0"),
        ("1,,5", "argument --k: expected int, got ''"),
    ], ids=["1,x", "0,1", "1,,5"])
    def test_bli_bad_ranks_are_usage_errors(self, rotated_files, capsys, ks, message):
        code = main(["eval", "bli", "--src", str(rotated_files["src"]),
                     "--tgt", str(rotated_files["tgt"]), "--test", str(rotated_files["dict"]),
                     "--k", ks])
        assert code == 2
        assert usage_error(capsys.readouterr(), "eval bli") == message


class TestInspect:
    def test_dictionary_word_translates_to_counterpart(self, rotated_files, tmp_path, capsys):
        aligned = tmp_path / "aligned"
        assert run_align(rotated_files, aligned) == 0
        capsys.readouterr()
        code = main(
            [
                "inspect", "src00003",
                "--src", str(aligned / "source_mapped.vec"),
                "--tgt", str(aligned / "target_normalized.vec"),
                "--k", "3",
            ]
        )
        assert code == 0
        first = capsys.readouterr().out.splitlines()[0]
        assert first.split("\t")[1] == "tgt00003"

    def test_zero_k_is_usage_error(self, rotated_files):
        code = main(
            ["inspect", "src00003", "--src", str(rotated_files["src"]), "--k", "0"]
        )
        assert code == 2

    def test_oov_word_is_data_error(self, rotated_files, capsys):
        code = main(
            ["inspect", "zzz", "--src", str(rotated_files["src"]), "--k", "3"]
        )
        assert code == 1
        assert "zzz" in capsys.readouterr().err

    def test_within_space_drops_query_itself(self, rotated_files, capsys):
        code = main(
            ["inspect", "src00003", "--src", str(rotated_files["src"]), "--k", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "src00003" not in out

    @pytest.mark.parametrize("retrieval", ["cosine", "csls"])
    def test_fold_resolved_word_drops_its_own_row(self, tmp_path, capsys, retrieval):
        path = tmp_path / "s.vec"
        save_space(EmbeddingSpace(["cat", "animal", "dog", "fish"],
                                  np.array([[1.0, 0, 0], [0.9, 0.1, 0], [0, 1.0, 0], [0, 0, 1.0]])),
                   path)
        code = main(["inspect", "Cat", "--src", str(path), "--k", "2",
                     "--retrieval", retrieval, "--csls-k", "2"])
        assert code == 0
        tokens = [line.split("\t")[1] for line in capsys.readouterr().out.splitlines()]
        assert len(tokens) == 2 and "cat" not in tokens


class TestLimit:
    def test_limit_caps_each_space(self, rotated_files, tmp_path, capsys):
        code = main(["eval", "bli", "--src", str(rotated_files["src"]),
                     "--tgt", str(rotated_files["tgt"]), "--test", str(rotated_files["dict"]),
                     "--limit", "100", "--format", "tsv"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert "resolved\t100" in lines and "total\t200" in lines
        assert run_align(rotated_files, tmp_path / "out", ["--limit", "100"]) == 0
        assert "coverage 0.5000" in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("command, extra", [
    ("inspect", ["--lim", "2"]),
    ("inspect", ["--lim=2"]),
    ("eval bli", ["--csls", "2"]),
    ("inspect", ["--config", "run.cfg"]),
    ("fixture", ["--bogus", "1"]),
], ids=["abbreviated", "abbreviated-equals", "abbreviated-nested", "config", "fixture"])
def test_unknown_or_abbreviated_flag_is_usage_error(rotated_files, tmp_path, capsys, command,
                                                    extra):
    # allow_abbrev=False on every parser: no prefix of a flag stands for the flag
    base = {
        "fixture": ["fixture", "hub", "--out", str(tmp_path / "hub")],
        "inspect": ["inspect", "src00003", "--src", str(rotated_files["src"])],
        "eval bli": ["eval", "bli", "--src", str(rotated_files["src"]),
                     "--tgt", str(rotated_files["tgt"]), "--test", str(rotated_files["dict"])],
    }[command]
    assert main(base + extra) == 2
    assert usage_error(capsys.readouterr(), command) == (
        f"unrecognized arguments: {' '.join(extra)}")


@pytest.mark.parametrize("command", [
    "align", "refine", "induce", "eval bli", "eval sim", "eval hyper", "inspect"])
def test_only_fixture_takes_seed(rotated_files, tmp_path, capsys, command):
    # nothing but the fixtures draws random numbers; rotated_files ran `fixture --seed 42`
    src, tgt, lexicon = (str(rotated_files[key]) for key in ("src", "tgt", "dict"))
    sim, hyper = tmp_path / "sim.txt", tmp_path / "hyper.tsv"
    sim.write_text("src00001 src00002 1.0\nsrc00003 src00004 2.0\nsrc00005 src00006 3.0\n")
    hyper.write_text("".join(f"src{i:05d}\tsrc{i + 1:05d}\n" for i in range(20)))
    out = str(tmp_path / "out")
    argv = {
        "align": ["align", "--src", src, "--tgt", tgt, "--dict", lexicon, "--out", out],
        "refine": ["refine", "--src", src, "--tgt", tgt, "--dict", lexicon, "--out", out],
        "induce": ["induce", "--src", src, "--tgt", tgt, "--out", out],
        "eval bli": ["eval", "bli", "--src", src, "--tgt", tgt, "--test", lexicon],
        "eval sim": ["eval", "sim", "--src", src, "--dataset", str(sim)],
        "eval hyper": ["eval", "hyper", "--src", src, "--train", str(hyper),
                       "--test", str(hyper)],
        "inspect": ["inspect", "src00003", "--src", src],
    }[command]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(argv + ["--seed", "1"]) == 2
    # the subcommand's usage, not the root's, which names no flag
    assert usage_error(capsys.readouterr(), command) == "unrecognized arguments: --seed 1"


@pytest.mark.parametrize("command", [
    "align", "refine", "induce", "eval bli", "eval sim --cross", "eval hyper", "inspect --tgt",
    "inspect --tgt --retrieval csls"])
def test_two_space_commands_name_a_dimension_mismatch(rotated_files, tmp_path, capsys, command):
    src, lexicon = str(rotated_files["src"]), str(rotated_files["dict"])
    tgt, sim, hyper = str(tmp_path / "tgt12.vec"), tmp_path / "sim.txt", tmp_path / "hyper.tsv"
    tokens = [f"tgt{i:05d}" for i in range(20)]
    save_space(EmbeddingSpace(tokens, np.random.default_rng(0).normal(size=(20, 12))), tgt)
    sim.write_text("".join(f"src{i:05d} tgt{i:05d} {i}.0\n" for i in range(20)))
    hyper.write_text("".join(f"src{i:05d}\tsrc{i + 1:05d}\n" for i in range(20)))
    out = str(tmp_path / "out")
    argv = {
        "align": ["align", "--dict", lexicon, "--out", out],
        "refine": ["refine", "--dict", lexicon, "--out", out],
        "induce": ["induce", "--out", out],
        "eval bli": ["eval", "bli", "--test", lexicon],
        "eval sim --cross": ["eval", "sim", "--cross", "--dataset", str(sim)],
        "eval hyper": ["eval", "hyper", "--train", str(hyper), "--test", str(hyper)],
        "inspect --tgt": ["inspect", "src00001"],
        "inspect --tgt --retrieval csls": ["inspect", "src00001", "--retrieval", "csls"],
    }[command]
    assert main(argv + ["--src", src, "--tgt", tgt]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: dimension mismatch: source 16 vs target 12\n"
    assert not os.path.exists(out)


@pytest.mark.parametrize("kind", ["directory", "not utf-8"])
def test_unreadable_src_is_data_error(tmp_path, capsys, kind):
    # the path exists, so it is no usage error, but it cannot be read as text
    src = tmp_path / "bad.vec"
    if kind == "directory":
        src.mkdir()
    else:
        src.write_bytes(b"2 2\nw\xff 1.0 0.5\nv 0.5 1.0\n")
    assert main(["inspect", "w", "--src", str(src)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    assert str(src) in captured.err


class TestFixtureCommand:
    def test_rotated_files(self, rotated_files):
        for path in rotated_files.values():
            assert path.exists()

    def test_hub_files(self, tmp_path):
        code = main(["fixture", "hub", "--seed", "1", "--out", str(tmp_path / "hub")])
        assert code == 0
        for name in ("targets.vec", "queries.vec", "gold.dict"):
            assert (tmp_path / "hub" / name).exists()

    def test_fixture_deterministic(self, tmp_path):
        for sub in ("a", "b"):
            assert main(
                ["fixture", "rotated", "--vocab", "50", "--dim", "8", "--seed", "5",
                 "--out", str(tmp_path / sub)]
            ) == 0
        assert (tmp_path / "a" / "src.vec").read_bytes() == (tmp_path / "b" / "src.vec").read_bytes()

    def test_unknown_command_usage_error(self):
        assert main(["frobnicate"]) == 2

    @pytest.mark.parametrize("argv", [[], ["eval"]])
    def test_missing_subcommand_usage_error(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: meemi")


def parser_actions():
    """Every argument action of every (sub)parser ``build_parser()`` makes."""
    actions, parsers = [], [build_parser()]
    while parsers:
        for action in parsers.pop()._actions:
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
            else:
                actions.append(action)
    return actions


def test_every_integer_flag_but_seed_is_a_count():
    actions = [action for action in parser_actions()
               if action.type in (int, _count) and "--seed" not in action.option_strings]
    assert {flag for action in actions for flag in action.option_strings} == {
        "--limit", "--k", "--csls-k", "--cap", "--max-iter", "--vocab", "--dim"}
    assert all(action.type is _count for action in actions)


def test_every_float_flag_rejects_nan():
    actions = [action for action in parser_actions()
               if action.type not in (None, int, _count, _path, _ranks)]
    assert {flag for action in actions for flag in action.option_strings} == {"--tol", "--sigma"}
    for action in actions:
        assert isinstance(action.type(str(action.default)), float)
        with pytest.raises(argparse.ArgumentTypeError):
            action.type("nan")


def test_retrieval_flags_default_to_the_library_constants():
    actions = parser_actions()
    modes = [action for action in actions if "--retrieval" in action.option_strings]
    csls_ks = [action for action in actions if "--csls-k" in action.option_strings]
    assert len(modes) == len(csls_ks) == 3  # eval bli, eval hyper, inspect
    assert all(action.choices == RETRIEVAL_MODES for action in modes)
    assert all(action.default == DEFAULT_CSLS_K for action in csls_ks)
    here = __file__  # a path that exists
    hyper = build_parser().parse_args(
        ["eval", "hyper", "--src", here, "--train", here, "--test", here])
    assert hyper.k == DEFAULT_HYPERNYM_K
    for fn in (eval_bli, eval_hypernyms):
        assert inspect.signature(fn).parameters["csls_k"].default == DEFAULT_CSLS_K
    assert inspect.signature(eval_hypernyms).parameters["k"].default == DEFAULT_HYPERNYM_K


def test_align_flags_default_to_the_alignment_config():
    here = __file__  # a path that exists
    parser, defaults = build_parser(), AlignmentConfig()
    align = parser.parse_args(
        ["align", "--src", here, "--tgt", here, "--dict", here, "--out", "out"])
    induce = parser.parse_args(["induce", "--src", here, "--tgt", here, "--out", "out"])
    assert (align.self_learning, align.max_iter, align.tol, align.cap) == (
        defaults.self_learning, defaults.max_iterations, defaults.convergence_tol,
        defaults.induction_vocab_cap)
    assert induce.cap == defaults.induction_vocab_cap


@pytest.mark.parametrize("argv", [
    "eval bli --src {src} --tgt {tgt} --test {dict} --limit 0",
    "eval bli --src {src} --tgt {tgt} --test {dict} --retrieval csls --csls-k 0",
    "align --src {src} --tgt {tgt} --dict {dict} --self-learning --max-iter 0 --out {out}",
    "align --src {src} --tgt {tgt} --dict {dict} --self-learning --cap -1 --out {out}",
    "inspect src00003 --src {src} --k 0",
    "eval hyper --src {src} --train {dict} --test {dict} --k 0",
    "fixture rotated --vocab 0 --out {out}",
    "fixture rotated --dim 0 --out {out}",
    "eval bli --src {src} --tgt {tgt} --test {dict} --limit ten",
])
def test_count_flags_below_one_are_usage_errors(rotated_files, tmp_path, capsys, argv):
    fill = {key: str(path) for key, path in rotated_files.items()}
    fill["out"] = str(tmp_path / "out")
    assert main(argv.format(**fill).split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ("must be at least 1" in captured.err) != argv.endswith("ten")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    "align --src {src} --tgt {tgt} --dict {dict} --tol 0 --out {out}",
    "align --src {src} --tgt {tgt} --dict {dict} --tol nan --out {out}",
    "align --src {src} --tgt {tgt} --dict {dict} --tol -0.5 --out {out}",
    "fixture rotated --sigma -1 --out {out}",
    "fixture rotated --sigma nan --out {out}",
    "fixture rotated --sigma inf --out {out}",
    "fixture rotated --sigma 0.1x --out {out}",
])
def test_bad_float_flags_are_usage_errors(rotated_files, tmp_path, capsys, argv):
    fill = {key: str(path) for key, path in rotated_files.items()}
    fill["out"] = str(tmp_path / "out")
    assert main(argv.format(**fill).split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    flag = "--tol" if "--tol" in argv else "--sigma"
    assert f"argument {flag}: " in captured.err
    assert not (tmp_path / "out").exists()


class TestFailedCommandMakesNoOutDir:
    """A command that fails before its first write leaves no ``--out`` directory."""

    @pytest.mark.parametrize("command", ["align", "refine"])
    def test_truncated_source(self, rotated_files, tmp_path, capsys, command):
        bad = tmp_path / "bad.vec"
        bad.write_bytes(rotated_files["src"].read_bytes()[:-5])
        out = tmp_path / "out"
        argv = [command, "--src", str(bad), "--tgt", str(rotated_files["tgt"]),
                "--dict", str(rotated_files["dict"]), "--out", str(out)]
        assert main(argv) == 1
        assert "truncated" in capsys.readouterr().err
        assert not out.exists()

    def test_fixture_too_few_words(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["fixture", "rotated", "--vocab", "10", "--dim", "50", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


INPUT_FLAGS = {"--src", "--tgt", "--dict", "--test", "--train", "--dataset", "--map"}


def missing_path_cases():
    """One case per input flag of every subcommand in ``build_parser()``: the
    argv with every other required argument filled in, and the flag."""
    cases, parsers = [], [([], build_parser())]
    while parsers:
        words, parser = parsers.pop(0)
        fills, flags = [], []
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend((words + [name], sub) for name, sub in action.choices.items())
            elif not action.option_strings:
                fills.append(["w0"])  # the word `inspect` looks up
            elif action.required:
                flag = action.option_strings[0]
                fills.append([flag, "{out}" if flag == "--out" else "{src}"])
            flags += INPUT_FLAGS.intersection(action.option_strings)
        for flag in flags:
            argv = words + [part for fill in fills if fill[0] != flag for part in fill]
            cases.append(pytest.param(argv, flag, id=" ".join(words + [flag])))
    return cases


def assert_missing_path(capsys, argv, flag, path):
    """Check that ``argv`` is a usage error of its command naming ``flag`` and ``path``."""
    assert main(argv) == 2
    command = " ".join(argv[:2] if argv[0] == "eval" else argv[:1])
    message = usage_error(capsys.readouterr(), command)
    assert message == f"argument {flag}: path does not exist: {path}"


class TestMissingPaths:
    @pytest.mark.parametrize("command, flag", missing_path_cases())
    def test_every_input_flag_is_checked(self, rotated_files, tmp_path, capsys, command, flag):
        fill = {"src": str(rotated_files["src"]), "out": str(tmp_path / "out")}
        argv = [part.format(**fill) for part in command] + [flag, str(tmp_path / "nope")]
        assert_missing_path(capsys, argv, flag, tmp_path / "nope")

    @pytest.mark.parametrize(
        "command, flag",
        [
            (["refine", "--dict", "{dict}", "--out", "{out}"], "--map"),
            (["eval", "bli", "--src", "{src}", "--tgt", "{tgt}"], "--test"),
            (["eval", "sim", "--src", "{src}"], "--dataset"),
            (["eval", "hyper", "--src", "{src}", "--test", "{dict}"], "--train"),
            (["induce", "--src", "{src}", "--out", "{out}"], "--tgt"),
            (["inspect", "w0", "--src", "{src}"], "--tgt"),
        ],
    )
    def test_missing_path_is_usage_error(self, rotated_files, tmp_path, capsys, command, flag):
        fill = {key: str(path) for key, path in rotated_files.items()}
        fill["out"] = str(tmp_path / "out")
        argv = [part.format(**fill) for part in command] + [flag, str(tmp_path / "nope")]
        if command[0] == "refine":
            argv += ["--src", fill["src"], "--tgt", fill["tgt"]]
        assert_missing_path(capsys, argv, flag, tmp_path / "nope")


def tree_bytes(root):
    return {str(path.relative_to(root)): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


class TestWriteAll:
    """Output files written by forked children are the files written in-process."""

    @pytest.mark.parametrize("command", [
        "align", "align --self-learning --max-iter 3", "refine",
        "fixture rotated", "fixture hub", "fixture taxonomy",
    ])
    def test_outputs_same_with_and_without_fork(
        self, tmp_path, capsys, monkeypatch, forks, command
    ):
        monkeypatch.setattr(embeddings, "_usable_cpus", lambda: 2)
        inputs = "--vocab 1100 --dim 64 --sigma 0.1 --seed 3".split()  # 70400 components
        if command == "fixture hub":  # the hub set is always 33 x 24
            monkeypatch.setattr(embeddings, "MIN_RANGE_COMPONENTS", 256)
        if not command.startswith("fixture"):
            fx = tmp_path / "fx"
            assert main(["fixture", "rotated", *inputs, "--out", str(fx)]) == 0
            inputs = ["--src", str(fx / "src.vec"), "--tgt", str(fx / "tgt.vec"),
                      "--dict", str(fx / "gold.dict")]
            if command == "refine":
                inputs += ["--map", str(fx / "rotation.map")]
        capsys.readouterr()
        forks.clear()
        runs = []
        for name in ("forked", "serial"):
            if name == "serial":
                assert forks
                monkeypatch.delattr(os, "fork")
            out = tmp_path / name
            assert main(command.split() + inputs + ["--out", str(out)]) == 0
            stdout = capsys.readouterr().out.replace(str(out), "<out>")
            runs.append((stdout, tree_bytes(out)))
        assert any(name.endswith(".npz") for name in runs[0][1])
        assert runs[0] == runs[1]


def test_importing_the_cli_leaves_scipy_unloaded(child_env):
    result = subprocess.run(
        [sys.executable, "-c", "import sys, meemi.cli; print('scipy' in sys.modules)"],
        capture_output=True, text=True, env=child_env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_eval_sim_leaves_scipy_unloaded(rotated_files, tmp_path, child_env):
    src, tgt = load_space(rotated_files["src"]), load_space(rotated_files["tgt"])
    data = tmp_path / "sim.txt"
    data.write_text("".join(f"{src.vocab[i]} {tgt.vocab[i + 1]} {i % 7}\n" for i in range(20)))
    argv = ["eval", "sim", "--src", str(rotated_files["src"]), "--tgt",
            str(rotated_files["tgt"]), "--dataset", str(data), "--cross"]
    result = subprocess.run(
        [sys.executable, "-c", "import sys; from meemi.cli import main; "
         "code = main(sys.argv[1:]); print(code, 'scipy' in sys.modules)", *argv],
        capture_output=True, text=True, env=child_env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "spearman_rho" in result.stdout
    assert result.stdout.splitlines()[-1] == "0 False"


def test_no_module_imports_scipy():
    paths = sorted(Path(meemi.__file__).parent.rglob("*.py"))
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names
                      if name.split(".")[0] == "scipy"]
    assert "evaluation.py" in {path.name for path in paths}
    assert found == []
