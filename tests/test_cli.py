import argparse
import ast
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import meemi
from meemi.alignment import align_supervised
from meemi.cli import BOOL_KEYS, _write_all, build_parser, main
from meemi.embeddings import EmbeddingSpace, load_space, save_space
from meemi.lexicon import load_lexicon
from meemi.refinement import apply_meemi, fit_meemi
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
        assert len(out_file.read_text().splitlines()) == 50

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

    def test_sim_cross_requires_tgt(self, tmp_path):
        vec = tmp_path / "mono.vec"
        save_space(EmbeddingSpace(["a", "b"], np.eye(2)), vec)
        data = tmp_path / "sim.txt"
        data.write_text("a b 1\nb a 2\n")
        code = main(
            ["eval", "sim", "--src", str(vec), "--dataset", str(data), "--cross"]
        )
        assert code == 2

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
            captured = capsys.readouterr()
            assert captured.out == "" and "--tgt requires --cross" in captured.err

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


class TestConfigFile:
    def test_config_supplies_defaults_flags_override(self, rotated_files, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(
            f"src={rotated_files['src']}\n"
            f"tgt={rotated_files['tgt']}\n"
            f"dict={rotated_files['dict']}\n"
            "max-iter=7\n"
        )
        code = main(
            ["align", "--config", str(config), "--out", str(tmp_path / "out")]
        )
        assert code == 0
        assert (tmp_path / "out" / "alignment.map").exists()

    def test_equals_form_matches_separate_form(self, rotated_files, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("k=1\n")
        outs = []
        for form in (["--config", str(config)], [f"--config={config}"]):
            code = main(["inspect", "src00003", "--src", str(rotated_files["src"]), *form])
            assert code == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert len(outs[0].splitlines()) == 1

    @pytest.mark.parametrize("form", [["--conf", "{cfg}"], ["--confi={cfg}"]])
    def test_abbreviated_config_flag_is_usage_error(self, rotated_files, tmp_path, capsys, form):
        config = tmp_path / "run.cfg"
        config.write_text("k=1\n")
        base = ["inspect", "src00003", "--src", str(rotated_files["src"])]
        assert main(base + [part.format(cfg=config) for part in form]) == 2
        assert capsys.readouterr().out == ""
        assert main(base + ["--config", str(config)]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1

    def test_repeated_config_flag_is_usage_error(self, rotated_files, tmp_path, capsys):
        one, three = tmp_path / "a.cfg", tmp_path / "b.cfg"
        one.write_text("k=1\n")
        three.write_text("k=3\n")
        base = ["inspect", "src00003", "--src", str(rotated_files["src"])]
        for form in (["--config", str(three), "--config", str(one)],
                     [f"--config={three}", "--config", str(one)]):
            assert main(base + form) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "--config may be given only once" in captured.err

    def test_bool_keys_are_the_store_true_flags(self):
        # a config key in BOOL_KEYS becomes a bare flag, every other key a flag and a value
        flags, parsers = set(), [build_parser()]
        while parsers:
            for action in parsers.pop()._actions:
                if isinstance(action, argparse._SubParsersAction):
                    parsers.extend(action.choices.values())
                elif isinstance(action, argparse._StoreTrueAction):
                    flags.update(f[2:] for f in action.option_strings if f.startswith("--"))
        assert flags
        assert BOOL_KEYS == flags | {flag.replace("-", "_") for flag in flags}

    def test_bad_config_line_is_usage_error(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("not a key value line\n")
        code = main(["align", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 2


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


class TestMissingPaths:
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
        assert main(argv) == 2
        assert f"{flag} path does not exist" in capsys.readouterr().err


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
        self, rotated_files, tmp_path, capsys, monkeypatch, command
    ):
        inputs = ["--src", str(rotated_files["src"]), "--tgt", str(rotated_files["tgt"]),
                  "--dict", str(rotated_files["dict"])]
        if command == "refine":
            inputs += ["--map", str(rotated_files["map"])]
        if command.startswith("fixture"):
            inputs = "--vocab 120 --dim 12 --sigma 0.1 --seed 3".split()
        runs = []
        for name in ("forked", "serial"):
            if name == "serial":
                monkeypatch.delattr(os, "fork")
            out = tmp_path / name
            assert main(command.split() + inputs + ["--out", str(out)]) == 0
            stdout = capsys.readouterr().out.replace(str(out), "<out>")
            runs.append((stdout, tree_bytes(out)))
        assert any(name.endswith(".npz") for name in runs[0][1])
        assert runs[0] == runs[1]

    def write_line(self, path, text="ok\n"):
        return lambda: path.write_text(text)

    def test_failed_fork_writes_in_process(self, tmp_path, monkeypatch):
        def no_fork():
            raise BlockingIOError("no process to spare")

        monkeypatch.setattr(os, "fork", no_fork)
        paths = [tmp_path / f"{i}.txt" for i in range(3)]
        _write_all(*(self.write_line(path, f"{i}\n") for i, path in enumerate(paths)))
        assert [path.read_text() for path in paths] == ["0\n", "1\n", "2\n"]

    def test_writer_failing_only_in_a_child_is_rerun(self, tmp_path):
        parent, path = os.getpid(), tmp_path / "child.txt"

        def write():
            if os.getpid() != parent:
                raise OSError("only children fail")
            path.write_text("written here\n")

        _write_all(self.write_line(tmp_path / "first.txt"), write)
        assert path.read_text() == "written here\n"

    def test_failing_writer_raises_its_own_error(self, tmp_path):
        def write():
            raise PermissionError("cannot write the map")

        with pytest.raises(PermissionError, match="cannot write the map"):
            _write_all(self.write_line(tmp_path / "first.txt"), write)
        assert (tmp_path / "first.txt").read_text() == "ok\n"

    def test_first_writer_failing_still_reaps_children(self, tmp_path):
        def write():
            raise ValueError("first writer fails")

        with pytest.raises(ValueError, match="first writer fails"):
            _write_all(write, *(self.write_line(tmp_path / name) for name in ("a.txt", "b.txt")))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert (tmp_path / "a.txt").read_text() == (tmp_path / "b.txt").read_text() == "ok\n"


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
