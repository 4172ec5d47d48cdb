#!/usr/bin/env python3
"""Check that the CLI gives the same outputs as another commit.

The script unpacks ``git archive REF`` into a temporary directory and runs
one fixed list of CLI commands against that tree and against the working
tree this script belongs to. Each tree runs in one interpreter that calls
``meemi.cli.main`` in-process, in a directory of its own, once as is and
once with ``os.fork`` deleted (so every writer runs in-process). It
compares the SHA-256 of every file the commands leave (``.npz`` sidecars
included), the directories they make, and each command's stdout, stderr
and exit code. It prints one line when all of them match and exits 0;
otherwise it names every difference and exits 1. The working tree's runs
with and without ``os.fork`` are compared with each other too. Both trees
run under this process's environment, and the line ends with its BLAS
thread settings (``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS``, or
``unset``): outputs are byte-identical only for one numpy and OpenBLAS
build and one BLAS thread count. The last line, whether the trees match or
not, also gives both trees' line counts of ``src/meemi/*.py`` (the total of
``wc -l``) as ``src/meemi <ref> -> <working tree> lines``.

The list builds the three fixtures, then runs ``align`` (plain, with
self-learning, with ``--limit``), ``refine`` (with ``--map`` and on the
self-learned pair), ``eval bli`` and ``eval hyper`` under both retrievals
(``eval hyper`` on the taxonomy alone, paired with itself, and paired with
the rotated source, so that its tokens resolve only in ``--tgt``),
``eval sim`` cross-lingual and monolingual, ``inspect``, ``induce``,
``inspect`` under cosine and CSLS on a space of exact ties, and
``align``/``refine`` on a dictionary that resolves nothing. The rotated
and taxonomy fixtures hold 1500 x 64 = 96000 components, above
``2 * meemi.embeddings.MIN_RANGE_COMPONENTS``, so where the host has two
or more usable CPUs each of their saves is cut into two halves, the second
written by a forked child. On such a host the default run writes only its
smaller files unsplit; a run pinned to one CPU with ``taskset -c 0`` splits
no save, so it covers the unsplit path on the large files too.

Usage:
    python3 scripts/same_outputs.py HEAD~1
    taskset -c 0 python3 scripts/same_outputs.py HEAD~1   # the unsplit path
    python3 scripts/same_outputs.py main --tiny   # 60 x 8 fixtures, seconds
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FULL = (1500, 64)
TINY = (60, 8)
MODES = ("fork", "nofork")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def commands(vocab: int, dim: int) -> list[list[str]]:
    """The fixed command list, with paths relative to the run's directory."""
    size = ["--vocab", str(vocab), "--dim", str(dim), "--sigma", "0.1", "--seed", "3"]
    pair = ["--src", "fx/src.vec", "--tgt", "fx/tgt.vec"]
    aligned = ["--src", "aligned/source_mapped.vec", "--tgt", "aligned/target_normalized.vec"]
    refined = ["--src", "refined/source_refined.vec", "--tgt", "refined/target_refined.vec"]
    hub = ["--src", "hub/queries.vec", "--tgt", "hub/targets.vec", "--test", "hub/gold.dict"]
    tax = ["--src", "tax/space.vec", "--train", "tax/train.tsv", "--test", "tax/test.tsv"]
    half = str(vocab // 2)
    argvs = [
        ["fixture", "rotated", *size, "--out", "fx"],
        ["fixture", "hub", "--seed", "3", "--out", "hub"],
        ["fixture", "taxonomy", *size, "--out", "tax"],
        ["align", *pair, "--dict", "fx/gold.dict", "--out", "aligned"],
        ["align", *pair, "--dict", "fx/gold.dict", "--self-learning", "--max-iter", "4",
         "--cap", half, "-v", "--out", "selfl"],
        ["align", *pair, "--dict", "fx/gold.dict", "--limit", half, "--out", "limited"],
        ["refine", *aligned, "--dict", "fx/gold.dict", "--map", "aligned/alignment.map",
         "--out", "refined"],
        ["refine", "--src", "selfl/source_mapped.vec", "--tgt", "selfl/target_normalized.vec",
         "--dict", "fx/gold.dict", "-v", "--out", "refined_selfl"],
    ]
    for retrieval in ("cosine", "csls"):
        for spaces in (pair, aligned, refined):
            argvs.append(["eval", "bli", *spaces, "--test", "fx/gold.dict",
                          "--retrieval", retrieval])
        argvs.append(["eval", "bli", *hub, "--retrieval", retrieval])
        argvs.append(["eval", "hyper", *tax, "--retrieval", retrieval])
        argvs.append(["eval", "hyper", *tax, "--tgt", "tax/space.vec", "--retrieval", retrieval,
                      "--format", "tsv", "--out", f"hyper_{retrieval}.tsv"])
        # no token of fx/src.vec is a taxonomy token, so every one resolves in --tgt
        argvs.append(["eval", "hyper", "--src", "fx/src.vec", "--tgt", "tax/space.vec",
                      "--train", "tax/train.tsv", "--test", "tax/test.tsv",
                      "--retrieval", retrieval, "--format", "tsv"])
    argvs += [
        ["eval", "bli", *aligned, "--test", "fx/gold.dict", "--limit", half, "--k", "1,3",
         "--format", "tsv", "--out", "bli_limited.tsv"],
        ["eval", "sim", *aligned, "--cross", "--dataset", "sim_cross.txt"],
        ["eval", "sim", "--src", "fx/src.vec", "--dataset", "sim_mono.txt"],
        ["inspect", "src00001", "--src", "fx/src.vec", "--k", "5"],
        ["inspect", "src00001", *aligned, "--retrieval", "csls"],
        ["induce", *aligned, "--cap", half, "--out", "induced.dict"],
        ["inspect", "w00", "--src", "ties.vec", "--k", "6"],
        ["inspect", "w00", "--src", "ties.vec", "--tgt", "ties.vec", "--k", "6",
         "--retrieval", "csls", "--csls-k", "2"],
        ["align", *pair, "--dict", "nothing.dict", "--out", "none_aligned"],
        ["refine", *pair, "--dict", "nothing.dict", "--out", "none_refined"],
    ]
    return argvs


def write_datasets(vocab: int) -> None:
    """The similarity data, the dictionary that resolves nothing and
    ``ties.vec``, into the current directory; tokens follow ``fixture
    rotated``'s naming.

    ``ties.vec`` holds 12 rows of dimension 4, each one of three distinct
    vectors of four +-1 entries, so every cosine is a multiple of 0.25 and
    its ties are exact; each vector's rows tie across the top-k cut.
    """
    n = min(vocab, 40)
    score = [f"{(i * 37) % 100 / 10:.1f}" for i in range(n)]
    with open("sim_cross.txt", "w", encoding="utf-8") as fh:
        fh.writelines(f"src{i:05d} tgt{(i * 7) % vocab:05d} {score[i]}\n" for i in range(n))
        fh.write("nope tgt00000 1.0\n")
    with open("sim_mono.txt", "w", encoding="utf-8") as fh:
        fh.writelines(f"src{i:05d} src{(i + 1) % vocab:05d} {score[i]}\n" for i in range(n))
    with open("nothing.dict", "w", encoding="utf-8") as fh:
        fh.write("nope nada\n")
    vectors = ("1 1 1 1", "1 1 -1 -1", "1 -1 1 1")
    with open("ties.vec", "w", encoding="utf-8") as fh:
        fh.writelines(f"w{i:02d} {vectors[i % 3]}\n" for i in range(12))


def tree_digest(root: Path) -> dict[str, str]:
    """SHA-256 of every file under ``root``, and ``<dir>`` for every directory."""
    found = {}
    for path in sorted(root.rglob("*")):
        name = path.relative_to(root).as_posix()
        found[name] = "<dir>" if path.is_dir() else hashlib.sha256(path.read_bytes()).hexdigest()
    return found


def run_list(vocab: int, dim: int) -> dict:
    """Run the command list in the current directory, in this interpreter:
    once as is in ``fork/`` and once without ``os.fork`` in ``nofork/``."""
    import meemi
    from meemi import cli

    forks = []
    fork = getattr(os, "fork", None)
    if fork is not None:
        def counted():
            forks.append(1)
            return fork()
        os.fork = counted
    result = {"meemi": meemi.__file__}
    home = Path.cwd()
    try:
        for mode in MODES:
            if mode == "nofork" and fork is not None:
                del os.fork
            work = home / mode
            work.mkdir()
            os.chdir(work)
            write_datasets(vocab)
            runs = []
            for argv in commands(vocab, dim):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    try:
                        code = cli.main(argv)
                    except Exception as exc:  # a crash is an outcome to compare, too
                        code = f"raised {type(exc).__name__}: {exc}"
                runs.append({"argv": argv, "exit": code,
                             "stdout": out.getvalue(), "stderr": err.getvalue()})
            result[mode] = {"commands": runs, "files": tree_digest(work), "forks": len(forks)}
            forks.clear()
    finally:
        os.chdir(home)
        if fork is not None:
            os.fork = fork
    return result


def run_tree(tree: Path, work: Path, tiny: bool = False) -> dict:
    """Run the command list against ``tree``'s ``src`` in a fresh interpreter
    whose working directory is ``work`` (made empty here)."""
    work.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--run-here",
         *(["--tiny"] if tiny else [])],
        cwd=work, env=env, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"command list failed to run on {tree}:\n{proc.stderr}")
    result = json.loads(proc.stdout)
    if Path(result["meemi"]).resolve().parent != (tree / "src" / "meemi").resolve():
        raise RuntimeError(f"imported {result['meemi']}, not the meemi of {tree}")
    return result


def differences(a: dict, b: dict, label: str) -> list[str]:
    """Every way run ``b`` differs from run ``a``, each prefixed with ``label``."""
    found = []
    for i, (x, y) in enumerate(zip(a["commands"], b["commands"]), start=1):
        for key in ("exit", "stdout", "stderr"):
            if x[key] != y[key]:
                found.append(f"{label}: command {i} ({' '.join(x['argv'])}): {key} "
                             f"{x[key]!r} != {y[key]!r}")
    for name in sorted(set(a["files"]) | set(b["files"])):
        x, y = a["files"].get(name, "<missing>"), b["files"].get(name, "<missing>")
        if x != y:
            found.append(f"{label}: {name}: {x[:16]} != {y[:16]}")
    return found


def meemi_lines(tree: Path) -> int:
    """The total ``wc -l`` gives for ``tree``'s ``src/meemi/*.py``: its newlines."""
    return sum(path.read_bytes().count(b"\n") for path in (tree / "src" / "meemi").glob("*.py"))


def unpack(ref: str, into: Path) -> Path:
    archive = subprocess.run(["git", "archive", ref], cwd=ROOT, stdout=subprocess.PIPE, check=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        kwargs = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        tar.extractall(into, **kwargs)
    return into


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ref", nargs="?", help="commit to compare the working tree with")
    parser.add_argument("--tiny", action="store_true", help="60 x 8 fixtures instead of 1500 x 64")
    parser.add_argument("--run-here", action="store_true",
                        help="run the command list in this directory and print its JSON record")
    args = parser.parse_args()
    size = TINY if args.tiny else FULL
    if args.run_here:
        print(json.dumps(run_list(*size)))
        return 0
    if args.ref is None:
        parser.error("REF is required")
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        tmp = Path(tmp)
        try:
            ref_tree = unpack(args.ref, tmp / "ref_tree")
        except subprocess.CalledProcessError:
            print(f"same_outputs: git archive {args.ref} failed", file=sys.stderr)
            return 2
        ref = run_tree(ref_tree, tmp / "ref", args.tiny)
        here = run_tree(ROOT, tmp / "here", args.tiny)
        lines = f"src/meemi {meemi_lines(ref_tree)} -> {meemi_lines(ROOT)} lines"
    found = [line for mode in MODES
             for line in differences(ref[mode], here[mode], f"{mode} {args.ref}->working tree")]
    found += differences(here["fork"], here["nofork"], "working tree fork->nofork")
    for line in found:
        print(line)
    count = len(here["fork"]["commands"])
    paths = len(here["fork"]["files"])
    if found:
        print(f"same_outputs: {len(found)} differences against {args.ref}; {lines}")
        return 1
    threads = " ".join(f"{name}={os.environ.get(name, 'unset')}" for name in BLAS_THREAD_VARS)
    print(f"same_outputs: identical to {args.ref}: {count} commands, {paths} paths, exit codes, "
          f"stdout and stderr, with os.fork ({here['fork']['forks']} forks) and without, "
          f"under {threads}; {lines}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
