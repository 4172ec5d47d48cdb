#!/usr/bin/env python3
"""Time and size every stage of the meemi pipeline at one fixed, realistic size.

The script runs four jobs, each in child processes of its own, so that each
process reports its own peak RSS (``ru_maxrss`` as ``os.wait4`` returns it
for that child; Linux gives it in KiB):

- ``inprocess``: a rotated pair of 50000 x 300 (sigma 3.0, seed 1) through
  the library. It aligns on the first 5000 gold pairs and refines. Then it
  takes the similarity shift on the next 1500 pairs and evaluates BLI with
  them as queries, under cosine and CSLS, for the aligned and the refined
  pair. Then come a self-density ``build_index``, ``induce_dictionary`` at
  cap 20000, and self-learning from the first 500 gold pairs for 3
  iterations (tol 1e-12, cap 20000). Last come a text ``save_space`` and
  both ``load_space`` paths: the sidecar, and the text parse once the
  sidecar is deleted. Every stage records its wall time. Every stage before
  the text I/O also records the memory tracemalloc traced at its start and
  its peak during it. The text I/O runs with tracemalloc off, because
  tracing every Python float slows the parse about 5x.
- ``stretched``: the non-isometric pair of the acceptance check that
  refinement beats alignment: 2000 x 100, each target axis stretched by
  exp(0.7 z), then noise of sigma 3, for seeds 0-4. It aligns on 1000 gold
  pairs and evaluates on the next 500: BLI, and the Spearman correlation of
  cross-lingual similarity on the held-out words (as in that check: each
  word paired with its nearest other held-out word and with a random one,
  scored by the cosine of their source vectors). The same triples, each
  first token replaced by its own gold target token, are scored within the
  target space for the paper's monolingual claim. The source side is left
  out: its gold is the source cosine itself, so the aligned pair reads
  about 1 and can only fall.
- ``cli``: the 50k pair written by ``meemi fixture rotated``, then
  ``align``, ``refine`` and ``eval bli --retrieval csls`` on both states,
  one child process per command, each loading the sidecars.
- ``large``: a 100000 x 300 pair written by ``meemi fixture rotated``
  with its sidecars deleted. One child then loads both spaces from text,
  aligns, refines and saves both refined spaces.

The JSON at ``--out`` holds each stage's numbers, each process's wall time
and peak RSS, the environment (git commit, Python, numpy, its BLAS, the
BLAS thread variables, CPUs), and the quality numbers. These are P@1/5/10
under cosine and CSLS, aligned and refined, and the held-out shift for the
rotated pair, the CLI's CSLS P@k, and the stretched pair's P@k, Spearman
and monolingual target Spearman per seed with the smallest gain of each.
The CLI's CSLS P@k must equal the library's; otherwise the script still
writes the JSON but exits 1. Nothing is measured outside this script's
own processes. Nothing is written outside ``--out`` and one temporary
directory per job under ``TMPDIR``, removed when the job ends; the full
run needs about 3 GB of disk at once.

Usage, from a checkout (children import ``meemi`` from its ``src``):
    OPENBLAS_NUM_THREADS=2 PYTHONPATH=src python3 scripts/bench_stages.py --out bench.json
    PYTHONPATH=src python3 scripts/bench_stages.py --tiny --out bench.json   # seconds
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

from meemi.alignment import (
    AlignmentConfig,
    SpacePair,
    align_supervised,
    induce_dictionary,
    iterate_self_learning,
)
from meemi.embeddings import EmbeddingSpace, load_space, save_space, unit_rows
from meemi.evaluation import RETRIEVAL_MODES, eval_bli, eval_similarity
from meemi.fixtures import SyntheticSpec, make_rotated_pair
from meemi.lexicon import BilingualLexicon, SimilarityDataset, load_lexicon, save_lexicon
from meemi.refinement import apply_meemi, fit_meemi, similarity_shift_report
from meemi.retrieval import DEFAULT_CSLS_K, build_index

ROOT = Path(__file__).resolve().parent.parent
FULL = dict(vocab=50000, dim=300, sigma=3.0, seed=1, train=5000, test=1500, cap=20000,
            seed_pairs=500, iterations=3, large_vocab=100000,
            stretched=dict(vocab=2000, dim=100, train=1000, test=500, seeds=5))
TINY = dict(vocab=600, dim=16, sigma=0.5, seed=1, train=200, test=100, cap=400,
            seed_pairs=50, iterations=3, large_vocab=1000,
            stretched=dict(vocab=400, dim=16, train=150, test=100, seeds=2))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
MIB = 2.0**20


def timed(stages: dict, name: str, fn, *args):
    """``fn(*args)``, with its wall time (and tracemalloc's numbers while it
    traces) recorded as ``stages[name]``."""
    tracing = tracemalloc.is_tracing()
    if tracing:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
    start = time.perf_counter()
    result = fn(*args)
    stages[name] = {"wall_s": round(time.perf_counter() - start, 4)}
    if tracing:
        stages[name].update(traced_base_mib=round(base / MIB, 1),
                            traced_peak_mib=round(tracemalloc.get_traced_memory()[1] / MIB, 1))
    return result


def split(gold: BilingualLexicon, train: int, test: int):
    """The first ``train`` gold pairs, and the next ``test`` ones."""
    return (BilingualLexicon(gold.pairs[:train]),
            BilingualLexicon(gold.pairs[train:train + test]))


def bli(states: dict, test: BilingualLexicon, stages: dict) -> dict:
    """P@1/5/10 of each state's pair under each retrieval."""
    return {state: {retrieval: timed(stages, f"eval_bli_{retrieval}_{state}", eval_bli,
                                     pair, test, retrieval).metrics
                    for retrieval in RETRIEVAL_MODES}
            for state, pair in states.items()}


def job_inprocess(sizes: dict, work: Path) -> dict:
    stages: dict = {}
    tracemalloc.start()
    fx = timed(stages, "make_rotated_pair", make_rotated_pair,
               SyntheticSpec(sizes["vocab"], sizes["dim"], sizes["sigma"], sizes["seed"]))
    train, test = split(fx.gold, sizes["train"], sizes["test"])
    aligned = timed(stages, "align_supervised", align_supervised, fx.src, fx.tgt, train)
    refined = timed(stages, "fit_meemi+apply_meemi",
                    lambda: apply_meemi(fit_meemi(aligned, train), aligned))
    shift = timed(stages, "similarity_shift_report", similarity_shift_report,
                  aligned, refined, test)
    quality = bli({"aligned": aligned, "refined": refined}, test, stages)
    quality["shift"] = shift._asdict()
    timed(stages, "build_index_self", build_index, aligned.target, DEFAULT_CSLS_K)
    timed(stages, "induce_dictionary", induce_dictionary, aligned, sizes["cap"])
    config = AlignmentConfig(max_iterations=sizes["iterations"], convergence_tol=1e-12,
                             induction_vocab_cap=sizes["cap"])
    learned = timed(stages, "iterate_self_learning", iterate_self_learning, fx.src, fx.tgt,
                    BilingualLexicon(fx.gold.pairs[:sizes["seed_pairs"]]), config)
    quality["self_learning_iterations"] = learned.iterations_run
    tracemalloc.stop()
    path = work / "source_mapped.vec"
    timed(stages, "save_space", save_space, aligned.source, path)
    timed(stages, "load_space_sidecar", load_space, path)
    os.remove(f"{path}.npz")
    timed(stages, "load_space_text", load_space, path)
    return {"stages": stages, "quality": quality}


def stretched_noisy_pair(seed: int, vocab: int, dim: int):
    """A rotated ``vocab`` x ``dim`` pair whose target axes are stretched by
    exp(0.7 z), z ~ N(0, 1), then given noise of sigma 3: a non-isometric
    pair, the paper's premise. Returns the source, the target and the gold
    lexicon."""
    fx = make_rotated_pair(SyntheticSpec(vocab, dim, 0.0, seed))
    rng = np.random.default_rng(10_000 + seed)
    stretched = fx.tgt.matrix * np.exp(0.7 * rng.standard_normal(fx.tgt.dim))
    noisy = stretched + 3.0 * rng.standard_normal(stretched.shape)
    return fx.src, EmbeddingSpace(fx.tgt.vocab, noisy), fx.gold


def held_out_similarity(src: EmbeddingSpace, pairs: list, start: int, seed: int):
    """Cross-lingual similarity triples over the held-out gold ``pairs``, pair
    ``i`` being source row ``start + i``. Each held-out word is paired once
    with its nearest other held-out word by latent (source) cosine and once
    with a random one. A triple holds the first word's source token, the
    second word's target token and their latent cosine."""
    latent = unit_rows(src.matrix[start:start + len(pairs)])
    sims = latent @ latent.T
    np.fill_diagonal(sims, -np.inf)
    partners = [sims.argmax(axis=1),
                np.random.default_rng(seed).integers(0, len(pairs), len(pairs))]
    return SimilarityDataset([(pairs[i][0], pairs[j][1], float(latent[i] @ latent[j]))
                              for js in partners for i, j in enumerate(js)])


def job_stretched(sizes: dict, work: Path) -> dict:
    spec = sizes["stretched"]
    seeds = []
    for seed in range(spec["seeds"]):
        src, tgt, gold = stretched_noisy_pair(seed, spec["vocab"], spec["dim"])
        train, test = split(gold, spec["train"], spec["test"])
        aligned = align_supervised(src, tgt, train)
        refined = apply_meemi(fit_meemi(aligned, train), aligned)
        states = {"aligned": aligned, "refined": refined}
        quality = bli(states, test, stages={})
        cross = held_out_similarity(src, test.pairs, spec["train"], seed)
        quality["spearman"] = {state: eval_similarity(pair, cross).metrics["spearman_rho"]
                               for state, pair in states.items()}
        to_target = dict(test.pairs)
        mono = SimilarityDataset([(to_target[a], b, score) for a, b, score in cross.triples])
        within = {state: SpacePair(pair.target, pair.target) for state, pair in states.items()}
        quality["mono_spearman"] = {state: eval_similarity(pair, mono).metrics["spearman_rho"]
                                    for state, pair in within.items()}
        seeds.append(quality)
    gain = {r: min(s["refined"][r]["P@1"] - s["aligned"][r]["P@1"] for s in seeds)
            for r in RETRIEVAL_MODES}
    spearman_gain, mono_gain = (min(s[key]["refined"] - s[key]["aligned"] for s in seeds)
                                for key in ("spearman", "mono_spearman"))
    return {"quality": {"seeds": seeds, "min_p1_gain": gain, "min_spearman_gain": spearman_gain,
                        "min_mono_spearman_gain": mono_gain}}


def job_large(sizes: dict, work: Path) -> dict:
    stages: dict = {}
    src = timed(stages, "load_space_src_text", load_space, work / "fx" / "src.vec")
    tgt = timed(stages, "load_space_tgt_text", load_space, work / "fx" / "tgt.vec")
    train = load_lexicon(work / "train.dict")
    aligned = timed(stages, "align_supervised", align_supervised, src, tgt, train)
    refined = timed(stages, "fit_meemi+apply_meemi",
                    lambda: apply_meemi(fit_meemi(aligned, train), aligned))
    timed(stages, "save_space_source", save_space, refined.source, work / "source_refined.vec")
    timed(stages, "save_space_target", save_space, refined.target, work / "target_refined.vec")
    return {"stages": stages}


JOBS = {"inprocess": job_inprocess, "stretched": job_stretched, "large": job_large}


def child(argv: list, env: dict) -> tuple[dict, str]:
    """Run ``argv``: its wall time and peak RSS, and its stdout. A failure raises."""
    start = time.perf_counter()
    proc = subprocess.Popen([str(a) for a in argv], stdout=subprocess.PIPE, env=env, text=True)
    with proc.stdout:
        stdout = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(map(str, argv))} exited {proc.returncode}")
    return {"wall_s": round(wall, 3), "peak_rss_mib": round(usage.ru_maxrss / 1024, 1)}, stdout


def run_job(work: Path, name: str, tiny: bool, env: dict) -> dict:
    """One job in a child process: its JSON plus the child's wall time and peak RSS."""
    out = work / f"{name}.json"
    process, _ = child([sys.executable, __file__, "--job", name, "--out", out,
                        *(["--tiny"] if tiny else [])], env)
    return {"process": process, **json.loads(out.read_text())}


def fixture(work: Path, sizes: dict, vocab: int, env: dict) -> dict:
    """``meemi fixture rotated`` into ``work/fx`` as a child, and the gold split."""
    process, _ = child([sys.executable, "-m", "meemi", "fixture", "rotated",
                        "--vocab", vocab, "--dim", sizes["dim"], "--sigma", sizes["sigma"],
                        "--seed", sizes["seed"], "--out", work / "fx"], env)
    train, test = split(load_lexicon(work / "fx" / "gold.dict"), sizes["train"], sizes["test"])
    save_lexicon(train, work / "train.dict")
    save_lexicon(test, work / "test.dict")
    return process


def run_cli(work: Path, sizes: dict, env: dict) -> dict:
    commands = {"fixture": fixture(work, sizes, sizes["vocab"], env)}
    fx, aligned, refined = work / "fx", work / "aligned", work / "refined"
    train = ["--dict", work / "train.dict"]
    commands["align"], _ = child([sys.executable, "-m", "meemi", "align",
                                  "--src", fx / "src.vec", "--tgt", fx / "tgt.vec", *train,
                                  "--out", aligned], env)
    states = {"aligned": (aligned / "source_mapped.vec", aligned / "target_normalized.vec"),
              "refined": (refined / "source_refined.vec", refined / "target_refined.vec")}
    commands["refine"], _ = child([sys.executable, "-m", "meemi", "refine",
                                   "--src", states["aligned"][0], "--tgt", states["aligned"][1],
                                   *train, "--out", refined], env)
    quality = {}
    for state, (src, tgt) in states.items():
        commands[f"eval_bli_csls_{state}"], stdout = child(
            [sys.executable, "-m", "meemi", "eval", "bli", "--src", src, "--tgt", tgt,
             "--test", work / "test.dict", "--retrieval", "csls", "--format", "tsv"], env)
        rows = (line.split("\t") for line in stdout.splitlines())
        quality[state] = {"csls": {name: float(v) for name, v in rows if name.startswith("P@")}}
    return {"commands": commands, "wall_s": round(sum(c["wall_s"] for c in commands.values()), 3),
            "quality": quality}


def run_large(work: Path, sizes: dict, tiny: bool, env: dict) -> dict:
    process = fixture(work, sizes, sizes["large_vocab"], env)
    for sidecar in (work / "fx").glob("*.npz"):
        sidecar.unlink()  # an external .vec has no sidecar: load from text
    return {"fixture": process, "pipeline": run_job(work, "large", tiny, env)}


def in_tmp(run, *args) -> dict:
    """``run(work, *args)`` in a temporary directory that is removed afterwards."""
    with tempfile.TemporaryDirectory(prefix="bench_stages-") as work:
        return run(Path(work), *args)


def git(*argv: str) -> str | None:
    try:
        result = subprocess.run(["git", "-C", str(ROOT), *argv], capture_output=True, text=True)
    except OSError:
        return None
    return result.stdout.strip() if result.returncode == 0 else None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    status = git("status", "--porcelain")
    return {
        "git_commit": git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var, "unset") for var in BLAS_THREAD_VARS},
        "cpus": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "platform": platform.platform(),
    }


def csls_mismatches(record: dict) -> list[str]:
    """Every CLI CSLS P@k that differs from the library's at the CLI's 6 decimals."""
    library, cli = record["inprocess"]["quality"], record["cli"]["quality"]
    return [f"{state} {name}: library {library[state]['csls'][name]:.6f}, cli {value:.6f}"
            for state in cli for name, value in cli[state]["csls"].items()
            if f"{library[state]['csls'][name]:.6f}" != f"{value:.6f}"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True, help="JSON record to write")
    parser.add_argument("--tiny", action="store_true", help="small sizes, for a smoke run")
    parser.add_argument("--job", choices=JOBS, help=argparse.SUPPRESS)  # a child's one job
    args = parser.parse_args()
    sizes = TINY if args.tiny else FULL
    if args.job:
        args.out.write_text(json.dumps(JOBS[args.job](sizes, args.out.parent)))
        return 0
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    record = {"sizes": sizes, "environment": environment()}
    record["inprocess"] = in_tmp(run_job, "inprocess", args.tiny, env)
    record["stretched"] = in_tmp(run_job, "stretched", args.tiny, env)
    record["cli"] = in_tmp(run_cli, sizes, env)
    record["large"] = in_tmp(run_large, sizes, args.tiny, env)
    record["mismatches"] = csls_mismatches(record)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    for stage, numbers in record["inprocess"]["stages"].items():
        print(f"inprocess {stage:<28} {numbers['wall_s']:9.3f} s")
    for command, numbers in record["cli"]["commands"].items():
        print(f"cli {command:<34} {numbers['wall_s']:9.3f} s {numbers['peak_rss_mib']:8.1f} MiB")
    for mismatch in record["mismatches"]:
        print(f"mismatch: {mismatch}", file=sys.stderr)
    return 1 if record["mismatches"] else 0


if __name__ == "__main__":
    sys.exit(main())
