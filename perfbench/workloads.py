"""The benchmark's workloads: inputs made from a seed, one timed pass, checks.

Every workload calls meemi only through module attributes looked up at call
time (``alignment.align_supervised``), so the traced run sees the wrapped
functions. Checks run outside the timed pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import shutil
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from meemi import alignment, cli, embeddings, evaluation, fixtures, lexicon, refinement
from meemi.lexicon import BilingualLexicon

import oracle

DIM = 300
ORACLE_QUERIES = 64
ORACLE_K = 10
CSLS_K = 10
HYPER_K = 15  # the CLI's default --k for eval hyper
MAP_ATOL = 1e-9
# the CLI prints metrics with 6 decimals
TSV_ATOL = 5e-7 + 1e-12


class Checks:
    """Counts correctness checks; each failed one is a failed operation."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, problem: str | None, what: str) -> None:
        self.attempted += 1
        if problem is not None:
            self.failures.append(f"{what}: {problem}")

    def require(self, ok: bool, what: str, detail: str = "failed") -> None:
        self.expect(None if ok else detail, what)


def _split(gold: BilingualLexicon, n_train: int, n_test: int):
    pairs = gold.pairs
    return BilingualLexicon(pairs[:n_train]), BilingualLexicon(pairs[n_train:n_train + n_test])


def _check_precision(checks: Checks, label: str, metrics: dict, resolved: int, n: int) -> None:
    p = [metrics["P@1"], metrics["P@5"], metrics["P@10"]]
    checks.require(0.0 <= p[0] <= p[1] <= p[2] <= 1.0, f"{label} 0 <= P@1 <= P@5 <= P@10 <= 1", str(p))
    checks.require(resolved == n, f"{label} resolved queries", f"{resolved} != {n}")


def _check_reference(checks: Checks, what: str, got, want, atol: float = 0.0) -> None:
    """A reported quality number must equal the reference recomputation."""
    if isinstance(got, dict):
        ok = got.keys() == want.keys() and all(abs(got[k] - want[k]) <= atol for k in got)
    else:
        ok = abs(got - want) <= atol
    checks.require(ok, f"{what} vs reference", f"{got} != {want}")


def _oracle_queries(pair, test: BilingualLexicon, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(test), size=min(ORACLE_QUERIES, len(test)), replace=False)
    return pair.source.matrix[[pair.source.index_of(test.pairs[i][0]) for i in np.sort(picks)]]


class BliEval:
    name = "bli_eval"
    headline = "p1_cos_refined"
    sizes = dict(vocab=5000, dim=DIM, sigma=2.6, train_pairs=2500, test_queries=1000, csls_k=CSLS_K)
    units = dict(p1_cos_aligned="frac", p1_csls_aligned="frac", p1_cos_refined="frac",
                 p1_csls_refined="frac", p10_csls_refined="frac", shift_frac_closer="frac")

    def setup(self, seed: int, workdir: Path):
        s = self.sizes
        fx = fixtures.make_rotated_pair(fixtures.SyntheticSpec(s["vocab"], DIM, s["sigma"], seed))
        train, test = _split(fx.gold, s["train_pairs"], s["test_queries"])
        return SimpleNamespace(src=fx.src, tgt=fx.tgt, train=train, test=test, seed=seed)

    def run_pass(self, inp):
        aligned = alignment.align_supervised(inp.src, inp.tgt, inp.train)
        model = refinement.fit_meemi(aligned, inp.train)
        refined = refinement.apply_meemi(model, aligned)
        # held-out pairs: on the training pairs nearly every pair moves closer
        shift = refinement.similarity_shift_report(aligned, refined, inp.test)
        reports = {
            (state, mode): evaluation.eval_bli(pair, inp.test, mode, csls_k=CSLS_K)
            for state, pair in (("aligned", aligned), ("refined", refined))
            for mode in ("cosine", "csls")
        }
        return SimpleNamespace(aligned=aligned, refined=refined, shift=shift, reports=reports)

    def check(self, inp, out, checks: Checks, first: bool):
        for (state, mode), report in out.reports.items():
            _check_precision(checks, f"{state} {mode}", report.metrics, report.resolved, len(inp.test))
        checks.require(0.0 < out.shift.fraction_positive <= 1.0, "shift fraction in (0, 1]")
        if first:
            for state in ("aligned", "refined"):
                pair = getattr(out, state)
                queries = _oracle_queries(pair, inp.test, inp.seed)
                oracle.check_retrieval(checks, state, pair.target, queries, ORACLE_K,
                                       CSLS_K, source=pair.source)
            oracle.check_ties(checks)
            want_source, want_target = oracle.reference_meemi(out.aligned, inp.train.pairs)
            checks.require(
                np.allclose(out.refined.source.matrix, want_source, rtol=0.0, atol=MAP_ATOL)
                and np.allclose(out.refined.target.matrix, want_target, rtol=0.0, atol=MAP_ATOL),
                "refined spaces vs reference midpoint maps")
            _check_reference(checks, "shift fraction", out.shift.fraction_positive,
                             oracle.reference_shift_fraction(out.aligned, out.refined,
                                                             inp.test.pairs))
            for (state, mode), report in out.reports.items():
                pair = getattr(out, state)
                _check_reference(checks, f"{state} {mode} P@k", report.metrics,
                                 oracle.reference_bli(pair.source, pair.target, inp.test.pairs,
                                                      mode, CSLS_K))
        r = out.reports
        quality = dict(
            p1_cos_aligned=r["aligned", "cosine"].metrics["P@1"],
            p1_csls_aligned=r["aligned", "csls"].metrics["P@1"],
            p1_cos_refined=r["refined", "cosine"].metrics["P@1"],
            p1_csls_refined=r["refined", "csls"].metrics["P@1"],
            p10_csls_refined=r["refined", "csls"].metrics["P@10"],
            shift_frac_closer=out.shift.fraction_positive,
        )
        return quality, {}


class SelfLearn:
    name = "self_learn"
    headline = "sl_p1_cos"
    sizes = dict(vocab=12000, dim=DIM, sigma=2.7, seed_pairs=2000, test_queries=1000,
                 induction_cap=5000, iterations=4)
    units = dict(sl_p1_cos="frac")

    def setup(self, seed: int, workdir: Path):
        s = self.sizes
        fx = fixtures.make_rotated_pair(fixtures.SyntheticSpec(s["vocab"], DIM, s["sigma"], seed))
        seed_lexicon, test = _split(fx.gold, s["seed_pairs"], s["test_queries"])
        # so small a tolerance that only an iteration that fails to improve stops early
        config = alignment.AlignmentConfig(
            self_learning=True, max_iterations=s["iterations"], convergence_tol=1e-12,
            induction_vocab_cap=s["induction_cap"],
        )
        return SimpleNamespace(src=fx.src, tgt=fx.tgt, seed_lexicon=seed_lexicon, test=test,
                               config=config, seed=seed)

    def run_pass(self, inp):
        # the held-out eval runs in the checks, so that no top-k or CSLS
        # retrieval is timed here and this workload shows the self-learning
        # loop alone
        return alignment.iterate_self_learning(inp.src, inp.tgt, inp.seed_lexicon, inp.config)

    def check(self, inp, aligned, checks: Checks, first: bool):
        checks.require(aligned.iterations_run == self.sizes["iterations"], "iteration count",
                       str(aligned.iterations_run))
        digests = {name: hashlib.sha256(np.ascontiguousarray(m).tobytes()).hexdigest()
                   for name, m in (("map", aligned.map.matrix), ("source", aligned.source.matrix))}
        if not first:  # equal digests imply the first pass's quality
            return None, digests
        report = evaluation.eval_bli(aligned, inp.test)
        _check_precision(checks, "self-learned cosine", report.metrics, report.resolved,
                         len(inp.test))
        queries = _oracle_queries(aligned, inp.test, inp.seed)
        oracle.check_retrieval(checks, "self-learned", aligned.target, queries, ORACLE_K)
        oracle.check_ties(checks)
        _check_reference(checks, "self-learned cosine P@k", report.metrics,
                         oracle.reference_bli(aligned.source, aligned.target, inp.test.pairs,
                                              "cosine", CSLS_K))
        return dict(sl_p1_cos=report.metrics["P@1"]), digests


def _similarity_triples(fx, n: int, rng) -> list[tuple[str, str, float]]:
    """Cross-lingual pairs (source word, target word) scored by the cosine
    of the two words' original source vectors. Half pair a word with its
    nearest source neighbour and half with a random word, so gold scores
    spread like those of a graded similarity set."""
    unit = fx.src.matrix / np.linalg.norm(fx.src.matrix, axis=1, keepdims=True)
    rows = rng.choice(len(unit), size=n, replace=False)
    sims = unit[rows] @ unit.T
    sims[np.arange(n), rows] = -np.inf
    partners = np.where(np.arange(n) % 2 == 0, sims.argmax(axis=1), rng.integers(0, len(unit), n))
    partners = np.where(partners == rows, (partners + 1) % len(unit), partners)
    return [
        (fx.src.vocab[i], fx.tgt.vocab[j], float(unit[i] @ unit[j]))
        for i, j in zip(rows, partners)
    ]


def _tsv_metrics(text: str) -> dict[str, str]:
    return dict(line.split("\t", 1) for line in text.splitlines() if "\t" in line)


class CliRoundtrip:
    name = "cli_roundtrip"
    headline = "cli_p1_cos"
    sizes = dict(vocab=1200, dim=DIM, sigma=1.8, train_pairs=600, test_queries=500,
                 similarity_pairs=1000, taxonomy_vocab=1200, taxonomy_sigma=18.0)
    units = dict(cli_p1_cos="frac", sim_spearman="rho", hyper_mrr="frac")

    def setup(self, seed: int, workdir: Path):
        s = self.sizes
        d = workdir / "inputs"
        shutil.rmtree(workdir, ignore_errors=True)
        d.mkdir(parents=True)
        fx = fixtures.make_rotated_pair(fixtures.SyntheticSpec(s["vocab"], DIM, s["sigma"], seed))
        train, test = _split(fx.gold, s["train_pairs"], s["test_queries"])
        embeddings.save_space(fx.src, d / "src.vec")
        embeddings.save_space(fx.tgt, d / "tgt.vec")
        lexicon.save_lexicon(train, d / "train.dict")
        lexicon.save_lexicon(test, d / "test.dict")
        triples = _similarity_triples(fx, s["similarity_pairs"], np.random.default_rng(seed))
        with open(d / "sim.txt", "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(f"{a} {b} {score!r}\n" for a, b, score in triples)
        tax = fixtures.make_taxonomy(
            fixtures.SyntheticSpec(s["taxonomy_vocab"], DIM, s["taxonomy_sigma"], seed))
        embeddings.save_space(tax.space, d / "hyper.vec")
        lexicon.save_hypernyms(tax.train, d / "hyper_train.tsv")
        lexicon.save_hypernyms(tax.test, d / "hyper_test.tsv")
        return SimpleNamespace(dir=d, out=workdir / "out", seed=seed, n_test=len(test),
                               n_train=len(train), n_sim=len(triples), n_hyper=len(tax.test),
                               test=test, triples=triples, taxonomy=tax)

    def commands(self, inp) -> list[tuple[str, list[str]]]:
        d, a, r = str(inp.dir), str(inp.out / "align"), str(inp.out / "refine")
        refined = ["--src", f"{r}/source_refined.vec", "--tgt", f"{r}/target_refined.vec"]
        return [
            ("align", ["align", "--src", f"{d}/src.vec", "--tgt", f"{d}/tgt.vec",
                       "--dict", f"{d}/train.dict", "--out", a]),
            ("refine", ["refine", "--src", f"{a}/source_mapped.vec", "--tgt",
                        f"{a}/target_normalized.vec", "--dict", f"{d}/train.dict",
                        "--map", f"{a}/alignment.map", "--out", r]),
            ("eval_bli", ["eval", "bli", *refined, "--test", f"{d}/test.dict", "--format", "tsv"]),
            ("eval_sim", ["eval", "sim", *refined, "--dataset", f"{d}/sim.txt", "--cross",
                          "--format", "tsv"]),
            ("eval_hyper", ["eval", "hyper", "--src", f"{d}/hyper.vec", "--train",
                            f"{d}/hyper_train.tsv", "--test", f"{d}/hyper_test.tsv",
                            "--format", "tsv"]),
        ]

    def run_pass(self, inp):
        results = {}
        for name, argv in self.commands(inp):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            results[name] = (code, buf.getvalue())
        return results

    def check(self, inp, out, checks: Checks, first: bool):
        for name, (code, _) in out.items():
            checks.require(code == 0, f"cli {name} exit code", str(code))
        bli = _tsv_metrics(out["eval_bli"][1])
        sim = _tsv_metrics(out["eval_sim"][1])
        hyper = _tsv_metrics(out["eval_hyper"][1])
        p = {k: float(bli[k]) for k in ("P@1", "P@5", "P@10")}
        _check_precision(checks, "cli bli", p, int(bli["resolved"]), inp.n_test)
        checks.require(f"pairs {inp.n_train}" in out["refine"][1], "refine pair count")
        checks.require(int(sim["resolved"]) == inp.n_sim, "similarity resolved pairs", sim["resolved"])
        checks.require(int(hyper["resolved"]) == inp.n_hyper, "hypernym resolved queries",
                       hyper["resolved"])
        checks.require(0.0 <= float(hyper["MRR"]) <= 1.0, "hypernym MRR in [0, 1]", hyper["MRR"])
        if first:
            pair = SimpleNamespace(
                source=embeddings.load_space(inp.out / "refine" / "source_refined.vec"),
                target=embeddings.load_space(inp.out / "refine" / "target_refined.vec"),
            )
            queries = _oracle_queries(pair, inp.test, inp.seed)
            oracle.check_retrieval(checks, "cli refined", pair.target, queries, ORACLE_K)
            _check_reference(checks, "cli bli P@k", p,
                             oracle.reference_bli(pair.source, pair.target, inp.test.pairs,
                                                  "cosine", CSLS_K), TSV_ATOL)
            _check_reference(checks, "similarity spearman_rho", float(sim["spearman_rho"]),
                             oracle.reference_spearman(pair.source, pair.target, inp.triples),
                             TSV_ATOL)
            tax = inp.taxonomy
            _check_reference(checks, "hypernym MRR", float(hyper["MRR"]),
                             oracle.reference_hypernym_mrr(tax.space, tax.train, tax.test,
                                                           HYPER_K), TSV_ATOL)
        digests = {
            str(path.relative_to(inp.out)): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(inp.out.rglob("*")) if path.is_file()
        }
        digests.update({
            f"stdout:{name}": hashlib.sha256(text.encode()).hexdigest()
            for name, (_, text) in out.items()
        })
        shutil.rmtree(inp.out, ignore_errors=True)  # the next pass writes every artifact afresh
        quality = dict(cli_p1_cos=p["P@1"], sim_spearman=float(sim["spearman_rho"]),
                       hyper_mrr=float(hyper["MRR"]))
        return quality, digests


WORKLOADS = {w.name: w for w in (BliEval, SelfLearn, CliRoundtrip)}
