"""Command-line front end: align, refine, induce, eval, inspect, fixture.

Exit codes: 0 success, 1 runtime or data error (``error: ...``), 2 usage
error (argparse's: the subcommand's usage, then ``meemi <cmd>: error: ...``,
for an unknown flag, a bad value or a missing input file). Every
command accepts ``-v/--verbose``, which logs each stage's progress to stderr
at DEBUG; stdout is the same with or without it. Output files are a function
of the input files alone, or for ``fixture`` (the one command with ``--seed``)
of its flags and seed, for one numpy and OpenBLAS build and BLAS thread count.

Count flags (``--limit``, each rank of ``--k``, ``--csls-k``, ``--cap``,
``--max-iter``, ``--vocab``, ``--dim``) below 1, ``--tol`` at or below 0 and
``--sigma`` below 0 or not finite (NaN included) are usage errors.

``align``, ``refine`` and ``fixture`` make their ``--out`` directory only
once their results are computed, and write the output files through
``meemi.embeddings._run_forked``: each file but the first in a forked
child, at the same time as the first, with the same bytes.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

from .alignment import (AlignedPair, AlignmentConfig, SpacePair, align_supervised,
                        induce_dictionary, iterate_self_learning)
from .embeddings import _run_forked, load_space, save_space
from .evaluation import (
    DEFAULT_HYPERNYM_K,
    RETRIEVAL_MODES,
    _topk,
    eval_bli,
    eval_hypernyms,
    eval_similarity,
    fit_hypernym_projection,
)
from .fixtures import SyntheticSpec, make_hub_set, make_rotated_pair, make_taxonomy
from .lexicon import (
    BilingualLexicon,
    load_hypernyms,
    load_lexicon,
    load_similarity,
    resolve_rows,
    save_hypernyms,
    save_lexicon,
)
from .refinement import apply_meemi, fit_meemi, save_meemi, similarity_shift_report
from .retrieval import DEFAULT_CSLS_K
from .solvers import load_map, save_map


def _write(out: Path, *writers) -> None:
    """Make the ``--out`` directory, then call the writers through ``_run_forked``."""
    out.mkdir(parents=True, exist_ok=True)
    _run_forked(*writers)


def _load_pair(args) -> SpacePair:
    """``--src`` and ``--tgt``, or ``--src`` paired with itself without ``--tgt``."""
    src = load_space(args.src, args.limit)
    return SpacePair(src, load_space(args.tgt, args.limit) if args.tgt else src)


def _number_type(cast, check, wanted: str):
    """An argparse type: the flag's text through ``cast``, which must then pass
    ``check``; NaN fails every comparison, so a check made of them rejects it."""
    def parse(raw: str):
        try:
            value = cast(raw)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {cast.__name__}, got {raw!r}") from None
        if not check(value):
            raise argparse.ArgumentTypeError(f"must be {wanted}, got {raw}")
        return value

    return parse


_count = _number_type(int, lambda v: v >= 1, "at least 1")  # every integer flag but --seed


def _ranks(raw: str) -> tuple[int, ...]:  # eval bli's --k: a comma list of counts
    return tuple(_count(part) for part in raw.split(","))


def _path(raw: str) -> str:  # every input file flag: the path must exist
    if not os.path.exists(raw):
        raise argparse.ArgumentTypeError(f"path does not exist: {raw}")
    return raw


def _emit_report(report, args) -> None:
    print(report.to_tsv() if args.format == "tsv" else report.to_text())
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(report.to_tsv() + "\n")


def cmd_align(args) -> int:
    spaces = _load_pair(args)
    lexicon = load_lexicon(args.dict)
    _, _, kept = resolve_rows(lexicon, spaces.source, spaces.target)
    if args.self_learning:
        options = AlignmentConfig(max_iterations=args.max_iter, convergence_tol=args.tol,
                                  induction_vocab_cap=args.cap)
        pair = iterate_self_learning(spaces.source, spaces.target, lexicon, options)
    else:
        pair = align_supervised(spaces.source, spaces.target, lexicon)
    out = Path(args.out)
    _write(
        out,
        lambda: save_space(pair.source, out / "source_mapped.vec"),
        lambda: save_space(pair.target, out / "target_normalized.vec"),
        lambda: save_map(pair.map, out / "alignment.map"),
    )
    print(f"coverage {kept.mean():.4f}")
    print(f"iterations {pair.iterations_run}")
    return 0


def cmd_refine(args) -> int:
    before = _load_pair(args)
    if args.map:  # only checked: no output depends on the alignment map
        AlignedPair(before.source, before.target, load_map(args.map))
    lexicon = load_lexicon(args.dict)
    model = fit_meemi(before, lexicon)
    after = apply_meemi(model, before)
    shift = similarity_shift_report(before, after, lexicon)
    out = Path(args.out)
    _write(
        out,
        lambda: save_space(after.source, out / "source_refined.vec"),
        lambda: save_space(after.target, out / "target_refined.vec"),
        lambda: save_meemi(model, out / "meemi.model"),
    )
    print(f"pairs {model.train_pair_count}")
    print(f"mean_delta {shift.mean_delta:.6f}")
    print(f"std_delta {shift.std_delta:.6f}")
    print(f"fraction_positive {shift.fraction_positive:.6f}")
    return 0


def cmd_induce(args) -> int:
    pair = _load_pair(args)
    induced = BilingualLexicon([(pair.source.vocab[i], pair.target.vocab[j])
                                for i, j in enumerate(induce_dictionary(pair, args.cap))])
    save_lexicon(induced, args.out)
    print(f"induced {len(induced)} pairs")
    return 0


def cmd_eval_bli(args) -> int:
    pair = _load_pair(args)
    report = eval_bli(
        pair,
        load_lexicon(args.test),
        retrieval=args.retrieval,
        ks=args.k,
        csls_k=args.csls_k,
        dataset=Path(args.test).name,
    )
    _emit_report(report, args)
    return 0


def cmd_eval_sim(args) -> int:
    if args.cross != bool(args.tgt):
        args.parser.error("--cross requires --tgt" if args.cross else "--tgt requires --cross")
    report = eval_similarity(
        _load_pair(args), load_similarity(args.dataset), dataset_name=Path(args.dataset).name
    )
    _emit_report(report, args)
    return 0


def cmd_eval_hyper(args) -> int:
    pair = _load_pair(args)
    projection = fit_hypernym_projection(pair, load_hypernyms(args.train))
    report = eval_hypernyms(
        pair,
        projection,
        load_hypernyms(args.test),
        k=args.k,
        retrieval=args.retrieval,
        csls_k=args.csls_k,
        dataset_name=Path(args.test).name,
    )
    _emit_report(report, args)
    return 0


def cmd_inspect(args) -> int:
    pair = _load_pair(args)
    row = pair.source.index_of(args.word)
    if row is None:
        raise ValueError(f"word {args.word!r} is not in the source vocabulary")
    # one more is retrieved, so k remain once the word's own row is dropped
    # within one space; with --tgt no row is dropped and the extra one is cut
    own = -1 if args.tgt else row
    idx, scores = _topk(pair.source.matrix[row], pair.target, args.k + 1, args.retrieval,
                        args.csls_k, density_space=pair.source if args.tgt else None)
    neighbors = [(pair.target.vocab[j], s) for j, s in zip(idx[0], scores[0]) if j != own][: args.k]
    for rank, (token, score) in enumerate(neighbors, start=1):
        print(f"{rank}\t{token}\t{score:.4f}")
    return 0


def cmd_fixture(args) -> int:
    out = Path(args.out)
    if args.kind == "rotated":
        fx = make_rotated_pair(SyntheticSpec(args.vocab, args.dim, args.sigma, args.seed))
        writers = (
            lambda: save_space(fx.src, out / "src.vec"),
            lambda: save_space(fx.tgt, out / "tgt.vec"),
            lambda: save_lexicon(fx.gold, out / "gold.dict"),
            lambda: save_map(fx.rotation, out / "rotation.map"),
        )
    elif args.kind == "hub":
        hub = make_hub_set(args.seed)
        writers = (
            lambda: save_space(hub.targets, out / "targets.vec"),
            lambda: save_space(hub.queries, out / "queries.vec"),
            lambda: save_lexicon(hub.gold, out / "gold.dict"),
        )
    else:
        tax = make_taxonomy(SyntheticSpec(args.vocab, args.dim, args.sigma, args.seed))
        writers = (
            lambda: save_space(tax.space, out / "space.vec"),
            lambda: save_hypernyms(tax.train, out / "train.tsv"),
            lambda: save_hypernyms(tax.test, out / "test.tsv"),
            lambda: save_map(tax.true_map, out / "true.map"),
        )
    _write(out, *writers)
    print(f"fixture written to {out}")
    return 0


def _add_common(parser, *, tgt_required=True):
    parser.add_argument("--src", type=_path, required=True, help="source embedding file (.vec)")
    parser.add_argument("--tgt", type=_path, required=tgt_required, help="target embedding file")
    parser.add_argument("--limit", type=_count, default=None, help="max vocabulary per space")
    _add_verbose(parser)


def _add_verbose(parser):  # the one flag every command takes
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log each stage's progress to stderr at DEBUG")
    parser.set_defaults(parser=parser)  # the leaf parser, which reports main's usage errors


def _add_retrieval(parser):
    parser.add_argument("--retrieval", choices=RETRIEVAL_MODES, default="cosine")
    parser.add_argument("--csls-k", type=_count, default=DEFAULT_CSLS_K, dest="csls_k")


def _add_report(parser):
    parser.add_argument("--format", choices=("text", "tsv"), default="text")
    parser.add_argument("--out", default=None, help="also write a tsv report file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meemi",
        description="Align two embedding spaces, then pull translations toward their midpoint.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = AlignmentConfig()  # align's and induce's flags default to the library's

    p = sub.add_parser("align", help="supervised orthogonal alignment", allow_abbrev=False)
    _add_common(p)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--dict", type=_path, required=True, help="training dictionary")
    p.add_argument("--self-learning", action="store_true", dest="self_learning")
    p.add_argument("--max-iter", type=_count, default=defaults.max_iterations, dest="max_iter")
    p.add_argument("--tol", type=_number_type(float, lambda v: v > 0, "above 0"),
                   default=defaults.convergence_tol)
    p.add_argument("--cap", type=_count, default=defaults.induction_vocab_cap,
                   help="induction vocabulary cap")
    p.set_defaults(func=cmd_align)

    p = sub.add_parser("refine", help="meeting-in-the-middle refinement", allow_abbrev=False)
    _add_common(p)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--dict", type=_path, required=True, help="training dictionary")
    p.add_argument("--map", type=_path, default=None, help="alignment map file, only "
                   "checked (orthogonal, of the spaces' dimension); no output depends on it")
    p.set_defaults(func=cmd_refine)

    p = sub.add_parser("induce", help="write the induced nearest-neighbor dictionary",
                       allow_abbrev=False)
    _add_common(p)
    p.add_argument("--cap", type=_count, default=defaults.induction_vocab_cap)
    p.add_argument("--out", required=True, help="output dictionary file")
    p.set_defaults(func=cmd_induce)

    ev = sub.add_parser("eval", help="evaluation tasks", allow_abbrev=False)
    ev_sub = ev.add_subparsers(dest="task", required=True)

    p = ev_sub.add_parser("bli", help="bilingual dictionary induction P@k", allow_abbrev=False)
    _add_common(p)
    p.add_argument("--test", type=_path, required=True, help="test dictionary")
    p.add_argument("--k", type=_ranks, default=(1, 5, 10), help="comma list of ranks")
    _add_retrieval(p)
    _add_report(p)
    p.set_defaults(func=cmd_eval_bli)

    p = ev_sub.add_parser("sim", help="word-similarity correlations", allow_abbrev=False)
    _add_common(p, tgt_required=False)
    p.add_argument("--dataset", type=_path, required=True, help="w1 w2 score file")
    p.add_argument("--cross", action="store_true", help="look up w2 in --tgt")
    _add_report(p)
    p.set_defaults(func=cmd_eval_sim)

    p = ev_sub.add_parser("hyper", help="hypernym discovery MRR/MAP/P@5", allow_abbrev=False)
    _add_common(p, tgt_required=False)
    p.add_argument("--train", type=_path, required=True, help="training tsv")
    p.add_argument("--test", type=_path, required=True, help="test tsv")
    p.add_argument("--k", type=_count, default=DEFAULT_HYPERNYM_K)
    _add_retrieval(p)
    _add_report(p)
    p.set_defaults(func=cmd_eval_hyper)

    p = sub.add_parser("inspect", help="print nearest neighbors of one word", allow_abbrev=False)
    p.add_argument("word")
    _add_common(p, tgt_required=False)
    p.add_argument("--k", type=_count, default=10)
    _add_retrieval(p)
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("fixture", help="write synthetic benchmark files", allow_abbrev=False)
    p.add_argument("kind", choices=("rotated", "hub", "taxonomy"))
    p.add_argument("--vocab", type=_count, default=1000)
    p.add_argument("--dim", type=_count, default=50)
    p.add_argument("--sigma", type=_number_type(float, lambda v: 0 <= v < float("inf"),
                                                "finite and at least 0"), default=0.0)
    p.add_argument("--seed", type=int, default=42, help="seed of the generated data")
    _add_verbose(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_fixture)

    return parser


def main(argv: list[str] | None = None) -> int:
    logger = logging.getLogger("meemi")
    handler, level = logging.StreamHandler(sys.stderr), logger.level
    try:
        args, unknown = build_parser().parse_known_args(argv)
        if unknown:
            args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")
        if args.verbose:
            handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
            logger.addHandler(handler)
            logger.setLevel(logging.DEBUG)
        return args.func(args)
    except SystemExit as exc:  # argparse's usage errors, --help
        return exc.code if isinstance(exc.code, int) else 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
