"""Command-line front end: align, refine, induce, eval, inspect, fixture.

Exit codes: 0 success, 1 runtime or data error, 2 usage error. Every
command accepts one ``--config FILE`` holding ``key=value`` lines that act
as flag defaults; flags given on the command line win. Every command accepts
``-v/--verbose``, which logs each stage's progress to stderr at DEBUG;
stdout is the same with or without it. All randomness flows from
``--seed``, so identical inputs and seed produce byte-identical output
files.

``align``, ``refine`` and ``fixture`` write their output files through
``_write_all``: where ``os.fork`` exists, every file but the first is
written by a forked child while this process writes the first, so text
formatting (one float ``repr`` per component) runs on more than one core
and the bytes stay the same. The child is safe because it runs only its
writer, which formats and writes files without BLAS or logging, and then
leaves through ``os._exit``, so no atexit hook or stdio flush runs in it;
glibc malloc and OpenBLAS register fork handlers, so neither is left locked
in the child. Python 3.12 and later may emit a ``DeprecationWarning`` when
forking while OpenBLAS threads are alive; it is left visible, not silenced.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

import numpy as np

from .alignment import (
    AlignedPair,
    AlignmentConfig,
    align_supervised,
    induce_dictionary,
)
from .embeddings import load_space, save_space
from .evaluation import (
    _topk,
    eval_bli,
    eval_hypernyms,
    eval_similarity,
    fit_hypernym_projection,
)
from .fixtures import SyntheticSpec, make_hub_set, make_rotated_pair, make_taxonomy
from .lexicon import (
    load_hypernyms,
    load_lexicon,
    load_similarity,
    resolve,
    save_hypernyms,
    save_lexicon,
)
from .refinement import apply_meemi, fit_meemi, save_meemi, similarity_shift_report
from .solvers import LinearMap, load_map, save_map


class UsageError(Exception):
    """Bad arguments or missing input files; maps to exit code 2."""


def _require_paths(args, *flags: str) -> None:
    """Raise UsageError for the first given ``--flag`` path that does not exist."""
    for flag in flags:
        path = getattr(args, flag)
        if path is not None and not os.path.exists(path):
            raise UsageError(f"--{flag} path does not exist: {path}")


def _identity_pair(src, tgt, limit=None) -> AlignedPair:
    src_space = load_space(src, limit)
    tgt_space = load_space(tgt, limit)
    identity = LinearMap(np.eye(src_space.dim), orthogonal=True)
    return AlignedPair(src_space, tgt_space, identity, iterations_run=0)


def _parse_ks(raw: str) -> tuple[int, ...]:
    try:
        ks = tuple(int(part) for part in raw.split(",") if part.strip())
    except ValueError:
        raise UsageError(f"--k expects integers like '1,5,10', got {raw!r}") from None
    if not ks or min(ks) < 1:
        raise UsageError("--k ranks must be positive")
    return ks


def _write_all(*writers) -> None:
    """Call every writer: the first here, each other one in a forked child.

    The children are always reaped, and each writer whose child did not exit
    0 (or could not be forked) runs again here, so a failing write raises its
    own exception. Without ``os.fork`` the writers run here in order.
    """
    fork = getattr(os, "fork", None)
    children = []
    try:
        for write in writers[1:] if fork else ():
            try:
                pid = fork()
            except OSError:  # no process to spare: the writer runs here below
                pid = None
            if pid == 0:
                status = 1
                try:
                    write()
                    status = 0
                finally:
                    os._exit(status)
            children.append((pid, write))
        writers[0]()
    finally:
        failed = [write for pid, write in children if pid is None or os.waitpid(pid, 0)[1]]
    for write in failed if fork else writers[1:]:
        write()


def _emit_report(report, args) -> None:
    print(report.to_tsv() if args.format == "tsv" else report.to_text())
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(report.to_tsv() + "\n")


def cmd_align(args) -> int:
    config = AlignmentConfig(
        self_learning=args.self_learning,
        max_iterations=args.max_iter,
        convergence_tol=args.tol,
        induction_vocab_cap=args.cap,
    )
    _require_paths(args, "src", "tgt", "dict")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    src = load_space(args.src, args.limit)
    tgt = load_space(args.tgt, args.limit)
    lexicon = load_lexicon(args.dict)
    _, coverage = resolve(lexicon, src, tgt)
    pair = align_supervised(src, tgt, lexicon, config)
    _write_all(
        lambda: save_space(pair.source, out / "source_mapped.vec"),
        lambda: save_space(pair.target, out / "target_normalized.vec"),
        lambda: save_map(pair.map, out / "alignment.map"),
    )
    print(f"coverage {coverage:.4f}")
    print(f"iterations {pair.iterations_run}")
    return 0


def cmd_refine(args) -> int:
    _require_paths(args, "src", "tgt", "dict", "map")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    src = load_space(args.src, args.limit)
    tgt = load_space(args.tgt, args.limit)
    alignment_map = (
        load_map(args.map) if args.map else LinearMap(np.eye(src.dim), orthogonal=True)
    )
    before = AlignedPair(src, tgt, alignment_map, iterations_run=0)
    lexicon = load_lexicon(args.dict)
    model = fit_meemi(before, lexicon)
    after = apply_meemi(model, before)
    shift = similarity_shift_report(before, after, lexicon)
    _write_all(
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
    _require_paths(args, "src", "tgt")
    pair = _identity_pair(args.src, args.tgt, args.limit)
    induced = induce_dictionary(pair, args.cap)
    save_lexicon(induced, args.out)
    print(f"induced {len(induced)} pairs")
    return 0


def cmd_eval_bli(args) -> int:
    _require_paths(args, "src", "tgt", "test")
    pair = _identity_pair(args.src, args.tgt, args.limit)
    report = eval_bli(
        pair,
        load_lexicon(args.test),
        retrieval=args.retrieval,
        ks=_parse_ks(args.k),
        csls_k=args.csls_k,
        dataset=Path(args.test).name,
    )
    _emit_report(report, args)
    return 0


def cmd_eval_sim(args) -> int:
    _require_paths(args, "src", "tgt", "dataset")
    if args.cross != bool(args.tgt):
        raise UsageError("--cross requires --tgt" if args.cross else "--tgt requires --cross")
    space_a = load_space(args.src, args.limit)
    space_b = load_space(args.tgt, args.limit) if args.cross else space_a
    report = eval_similarity(
        space_a, space_b, load_similarity(args.dataset), dataset_name=Path(args.dataset).name
    )
    _emit_report(report, args)
    return 0


def cmd_eval_hyper(args) -> int:
    _require_paths(args, "src", "tgt", "test", "train")
    if args.tgt:
        space = _identity_pair(args.src, args.tgt, args.limit)
    else:
        space = load_space(args.src, args.limit)
    projection = fit_hypernym_projection(space, load_hypernyms(args.train))
    report = eval_hypernyms(
        space,
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
    if args.k < 1:
        raise UsageError("--k must be at least 1")
    _require_paths(args, "src", "tgt")
    src = load_space(args.src, args.limit)
    row = src.index_of(args.word)
    if row is None:
        raise ValueError(f"word {args.word!r} is not in the source vocabulary")
    candidates = load_space(args.tgt, args.limit) if args.tgt else src
    # within one space the word's own row is dropped, so one more is retrieved
    own = -1 if args.tgt else row
    k = args.k if args.tgt else args.k + 1
    idx, scores = _topk(src.matrix[row], candidates, k, args.retrieval, args.csls_k,
                        density_space=src if args.tgt else None)
    neighbors = [(candidates.vocab[j], s) for j, s in zip(idx[0], scores[0]) if j != own][: args.k]
    for rank, (token, score) in enumerate(neighbors, start=1):
        print(f"{rank}\t{token}\t{score:.4f}")
    return 0


def cmd_fixture(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.kind == "rotated":
        fx = make_rotated_pair(SyntheticSpec(args.vocab, args.dim, args.sigma, args.seed))
        _write_all(
            lambda: save_space(fx.src, out / "src.vec"),
            lambda: save_space(fx.tgt, out / "tgt.vec"),
            lambda: save_lexicon(fx.gold, out / "gold.dict"),
            lambda: save_map(fx.rotation, out / "rotation.map"),
        )
    elif args.kind == "hub":
        hub = make_hub_set(args.seed)
        _write_all(
            lambda: save_space(hub.targets, out / "targets.vec"),
            lambda: save_space(hub.queries, out / "queries.vec"),
            lambda: save_lexicon(hub.gold, out / "gold.dict"),
        )
    else:
        tax = make_taxonomy(SyntheticSpec(args.vocab, args.dim, args.sigma, args.seed))
        _write_all(
            lambda: save_space(tax.space, out / "space.vec"),
            lambda: save_hypernyms(tax.train, out / "train.tsv"),
            lambda: save_hypernyms(tax.test, out / "test.tsv"),
            lambda: save_map(tax.true_map, out / "true.map"),
        )
    print(f"fixture written to {out}")
    return 0


def _add_common(parser, *, tgt_required=True, with_out=False):
    parser.add_argument("--src", required=True, help="source embedding file (.vec)")
    parser.add_argument("--tgt", required=tgt_required, default=None, help="target embedding file")
    parser.add_argument("--limit", type=int, default=None, help="max vocabulary per space")
    parser.add_argument("--seed", type=int, default=42,
                        help="accepted for uniform scripts; only `fixture` draws random numbers")
    parser.add_argument("--config", default=None, help="key=value defaults file")
    _add_verbose(parser)
    if with_out:
        parser.add_argument("--out", required=True, help="output directory")


def _add_verbose(parser):
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log each stage's progress to stderr at DEBUG")


def _add_retrieval(parser):
    parser.add_argument("--retrieval", choices=("cosine", "csls"), default="cosine")
    parser.add_argument("--csls-k", type=int, default=10, dest="csls_k")


def _add_report(parser):
    parser.add_argument("--format", choices=("text", "tsv"), default="text")
    parser.add_argument("--out", default=None, help="also write a tsv report file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meemi",
        description="Align two embedding spaces, then pull translations toward their midpoint.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("align", help="supervised orthogonal alignment", allow_abbrev=False)
    _add_common(p, with_out=True)
    p.add_argument("--dict", required=True, help="training dictionary")
    p.add_argument("--self-learning", action="store_true", dest="self_learning")
    p.add_argument("--max-iter", type=int, default=50, dest="max_iter")
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--cap", type=int, default=20000, help="induction vocabulary cap")
    p.set_defaults(func=cmd_align)

    p = sub.add_parser("refine", help="meeting-in-the-middle refinement", allow_abbrev=False)
    _add_common(p, with_out=True)
    p.add_argument("--dict", required=True, help="training dictionary")
    p.add_argument("--map", default=None, help="alignment map file (optional)")
    p.set_defaults(func=cmd_refine)

    p = sub.add_parser("induce", help="write the induced nearest-neighbor dictionary",
                       allow_abbrev=False)
    _add_common(p)
    p.add_argument("--cap", type=int, default=20000)
    p.add_argument("--out", required=True, help="output dictionary file")
    p.set_defaults(func=cmd_induce)

    ev = sub.add_parser("eval", help="evaluation tasks", allow_abbrev=False)
    ev_sub = ev.add_subparsers(dest="task")

    p = ev_sub.add_parser("bli", help="bilingual dictionary induction P@k", allow_abbrev=False)
    _add_common(p)
    p.add_argument("--test", required=True, help="test dictionary")
    p.add_argument("--k", default="1,5,10", help="comma list of ranks")
    _add_retrieval(p)
    _add_report(p)
    p.set_defaults(func=cmd_eval_bli)

    p = ev_sub.add_parser("sim", help="word-similarity correlations", allow_abbrev=False)
    _add_common(p, tgt_required=False)
    p.add_argument("--dataset", required=True, help="w1 w2 score file")
    p.add_argument("--cross", action="store_true", help="look up w2 in --tgt")
    _add_report(p)
    p.set_defaults(func=cmd_eval_sim)

    p = ev_sub.add_parser("hyper", help="hypernym discovery MRR/MAP/P@5", allow_abbrev=False)
    _add_common(p, tgt_required=False)
    p.add_argument("--train", required=True, help="training tsv")
    p.add_argument("--test", required=True, help="test tsv")
    p.add_argument("--k", type=int, default=15)
    _add_retrieval(p)
    _add_report(p)
    p.set_defaults(func=cmd_eval_hyper)

    p = sub.add_parser("inspect", help="print nearest neighbors of one word", allow_abbrev=False)
    p.add_argument("word")
    _add_common(p, tgt_required=False)
    p.add_argument("--k", type=int, default=10)
    _add_retrieval(p)
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("fixture", help="write synthetic benchmark files", allow_abbrev=False)
    p.add_argument("kind", choices=("rotated", "hub", "taxonomy"))
    p.add_argument("--vocab", type=int, default=1000)
    p.add_argument("--dim", type=int, default=50)
    p.add_argument("--sigma", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None, help="key=value defaults file")
    _add_verbose(p)
    p.set_defaults(func=cmd_fixture)

    return parser


BOOL_KEYS = {"self-learning", "self_learning", "cross", "verbose"}
TRUE_WORDS = {"1", "true", "yes", "on"}
FALSE_WORDS = {"0", "false", "no", "off"}


def _load_config_args(path) -> list[str]:
    if not os.path.exists(path):
        raise UsageError(f"--config path does not exist: {path}")
    flags: list[str] = []
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{line_no}: expected key=value")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            flag = "--" + key.replace("_", "-")
            if key in BOOL_KEYS:
                if value.lower() in TRUE_WORDS:
                    flags.append(flag)
                elif value.lower() not in FALSE_WORDS:
                    raise UsageError(f"{path}:{line_no}: boolean key {key} needs true/false")
            else:
                flags.extend([flag, value])
    return flags


def _apply_config(argv: list[str]) -> list[str]:
    """Splice config-file defaults in ahead of explicit flags."""
    argv = [part for arg in argv
            for part in (arg.split("=", 1) if arg.startswith("--config=") else [arg])]
    if "--config" not in argv:
        return argv
    if argv.count("--config") > 1:
        raise UsageError("--config may be given only once")
    i = argv.index("--config")
    if i + 1 >= len(argv):
        raise UsageError("--config needs a file path")
    defaults = _load_config_args(argv[i + 1])
    rest = argv[:i] + argv[i + 2:]
    lead = 0
    while lead < len(rest) and not rest[lead].startswith("-"):
        lead += 1
    return rest[:lead] + defaults + rest[lead:]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _apply_config(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if getattr(args, "func", None) is None:
        parser.print_usage(sys.stderr)
        return 2
    logger = logging.getLogger("meemi")
    handler, level = logging.StreamHandler(sys.stderr), logger.level
    if args.verbose:
        handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
        logger.addHandler(handler)
        logger.setLevel(logging.DEBUG)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
