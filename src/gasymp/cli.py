"""Command-line front end.

Subcommands: analyze, invariants, verify-paper, embed, cache-clear.
Exit codes: 0 success, 1 verification failure, 2 usage/parse error,
3 resource cap reached (partial results flagged; analyze and invariants).
"""

from __future__ import annotations

import argparse
import sys

from . import cache as cache_mod
from . import suite as suite_mod
from .comparison import build_embedding, embedding_checks
from .groebner import GroebnerCaps, NotCompleted
from .report import (RunConfig, analyze, parse_level, parse_rational, render_invariants,
                     render_structured, render_text)
from .reps import RepSpecError, parse_rep

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_CAP = 3


def _degree_bound(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"degree bound must be non-negative, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gasymp",
        description="Moment maps, level-set geometry, stability, and invariant "
                    "rings for linear additive-group actions on cotangent spaces.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, analysis: bool = True):
        """rep, --caps and --cache-dir; with ``analysis`` also the flags
        of a report."""
        p.add_argument("rep", help="representation spec, e.g. sym1^2+sym3")
        if analysis:
            p.add_argument("--level", default="0",
                           help="rational level or 'generic' (default 0)")
            p.add_argument("--deg-bound", type=_degree_bound, default=6,
                           help="certification degree bound (default 6)")
            p.add_argument("--naming", choices=("std", "cox"), default="std",
                           help="variable naming in printed polynomials")
            p.add_argument("--format", dest="fmt", choices=("text", "structured"),
                           default="text", help="output format")
        p.add_argument("--caps", default=None, metavar="DEGREE,PAIRS",
                       help="Groebner resource caps (default 40,200000)")
        p.add_argument("--cache-dir", default=None,
                       help="disk cache directory (env GASYMP_CACHE_DIR; "
                            "'none' disables caching)")

    p_analyze = sub.add_parser("analyze", help="full pipeline for one representation")
    p_analyze.set_defaults(run=_cmd_analyze)
    common(p_analyze)

    p_inv = sub.add_parser("invariants", help="invariant-ring computation only")
    p_inv.set_defaults(run=_cmd_invariants)
    common(p_inv)

    p_verify = sub.add_parser("verify-paper", help="run the reproduction suite")
    p_verify.set_defaults(run=_cmd_verify_paper)
    p_verify.add_argument("--only", default=None,
                          help="run criteria matching this id or tag (e.g. 6.2)")
    p_verify.add_argument("--list", action="store_true", dest="list_only",
                          help="list criterion ids without running")
    p_verify.add_argument("--cache-dir", default=None, help="disk cache directory or 'none'")

    p_embed = sub.add_parser("embed", help="build and verify a level-set embedding")
    p_embed.set_defaults(run=_cmd_embed)
    p_embed.add_argument("--kind", choices=("i", "j"), default="i")
    p_embed.add_argument("--param", default="1", help="nonzero rational parameter")
    common(p_embed, analysis=False)

    p_clear = sub.add_parser("cache-clear", help="remove cached results")
    p_clear.set_defaults(run=_cmd_cache_clear)
    p_clear.add_argument("--cache-dir", default=None)
    return parser


def _parse_caps(text: str | None) -> GroebnerCaps:
    if not text:
        return GroebnerCaps()
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError("caps must be DEGREE,PAIRS")
    degree, pairs = (int(part) for part in parts)
    if degree < 0 or pairs < 0:
        raise ValueError(f"caps must be non-negative, got {text}")
    return GroebnerCaps(max_degree=degree, max_pairs=pairs)


def _cache_directory(cache_dir: str | None) -> str | None:
    """The directory a --cache-dir value (else GASYMP_CACHE_DIR, else the
    default) names; None for 'none' (no cache)."""
    directory = cache_dir or cache_mod.default_cache_dir()
    return None if directory == "none" else directory


def _setup_cache(cache_dir: str | None) -> None:
    directory = _cache_directory(cache_dir)
    cache_mod.set_active_cache(None if directory is None else cache_mod.DiskCache(directory))


def _config_from_args(args) -> RunConfig:
    return RunConfig(
        rep_spec=args.rep,
        level=parse_level(args.level),
        degree_bound=args.deg_bound,
        caps=_parse_caps(args.caps),
        naming=args.naming,
    )


def _emit(doc: dict, fmt: str) -> None:
    if fmt == "structured":
        sys.stdout.write(render_structured(doc))
    else:
        sys.stdout.write(render_text(doc))


def _run_analysis(config: RunConfig, emit) -> int:
    """Analyze, pass the report to ``emit`` and return the exit code: EXIT_CAP
    when a resource cap stops the pipeline or the level-set invariants end in
    CapReached, EXIT_OK otherwise."""
    try:
        doc = analyze(config)
    except NotCompleted as exc:
        sys.stderr.write(f"resource cap reached: {exc.message}\n")
        return EXIT_CAP
    emit(doc)
    inv = doc.get("invariants", {})
    level_set = inv.get("level_set") if isinstance(inv, dict) else None
    if level_set and level_set.get("termination") == "CapReached":
        sys.stderr.write("note: invariant computation reached a resource cap; "
                         "the report is partial where flagged\n")
        return EXIT_CAP
    return EXIT_OK


def _cmd_analyze(args) -> int:
    _setup_cache(args.cache_dir)
    config = _config_from_args(args)
    return _run_analysis(config, lambda doc: _emit(doc, args.fmt))


def _cmd_invariants(args) -> int:
    _setup_cache(args.cache_dir)
    config = _config_from_args(args)
    return _run_analysis(config, lambda doc: _emit_invariants(doc, args.fmt))


def _emit_invariants(doc: dict, fmt: str) -> None:
    slim = {
        "schema_version": doc["schema_version"],
        "config": doc["config"],
        "invariants": doc.get("invariants", doc.get("degenerate")),
        "timings": None,
    }
    if fmt == "structured":
        sys.stdout.write(render_structured(slim))
    else:
        sys.stdout.write("\n".join(render_invariants(slim["invariants"])) + "\n")


def _cmd_verify_paper(args) -> int:
    _setup_cache(args.cache_dir)
    if args.list_only:
        for cid, title, tags in suite_mod.list_criteria():
            sys.stdout.write(f"{cid:>3}  {title}  [{', '.join(tags)}]\n")
        return EXIT_OK
    results = suite_mod.run_criteria(only=args.only)
    if not results:
        sys.stderr.write(f"no criteria match {args.only!r}\n")
        return EXIT_USAGE
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        sys.stdout.write(f"{status} criterion {res.cid}: {res.title} ({res.elapsed:.2f}s)\n")
        if not res.passed:
            failed += 1
            for line in res.details:
                if line.startswith(("FAIL", "ERROR")):
                    sys.stdout.write(f"     {line}\n")
    sys.stdout.write(f"{len(results) - failed}/{len(results)} criteria passed\n")
    return EXIT_OK if failed == 0 else EXIT_FAIL


def _cmd_embed(args) -> int:
    _setup_cache(args.cache_dir)
    caps = _parse_caps(args.caps)
    rep = parse_rep(args.rep)
    if rep.is_trivial:
        sys.stderr.write("trivial action: no embedding to build\n")
        return EXIT_USAGE
    param = parse_rational(args.param)
    emb = build_embedding(rep, args.kind, param)
    checks = embedding_checks(rep, emb, caps)
    for name, comp in zip(emb.map.target.names, emb.map.components):
        sys.stdout.write(f"{name} <- {comp}\n")
    for key, ok in checks.items():
        sys.stdout.write(f"{key}: {ok}\n")
    return EXIT_OK if all(checks.values()) else EXIT_FAIL


def _cmd_cache_clear(args) -> int:
    directory = _cache_directory(args.cache_dir)
    if directory is None:
        sys.stdout.write("caching is disabled ('none'): nothing to clear\n")
        return EXIT_OK
    removed = cache_mod.DiskCache(directory).clear()
    sys.stdout.write(f"removed {removed} cached entries from {directory}\n")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.run(args)
    except (RepSpecError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
