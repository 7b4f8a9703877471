"""Command-line pipeline orchestration.

Subcommands compose into the full workflow: extract / prompts / ingest /
fuse / predict, plus the evaluation protocols (eval-cv, eval-extrapolate),
alpha tuning, clustering, and distance-matrix export. Options resolve as
defaults < JSON config file < command-line flags: a config file is read as
the flags it stands for, and argparse checks those and the command line in
one pass. Every run writes a run_metadata.json that is sufficient to
reproduce it, and all randomness comes from --seed, which the four
commands that draw any (fuse, eval-cv, eval-extrapolate, tune-alpha)
require.

`main` returns the exit code: 0 success, 2 configuration error (a bad
option or config value, or a file that cannot be opened), 3 data error,
4 numeric error in the belief algebra.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict
from itertools import islice
from pathlib import Path
from typing import NoReturn

import numpy as np

from . import __version__
from .alloys import (
    BLOCK_ROWS,
    ELEMENT_SYMBOLS,
    UNIVERSES,
    Alloy,
    enumerate_combinations,
    parse_composition,
    parse_dataset,
    read_blocks,
)
from .analysis import (
    element_distance_matrix,
    hac_complete,
    hybrid_distance_matrix,
    write_matrix_csv,
)
from .belief import from_weights
from .errors import ConfigError, DataError, EmptySourceList, GammaOutOfRange, HeafusionError, NumericError
from .evaluation import (
    DEFAULT_ALPHA_GRID,
    DEFAULT_FRACTIONS,
    SourcesConfig,
    grid_search_alpha,
    run_cv_experiment,
    run_extrapolation_experiment,
    summarize_reports,
)
# estimate_reliability is unused here; it stays while the benchmark's tracer wraps heafusion.cli.estimate_reliability
from .fusion import estimate_reliability, fuse, source_gammas, write_gammas  # noqa: F401
from .inference import classify, predict_batch, usable_cpus
from .llm_evidence import (
    DEFAULT_DOMAINS,
    build_store,
    default_beta,
    generate_prompts,
    parse_responses,
    write_prompts,
)
from .md_evidence import (
    CombinationPair,
    ExtractionConfig,
    SimilarityStore,
    extract_all,
    read_store,
    write_store,
)

_PRESETS = sorted(UNIVERSES)


def _count(minimum: int):
    """argparse type of an integer option that must be at least `minimum`."""

    def count(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be an integer >= {minimum}, got {text!r}")
        return value

    return count


_positive_int = _count(1)
_at_least_two = _count(2)


class _Parser(argparse.ArgumentParser):
    """Raises ConfigError for a malformed command line, which `main`
    reports like any other failure. Options must be spelled in full, so a
    config key is skipped exactly when its flag is on the command line."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message: str) -> NoReturn:
        raise ConfigError(message)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON config file; flags override its keys")
    sub.add_argument("--jobs", type=_positive_int, default=usable_cpus(),
                     help="worker-pool cap for batch prediction, at least 1 (default: the CPUs this process may use)")
    sub.add_argument("--out-dir", default=".", help="directory for outputs and run metadata")


def build_parser() -> _Parser:
    """The heafusion parser; its `commands` attribute maps each subcommand
    to its own parser."""
    parser = _Parser(prog="heafusion", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    parser.commands = subs.choices

    p = subs.add_parser("extract", help="extract a similarity store from a labeled dataset")
    _add_common(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--universe", choices=_PRESETS, help="preset name, or omit to derive")
    p.add_argument("--alpha", type=float, default=0.1)
    p.add_argument("--max-subst-size", type=_positive_int, default=None)
    p.add_argument("--out", default="md_store.csv")

    p = subs.add_parser("prompts", help="generate expert prompt records for offline querying")
    _add_common(p)
    p.add_argument("--universe", choices=_PRESETS)
    p.add_argument("--elements", default=None, help="comma-separated element list")
    p.add_argument("--domains", default=",".join(DEFAULT_DOMAINS))
    p.add_argument("--out", default="prompts.jsonl")

    p = subs.add_parser("ingest", help="turn an expert response file into per-domain stores")
    _add_common(p)
    p.add_argument("--responses", required=True)
    p.add_argument("--beta", type=float, default=None, help="default 1/N_domains in the file")

    p = subs.add_parser("fuse", help="discount stores by reliability and combine them")
    _add_common(p)
    p.add_argument("--seed", type=int, required=True, help="seed for all randomness")
    p.add_argument("--store", action="append", default=[], metavar="ID=PATH")
    p.add_argument("--gamma", action="append", default=[], metavar="ID=VALUE")
    p.add_argument("--dataset", default=None, help="reference data for gamma estimation")
    p.add_argument("--universe", choices=_PRESETS)
    p.add_argument("--folds", type=_at_least_two, default=10)
    p.add_argument("--out", default="fused_store.csv")

    p = subs.add_parser("predict", help="score candidate alloys against a store")
    _add_common(p)
    p.add_argument("--store", required=True)
    p.add_argument("--training", required=True, help="labeled dataset providing analogy hosts")
    p.add_argument("--universe", choices=_PRESETS)
    candidates = p.add_mutually_exclusive_group(required=True)
    candidates.add_argument("--candidates", help="CSV with a composition column")
    candidates.add_argument("--enumerate", type=_at_least_two, metavar="K",
                            help="score all K-element alloys over the universe instead")
    p.add_argument("--max-subst-size", type=_positive_int, default=None)
    p.add_argument("--out", default="predictions.csv")

    for name, help_text in (
        ("eval-cv", "fraction cross-validation experiment"),
        ("eval-extrapolate", "leave-element-out extrapolation experiment"),
    ):
        p = subs.add_parser(name, help=help_text)
        _add_common(p)
        p.add_argument("--seed", type=int, required=True, help="seed for all randomness")
        p.add_argument("--dataset", required=True)
        p.add_argument("--universe", choices=_PRESETS)
        p.add_argument("--sources", default="md", help="comma list from {md,llm}")
        p.add_argument("--alpha", type=float, default=0.1)
        p.add_argument("--beta", type=float, default=None)
        p.add_argument("--responses", default=None, help="expert response CSV for llm sources")
        p.add_argument("--max-subst-size", type=_positive_int, default=None)
        p.add_argument("--gamma-folds", type=_at_least_two, default=10)
        p.add_argument("--gamma", action="append", default=[], metavar="ID=VALUE")
        if name == "eval-cv":
            p.add_argument("--fractions", default=",".join(str(f) for f in DEFAULT_FRACTIONS))
            p.add_argument("--repeats", type=_positive_int, default=1)
            p.add_argument("--unstratified", action="store_true")
        else:
            p.add_argument("--elements", default="all", help="comma list or 'all'")

    p = subs.add_parser("tune-alpha", help="grid-search the dataset-evidence weight")
    _add_common(p)
    p.add_argument("--seed", type=int, required=True, help="seed for all randomness")
    p.add_argument("--dataset", required=True)
    p.add_argument("--universe", choices=_PRESETS)
    p.add_argument("--grid", default=None, help="comma list; default 0.01..0.50 step 0.01")
    p.add_argument("--folds", type=_at_least_two, default=10)
    p.add_argument("--repeats", type=_positive_int, default=3)
    p.add_argument("--max-subst-size", type=_positive_int, default=None)
    p.add_argument("--out", default="alpha.json")

    p = subs.add_parser("cluster", help="complete-linkage clustering of elements in a store")
    _add_common(p)
    p.add_argument("--store", required=True)
    p.add_argument("--universe", choices=_PRESETS)
    p.add_argument("--elements", default=None)

    p = subs.add_parser("export-distances", help="element and hybrid alloy distance matrices")
    _add_common(p)
    p.add_argument("--store", required=True)
    p.add_argument("--universe", choices=_PRESETS)
    p.add_argument("--elements", default=None)
    p.add_argument("--alloys", default=None, help="dataset CSV; enables the hybrid matrix")

    return parser


def _config_text(key: str, value) -> str:
    """One config value as command-line text: a string or a number, and
    like every command-line argument free of NUL characters."""
    text = str(value)
    if isinstance(value, (bool, list, dict)) or "\0" in text:
        raise ConfigError(f"config key {key!r}: invalid value {value!r}")
    return text


def _config_flags(sub: argparse.ArgumentParser, rest: list[str]) -> tuple[list[str], list[str]]:
    """The flags that a --config file among a subcommand's command-line
    tokens `rest` stands for: `--key=value` for each key the command line
    leaves unset, so that its flags win. A JSON list repeats a repeatable
    option, `true` is a bare flag and `false` leaves a flag unset; the
    option's default tells which it is (a list, or False). The keys whose
    value is null, which leaves their option at its default, come second."""
    pre = _Parser(add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(rest)[0].config
    if path is None:
        return [], []
    try:
        config = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # not JSON, or not UTF-8
        raise ConfigError(f"config file {path}: {exc}") from None
    if not isinstance(config, dict):
        raise ConfigError("config file must hold a JSON object")
    given = {token.partition("=")[0] for token in rest}
    flags, nulls = [], []
    for key, value in config.items():
        flag = "--" + key.replace("_", "-")
        if key in ("command", "config") or flag in given:
            continue
        kind = sub.get_default(key.replace("-", "_"))
        if value is None:
            nulls.append(key)
        elif kind is False and isinstance(value, bool):
            flags += [flag] if value else []
        elif isinstance(kind, list) and isinstance(value, list):
            flags += [f"{flag}={_config_text(key, item)}" for item in value]
        else:
            flags.append(f"{flag}={_config_text(key, value)}")
    return flags, nulls


def _element_list(text: str) -> tuple[str, ...]:
    """The symbols of a comma-separated --elements list: at least one, all
    distinct and in the element table."""
    symbols = tuple(e.strip() for e in text.split(",") if e.strip())
    if not symbols:
        raise ConfigError(f"--elements names no symbol: {text!r}")
    unknown = sorted(set(symbols) - set(ELEMENT_SYMBOLS))
    if unknown:
        raise ConfigError(f"--elements names symbols outside the element table: {unknown}")
    if len(set(symbols)) != len(symbols):
        raise ConfigError(f"--elements names a symbol twice: {text!r}")
    return symbols


def _universe_symbols(args: argparse.Namespace) -> tuple[str, ...]:
    """The --elements symbols, else the --universe preset."""
    if args.elements is not None:
        return _element_list(args.elements)
    if args.universe:
        return UNIVERSES[args.universe]
    raise ConfigError("need --universe or --elements")


def _parse_assignments(pairs: list[str], what: str) -> dict[str, str]:
    """ID -> VALUE of repeated --what ID=VALUE options; an ID given twice
    is a ConfigError."""
    out = {}
    for token in pairs:
        if "=" not in token:
            raise ConfigError(f"--{what} expects ID=VALUE, got {token!r}")
        key, value = token.split("=", 1)
        if key in out:
            raise ConfigError(f"--{what} {key!r} given twice")
        out[key] = value
    return out


def _number(text: str, option: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"--{option} expects numbers, got {text!r}") from None


def _gammas(args: argparse.Namespace) -> dict[str, float]:
    """Source ID -> reliability of the --gamma options, each in [0, 1]."""
    gammas = {sid: _number(v, "gamma") for sid, v in _parse_assignments(args.gamma, "gamma").items()}
    for sid, gamma in gammas.items():
        if not 0.0 <= gamma <= 1.0:
            raise GammaOutOfRange(f"gamma for {sid!r} must lie in [0, 1], got {gamma!r}")
    return gammas


def _expert_stores(args: argparse.Namespace) -> tuple[float, dict[str, SimilarityStore]]:
    """The beta used, --beta or 1/N over the domains of the --responses
    file, and that file's store per domain."""
    responses = parse_responses(args.responses)
    beta = args.beta if args.beta is not None else default_beta(len({r.domain for r in responses}))
    return beta, build_store(responses, beta)


def _write_metadata(args: argparse.Namespace, outputs: list[str], extra: dict | None = None) -> None:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    config = {
        k: v for k, v in vars(args).items() if k not in ("command", "config") and v is not None
    }
    payload = {
        "command": args.command,
        "config": config,
        "outputs": outputs,
        "versions": {
            "heafusion": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
    }
    if extra:
        payload.update(extra)
    (out_dir / "run_metadata.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n", encoding="utf-8"
    )


def _out_path(args: argparse.Namespace, name: str) -> Path:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir / name


def _read_candidates(path: str) -> list[Alloy]:
    return [parse_composition(cell, lineno) for block in read_blocks(path, ("composition",))
            for lineno, cell in zip(block.rows.tolist(), *block.columns)]


def _sources_from_args(args: argparse.Namespace) -> SourcesConfig:
    wanted = {s.strip() for s in args.sources.split(",") if s.strip()}
    unknown = wanted - {"md", "llm"}
    if unknown:
        raise ConfigError(f"unknown sources {sorted(unknown)}")
    if not wanted:
        raise EmptySourceList("no sources selected")
    llm_stores = {}
    if "llm" in wanted:
        if not args.responses:
            raise ConfigError("--responses is required when llm is among the sources")
        llm_stores = {f"llm:{d}": s for d, s in _expert_stores(args)[1].items()}
        if not llm_stores:
            raise EmptySourceList(f"--responses {args.responses} yields no expert store")
    overrides = _gammas(args)
    return SourcesConfig(
        use_md="md" in wanted,
        md_alpha=args.alpha,
        max_subst_size=args.max_subst_size,
        llm_stores=llm_stores,
        gamma_folds=args.gamma_folds,
        gamma_overrides=overrides or None,
    )


def _write_reports(args: argparse.Namespace, reports) -> list[str]:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = []
    reports_path = out_dir / "reports.json"
    reports_path.write_text(
        json.dumps([asdict(r) for r in reports], indent=2) + "\n", encoding="utf-8"
    )
    outputs.append(reports_path.name)
    metrics_path = out_dir / "metrics.csv"
    with metrics_path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["kind", "key", "repeat", "n_test", "accuracy", "accuracy_youden", "macro_f1", "auc"]
        )
        for r in reports:
            writer.writerow(
                [r.kind, r.key, r.repeat, r.n_test,
                 f"{r.accuracy:.17g}", f"{r.accuracy_youden:.17g}",
                 f"{r.macro_f1:.17g}", f"{r.auc:.17g}"]
            )
    outputs.append(metrics_path.name)
    for r in reports:
        roc_path = out_dir / f"roc_{r.key.replace('=', '_')}_{r.repeat}.csv"
        with roc_path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["fpr", "tpr"])
            for fpr, tpr in r.roc:
                writer.writerow([f"{fpr:.17g}", f"{tpr:.17g}"])
        outputs.append(roc_path.name)
    summary_path = out_dir / "summary.json"
    summary_path.write_text(json.dumps(summarize_reports(reports), indent=2) + "\n", encoding="utf-8")
    outputs.append(summary_path.name)
    return outputs


def _cmd_extract(args: argparse.Namespace) -> None:
    dataset = parse_dataset(args.dataset, universe=args.universe)
    store = extract_all(dataset, ExtractionConfig(args.alpha, args.max_subst_size))
    out = _out_path(args, args.out)
    write_store(store, out)
    _write_metadata(args, [out.name], {"n_pairs": len(store), "store_hash": store.content_hash()})


def _cmd_prompts(args: argparse.Namespace) -> None:
    symbols = _universe_symbols(args)
    pairs = [
        CombinationPair((a,), (b,))
        for i, a in enumerate(sorted(symbols))
        for b in sorted(symbols)[i + 1:]
    ]
    domains = [d.strip() for d in args.domains.split(",") if d.strip()]
    records = generate_prompts(pairs, domains)
    out = _out_path(args, args.out)
    write_prompts(records, out)
    _write_metadata(args, [out.name], {"n_records": len(records)})


def _cmd_ingest(args: argparse.Namespace) -> None:
    beta, stores = _expert_stores(args)
    outputs = []
    for domain, store in sorted(stores.items()):
        out = _out_path(args, f"llm_{domain}.csv")
        write_store(store, out)
        outputs.append(out.name)
    _write_metadata(args, outputs, {"beta": beta, "domains": sorted(stores)})


def _cmd_fuse(args: argparse.Namespace) -> None:
    assignments = _parse_assignments(args.store, "store")
    if not assignments:
        raise EmptySourceList("fuse requires at least one --store ID=PATH")
    given = _gammas(args)
    unknown = sorted(set(given) - set(assignments))
    if unknown:
        raise ConfigError(f"--gamma given for {unknown}, which name no --store")
    estimated = [sid for sid in assignments if sid not in given]
    if estimated and args.dataset is None:
        raise ConfigError(f"no --gamma for {estimated[0]!r} and no --dataset to estimate from")
    stores = [(sid, read_store(path)) for sid, path in assignments.items()]
    dataset = parse_dataset(args.dataset, universe=args.universe) if estimated else None
    gammas = source_gammas(stores, given, dataset, folds=args.folds, seed=args.seed)
    fused = fuse(stores, gammas)
    out = _out_path(args, args.out)
    write_store(fused, out)
    gamma_path = out.with_suffix(".gammas.json")
    write_gammas(gammas, gamma_path)
    _write_metadata(args, [out.name, gamma_path.name], {"gammas": gammas, "store_hash": fused.content_hash()})


def _cmd_predict(args: argparse.Namespace) -> None:
    training = parse_dataset(args.training, universe=args.universe)
    store = read_store(args.store)
    if args.candidates:
        candidates = _read_candidates(args.candidates)
    else:
        training_sets = {a.elements for a in training.alloys}
        candidates = [
            a for a in enumerate_combinations(training.universe, args.enumerate)
            if a.elements not in training_sets
        ]
    predictions = predict_batch(
        candidates, training, store, max_subst_size=args.max_subst_size, jobs=args.jobs
    )
    masses = from_weights(predictions.w_pos, predictions.w_neg)
    # the lines csv.writer writes: a composition joins element symbols with "-" and needs no quoting
    rows = zip(
        [c.composition() for c in candidates], *(m.tolist() for m in masses), predictions.score.tolist(),
        classify(predictions.score), predictions.n_analogies.tolist(),
    )
    line = "%s,%.17g,%.17g,%.17g,%.17g,%d,%d\r\n"
    out = _out_path(args, args.out)
    with out.open("w", newline="", encoding="utf-8") as fh:
        fh.write("composition,m_hea,m_not_hea,m_uncertain,score,label_at_0.5,n_analogies\r\n")
        while block := list(islice(rows, BLOCK_ROWS)):
            fh.write("".join([line % row for row in block]))
    _write_metadata(args, [out.name], {"n_candidates": len(candidates)})


def _cmd_eval_cv(args: argparse.Namespace) -> None:
    dataset = parse_dataset(args.dataset, universe=args.universe)
    sources = _sources_from_args(args)
    fractions = [_number(f, "fractions") for f in args.fractions.split(",") if f.strip()]
    if not fractions:
        raise ConfigError(f"--fractions names no fraction: {args.fractions!r}")
    if len(set(fractions)) != len(fractions):
        raise ConfigError(f"--fractions names a fraction twice: {args.fractions!r}")
    reports = run_cv_experiment(
        dataset, sources, fractions=fractions, seed=args.seed, repeats=args.repeats,
        stratified=not args.unstratified, jobs=args.jobs,
    )
    outputs = _write_reports(args, reports)
    _write_metadata(args, outputs, {"summary": summarize_reports(reports)})


def _cmd_eval_extrapolate(args: argparse.Namespace) -> None:
    dataset = parse_dataset(args.dataset, universe=args.universe)
    sources = _sources_from_args(args)
    if args.elements == "all":
        elements = [e for e in dataset.universe
                    if any(e in a.elements for a in dataset.alloys)]
    else:
        elements = list(_element_list(args.elements))
    reports = run_extrapolation_experiment(dataset, sources, elements, seed=args.seed, jobs=args.jobs)
    outputs = _write_reports(args, reports)
    _write_metadata(args, outputs, {"summary": summarize_reports(reports)})


def _cmd_tune_alpha(args: argparse.Namespace) -> None:
    dataset = parse_dataset(args.dataset, universe=args.universe)
    grid = list(DEFAULT_ALPHA_GRID) if args.grid is None else [_number(a, "grid") for a in args.grid.split(",")]
    scores: dict[float, float] = {}
    best = grid_search_alpha(
        dataset, grid=grid, folds=args.folds, repeats=args.repeats, seed=args.seed,
        max_subst_size=args.max_subst_size, scores=scores,
    )
    out = _out_path(args, args.out)
    out.write_text(json.dumps({"alpha": best, "grid": grid}, indent=2) + "\n", encoding="utf-8")
    alpha_scores = [{"alpha": alpha, "mean_macro_f1": score} for alpha, score in scores.items()]
    _write_metadata(args, [out.name], {"alpha": best, "alpha_scores": alpha_scores})


def _cmd_cluster(args: argparse.Namespace) -> None:
    store = read_store(args.store)
    symbols = _universe_symbols(args)
    matrix = element_distance_matrix(store, symbols)
    dendrogram = hac_complete(matrix, symbols)
    json_path = _out_path(args, "dendrogram.json")
    dendrogram.write_json(json_path)
    newick_path = _out_path(args, "dendrogram.newick")
    newick_path.write_text(dendrogram.to_newick() + "\n", encoding="utf-8")
    _write_metadata(args, [json_path.name, newick_path.name], {"n_elements": len(symbols)})


def _cmd_export_distances(args: argparse.Namespace) -> None:
    store = read_store(args.store)
    symbols = _universe_symbols(args)
    matrices = [("element_distances.csv", element_distance_matrix(store, symbols), symbols)]
    if args.alloys:
        alloys = parse_dataset(args.alloys, universe=args.universe).alloys
        matrices.append(("hybrid_distances.csv", hybrid_distance_matrix(alloys, store),
                         [a.composition() for a in alloys]))
    for name, matrix, labels in matrices:
        write_matrix_csv(matrix, labels, _out_path(args, name))
    _write_metadata(args, [name for name, _, _ in matrices])


_HANDLERS = {
    "extract": _cmd_extract,
    "prompts": _cmd_prompts,
    "ingest": _cmd_ingest,
    "fuse": _cmd_fuse,
    "predict": _cmd_predict,
    "eval-cv": _cmd_eval_cv,
    "eval-extrapolate": _cmd_eval_extrapolate,
    "tune-alpha": _cmd_tune_alpha,
    "cluster": _cmd_cluster,
    "export-distances": _cmd_export_distances,
}


def _exit_code(exc: Exception) -> int:
    if isinstance(exc, NumericError):
        return 4
    if isinstance(exc, DataError):
        return 3
    return 2


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand and return its exit code. A malformed command
    line or config value is a ConfigError; every failure is printed as one
    JSON object on stderr. Only --help and --version exit."""
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv and argv[0] in _HANDLERS else None
    try:
        parser = build_parser()
        flags, nulls = _config_flags(parser.commands[command], argv[1:]) if command else ([], [])
        args = parser.parse_args(argv[:1] + flags + argv[1:])
        unknown = [key for key in nulls if not hasattr(args, key.replace("-", "_"))]
        if unknown:
            raise ConfigError(f"config keys {unknown} name no option of {command}")
        _HANDLERS[args.command](args)
        return 0
    except (HeafusionError, OSError) as exc:
        code = _exit_code(exc)
        print(json.dumps({"error": type(exc).__name__, "message": str(exc), "exit_code": code, "command": command}),
              file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
