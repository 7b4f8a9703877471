"""Command-line pipeline orchestration.

Subcommands compose into the full workflow: extract / prompts / ingest /
fuse / predict, plus the evaluation protocols (eval-cv, eval-extrapolate),
alpha tuning, clustering, and distance-matrix export. Options resolve as
defaults < JSON config file < command-line flags, every run writes a
run_metadata.json that is sufficient to reproduce it, and all randomness
comes from the required --seed.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numeric
error in the belief algebra.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path
from typing import NoReturn

import numpy as np

from . import __version__
from .alloys import UNIVERSES, Alloy, enumerate_combinations, parse_composition, parse_dataset, read_rows
from .analysis import (
    element_distance_matrix,
    hac_complete,
    hybrid_distance_matrix,
    write_matrix_csv,
)
from .errors import ConfigError, DataError, EmptySourceList, HeafusionError, NumericError
from .evaluation import (
    DEFAULT_ALPHA_GRID,
    DEFAULT_FRACTIONS,
    SourcesConfig,
    grid_search_alpha,
    run_cv_experiment,
    run_extrapolation_experiment,
    summarize_reports,
)
from .fusion import SourceReliability, estimate_reliability, fuse, write_gammas
from .inference import classify, predict_batch
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
    extract_all,
    read_store,
    write_store,
)

_SEEDED_COMMANDS = {"fuse", "eval-cv", "eval-extrapolate", "tune-alpha"}

# options that must be present after merging config-file values
_REQUIRED = {
    "extract": ("dataset",),
    "prompts": (),
    "ingest": ("responses",),
    "fuse": (),
    "predict": ("store", "training"),
    "eval-cv": ("dataset",),
    "eval-extrapolate": ("dataset",),
    "tune-alpha": ("dataset",),
    "cluster": ("store",),
    "export-distances": ("store",),
}


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


def _print_error(error: str, message: str, code: int, command: str | None) -> None:
    """The one JSON error object a failed run writes to stderr."""
    print(json.dumps({"error": error, "message": message, "exit_code": code, "command": command}),
          file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as one JSON error object, exit 2.
    Options must be spelled in full, so `_apply_config` sees every flag the
    command line set."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def parse_args(self, args=None, namespace=None):
        """argparse reports unrecognized arguments from the top-level
        parser; name the subcommand that was read instead."""
        namespace, extras = self.parse_known_args(args, namespace)
        if extras:
            self._fail(f"unrecognized arguments: {' '.join(extras)}", namespace.command)
        return namespace

    def error(self, message: str) -> NoReturn:
        self._fail(message, self.prog.partition(" ")[2] or None)

    def _fail(self, message: str, command: str | None) -> NoReturn:
        _print_error("ConfigError", message, 2, command)
        sys.exit(2)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON config file; flags override its keys")
    sub.add_argument("--seed", type=int, default=None, help="seed for all randomness")
    sub.add_argument("--jobs", type=_positive_int, default=os.cpu_count() or 1,
                     help="worker-pool cap for batch prediction, at least 1 (default: all cores)")
    sub.add_argument("--out-dir", default=".", help="directory for outputs and run metadata")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="heafusion", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("extract", help="extract a similarity store from a labeled dataset")
    _add_common(p)
    p.add_argument("--dataset", default=None)
    p.add_argument("--universe", default=None, help="preset name (E1/E2) or omit to derive")
    p.add_argument("--alpha", type=float, default=0.1)
    p.add_argument("--max-subst-size", type=_positive_int, default=None)
    p.add_argument("--out", default="md_store.csv")

    p = subs.add_parser("prompts", help="generate expert prompt records for offline querying")
    _add_common(p)
    p.add_argument("--universe", default=None)
    p.add_argument("--elements", default=None, help="comma-separated element list")
    p.add_argument("--domains", default=",".join(DEFAULT_DOMAINS))
    p.add_argument("--out", default="prompts.jsonl")

    p = subs.add_parser("ingest", help="turn an expert response file into per-domain stores")
    _add_common(p)
    p.add_argument("--responses", default=None)
    p.add_argument("--beta", type=float, default=None, help="default 1/N_domains in the file")

    p = subs.add_parser("fuse", help="discount stores by reliability and combine them")
    _add_common(p)
    p.add_argument("--store", action="append", default=[], metavar="ID=PATH")
    p.add_argument("--gamma", action="append", default=[], metavar="ID=VALUE")
    p.add_argument("--dataset", default=None, help="reference data for gamma estimation")
    p.add_argument("--universe", default=None)
    p.add_argument("--folds", type=_positive_int, default=10)
    p.add_argument("--out", default="fused_store.csv")

    p = subs.add_parser("predict", help="score candidate alloys against a store")
    _add_common(p)
    p.add_argument("--store", default=None)
    p.add_argument("--training", default=None, help="labeled dataset providing analogy hosts")
    p.add_argument("--universe", default=None)
    p.add_argument("--candidates", default=None, help="CSV with a composition column")
    p.add_argument("--enumerate", type=_positive_int, default=None, metavar="K",
                   help="score all K-element alloys over the universe instead")
    p.add_argument("--max-subst-size", type=_positive_int, default=None)
    p.add_argument("--out", default="predictions.csv")

    for name, help_text in (
        ("eval-cv", "fraction cross-validation experiment"),
        ("eval-extrapolate", "leave-element-out extrapolation experiment"),
    ):
        p = subs.add_parser(name, help=help_text)
        _add_common(p)
        p.add_argument("--dataset", default=None)
        p.add_argument("--universe", default=None)
        p.add_argument("--sources", default="md", help="comma list from {md,llm}")
        p.add_argument("--alpha", type=float, default=0.1)
        p.add_argument("--beta", type=float, default=None)
        p.add_argument("--responses", default=None, help="expert response CSV for llm sources")
        p.add_argument("--max-subst-size", type=_positive_int, default=None)
        p.add_argument("--gamma-folds", type=_positive_int, default=10)
        p.add_argument("--gamma", action="append", default=[], metavar="ID=VALUE")
        if name == "eval-cv":
            p.add_argument("--fractions", default=",".join(str(f) for f in DEFAULT_FRACTIONS))
            p.add_argument("--repeats", type=_positive_int, default=1)
            p.add_argument("--unstratified", action="store_true")
        else:
            p.add_argument("--elements", default="all", help="comma list or 'all'")

    p = subs.add_parser("tune-alpha", help="grid-search the dataset-evidence weight")
    _add_common(p)
    p.add_argument("--dataset", default=None)
    p.add_argument("--universe", default=None)
    p.add_argument("--grid", default=None, help="comma list; default 0.01..0.50 step 0.01")
    p.add_argument("--folds", type=_positive_int, default=10)
    p.add_argument("--repeats", type=_positive_int, default=3)
    p.add_argument("--max-subst-size", type=_positive_int, default=None)
    p.add_argument("--out", default="alpha.json")

    p = subs.add_parser("cluster", help="complete-linkage clustering of elements in a store")
    _add_common(p)
    p.add_argument("--store", default=None)
    p.add_argument("--universe", default=None)
    p.add_argument("--elements", default=None)

    p = subs.add_parser("export-distances", help="element and hybrid alloy distance matrices")
    _add_common(p)
    p.add_argument("--store", default=None)
    p.add_argument("--universe", default=None)
    p.add_argument("--elements", default=None)
    p.add_argument("--alloys", default=None, help="dataset CSV; enables the hybrid matrix")

    return parser


def _subcommand_actions(parser: argparse.ArgumentParser, command: str) -> dict[str, argparse.Action]:
    """The options of one subcommand, by destination."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return {a.dest: a for a in action.choices[command]._actions}
    raise ConfigError(f"unknown command {command!r}")


def _config_value(action: argparse.Action, key: str, value):
    """A config-file value as the command line would have given it: a
    JSON boolean for a flag, each item of a list for a repeatable option,
    and anything else through the option's own type, from its text."""
    if value is None:
        return None
    if action.nargs == 0:
        if not isinstance(value, bool):
            raise ConfigError(f"config key {key!r} is a flag and needs true or false, got {value!r}")
        return value
    repeatable = isinstance(action, argparse._AppendAction)
    items = value if repeatable and isinstance(value, list) else [value]
    converted = []
    for item in items:
        if isinstance(item, (bool, list, dict)):
            raise ConfigError(f"config key {key!r}: invalid value {item!r}")
        try:
            converted.append(action.type(str(item)) if action.type else str(item))
        except (ValueError, TypeError, argparse.ArgumentTypeError) as exc:
            raise ConfigError(f"config key {key!r}: invalid value {item!r} ({exc})") from None
    return converted if repeatable else converted[0]


def _apply_config(args: argparse.Namespace, argv: list[str], parser: argparse.ArgumentParser) -> None:
    """Overlay config-file values for options not set on the command line,
    passed through the parser's own types."""
    if not args.config:
        return
    try:
        config = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {args.config}: {exc}") from None
    if not isinstance(config, dict):
        raise ConfigError("config file must hold a JSON object")
    known = vars(args)
    actions = _subcommand_actions(parser, args.command)
    explicit = {token.split("=")[0].lstrip("-").replace("-", "_")
                for token in argv if token.startswith("--")}
    for key, value in config.items():
        attr = key.replace("-", "_")
        if attr in ("command", "config"):
            continue
        if attr not in known:
            raise ConfigError(f"config key {key!r} unknown for command {args.command!r}")
        if attr not in explicit:
            setattr(args, attr, _config_value(actions[attr], key, value))


def _universe_symbols(args: argparse.Namespace) -> tuple[str, ...]:
    if getattr(args, "elements", None):
        return tuple(e.strip() for e in args.elements.split(",") if e.strip())
    if args.universe:
        try:
            return UNIVERSES[args.universe]
        except KeyError:
            raise ConfigError(f"unknown universe preset {args.universe!r}") from None
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
    return [parse_composition(cell, lineno) for lineno, (cell,) in read_rows(path, ("composition",))]


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
        responses = parse_responses(args.responses)
        domains = {r.domain for r in responses}
        beta = args.beta if args.beta is not None else default_beta(len(domains))
        llm_stores = {f"llm:{d}": s for d, s in build_store(responses, beta).items()}
    overrides = {
        sid: float(v) for sid, v in _parse_assignments(args.gamma, "gamma").items()
    }
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
    responses = parse_responses(args.responses)
    domains = {r.domain for r in responses}
    beta = args.beta if args.beta is not None else default_beta(len(domains))
    stores = build_store(responses, beta)
    outputs = []
    for domain, store in sorted(stores.items()):
        out = _out_path(args, f"llm_{domain}.csv")
        write_store(store, out)
        outputs.append(out.name)
    _write_metadata(args, outputs, {"beta": beta, "domains": sorted(domains)})


def _cmd_fuse(args: argparse.Namespace) -> None:
    assignments = _parse_assignments(args.store, "store")
    if not assignments:
        raise EmptySourceList("fuse requires at least one --store ID=PATH")
    explicit = {sid: SourceReliability(sid, float(v)) for sid, v in _parse_assignments(args.gamma, "gamma").items()}
    unknown = sorted(set(explicit) - set(assignments))
    if unknown:
        raise ConfigError(f"--gamma given for {unknown}, which name no --store")
    estimated = [sid for sid in assignments if sid not in explicit]
    if estimated and args.dataset is None:
        raise ConfigError(f"no --gamma for {estimated[0]!r} and no --dataset to estimate from")
    stores = [(sid, read_store(path)) for sid, path in assignments.items()]
    dataset = parse_dataset(args.dataset, universe=args.universe) if estimated else None
    gammas = [
        explicit[sid] if sid in explicit
        else SourceReliability(sid, estimate_reliability(store, dataset, folds=args.folds, seed=args.seed))
        for sid, store in stores
    ]
    fused = fuse(stores, gammas)
    out = _out_path(args, args.out)
    write_store(fused, out)
    gamma_path = out.with_suffix(".gammas.json")
    write_gammas(gammas, gamma_path)
    _write_metadata(
        args, [out.name, gamma_path.name],
        {"gammas": {g.source_id: g.gamma for g in gammas}, "store_hash": fused.content_hash()},
    )


def _cmd_predict(args: argparse.Namespace) -> None:
    training = parse_dataset(args.training, universe=args.universe)
    store = read_store(args.store)
    if (args.candidates is None) == (args.enumerate is None):
        raise ConfigError("need exactly one of --candidates or --enumerate")
    if args.candidates:
        candidates = _read_candidates(args.candidates)
    else:
        training_sets = {la.alloy.elements for la in training.alloys}
        candidates = [
            a for a in enumerate_combinations(training.universe, args.enumerate)
            if a.elements not in training_sets
        ]
    predictions = predict_batch(
        candidates, training, store, max_subst_size=args.max_subst_size, jobs=args.jobs
    )
    out = _out_path(args, args.out)
    with out.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["composition", "m_hea", "m_not_hea", "m_uncertain", "score", "label_at_0.5", "n_analogies"])
        for p, positive in zip(predictions, classify([p.score for p in predictions])):
            writer.writerow(
                [p.candidate.composition(), f"{p.mass.m_first:.17g}", f"{p.mass.m_second:.17g}",
                 f"{p.mass.m_both:.17g}", f"{p.score:.17g}", int(positive), p.n_analogies]
            )
    _write_metadata(args, [out.name], {"n_candidates": len(candidates)})


def _cmd_eval_cv(args: argparse.Namespace) -> None:
    dataset = parse_dataset(args.dataset, universe=args.universe)
    sources = _sources_from_args(args)
    fractions = [float(f) for f in str(args.fractions).split(",") if str(f).strip()]
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
                    if any(e in la.alloy.elements for la in dataset.alloys)]
    else:
        elements = [e.strip() for e in args.elements.split(",") if e.strip()]
    reports = run_extrapolation_experiment(dataset, sources, elements, seed=args.seed, jobs=args.jobs)
    outputs = _write_reports(args, reports)
    _write_metadata(args, outputs, {"summary": summarize_reports(reports)})


def _cmd_tune_alpha(args: argparse.Namespace) -> None:
    dataset = parse_dataset(args.dataset, universe=args.universe)
    grid = (
        [float(a) for a in args.grid.split(",")] if args.grid else list(DEFAULT_ALPHA_GRID)
    )
    best = grid_search_alpha(
        dataset, grid=grid, folds=args.folds, repeats=args.repeats, seed=args.seed,
        max_subst_size=args.max_subst_size,
    )
    out = _out_path(args, args.out)
    out.write_text(json.dumps({"alpha": best, "grid": grid}, indent=2) + "\n", encoding="utf-8")
    _write_metadata(args, [out.name], {"alpha": best})


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
    outputs = []
    symbols = _universe_symbols(args)
    matrix = element_distance_matrix(store, symbols)
    element_path = _out_path(args, "element_distances.csv")
    write_matrix_csv(matrix, symbols, element_path)
    outputs.append(element_path.name)
    if args.alloys:
        dataset = parse_dataset(args.alloys, universe=args.universe)
        alloys = [la.alloy for la in dataset.alloys]
        hybrid = hybrid_distance_matrix(alloys, store)
        hybrid_path = _out_path(args, "hybrid_distances.csv")
        write_matrix_csv(hybrid, [a.composition() for a in alloys], hybrid_path)
        outputs.append(hybrid_path.name)
    _write_metadata(args, outputs)


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
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config(args, argv, parser)
        missing = [opt for opt in _REQUIRED[args.command] if getattr(args, opt) is None]
        if missing:
            raise ConfigError(
                f"{args.command} requires {', '.join('--' + m for m in missing)} (flag or config)"
            )
        if args.command in _SEEDED_COMMANDS and args.seed is None:
            raise ConfigError(f"{args.command} requires --seed (flag or config)")
        _HANDLERS[args.command](args)
        return 0
    except (HeafusionError, ValueError, OSError, KeyError) as exc:
        code = _exit_code(exc)
        _print_error(type(exc).__name__, str(exc), code, args.command)
        return code


if __name__ == "__main__":
    sys.exit(main())
