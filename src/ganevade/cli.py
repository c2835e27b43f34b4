"""Command-line front end for the evasion toolkit.

Exit codes: 0 success, 2 configuration error (found when the config
loads, before anything is written), 3 pipeline stage failure, such as a
file read back whose bytes differ from those its manifest records.
A stage subcommand runs every upstream stage, then its own. Every
artifact resumes from the working directory by one rule,
``harness._resume``: one stored under the key of its inputs loads, any
other is recomputed, and ``train-detector``, ``train-gan`` and ``attack``
say which. A change to an attack field re-runs only the attacks that read
it, and the evaluation of those.
Delete the working directory to force a cold run.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import harness
from .harness import ConfigError, ExperimentConfig, PipelineState, StageError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_STAGE = 3


def _load_cfg(args) -> ExperimentConfig:
    cfg = (harness.load_config(args.config) if args.config
           else ExperimentConfig())
    if getattr(args, "seed", None) is not None:
        # replace() runs the config checks again on the new seed
        cfg = dataclasses.replace(cfg, seed=args.seed)
    return cfg


def _state(args) -> PipelineState:
    # the stages create the working directory as they write into it, so a
    # config error leaves nothing behind
    return PipelineState(cfg=_load_cfg(args), workdir=Path(args.workdir))


def _verb(state: PipelineState, kind: str, name: str,
          done: str = "trained") -> str:
    """Whether this run made (``done``) the ``kind`` artifact ``name`` or
    loaded it."""
    return done if (kind, name) in state.computed else "loaded"


def cmd_gen_corpus(args) -> int:
    state = _state(args)
    harness.run_stages(state, "corpus")
    print(f"corpus ready: {len(state.blobs)} files under "
          f"{state.workdir / 'corpus'}")
    return EXIT_OK


def cmd_extract(args) -> int:
    state = _state(args)
    harness.run_stages(state, "extract")
    table = state.table
    print(f"extracted {len(table.names)} files: " + ", ".join(
        f"{fam} (vocab {len(table.vocabs[fam])})" if fam in table.vocabs
        else fam for fam in table.matrices))
    return EXIT_OK


def cmd_train_detector(args) -> int:
    state = _state(args)
    if args.name:
        # in place: replace()'s byte-detector rule is for attacks, not run here
        state.cfg.detectors = [d for d in state.cfg.detectors
                               if d.name == args.name]
        if not state.cfg.detectors:
            raise ConfigError(f"no detector named {args.name!r} in config")
    harness.run_stages(state, "train-detector")
    for name in state.detector_models:
        print(f"{_verb(state, 'detector', name)} detector {name}")
    return EXIT_OK


def cmd_train_gan(args) -> int:
    state = _state(args)
    if args.kind:
        # the attack that needs this GAN kind alone
        # in place: replace()'s byte-detector rule is for attacks, not run here
        state.cfg.attacks = [name for name in harness.ATTACKS
                             if harness.attack_gans(name) == (args.kind,)]
    harness.run_stages(state, "train-gan")
    for kind, model in state.gan_models.items():
        print(f"{_verb(state, 'gan', kind)} {kind} model: "
              f"{model.training_meta}")
    return EXIT_OK


def cmd_attack(args) -> int:
    state = _state(args)
    if args.attack:
        # replace() runs the config checks again on the new roster
        state.cfg = dataclasses.replace(state.cfg, attacks=[args.attack])
    harness.run_stages(state, "attack")
    for name, out in state.attack_outputs.items():
        print(f"attack {name}: {len(out)} files "
              f"{_verb(state, 'attack', name, 'rewritten')}, "
              f"queries={out.meta['query_count']}, "
              f"warnings={len(out.meta['warnings'])}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    report = harness.run_pipeline(_load_cfg(args), args.workdir)
    print(json.dumps(harness.report_without_runtime(report), sort_keys=True,
                     indent=1))
    return EXIT_OK


def cmd_pipeline(args) -> int:
    report = harness.run_pipeline(_load_cfg(args), args.workdir)
    print(f"pipeline complete; report at {Path(args.workdir) / 'report.json'}")
    for det, rate in sorted(report["original_rates"].items()):
        print(f"  {det}: original={rate:.3f}", end="")
        for attack in sorted(report["attack_rates"]):
            print(f" {attack}={report['attack_rates'][attack][det]:.3f}", end="")
        print()
    return EXIT_OK


def cmd_report(args) -> int:
    path = Path(args.workdir) / "report.json"
    try:
        report = json.loads(path.read_text())
        if not isinstance(report, dict):
            raise TypeError("the report is not a JSON object")
        text = harness.render_report(report, args.format)
        if args.out:
            Path(args.out).write_text(text)
            print(f"wrote {args.out}")
        else:
            print(text, end="")
    except Exception as exc:
        raise StageError("report", f"{path}: {type(exc).__name__}: {exc}") from exc
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ganevade",
        description="Query-free GAN evasion toolkit for PE malware features")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="experiment config JSON")
        p.add_argument("--workdir", default=str(harness.default_workdir()),
                       help="artifact directory (default from "
                            f"{harness.CACHE_ENV_VAR} or .ganevade)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")

    p = sub.add_parser("gen-corpus", help="generate the labeled PE corpus")
    common(p)
    p.set_defaults(fn=cmd_gen_corpus)

    p = sub.add_parser("extract", help="extract features and vocabularies")
    common(p)
    p.set_defaults(fn=cmd_extract)

    p = sub.add_parser("train-detector", help="fit surrogate detectors")
    common(p)
    p.add_argument("--name", help="train only this detector from the config")
    p.set_defaults(fn=cmd_train_detector)

    p = sub.add_parser("train-gan", help="train feature-transformation models")
    common(p)
    p.add_argument("--kind", choices=harness.GAN_KINDS)
    p.set_defaults(fn=cmd_train_gan)

    p = sub.add_parser("attack", help="rewrite test files with an attack")
    common(p)
    p.add_argument("--attack", choices=harness.ATTACKS,
                   help="run only this attack")
    p.set_defaults(fn=cmd_attack)

    p = sub.add_parser("evaluate", help="run everything and print rates")
    common(p)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("report", help="render a stored report")
    common(p)
    p.add_argument("--format", choices=("json", "csv", "markdown"),
                   default="markdown")
    p.add_argument("--out", help="write to a file instead of stdout")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("pipeline", help="full run: corpus through report")
    common(p)
    p.set_defaults(fn=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STAGE


if __name__ == "__main__":
    sys.exit(main())
