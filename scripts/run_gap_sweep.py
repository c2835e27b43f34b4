#!/usr/bin/env python3
"""Sweep the padding gap and print the size/detection trade-off table.

Runs a byte-histogram-only pipeline (one detector, one attack) so the
sweep is cheap, then renders the gap rows as CSV on stdout. A re-run in the
same --workdir with other --gaps loads the stored features, detector and
GAN and skips training; delete the workdir to train again.
"""

import argparse
import sys

from ganevade import harness


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workdir", default=".ganevade-sweep")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--n-per-class", type=int, default=300)
    ap.add_argument("--steps", type=int, default=3000)
    ap.add_argument("--gaps", type=float, nargs="*",
                    default=list(harness.DEFAULT_GAP_SWEEP))
    args = ap.parse_args()

    cfg = harness.ExperimentConfig(
        corpus=harness.CorpusConfig(n_per_class=args.n_per_class),
        gans={"byte_histogram": harness.GanStageConfig(max_steps=args.steps)},
        detectors=[harness.DetectorSpec("byte_logreg", "logreg", ("byte",))],
        attacks=["gan_byte"],
        gap_sweep=tuple(args.gaps),
        seed=args.seed)
    report = harness.run_pipeline(cfg, args.workdir)
    print("gap,mean_size_mb,mean_appended_bytes,detection_rate")
    for row in report["gap_sweep"]:
        print(f"{row['gap']},{row['mean_size_mb']!r},"
              f"{row['mean_appended_bytes']!r},{row['detection_rate']!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
