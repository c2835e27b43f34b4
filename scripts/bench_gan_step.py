#!/usr/bin/env python3
"""Time one WGAN-GP training step of the byte-histogram GAN.

Trains the byte preset (batch ``gan.BATCH_SIZE``, 64) on fixed
random histograms for ``--steps`` steps, ``--repeats`` times, and prints the
median and interquartile range of milliseconds per step, then
``train_peak_mb``: the ``tracemalloc`` peak of one more, untimed training
run with the same config (the timed repeats are not traced). Last comes the
SHA-256 of the trained generator and critic parameter arrays. Every run
trains from the same seed, so the hash is the same on every run, and
under any ``OPENBLAS_NUM_THREADS``; the exit status is 1 when the runs
disagree. A change that keeps the hash while lowering the step time has not
moved the arithmetic. One that reorders float operations, as the
closed-form critic step did, moves it and has to show that the pipeline's
rates hold. The closed-form generator step kept the hash: ``--steps 300``
at seed 0 prints ``405511569a1ee03b…``.

Usage (from the checkout root)::

    PYTHONPATH=src python3 scripts/bench_gan_step.py --steps 300 --repeats 5
"""

import argparse
import hashlib
import statistics
import sys
import time
import tracemalloc

import numpy as np

from ganevade import gan


def weights_sha256(model: gan.GanModel) -> str:
    h = hashlib.sha256()
    for net in (model.generator, model.critic):
        for p in net.parameters():
            h.update(p.tobytes())
    return h.hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--steps", type=int, default=300)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    if args.steps < 1 or args.repeats < 3:
        ap.error("need --steps >= 1 and --repeats >= 3")

    preset = gan.PRESETS["byte_histogram"]
    rng = np.random.default_rng(args.seed)
    benign = rng.dirichlet(np.ones(preset.input_dim), size=512)
    malicious = rng.dirichlet(np.ones(preset.input_dim), size=512)
    # one matrix with each class's row indices, as the pipeline passes it
    x = np.vstack([benign, malicious])
    rows = np.arange(len(benign)), np.arange(len(benign), len(x))
    cfg = gan.TrainingConfig(max_steps=args.steps)

    ms_per_step = []
    hashes = set()
    for _ in range(args.repeats):
        start = time.perf_counter()
        model = gan.train(x, *rows, preset, cfg, args.seed)
        ms_per_step.append((time.perf_counter() - start) / args.steps * 1e3)
        hashes.add(weights_sha256(model))

    tracemalloc.start()
    try:
        model = gan.train(x, *rows, preset, cfg, args.seed)
        train_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    hashes.add(weights_sha256(model))

    q1, med, q3 = statistics.quantiles(ms_per_step, n=4, method="inclusive")
    print(f"byte preset, batch {gan.BATCH_SIZE}, {args.steps} steps "
          f"x {args.repeats} repeats, seed {args.seed}")
    print("ms_per_step runs " + " ".join(f"{v:.2f}" for v in ms_per_step))
    print(f"ms_per_step median {med:.2f} iqr {q3 - q1:.2f} "
          f"(q1 {q1:.2f}, q3 {q3:.2f})")
    print(f"train_peak_mb {train_peak / 2**20:.2f}")
    for digest in sorted(hashes):
        print(f"weights_sha256 {digest}")
    # every run trains from the same seed: two hashes mean nondeterminism
    return 0 if len(hashes) == 1 else 1


if __name__ == "__main__":
    sys.exit(main())
