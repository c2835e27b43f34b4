#!/usr/bin/env python3
"""Time the PE writers, lenient PE parsing and the signed hashing trick on a
synthetic corpus.

Each repeat builds ``--files`` synthetic PEs in memory with
``petk.synth_pe``, drawing each file's imports and strings from the default
corpus pools, and adds each file's ``extend_imports`` rewrite, as an attack
writes it. It times both writers per file, then a lenient ``petk.parse`` of
every file and ``hash_features`` of every file's import tokens and string
tokens (``hash_dim`` 1280). For each it prints the median and interquartile
range of microseconds per call over ``--repeats`` repeats. Then comes
``topk_peak_mb``: the ``tracemalloc`` peak of one more, untimed
``select_topk`` of the pipeline's default ``k_strings`` over every file's
string tokens, as extract ranks the strings vocabulary. Last come two
SHA-256 hashes: ``features_sha256`` over every file's import tokens and
hashed vectors, and ``files_sha256`` over the bytes of every file the
writers built. Each is the same on every repeat, and the exit status is 1
when the repeats disagree. A change to the writers that keeps
``files_sha256`` has not moved a written byte; one to the parser or the
hasher that keeps ``features_sha256`` has not moved the features.

Every repeat runs in one process, as the pipeline does: from the second
repeat on, ``hash_features`` finds each token's bucket in its memo.

Usage (from the checkout root)::

    PYTHONPATH=src python3 scripts/bench_features.py --files 200 --repeats 5
"""

import argparse
import hashlib
import statistics
import sys
import time
import tracemalloc

import numpy as np

from ganevade import features, harness, petk


def corpus(n_files: int, seed: int) -> list[tuple[petk.SynthSpec, int, list]]:
    """``n_files`` synthetic PE specs, each with its ``synth_pe`` seed and
    the tokens its import rewrite adds."""
    every_api = sorted(tok for tokens, *_ in harness.API_POOLS
                       for tok in tokens)
    rng = np.random.default_rng(seed)
    files = []
    for i in range(n_files):
        label = ("benign", "malicious")[i % 2]
        spec = petk.SynthSpec(
            sections=[petk.SectionSpec(".text", size=int(rng.integers(512, 2048)))],
            imports=harness._sample_tokens(harness.API_POOLS, label, rng),
            strings=harness._sample_tokens(harness.STRING_POOLS, label, rng))
        file_seed = int(rng.integers(0, 2**31))
        added = [str(t) for t in rng.choice(every_api, size=4, replace=False)]
        files.append((spec, file_seed, added))
    return files


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--files", type=int, default=200)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    if args.files < 1 or args.repeats < 3:
        ap.error("need --files >= 1 and --repeats >= 3")

    files = corpus(args.files, args.seed)
    us = {"synth_pe": [], "extend_imports": [], "parse": [],
          "hash_features": []}
    digests, file_digests = set(), set()
    for _ in range(args.repeats):
        start = time.perf_counter()
        made = [petk.synth_pe(spec, seed=file_seed)
                for spec, file_seed, _ in files]
        us["synth_pe"].append((time.perf_counter() - start) / len(made) * 1e6)
        parsed = [petk.parse(data) for data in made]
        start = time.perf_counter()
        rewrites = [petk.extend_imports(pe, added)[0].data
                    for pe, (_, _, added) in zip(parsed, files)]
        us["extend_imports"].append(
            (time.perf_counter() - start) / len(rewrites) * 1e6)
        blobs = [data for pair in zip(made, rewrites) for data in pair]
        file_digests.add(hashlib.sha256(b"".join(
            hashlib.sha256(data).digest() for data in blobs)).hexdigest())
        strings = [features.extract_strings(data) for data in blobs]

        start = time.perf_counter()
        images = [petk.parse(data, strict=False) for data in blobs]
        us["parse"].append((time.perf_counter() - start) / len(blobs) * 1e6)
        imports = [features.extract_imports(pe) for pe in images]

        start = time.perf_counter()
        vectors = [features.hash_features(tokens, features.DEFAULT_HASH_DIM)
                   for family in (imports, strings) for tokens in family]
        us["hash_features"].append(
            (time.perf_counter() - start) / len(vectors) * 1e6)

        h = hashlib.sha256()
        for tokens in imports:
            h.update("\n".join(sorted(tokens)).encode("utf-8") + b"\x00")
        for vec in vectors:
            h.update(vec.tobytes())
        digests.add(h.hexdigest())

    print(f"{len(blobs)} files ({args.files} synthetic PEs and their import "
          f"rewrites) x {args.repeats} repeats, seed {args.seed}")
    for name, runs in us.items():
        q1, med, q3 = statistics.quantiles(runs, n=4, method="inclusive")
        print(f"{name} us_per_call runs " + " ".join(f"{v:.1f}" for v in runs))
        print(f"{name} us_per_call median {med:.1f} iqr {q3 - q1:.1f} "
              f"(q1 {q1:.1f}, q3 {q3:.1f})")

    tracemalloc.start()
    try:
        features.select_topk(strings, harness.FeatureConfig().k_strings)
        topk_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    print(f"topk_peak_mb {topk_peak / 2**20:.2f}")
    for digest in sorted(digests):
        print(f"features_sha256 {digest}")
    for digest in sorted(file_digests):
        print(f"files_sha256 {digest}")
    # the same corpus on every repeat: two hashes mean something moved
    return 0 if len(digests) == len(file_digests) == 1 else 1


if __name__ == "__main__":
    sys.exit(main())
