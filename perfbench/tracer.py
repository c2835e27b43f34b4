"""Span recorder for the traced benchmark run, and the per-layer summary.

``main`` runs inside the measured ``ganevade`` child process. It replaces
the module attributes that callers look up (``harness.stage_extract``,
``gan.grad``, ``petk.parse`` ...) by wrappers that record one span per
call in memory, runs the CLI, and writes every span out when it returns.
It also records, as a zero-length ``harness.family_read`` span, the first
read of each feature family from the run's ``FeatureTable``. Nothing under
``src/`` changes. ``summarize`` turns the spans into the per-layer metrics.

Usage (from the checkout root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/tracer.py SPANS_OUT RUN_ID -- pipeline --config C --workdir W --seed N
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

# harness attribute -> span name; run_pipeline looks the stages up as globals
STAGES = (
    ("stage_corpus", "harness.corpus"),
    ("stage_extract", "harness.extract"),
    ("stage_detectors", "harness.train-detector"),
    ("stage_gans", "harness.train-gan"),
    ("stage_attacks", "harness.attack"),
    ("stage_evaluate", "harness.evaluate"),
)
# module -> public functions wrapped where their callers look them up
FUNCTIONS = {
    "gan": ("train", "critic_loss", "grad", "adam_step", "generator_loss",
            "generate"),
    "features": ("extract_strings", "hash_features", "byte_histogram",
                 "extract_imports", "vectorize", "save_matrix"),
    "petk": ("parse", "append_overlay", "extend_imports", "add_section"),
    "padopt": ("plan_for",),
    "detectors": ("train_detector", "detection_rate"),
    "baselines": ("benign_injection",),
    "checkpoint": ("save_container", "load_container"),
}
# gan imports nncore.grad by name: under critic_loss it builds the
# gradient-penalty graph, directly under train it is the backward pass
GAN_GRAD_NAMES = {"gan.critic_loss": "gan.gp_grad", "gan.train": "gan.backward"}
# called once per file: these also get latency percentiles
PER_FILE = ("features.extract_strings", "features.hash_features",
            "features.byte_histogram", "features.extract_imports",
            "features.vectorize", "petk.parse", "petk.append_overlay",
            "petk.extend_imports", "petk.add_section", "padopt.plan_for",
            "gan.generate", "baselines.benign_injection")
TIMED = ("gan.train", "gan.critic_loss", "gan.gp_grad", "gan.backward",
         "gan.adam_step", "gan.generator_loss", "gan.generate",
         *(f"{m}.{f}" for m, fs in FUNCTIONS.items() if m != "gan" for f in fs))
# event span: a feature family read from the FeatureTable for the first time
FAMILY_READ = "harness.family_read"
# what a call's result adds to its span, for the count metrics
EXTRA = {
    "padopt.plan_for": lambda plan, args: {"appended": int(plan.total_appended)},
    "checkpoint.save_container": lambda _, args: {"bytes": os.path.getsize(args[0])},
}


def _layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = [(f"{name}.s", "s", "lower") for _, name in STAGES]
    out += [("trace.pipeline_s", "s", "lower"),
            ("trace.overhead_s", "s", "lower"),
            ("trace.stage_share", "ratio", "higher")]
    for name in TIMED:
        better = "higher" if name == "checkpoint.load_container" else "lower"
        out += [(f"{name}.calls", "count", better),
                (f"{name}.self_s", "s", "lower")]
        if name in PER_FILE:
            out += [(f"{name}.p50_us", "us", "lower"),
                    (f"{name}.p99_us", "us", "lower")]
    out += [("gan.steps", "count", "lower"), ("gan.step_ms", "ms", "lower"),
            ("features.family_use_ratio", "ratio", "higher"),
            ("padopt.appended_bytes", "bytes", "lower"),
            ("checkpoint.bytes_written", "bytes", "lower"),
            ("harness.attack.size_overhead_kb", "KB", "lower")]
    return out


LAYER_METRICS = _layer_metrics()


class Tracer:
    """Spans in memory: [id, name, start, end, parent id, run id, extra]."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.families_read: set[str] = set()

    def call(self, name: str, fn, args, kwargs):
        span = [len(self.spans), name, time.perf_counter(), None,
                self.stack[-1] if self.stack else None, self.run_id, None]
        self.spans.append(span)
        self.stack.append(span[0])
        try:
            result = fn(*args, **kwargs)
        finally:
            span[3] = time.perf_counter()
            self.stack.pop()
        if name in EXTRA:
            span[6] = EXTRA[name](result, args)
        return result

    def read_families(self, families) -> None:
        for family in families:
            if family not in self.families_read:
                self.families_read.add(family)
                now = time.perf_counter()
                self.spans.append([len(self.spans), FAMILY_READ, now, now,
                                   self.stack[-1] if self.stack else None,
                                   self.run_id, {"family": family}])

    def watch_families(self, table_cls) -> None:
        """Record the families a FeatureTable hands out: by key from its
        ``matrices`` (detector training, GAN training) and per file through
        ``vector_for`` (attacks, evaluation). Writing every matrix out
        iterates ``matrices.items()`` and counts as no read."""
        tracer = self

        class ReadRecorder(dict):
            def __getitem__(self, family):
                tracer.read_families((family,))
                return super().__getitem__(family)

        init, vector_for = table_cls.__init__, table_cls.vector_for

        @functools.wraps(init)
        def traced_init(table, *args, **kwargs):
            init(table, *args, **kwargs)
            table.matrices = ReadRecorder(table.matrices)

        @functools.wraps(vector_for)
        def traced_vector_for(table, feats, spec_families):
            self.read_families(spec_families)
            return vector_for(table, feats, spec_families)

        table_cls.__init__ = traced_init
        table_cls.vector_for = traced_vector_for

    def wrap(self, module, attr: str, name: str) -> None:
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name
            if name == "gan.grad" and self.stack:
                label = GAN_GRAD_NAMES.get(self.spans[self.stack[-1]][1], name)
            return self.call(label, fn, args, kwargs)

        setattr(module, attr, wrapper)

    def install(self) -> None:
        harness = importlib.import_module("ganevade.harness")
        for attr, name in STAGES:
            self.wrap(harness, attr, name)
        self.watch_families(harness.FeatureTable)
        for mod_name, attrs in FUNCTIONS.items():
            module = importlib.import_module(f"ganevade.{mod_name}")
            for attr in attrs:
                self.wrap(module, attr, f"{mod_name}.{attr}")

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 when there are no values."""
    if not sorted_values:
        return 0.0
    rank = max(1, -int(-q * len(sorted_values) // 1))
    return sorted_values[rank - 1]


def summarize(spans: list[list]) -> dict[str, float]:
    """Per-layer values from recorded spans. A span's self time is its
    duration minus that of its child spans."""
    duration = [end - start for _, _, start, end, _, _, _ in spans]
    children = [0.0] * len(spans)
    by_name: dict[str, list[int]] = {}
    for span_id, name, _, _, parent, _, _ in spans:
        if parent is not None:
            children[parent] += duration[span_id]
        by_name.setdefault(name, []).append(span_id)

    def total(name, extra_key=None):
        ids = by_name.get(name, [])
        if extra_key is None:
            return sum(duration[i] for i in ids)
        return sum(spans[i][6][extra_key] for i in ids if spans[i][6])

    values: dict[str, float] = {f"{name}.s": total(name) for _, name in STAGES}
    for name in TIMED:
        ids = by_name.get(name, [])
        values[f"{name}.calls"] = len(ids)
        values[f"{name}.self_s"] = sum(duration[i] - children[i] for i in ids)
        if name in PER_FILE:
            us = sorted(duration[i] * 1e6 for i in ids)
            values[f"{name}.p50_us"] = _percentile(us, 0.50)
            values[f"{name}.p99_us"] = _percentile(us, 0.99)
    steps = sum(1 for i in by_name.get("gan.critic_loss", [])
                if spans[spans[i][4]][1] == "gan.train")
    values["gan.steps"] = steps
    values["gan.step_ms"] = total("gan.train") / steps * 1e3 if steps else 0.0
    read = {spans[i][6]["family"] for i in by_name.get(FAMILY_READ, [])}
    written = len(by_name.get("features.save_matrix", []))
    values["features.family_use_ratio"] = len(read) / written if written else 0.0
    values["padopt.appended_bytes"] = total("padopt.plan_for", "appended")
    values["checkpoint.bytes_written"] = total("checkpoint.save_container", "bytes")
    return values


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        raise SystemExit("usage: tracer.py SPANS_OUT RUN_ID -- CLI_ARGS...")
    out_path, run_id, _, *cli_args = argv
    tracer = Tracer(run_id)
    tracer.install()
    from ganevade import cli

    try:
        return tracer.call("cli.main", cli.main, (cli_args,), {})
    finally:
        tracer.write(out_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
