#!/usr/bin/env python3
"""ganevade benchmark: the user-facing CLI driven as a closed loop.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload byte_gan --seed 0 --seconds 50 --trace 0

One process, one ``ganevade`` child at a time. Set-up writes the corpus
with ``ganevade gen-corpus`` five times (``setup_s`` is the median; a warm
workload adds one priming ``ganevade pipeline`` and keeps a copy of the
primed workdir). The measured call is ``ganevade pipeline`` in that workdir,
repeated while the next call is expected to end within ``--seconds``; every
run measures at least one whole pipeline. Each call starts from the same
state: the corpus alone, or the primed copy. With ``--trace 1`` the run
makes one untraced call, then one call under ``perfbench/tracer.py``, and
reports the per-layer metrics instead of the end-to-end ones.

Every metric is printed with its unit; the last stdout line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``. The full record
(versions, hashes, failed checks) goes to ``.perfbench_out/``. See
``perfbench/README.md`` for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import tracer

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5

BYTE_LOGREG = {"name": "byte_logreg", "kind": "logreg", "families": ["byte"]}
INDICATOR_ATTACKS = ["gan_api", "gan_strings", "benign_injection"]


@dataclass(frozen=True)
class Workload:
    config: dict
    # warm re-run: set-up also runs the pipeline once; the measured call
    # re-runs it in the same workdir with these config fields changed
    rerun_changes: dict | None = None


# Why each workload exists is in README.md. None of them runs gan_byte or
# malgan_byte: the gap sweep that gan_byte triggers fails on some seeds, and
# MalGAN's file sizes swing by 50x between seeds. There is no cold indicator
# workload: warm_rerun recomputes the same layers today, and the run budget
# goes to more warm calls per run, whose times are the noisiest.
WORKLOADS = {
    # the byte WGAN-GP step dominates; padopt pads every attacked file
    "byte_gan": Workload({
        "corpus": {"n_per_class": 500},
        "detectors": [BYTE_LOGREG],
        "attacks": ["gan_all"],
        "gans": {"byte_histogram": {"max_steps": 3000},
                 "api": {"max_steps": 300}, "strings": {"max_steps": 300}},
    }),
    # only an attack-stage field changes, in a workdir holding every artifact;
    # hashing, strings, the PE editors and 7 detectors; padopt never runs
    "warm_rerun": Workload({
        "corpus": {"n_per_class": 200},
        "split": [0.5, 0.1, 0.4],
        "attacks": INDICATOR_ATTACKS,
        "gans": {"api": {"max_steps": 200}, "strings": {"max_steps": 200}},
    }, rerun_changes={"max_new_imports": 64}),
}

END_TO_END = {
    "setup_s": "s", "pipeline_s": "s", "peak_rss_mb": "MB",
    "workdir_mb": "MB", "evasion_rate": "ratio",
}


def log(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


# --- child processes ---------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(argv: list[str], log_path: Path) -> tuple[int, float, float]:
    """Run one child to completion: (exit code, wall s, its peak RSS MB)."""
    with open(log_path, "ab") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out,
                                stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def cli(command: str, cfg_path: Path, workdir: Path, seed: int) -> list[str]:
    return [sys.executable, "-m", "ganevade.cli", command,
            "--config", str(cfg_path), "--workdir", str(workdir),
            "--seed", str(seed)]


def traced(argv: list[str], spans_path: Path, run_id: str) -> list[str]:
    """The same CLI call, run under the span recorder."""
    return [sys.executable, str(BENCH / "tracer.py"), str(spans_path), run_id,
            "--", *argv[3:]]


# --- file trees --------------------------------------------------------------

def tree_state(root: Path) -> dict:
    out = {}
    for dirpath, _, files in os.walk(root):
        for f in files:
            path = os.path.join(dirpath, f)
            st = os.stat(path)
            out[path] = (st.st_size, st.st_mtime_ns, st.st_ino)
    return out


def bytes_written(before: dict, after: dict) -> int:
    """Size of every file created or rewritten between two tree states."""
    return sum(st[0] for path, st in after.items() if before.get(path) != st)


def tree_hash(root: Path, pattern: str = "**/*") -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.glob(pattern) if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def reset_outputs(workdir: Path, primed: Path | None) -> None:
    """Put the workdir back in the state every measured call starts from:
    the primed copy (warm), or the corpus alone (cold)."""
    if primed is not None:
        shutil.rmtree(workdir)
        shutil.copytree(primed, workdir)
        return
    for entry in workdir.iterdir():
        if entry.name != "corpus":
            shutil.rmtree(entry) if entry.is_dir() else entry.unlink()


# --- report-derived values ---------------------------------------------------

def report_hash(report: dict) -> str:
    kept = {k: v for k, v in report.items() if k != "runtime_seconds"}
    return hashlib.sha256(json.dumps(kept, sort_keys=True).encode()).hexdigest()[:16]


def evasion_rate(report: dict) -> float:
    """1 - mean post-attack detection rate over (detector, attack) pairs."""
    rates = [r for per_det in report["attack_rates"].values()
             for r in per_det.values()]
    return 1.0 - statistics.fmean(rates)


def size_overhead_kb(report: dict) -> float:
    base = report["original_mean_size_mb"]
    return statistics.fmean(s["mean_size_mb"] - base
                            for s in report["attack_stats"].values()) * 1000.0


def check_report(report: dict, cfg_hash: str, prime_report, untraced_report):
    problems = []
    if report.get("config_hash") != cfg_hash:
        problems.append("report config_hash does not match the config")
    for attack, queries in report["query_counts"].items():
        if attack.startswith("gan_") and queries != 0:
            problems.append(f"query-free attack {attack} made {queries} queries")
    rates = [r for per in (report["original_rates"],
                           *report["attack_rates"].values())
             for r in per.values()]
    if not all(0.0 <= r <= 1.0 for r in rates):
        problems.append("a detection rate lies outside [0, 1]")
    if prime_report is not None:
        upstream = ("original_rates", "false_positive_rates",
                    "original_mean_size_mb")
        if any(report[k] != prime_report[k] for k in upstream):
            problems.append("the warm re-run changed results that do not "
                            "depend on the changed config fields")
    if untraced_report is not None and \
            report_hash(report) != report_hash(untraced_report):
        problems.append("traced and untraced runs gave different reports")
    return problems


# --- environment record ------------------------------------------------------

def openblas_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info = {"version": f"{blas.get('name')} {blas.get('version')}",
            "threads": None}
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib_path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(lib_path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(seed: int, cfg_hash: str) -> dict:
    import numpy as np

    return {
        "git_sha": git_sha(),
        "source_hash": tree_hash(SRC, "**/*.py"),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": openblas_info(),
        "seed": seed,
        "config_hash": cfg_hash,
    }


def remember_report_hash(key: str, digest: str) -> str | None:
    """Record this run's report hash; return an earlier, different one."""
    store = OUT / "report_hashes.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    earlier = known.setdefault(key, digest)
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, sort_keys=True, indent=1))
    tmp.replace(store)
    return earlier if earlier != digest else None


# --- one run -----------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "ganevade" / "cli.py").is_file():
        log(f"no ganevade sources under {SRC}; run from a source checkout")
        return 2
    sys.path.insert(0, str(SRC))
    from ganevade import harness

    workload = WORKLOADS[args.workload]
    warm = workload.rerun_changes is not None
    seed = args.seed % 2**31
    cfg = harness.ExperimentConfig.from_dict(
        {**workload.config, "seed": seed}).to_dict()
    measured_cfg = {**cfg, **(workload.rerun_changes or {})}
    cfg_hash = harness.ExperimentConfig.from_dict(measured_cfg).config_hash()

    run_dir = WORK / f"{args.workload}-s{seed}-t{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    OUT.mkdir(exist_ok=True)
    workdir = run_dir / "w"
    child_log = run_dir / "children.log"
    cfg_path = run_dir / "config.json"
    cfg_path.write_text(json.dumps(cfg, sort_keys=True, indent=1))
    measured_cfg_path = run_dir / "config_measured.json"
    measured_cfg_path.write_text(json.dumps(measured_cfg, sort_keys=True,
                                            indent=1))
    problems: list[str] = []

    # set-up: the same corpus written several times, then (warm) one pipeline
    # whose workdir is kept as the start of every measured call; a traced run
    # reports no setup_s and writes the corpus once
    setup_times, corpus_hashes, setup_failed = [], set(), None
    for _ in range(1 if args.trace else SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        rc, wall, _ = run_child(cli("gen-corpus", cfg_path, workdir, seed),
                                child_log)
        if rc != 0:
            setup_failed = f"gen-corpus exited {rc}"
            break
        setup_times.append(wall)
        corpus_hashes.add(tree_hash(workdir / "corpus"))
    if len(corpus_hashes) > 1:
        problems.append("same-seed gen-corpus runs wrote different corpora")
    setup_s = statistics.median(setup_times) if setup_times else 0.0
    prime_report, primed = None, None
    if warm and not setup_failed:
        rc, wall, _ = run_child(cli("pipeline", cfg_path, workdir, seed),
                                child_log)
        setup_s += wall
        if rc != 0:
            setup_failed = f"priming pipeline exited {rc}"
        else:
            prime_report = json.loads((workdir / "report.json").read_text())
            primed = run_dir / "primed"
            shutil.copytree(workdir, primed)

    # measured calls: (exit code, wall s, peak RSS MB, bytes written)
    argv_pipeline = cli("pipeline", measured_cfg_path, workdir, seed)
    calls = []
    t_start = time.perf_counter()
    while not setup_failed:
        reset_outputs(workdir, primed)
        before = tree_state(workdir)
        rc, wall, rss = run_child(argv_pipeline, child_log)
        calls.append((rc, wall, rss, bytes_written(before, tree_state(workdir))))
        # no call that is expected to end past --seconds: a long pipeline is
        # timed once instead of twice, and the number of calls stays steady
        elapsed = time.perf_counter() - t_start
        next_end = elapsed * (len(calls) + 1) / len(calls)
        if rc or args.trace or next_end > args.seconds:
            break
    untraced_report = None
    spans_path = OUT / f"spans_{args.workload}-s{seed}.jsonl"
    if args.trace and calls and calls[-1][0] == 0:
        untraced_report = json.loads((workdir / "report.json").read_text())
        reset_outputs(workdir, primed)
        rc, wall, _ = run_child(
            traced(argv_pipeline, spans_path, f"{args.workload}-s{seed}"),
            child_log)
        calls.append((rc, wall, 0.0, 0))

    # output checks, after timing; one operation is one rewritten file
    attempted = checks.expected_test_malicious_count(cfg) * len(cfg["attacks"])
    failed = attempted
    exit_codes = [c[0] for c in calls]
    env = environment(seed, cfg_hash)
    metrics: dict[str, float] = {}
    if setup_failed:
        problems.append(f"set-up failed: {setup_failed}; see the "
                        f"children_*.log next to the record")
    elif any(exit_codes):
        problems.append(f"pipeline exit codes {exit_codes}; see the "
                        f"children_*.log next to the record")
    else:
        names = checks.expected_test_malicious(workdir, cfg)
        failed, failures = checks.check_attack_outputs(workdir, cfg["attacks"],
                                                       names)
        problems.extend(failures[:20])
        report = json.loads((workdir / "report.json").read_text())
        problems.extend(check_report(report, cfg_hash, prime_report,
                                     untraced_report))
        env["report_hash"] = report_hash(report)
        earlier = remember_report_hash(
            f"{args.workload}|{seed}|{cfg_hash}|{env['source_hash']}",
            env["report_hash"])
        if earlier:
            problems.append(f"report hash {env['report_hash']} differs from "
                            f"{earlier}, from an earlier run of the same "
                            "code, config and seed")
        if args.trace:
            metrics = layer_metrics(spans_path, report,
                                    traced_wall=calls[-1][1],
                                    untraced_wall=calls[0][1])
        else:
            metrics = {
                "setup_s": setup_s,
                "pipeline_s": statistics.median(c[1] for c in calls),
                "peak_rss_mb": max(c[2] for c in calls),
                "workdir_mb": calls[0][3] / 1e6,
                "evasion_rate": evasion_rate(report),
            }
    units = {name: unit for name, unit, _ in tracer.LAYER_METRICS} \
        if args.trace else END_TO_END
    result = {
        "correct": bool(metrics) and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {"workload": args.workload, "trace": args.trace,
              "seconds": args.seconds, "environment": env,
              "setup_times_s": setup_times,
              "pipeline_calls": [list(c) for c in calls],
              "problems": problems, **result}
    out = OUT / f"BENCH_{args.workload}-s{seed}-t{args.trace}.json"
    out.write_text(json.dumps(record, sort_keys=True, indent=1))
    child_log.replace(OUT / f"children_{args.workload}-s{seed}-t{args.trace}.log")
    shutil.rmtree(run_dir, ignore_errors=True)

    for problem in problems:
        log(f"check failed: {problem}")
    for name, m in result["metrics"].items():
        print(f"{name:40s} {m['value']:>16.6g} {m['unit']}")
    print(f"record: {out}")
    print(json.dumps(result))
    return 0


def layer_metrics(spans_path: Path, report: dict,
                  traced_wall: float, untraced_wall: float) -> dict:
    spans = [json.loads(line) for line in spans_path.read_text().splitlines()]
    values = tracer.summarize(spans)
    stages = sum(values[f"{name}.s"] for _, name in tracer.STAGES)
    values["trace.pipeline_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - untraced_wall
    values["trace.stage_share"] = stages / traced_wall
    values["harness.attack.size_overhead_kb"] = size_overhead_kb(report)
    return {name: values[name] for name, _, _ in tracer.LAYER_METRICS}


if __name__ == "__main__":
    sys.exit(main())
