"""Output checks run after timing: every rewritten file is one operation.

A file passes when it re-parses with ``petk.parse(strict=True)`` and keeps
what the attack promises to keep: the original bytes as a prefix for the
padding attacks, the original import and string sets for the others.
"""

from __future__ import annotations

import json
from pathlib import Path

PREFIX_ATTACKS = ("gan_byte", "malgan_byte")


def expected_test_malicious(workdir: Path, cfg: dict) -> list[str]:
    """Names of the test-split malicious files the attacks must rewrite."""
    from ganevade import harness

    manifest = json.loads((workdir / "corpus" / "manifest.json").read_text())
    labels = [rec["label"] for rec in manifest["files"]]
    split = harness.split_indices(labels, tuple(cfg["split"]), cfg["seed"])
    return [manifest["files"][i]["name"] for i in split["test"]
            if labels[i] == "malicious"]


def expected_test_malicious_count(cfg: dict) -> int:
    """How many files each attack rewrites, from the config alone, so that a
    run whose set-up failed still counts its operations."""
    from ganevade import harness

    n = cfg["corpus"]["n_per_class"]
    split = harness.split_indices(["malicious"] * n, tuple(cfg["split"]),
                                  cfg["seed"])
    return len(split["test"])


def check_attack_outputs(workdir: Path, attacks, names) -> tuple[int, list[str]]:
    """Return (failed operations, one message per failure)."""
    from ganevade import features, petk

    min_len = features.DEFAULT_MIN_STRING_LEN
    failures: list[str] = []
    originals: dict[str, tuple[set, set]] = {}
    for attack in attacks:
        attack_dir = workdir / "attacks" / attack
        for name in names:
            path = attack_dir / name
            if not path.is_file():
                failures.append(f"{attack}/{name}: missing")
                continue
            data = path.read_bytes()
            original = (workdir / "corpus" / name).read_bytes()
            try:
                pe = petk.parse(data, strict=True)
            except petk.PeEditError as exc:
                failures.append(f"{attack}/{name}: strict re-parse failed: {exc}")
                continue
            if attack in PREFIX_ATTACKS:
                if not data.startswith(original):
                    failures.append(f"{attack}/{name}: original bytes not a prefix")
                continue
            if name not in originals:
                originals[name] = (
                    features.extract_imports(petk.parse(original, strict=False)),
                    set(features.extract_strings(original, min_len)))
            imports, strings = originals[name]
            if not imports <= features.extract_imports(pe):
                failures.append(f"{attack}/{name}: original imports dropped")
            elif not strings <= set(features.extract_strings(data, min_len)):
                failures.append(f"{attack}/{name}: original strings dropped")
    return len(failures), failures
