#!/usr/bin/env python3
"""Check that two source trees of nof write byte-identical pipeline runs.

    python3 tools/byte_identity.py SRC_A SRC_B

SRC_A and SRC_B are directories holding the `nof` package, such as the `src`
directory of two checkouts. Each tree runs `run_pipeline` in its own
interpreter for seeds 0-11 of the `paper_default` and `many_rows` workloads
of bench/spec.json (read, never written), and for seeds 0-2 of seven edge
configs defined here (EDGE_CONFIGS), with the expert rule base
docs/expert.example.json. The two sides are compared on the checksums of
every artifact (`artifact_checksums`) and on every run.json entry with its
`wall_time_s` removed. The counts are printed; the exit code is 1 when
anything differs and 0 when nothing does.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = ROOT / "bench" / "spec.json"
EXPERT = ROOT / "docs" / "expert.example.json"
WORKLOADS = ("paper_default", "many_rows")
SEEDS = range(12)
# corners of synth -> decompose that the workloads do not reach: one planted
# source, a single trial (its concatenated epochs are a reshape of the
# tensor), and noise-free data, whose rank is the number of sources; the
# two agglomerative linkages besides many_rows' average linkage; and a fixed
# k, which fits EM without select_k and grows a divisive tree over three
# means; and a template read from a channel,weight CSV, which each side writes
# as TEMPLATE_CSV in its own temp dir with the default ROI template's weights
TEMPLATE_CSV = "template.csv"
EDGE_CONFIGS = {
    "p300_only": {"synth": {"preset": "p300_only"}},
    "one_trial": {"synth": {"n_trials": 1}},
    "noise_free": {"synth": {"noise_std": 0.0}, "decompose": {"n_components": 2}},
    "single_linkage": {"cluster": {"hierarchy": "agglomerative:single"}},
    "complete_linkage": {"cluster": {"hierarchy": "agglomerative:complete"}},
    "fixed_k": {"cluster": {"k": 3}},
    "csv_template": {"extract": {"template": {"kind": "csv", "path": TEMPLATE_CSV}}},
}
EDGE_SEEDS = range(3)

# Runs in the child interpreter: argv[1] is a JSON list of
# [run name, config overrides], argv[3] the template CSV to write; prints
# {run name: {"artifacts", "entries"}}.
CHILD = """
import json, sys
from pathlib import Path
import nof
from nof.pipeline import DEFAULT_CONFIG, artifact_checksums, load_config, run_pipeline
from nof.testbed import default_montage

src = Path(sys.argv[2]).resolve()
if src not in Path(nof.__file__).resolve().parents:
    sys.exit(f"nof was imported from {nof.__file__}, not from {src}")
roi = DEFAULT_CONFIG["extract"]["template"]
montage = default_montage()
template = Path(sys.argv[3])
template.parent.mkdir(parents=True, exist_ok=True)
template.write_text("channel,weight\\n" + "".join(
    f"{c},{roi['value'] if montage.roi(c) == roi['roi'] else 0.0}\\n" for c in montage.channels))
result = {}
for name, overrides in json.loads(sys.argv[1]):
    entries = run_pipeline(load_config(overrides=overrides))
    for entry in entries:
        entry.pop("wall_time_s")
    result[name] = {"artifacts": artifact_checksums(overrides["out"]), "entries": entries}
print(json.dumps(result))
"""


def runs(out: Path) -> list[tuple[str, dict]]:
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    configs = [(w, spec["workloads"][w]["config"], SEEDS) for w in WORKLOADS]
    configs += [(name, config, EDGE_SEEDS) for name, config in EDGE_CONFIGS.items()]
    out_runs = []
    for config_name, config, seeds in configs:
        for seed in seeds:
            name = f"{config_name}-seed{seed}"
            overrides = json.loads(json.dumps(config))
            overrides["seed"] = seed
            overrides["out"] = str(out / name)
            overrides.setdefault("partition", {})["expert_rules"] = str(EXPERT)
            template = overrides.get("extract", {}).get("template", {})
            if template.get("kind") == "csv":
                template["path"] = str(out / template["path"])
            out_runs.append((name, overrides))
    return out_runs


def run_side(src: Path, out: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(runs(out)), str(src), str(out / TEMPLATE_CSV)],
        env=env, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        sys.exit(f"{src}: the pipeline runs failed (exit {proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout)


def compare(a: dict, b: dict) -> tuple[list[str], dict[str, list[int]]]:
    """The differences, and [identical, compared] per kind of item."""
    diffs: list[str] = []
    counts = {"artifacts": [0, 0], "entries": [0, 0]}

    def check(kind: str, what: str, x, y) -> None:
        counts[kind][1] += 1
        if x == y:
            counts[kind][0] += 1
        else:
            diffs.append(what)

    for name in a:
        arts_a, arts_b = a[name]["artifacts"], b[name]["artifacts"]
        for path in sorted(arts_a.keys() | arts_b.keys()):
            check("artifacts", f"{name}: artifact {path} differs",
                  arts_a.get(path), arts_b.get(path))
        ents_a = {e["stage"]: e for e in a[name]["entries"]}
        ents_b = {e["stage"]: e for e in b[name]["entries"]}
        for stage in sorted(ents_a.keys() | ents_b.keys()):
            check("entries", f"{name}: run.json entry {stage} differs",
                  ents_a.get(stage), ents_b.get(stage))
    return diffs, counts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src_a", type=Path, help="directory holding the first nof package")
    parser.add_argument("src_b", type=Path, help="directory holding the second nof package")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="byte-identity-") as tmp:
        a = run_side(args.src_a.resolve(), Path(tmp) / "a")
        b = run_side(args.src_b.resolve(), Path(tmp) / "b")
    diffs, counts = compare(a, b)
    for line in diffs:
        print(line)
    print(f"{len(a)} runs ({', '.join(WORKLOADS)}: seeds {SEEDS.start}-{SEEDS.stop - 1}; "
          f"{', '.join(EDGE_CONFIGS)}: seeds {EDGE_SEEDS.start}-{EDGE_SEEDS.stop - 1})")
    print("artifacts identical: {}/{}".format(*counts["artifacts"]))
    print("run.json entries identical apart from wall_time_s: {}/{}".format(*counts["entries"]))
    return 1 if diffs else 0


if __name__ == "__main__":
    raise SystemExit(main())
