#!/usr/bin/env python3
"""Benchmark of the nof pipeline, end to end and per module.

    python3 bench/run.py --workload paper_default --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

One process runs one workload (bench/spec.json), so its peak RSS belongs to
that workload alone. A run spends --seconds on one warm-up pipeline and then
on repetitions i = 0, 1, ...: `run_pipeline` into an empty directory with
config seed = --seed + i, followed by re-runs of extract..partition on the
artifacts it left (two in an untraced run, one in a traced run). Before the
pipeline and before the re-runs it times a fixed calibration workload; see
`calibration_seconds`. An untraced run (--trace 0) also times fresh-interpreter
set-up during its first repetitions. A traced run (--trace 1) pairs each
untraced pipeline with a traced one of the same seed (alternating which goes
first) and reports the per-module metrics of `tracer.py`.

Every stage call and every correctness check is one operation; a stage that
raises or a check that fails is a failed one. The last line of standard output
is a JSON object {"correct", "attempted", "failed", "metrics"} carrying the
metrics BENCHMARK.json declares for the mode (end_to_end for --trace 0,
per_layer for --trace 1); the lines before it print every metric with its
unit. The exit code is 1 when any operation failed and 2 when the benchmark
cannot run at all. Full samples, spans and the environment are written to
.bench_out/results/ under the repository root. `--workload all` runs every
workload in its own process and prints one table.
"""
from __future__ import annotations

import os
import sys

# BLAS reads its thread count once, when numpy loads: cap it at the CPUs
# this process may use before anything imports numpy.
NPROC = len(os.sched_getaffinity(0))
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = str(min(int(os.environ.get(_var) or NPROC), NPROC))

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
RESULTS = OUT / "results"

SETUP_SAMPLES = 5
RERUN_STAGES = ("extract", "cluster", "classify", "mine", "partition")
RULE_CATEGORIES = ("known_high_strength", "known_low_strength", "novel_high_strength",
                   "contradictory", "low_strength_residue")
SETUP_CODE = (
    "import json, sys\n"
    "from nof.pipeline import load_config\n"
    "load_config(overrides=json.loads(sys.argv[1]))\n"
    "print('ready', flush=True)\n"
)
# (name, unit) of the eight end-to-end figures printed for a user; the ones
# that can be 0 or hinge on a handful of seeds are per_layer in BENCHMARK.json
HEADLINE = (("setup_s", "s"), ("pipeline_s", "s"), ("rerun_s", "s"), ("peak_rss_mb", "MB"),
            ("artifact_mb", "MB"), ("recovery_rate", "fraction"),
            ("false_contradiction_rate", "fraction"), ("failure_rate", "fraction"))


class Ledger:
    """Counts operations (stage calls and checks) and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
            print(f"CHECK FAILED: {what}", file=sys.stderr)


def summarize(samples: list[float]) -> dict:
    """Median, quartiles, sample count, and the highest of p50/p90/p99/p99.9
    with at least ten samples beyond it (None when there are too few)."""
    import numpy as np

    out = {"n": len(samples), "median": statistics.median(samples),
           "q1": None, "q3": None, "tail": None}
    if len(samples) >= 2:
        out["q1"], _, out["q3"] = statistics.quantiles(samples, n=4)
    for p in (99.9, 99.0, 90.0, 50.0):
        if len(samples) * (100.0 - p) / 100.0 >= 10:
            out["tail"] = {"percentile": p, "value": float(np.percentile(samples, p))}
            break
    return out


def interquartile_mean(samples: list[float]) -> float:
    """Mean of the middle half of the samples."""
    ordered = sorted(samples)
    cut = len(ordered) // 4
    return statistics.mean(ordered[cut:len(ordered) - cut])


def _rule_like_work() -> int:
    """Small frozensets counted, paired, sorted and joined into text, as the
    rule stages do; the data fits in the CPU caches."""
    total = 0
    for round_ in range(2):
        sets = [frozenset((i % 97, (i + round_) % 89 + 100, i % 83 + 200)) for i in range(4000)]
        counts = Counter(x for s in sets for x in s)
        pairs = {(a, b) for s in sets[:1500] for a in s for b in s if a < b}
        total += len(";".join(f"{a}&{b}" for a, b in sorted(pairs))) + len(counts)
    return total


def _scattered_lookups(n: int = 100_000) -> int:
    """Updates in strided order across a dict of several MB, which misses the caches."""
    table = dict.fromkeys(range(n), 0)
    for i in range(n):
        table[(i * 7919) % n] += i
    return len(table)


def calibration_seconds() -> float:
    """Wall time of fixed work that does not involve nof. The host's CPU
    speed changes from second to second; this measures the current speed."""
    started = time.perf_counter()
    _rule_like_work()
    _scattered_lookups()
    return time.perf_counter() - started


def git_revision() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment() -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "nof").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": NPROC,
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_revision": git_revision(),
        "src_sha256": digest.hexdigest(),
    }


def workload_config(spec: dict, name: str, seed: int, out: Path) -> dict:
    from nof.pipeline import load_config

    overrides = json.loads(json.dumps(spec["workloads"][name]["config"]))
    overrides["seed"] = seed
    overrides["out"] = str(out)
    overrides.setdefault("partition", {})["expert_rules"] = str(ROOT / spec["expert_rules"])
    return load_config(overrides=overrides)


def setup_seconds(config: dict) -> float:
    """Wall time from spawning a fresh interpreter until it has imported nof
    and loaded the config, i.e. until the first stage could start."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    started = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", SETUP_CODE, json.dumps(config)],
                          cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - started
        child.stdout.read()
        code = child.wait(timeout=60)
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up child exited with {code} after printing {line!r}")
    return elapsed


class Runner:
    """Runs pipelines and re-runs of one workload, counting operations and
    the warnings each nof module raised."""

    def __init__(self, spec: dict, workload: str):
        self.spec = spec
        self.workload = workload
        self.ledger = Ledger()
        self.warnings: Counter = Counter()  # of the latest call

    def config(self, seed: int, out: Path) -> dict:
        return workload_config(self.spec, self.workload, seed, out)

    def _timed(self, what: str, seed: int, stages, call, completed) -> float | None:
        """Wall time of `call()`, or None when one of `stages` raised; every
        stage is one operation, and `completed()` tells how many finished."""
        self.warnings = Counter()
        gc.collect()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            started = time.perf_counter()
            try:
                call()
            except Exception:  # a failed stage is a counted result, not the end of the run
                traceback.print_exc()
                done = completed()
                self.ledger.attempted += done + 1
                self.ledger.failed += 1
                self.ledger.failures.append(f"{what}: stage {stages[done]} raised (seed {seed})")
                return None
            elapsed = time.perf_counter() - started
        for w in caught:
            path = Path(w.filename)
            self.warnings[path.stem if path.parent == SRC / "nof" else "other"] += 1
        self.ledger.attempted += len(stages)
        return elapsed

    def pipeline(self, seed: int, out: Path) -> float | None:
        """One `run_pipeline` into an empty directory."""
        from nof.pipeline import STAGES, run_pipeline

        shutil.rmtree(out, ignore_errors=True)
        config = self.config(seed, out)
        return self._timed("pipeline", seed, STAGES, lambda: run_pipeline(config),
                           lambda: completed_stages(out))

    def rerun(self, seed: int, out: Path) -> float | None:
        """extract..partition again on the artifacts already in `out`."""
        from nof.pipeline import run_stage

        config = self.config(seed, out)
        done: list[str] = []

        def call():
            for stage in RERUN_STAGES:
                run_stage(stage, config)
                done.append(stage)

        return self._timed("re-run", seed, RERUN_STAGES, call, lambda: len(done))

    def check_report(self, out: Path) -> dict:
        """Partition laws on report.json, against the rules in mined_rules.csv."""
        doc = json.loads((out / "report.json").read_text(encoding="utf-8"))
        keys = [(frozenset(a["antecedent"]), frozenset(a["consequent"]))
                for category in RULE_CATEGORIES for a in doc[category]]
        check = self.ledger.check
        check(len(keys) == len(set(keys)), "report categories are pairwise disjoint")
        check(set(keys) == qualified_rules(out, doc),
              "report categories plus residue equal the qualified mined rules")
        counts = doc["counts"]
        check(counts["qualified"] == len(keys)
              and all(counts[c] == len(doc[c]) for c in RULE_CATEGORIES + ("missing",)),
              "report.json counts match its lists")
        return doc


def completed_stages(out: Path) -> int:
    """Stages with an entry in run.json, i.e. finished ones."""
    try:
        return len(json.loads((out / "run.json").read_text())["stages"])
    except (OSError, ValueError, KeyError):
        return 0


def qualified_rules(out: Path, doc: dict) -> set:
    """Mined rules clearing the report's thresholds, with cluster labels
    renamed by the report's alignment, as (antecedent, consequent) sets."""
    t, mapping = doc["thresholds"], doc["alignment"]

    def items(field: str) -> frozenset:
        renamed = []
        for token in filter(None, field.split("&")):
            attribute, eq, value = token.partition("=")
            renamed.append(mapping[value] if attribute == "CLUSTER" and eq and value in mapping
                           else token)
        return frozenset(renamed)

    with open(out / "mined_rules.csv", newline="", encoding="utf-8") as fh:
        rows = csv.reader(fh, delimiter=";")
        next(rows)
        return {(items(ante), items(cons)) for ante, cons, sup, conf, _ in rows
                if float(sup) >= t["beta_sup"] and float(conf) >= t["beta_conf"]}


def artifact_mb(out: Path) -> float:
    return sum(p.stat().st_size for p in out.rglob("*")
               if p.is_file() and p.name != "run.json") / 1e6


def run_workload(spec: dict, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from nof.pipeline import artifact_checksums

    from tracer import LAYERS, Recorder, layer_metrics, stage_breakdown

    deadline = time.perf_counter() + seconds  # covers set-up, warm-up and repetitions
    base = OUT / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(base, ignore_errors=True)
    runner = Runner(spec, workload)
    ledger = runner.ledger
    samples: dict[str, list[float]] = {"pipeline_s": [], "rerun_s": [], "artifact_mb": [],
                                       "calibration_s": []}
    if trace:
        samples.update(traced_pipeline_s=[], overhead_s=[])
    else:
        samples["setup_s"] = []
    setup_config = runner.config(seed, base / "setup")
    recorder = Recorder()
    layers: list[dict[str, float]] = []
    breakdowns: list[dict] = []
    traced_warnings: Counter = Counter()
    quality: Counter = Counter()

    # warm-up, and the first half of the same-seed reproducibility check
    reference = None
    if runner.pipeline(seed, base / "warmup") is not None:
        reference = artifact_checksums(base / "warmup")
    shutil.rmtree(base / "warmup", ignore_errors=True)

    def traced_pipeline(rep: int, rep_seed: int, out: Path) -> float | None:
        with recorder.recording(rep, "pipeline"):
            elapsed = runner.pipeline(rep_seed, out)
        traced_warnings.update(runner.warnings)
        return elapsed

    rep = 0
    rep_times: list[float] = []
    while True:
        rep_started = time.perf_counter()
        # set-up samples are spread over the run so that they meet the same
        # machine conditions as the repetitions
        if not trace and len(samples["setup_s"]) < SETUP_SAMPLES:
            samples["setup_s"].append(setup_seconds(setup_config))
        samples["calibration_s"].append(calibration_seconds())
        rep_seed = seed + rep
        plain, traced = base / "plain", base / "traced"
        if trace and rep % 2:  # alternate which of the pair runs first
            t_traced = traced_pipeline(rep, rep_seed, traced)
            t_plain = runner.pipeline(rep_seed, plain)
        else:
            t_plain = runner.pipeline(rep_seed, plain)
            t_traced = traced_pipeline(rep, rep_seed, traced) if trace else None

        if t_plain is not None:
            samples["pipeline_s"].append(t_plain)
            samples["artifact_mb"].append(artifact_mb(plain))
            doc = runner.check_report(plain)
            quality["runs"] += 1
            quality["recovered"] += any(a["matched_expert"] == spec["planted_rule"]
                                        for a in doc["known_high_strength"])
            # the shipped expert base vetoes nothing the testbed plants, so
            # every contradiction is a false one
            quality["contradicted"] += bool(doc["contradictory"])
            sums = artifact_checksums(plain)
            if rep == 0 and reference is not None:
                ledger.check(sums == reference, "two same-seed pipeline runs give equal artifacts")
            work = plain
            if t_traced is not None:
                samples["traced_pipeline_s"].append(t_traced)
                samples["overhead_s"].append(t_traced - t_plain)
                runner.check_report(traced)
                ledger.check(artifact_checksums(traced) == sums,
                             "traced artifacts are byte-identical to untraced ones")
                layers.append(layer_metrics(recorder.spans, rep, "pipeline", traced))
                work = traced
            # a re-run is shorter than a pipeline and its figure the noisier,
            # so an untraced repetition times two
            for _ in range(1 if trace else 2):
                samples["calibration_s"].append(calibration_seconds())
                with recorder.recording(rep, "rerun") if trace else contextlib.nullcontext():
                    t_rerun = runner.rerun(rep_seed, work)
                if t_rerun is not None:
                    samples["rerun_s"].append(t_rerun)
                    ledger.check(artifact_checksums(work) == sums,
                                 "re-run artifacts are byte-identical to the full run's")
            if trace:
                breakdowns.append({phase: stage_breakdown(recorder.spans, rep, phase)
                                   for phase in ("pipeline", "rerun")})
                recorder.release(rep)
        rep += 1
        rep_times.append(time.perf_counter() - rep_started)
        # start another repetition only if it is expected to end in time
        if time.perf_counter() + statistics.median(rep_times) > deadline:
            break
    if not trace:
        while len(samples["setup_s"]) < SETUP_SAMPLES:
            samples["setup_s"].append(setup_seconds(setup_config))
    shutil.rmtree(base, ignore_errors=True)

    runs = max(quality["runs"], 1)
    headline = {name: statistics.median(samples[name])
                for name in ("setup_s", "artifact_mb") if samples.get(name)}
    # The host's CPU speed swings by up to a half over seconds to minutes with
    # other tenants' load, more than a 60-s run can average out. Rescaling from
    # the speed this run's calibrations saw to the reference speed removes most
    # of that; the interquartile mean drops outlying samples but, unlike the
    # median, still tracks the share of time spent slow.
    speed = spec["calibration_s"] / statistics.mean(samples["calibration_s"])
    for name in ("pipeline_s", "rerun_s"):
        if samples[name]:
            headline[name] = interquartile_mean(samples[name]) * speed
    headline.update(
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        recovery_rate=quality["recovered"] / runs,
        false_contradiction_rate=quality["contradicted"] / runs,
        failure_rate=ledger.failed / max(ledger.attempted, 1),
    )
    result = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "repetitions": rep, "environment": environment(),
        "samples": samples,
        "summary": {k: summarize(v) for k, v in samples.items() if v},
        "attempted": ledger.attempted, "failed": ledger.failed, "failures": ledger.failures,
        "headline": headline,
    }
    if trace:
        per_layer = {k: statistics.median(d[k] for d in layers) for k in layers[0]} if layers else {}
        for module in ("pipeline",) + LAYERS:
            per_layer[f"{module}.warnings"] = traced_warnings[module] / max(len(layers), 1)
        for name in ("recovery_rate", "false_contradiction_rate", "failure_rate"):
            per_layer[name] = headline[name]
        if samples["overhead_s"]:
            per_layer["trace.overhead_s"] = statistics.median(samples["overhead_s"])
            per_layer["trace.spans"] = statistics.median(
                Counter(s.rep for s in recorder.spans if s.phase == "pipeline").values())
        result.update(per_layer=per_layer, stage_breakdown=breakdowns, spans=recorder.to_json())
    return result


def print_result(result: dict, declared: dict) -> dict:
    """Human-readable lines; returns the metrics the final JSON line carries."""
    env = result["environment"]
    print(f"# {result['workload']} seed={result['seed']} trace={int(result['trace'])} "
          f"repetitions={result['repetitions']} env={json.dumps(env, sort_keys=True)}")
    units = dict(HEADLINE, traced_pipeline_s="s", overhead_s="s", calibration_s="s")
    extra = {k: v["median"] for k, v in result["summary"].items() if k not in result["headline"]}
    for name, value in {**result["headline"], **extra}.items():
        line = f"{name:28s} {value:12.6g} {units.get(name, '')}"
        s = result["summary"].get(name)
        if s:
            tail = (f"p{s['tail']['percentile']:g}={s['tail']['value']:.6g}"
                    if s["tail"] else "tail n/a")
            quart = f"q1={s['q1']:.6g} q3={s['q3']:.6g}" if s["q1"] is not None else ""
            line += f"  (measured: median of n={s['n']} {quart} {tail})"
        print(line)
    section = "per_layer" if result["trace"] else "end_to_end"
    wanted = {m["name"]: m["unit"] for m in declared[section]}
    values = result["per_layer"] if result["trace"] else result["headline"]
    if result["trace"]:
        for name in wanted:
            print(f"{name:40s} {values.get(name, float('nan')):12.6g} {wanted[name]}")
        for phase, stages in (result["stage_breakdown"] or [{}])[0].items():
            print(f"# repetition 0, {phase}: stage_s = child spans + self (seconds)")
            for stage, b in stages.items():
                print(f"  {stage:10s} {b['stage_s']:.6f} = {b['children_s']:.6f} + {b['self_s']:.6f}")
    return {name: {"value": values[name], "unit": unit}
            for name, unit in wanted.items() if name in values}


def run_all(args, spec: dict) -> int:
    code = 0
    table = {}
    for workload in spec["workloads"]:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT)
        code = code or child.returncode
        path = RESULTS / f"{workload}-seed{args.seed}-trace{args.trace}.json"
        if path.exists():
            table[workload] = json.loads(path.read_text())["headline"]
    print(f"{'metric':28s} {'unit':9s}" + "".join(f"{w:>16s}" for w in table))
    for name, unit in HEADLINE:
        row = "".join(f"{table[w].get(name, float('nan')):16.6g}" for w in table)
        print(f"{name:28s} {unit:9s}{row}")
    return code


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = json.loads((BENCH / "spec.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(spec["workloads"]) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=declared["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    try:
        import nof
    except ImportError as exc:
        print(f"cannot import nof from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(nof.__file__).resolve().parent != SRC / "nof":
        print(f"imported nof from {nof.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if not (ROOT / spec["expert_rules"]).is_file():
        print(f"expert rule base {spec['expert_rules']} is missing", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, spec)

    result = run_workload(spec, args.workload, args.seed, args.seconds, bool(args.trace))
    RESULTS.mkdir(parents=True, exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True))
    metrics = print_result(result, declared)
    section = "per_layer" if args.trace else "end_to_end"
    missing = [m["name"] for m in declared[section] if m["name"] not in metrics]
    correct = result["failed"] == 0
    if missing and correct:
        print(f"benchmark did not produce declared metrics: {missing}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
