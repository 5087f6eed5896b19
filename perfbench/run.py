"""The binpdf benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; binpdf is imported from the checkout's
``src/``, never from an installed copy. The run sets up, then repeats whole
rounds of the workload's operations for up to ``--seconds``, checks the
outputs against computations made apart from the program
(``oracle.py``), and prints as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones (``setup_s``,
``round_s``, ``peak_rss_mb``). With ``--trace 1`` rounds alternate between
untraced and traced children; the metrics are the per-layer ones, taken
from the traced rounds' spans, plus ``trace.overhead_ratio``. The full
span trees and self times go to ``.bench_traces/<workload>-seed<N>.json``.
See ``README.md`` next to this file for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 9
IMPORT_PROBES = 3
CHILD_TIMEOUT_S = 150

BOX = (-5.5, 5.5)
CLI_ROWS = 1_000_000
CLI_FIT_N = 64
CLI_COMPARE_N, CLI_COMPARE_REF_N, CLI_COMPARE_M = 32, 256, 262_144
STUDY_LEVELS = (2, 3, 4, 5)
STUDY_ORACLE_LEVELS = (2, 3, 4)
STUDY_SEEDS = 5
NAN_SAMPLES = "# dim=2 rows=3\n0.5,0.25\nnan,0.1\n-1.0,2.0\n"

# Span and summary field of each per-layer metric read from spans. Metrics
# that BENCHMARK.json lists go into the JSON result, with its units; the
# others are times (in seconds) of functions that only some workloads call,
# printed and written to the trace file only, since the JSON carries the same
# metrics on every workload. ``cli.import_s``, ``sampling.samples_per_s``,
# the study levels and ``trace.overhead_ratio`` are computed in
# ``round_layers`` and ``run``.
SPAN_SOURCES = {
    "sampling.sample_s": ("sampling.sample", "inclusive_s"),
    "sampling.write_csv_s": ("sampling.write_csv", "inclusive_s"),
    "sampling.write_csv_bytes": ("sampling.write_csv", "bytes"),
    "sampling.read_csv_s": ("sampling.read_csv", "inclusive_s"),
    "sampling.read_csv_bytes": ("sampling.read_csv", "bytes"),
    "sampling.exact_pdf_s": ("sampling.exact_pdf", "inclusive_s"),
    "grid.check_in_domain_s": ("grid.check_in_domain", "inclusive_s"),
    "grid.locate_s": ("grid.locate", "inclusive_s"),
    "grid.locate_points": ("grid.locate", "points"),
    "grid.basis_integrals_s": ("grid.basis_integrals", "inclusive_s"),
    "estimator.fit_s": ("estimator.fit", "inclusive_s"),
    "estimator.fit_samples": ("estimator.fit", "samples"),
    "estimator.corner_deposits": ("estimator.fit", "corner_deposits"),
    "estimator.nodes": ("estimator.fit", "nodes"),
    "estimator.fit_peak_alloc_mb": ("estimator.fit", "peak_alloc_mb"),
    "estimator.evaluate_s": ("estimator.evaluate", "inclusive_s"),
    "estimator.evaluate_points": ("estimator.evaluate", "points"),
    "estimator.save_s": ("estimator.save", "inclusive_s"),
    "estimator.save_bytes": ("estimator.save", "bytes"),
    "baselines.fit_histogram_s": ("baselines.fit_histogram", "inclusive_s"),
    "baselines.histogram_evaluate_s": ("baselines.histogram_evaluate", "inclusive_s"),
    "analysis.estimate_support_s": ("analysis.estimate_support", "inclusive_s"),
    "analysis.rmse_vs_histogram_s": ("analysis.rmse_vs_histogram", "inclusive_s"),
    "analysis.rmse_vs_exact_s": ("analysis.rmse_vs_exact", "inclusive_s"),
}


# -- child processes ---------------------------------------------------------------


@dataclass
class Child:
    code: int
    wall_s: float
    rss_mb: float
    stdout: str
    stderr: str


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(cmd: list[str], workdir: Path, tag: str) -> Child:
    """Run one child to completion; its own peak RSS comes from ``wait4``.

    ``RUSAGE_CHILDREN`` would give the largest child so far instead, which
    hides a later, smaller child.
    """
    out_path, err_path = workdir / f"{tag}.out", workdir / f"{tag}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                 out_path.read_text(), err_path.read_text())


def binpdf_cmd(argv: list[str], spans: Path | None) -> list[str]:
    if spans is None:
        return [sys.executable, "-m", "binpdf.cli", *argv]
    return [sys.executable, str(HERE / "child.py"), "cli", "--spans", str(spans), "--", *argv]


# -- workloads -----------------------------------------------------------------------


@dataclass
class Round:
    ops: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    rss_mb: float = 0.0
    setup_s: float | None = None
    spans: list[list[dict]] = field(default_factory=list)
    outputs: dict = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return sum(self.ops.values())


class Workload:
    """Set-up, one round of operations, and the output checks."""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.rounds_run = 0

    def setup(self) -> list[float]:
        return []

    def run_round(self, traced: bool) -> Round:
        raise NotImplementedError

    def check(self, rounds: list[Round]) -> list[tuple[str, bool, str]]:
        raise NotImplementedError


class CliWorkload(Workload):
    """Runs ``binpdf`` commands as children; set-up is a warm ``--help``."""

    def setup(self) -> list[float]:
        run_child(binpdf_cmd(["--help"], None), self.workdir, "warm")
        times = []
        for i in range(SETUP_REPEATS):
            start = time.perf_counter()
            run_dir = self.workdir / f"run{i}"
            run_dir.mkdir()
            child = run_child(binpdf_cmd(["--help"], None), run_dir, "help")
            times.append(time.perf_counter() - start)
            if child.code != 0:
                raise RuntimeError(f"binpdf --help exited {child.code}: {child.stderr}")
        self.dir = run_dir
        return times

    def steps(self) -> list[tuple[str, list[str]]]:
        raise NotImplementedError

    def succeeded(self, op: str, child: Child) -> bool:
        return child.code == 0

    def run_round(self, traced: bool) -> Round:
        self.rounds_run += 1
        result = Round()
        for op, argv in self.steps():
            tag = f"r{self.rounds_run}-{op}"
            spans = self.dir / f"{tag}.spans.json" if traced else None
            child = run_child(binpdf_cmd(argv, spans), self.dir, tag)
            result.ops[op] = child.wall_s
            result.attempted += 1
            result.failed += not self.succeeded(op, child)
            result.rss_mb = max(result.rss_mb, child.rss_mb)
            result.outputs[op] = child.stdout
            if spans is not None and spans.exists():
                result.spans.append(json.loads(spans.read_text()))
        return result


class CliFile2d(CliWorkload):
    """sample -> fit -> compare on a 1M-row mixed2d CSV, plus a NaN-row fit."""

    def setup(self):
        times = super().setup()
        (self.dir / "nan.csv").write_text(NAN_SAMPLES)
        return times

    def steps(self):
        d = self.dir
        grid = ["--lower=-5.5", "--upper=5.5", "--n-delta", str(CLI_FIT_N)]
        return [
            ("sample_s", ["sample", "--dist", "mixed2d", "--m", str(CLI_ROWS),
                          "--seed", str(self.seed), "--out", str(d / "samples.csv")]),
            ("fit_s", ["fit", "--samples", str(d / "samples.csv"), *grid,
                       "--out", str(d / "pdf.csv")]),
            ("compare_s", ["compare", "--samples", str(d / "samples.csv"),
                           "--ref-n-delta", str(CLI_COMPARE_REF_N),
                           "--n-delta", str(CLI_COMPARE_N), "--m", str(CLI_COMPARE_M),
                           "--estimators", "fe,histogram", "--out", str(d / "table.csv")]),
            # Known fault: a NaN row passes the domain check (NaN compares
            # false), so this exits 0 with NaN coefficients. Until that is
            # fixed it counts as one failed operation per round.
            ("nan_fit_s", ["fit", "--samples", str(d / "nan.csv"), *grid,
                           "--out", str(d / "nan_pdf.csv")]),
        ]

    def succeeded(self, op, child):
        if op == "nan_fit_s":
            return child.code == 1 and any(
                line.startswith("error:") for line in child.stderr.splitlines())
        if op == "sample_s":
            return child.code == 0 and f"rows: {CLI_ROWS}" in child.stdout
        return child.code == 0

    def check(self, rounds):
        import numpy as np
        import oracle

        lo, hi = BOX
        checks = []
        samples = np.loadtxt(self.dir / "samples.csv", delimiter=",", comments="#", ndmin=2)
        checks.append(("cli: sample rows finite and inside the box",
                       samples.shape == (CLI_ROWS, 2) and bool(np.isfinite(samples).all())
                       and bool(((samples >= lo) & (samples <= hi)).all()),
                       f"shape {samples.shape}"))
        for axis, sd in enumerate((2.0, 1.0)):
            problems = oracle.moments_within(samples[:, axis], 0.0, sd, lo, hi)
            checks.append((f"cli: axis {axis} mean and variance within 5 SE",
                           not problems, "; ".join(problems)))

        table = np.loadtxt(self.dir / "pdf.csv", delimiter=",", skiprows=1, ndmin=2)
        coefficients = table[np.argsort(table[:, 0]), -1]
        meta = json.loads((self.dir / "pdf.json").read_text())
        checks.append(("cli: pdf.json describes the fit",
                       meta.get("n_delta") == [CLI_FIT_N] * 2
                       and meta.get("sample_count") == CLI_ROWS, json.dumps(meta)))
        checks.append(("cli: pdf.csv coefficients >= 0",
                       bool((coefficients >= 0).all()), f"min {coefficients.min():.3g}"))
        expected = oracle.linear_binning(samples, lo, hi, CLI_FIT_N)
        worst = float(np.max(np.abs(coefficients - expected))) \
            if coefficients.shape == expected.shape else math.inf
        checks.append(("cli: pdf.csv matches the bincount oracle to 1e-12",
                       worst <= 1e-12, f"max abs diff {worst:.3g}"))
        total = float(coefficients @ oracle.hat_integrals(lo, hi, CLI_FIT_N, 2)) \
            if coefficients.shape == expected.shape else math.nan
        checks.append(("cli: sum F_j C_j is 1 to 1e-12", abs(total - 1.0) <= 1e-12,
                       f"integral {total!r}"))

        with open(self.dir / "table.csv") as fh:
            reported = {row["estimator"]: float(row["rmse"]) for row in csv.DictReader(fh)}
        lower, upper = samples.min(axis=0), samples.max(axis=0)
        coarse = samples[:CLI_COMPARE_M]
        reference = oracle.evaluate_histogram(
            oracle.histogram(samples, lower, upper, CLI_COMPARE_REF_N),
            lower, upper, CLI_COMPARE_REF_N, coarse)
        recomputed = {
            "fe": oracle.rmse(reference, oracle.evaluate_linear(
                oracle.linear_binning(coarse, lower, upper, CLI_COMPARE_N),
                lower, upper, CLI_COMPARE_N, coarse)),
            "histogram": oracle.rmse(reference, oracle.evaluate_histogram(
                oracle.histogram(coarse, lower, upper, CLI_COMPARE_N),
                lower, upper, CLI_COMPARE_N, coarse)),
        }
        for label, value in recomputed.items():
            got = reported.get(label, math.nan)
            checks.append((f"cli: compare {label} RMSE matches recomputation to 1e-9 rel",
                           abs(got - value) <= 1e-9 * abs(value), f"{got!r} vs {value!r}"))
        outputs = {r.outputs.get("compare_s") for r in rounds}
        checks.append(("cli: compare output identical in every round", len(outputs) == 1,
                       f"{len(outputs)} distinct"))
        return checks


class StudyCoupled2d(CliWorkload):
    """The coupled:2 study over k = 2..5 and five seeds, as one child."""

    @property
    def seeds(self) -> list[int]:
        return [self.seed + i for i in range(STUDY_SEEDS)]

    def steps(self):
        return [("study_s", [
            "study", "--dist", "tgauss2d", "--mode", "coupled:2",
            "--k", f"{STUDY_LEVELS[0]}..{STUDY_LEVELS[-1]}",
            "--seeds", ",".join(map(str, self.seeds)), "--out", str(self.dir / "study.csv")])]

    def succeeded(self, op, child):
        return child.code == 0 and "delta-rate:" in child.stdout

    def check(self, rounds):
        import numpy as np
        import oracle

        lo, hi = BOX
        checks = []
        with open(self.dir / "study.csv") as fh:
            rows = list(csv.DictReader(fh))
        shape = [(int(r["k"]), int(r["n_delta"]), int(r["m"])) for r in rows]
        want = [(k, 2**k, 2 ** (4 * k)) for k in STUDY_LEVELS]
        checks.append(("study: (k, n_delta, m) rows are (k, 2**k, 2**(4k))",
                       shape == want, f"{shape}"))
        errors = [float(r["error"]) for r in rows]
        checks.append(("study: errors fall strictly with k",
                       all(a > b for a, b in zip(errors, errors[1:])), f"{errors}"))
        by_k = {int(r["k"]): float(r["error"]) for r in rows}
        for k in STUDY_ORACLE_LEVELS:
            n, m = 2**k, 2 ** (4 * k)
            per_seed = []
            for s in self.seeds:
                pts = oracle.tgauss_draw(m, 2, s)
                approx = oracle.evaluate_linear(oracle.linear_binning(pts, lo, hi, n),
                                                lo, hi, n, pts)
                per_seed.append(oracle.rmse(oracle.tgauss_pdf(pts, 0.0, 1.0, lo, hi), approx))
            value = float(np.mean(per_seed))
            got = by_k.get(k, math.nan)
            checks.append((f"study: k={k} error matches the oracle to 1e-9 rel",
                           abs(got - value) <= 1e-9 * value, f"{got!r} vs {value!r}"))
        outputs = {r.outputs.get("study_s") for r in rounds}
        checks.append(("study: rates identical in every round", len(outputs) == 1,
                       f"{len(outputs)} distinct"))
        return checks


class LibFine3d(Workload):
    """Library calls on a 256**3 grid, each round in a fresh child process."""

    OPS = ("fit_s", "fit_threads2_s", "evaluate_s")

    def run_round(self, traced):
        self.rounds_run += 1
        tag = f"lib{self.rounds_run}"
        cmd = [sys.executable, str(HERE / "child.py"), "lib", "--seed", str(self.seed)]
        spans = self.workdir / f"{tag}.spans.json" if traced else None
        if spans is not None:
            cmd += ["--spans", str(spans)]
        if self.rounds_run == 1:
            cmd.append("--check")
        child = run_child(cmd, self.workdir, tag)
        result = Round(attempted=len(self.OPS))
        try:
            report = json.loads(child.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            report = None
        if child.code != 0 or report is None:
            # all three operations count as failed; the child's wall time
            # stands in for their times so the round still has a length
            result.failed = len(self.OPS)
            result.ops = {op: child.wall_s / len(self.OPS) for op in self.OPS}
            result.outputs["error"] = child.stderr[-2000:]
            return result
        result.ops = {op: report[op] for op in self.OPS}
        result.setup_s = report["setup_s"]
        result.rss_mb = report["maxrss_kb"] / 1024.0
        result.outputs["checks"] = report["checks"]
        if spans is not None:
            result.spans.append(json.loads(spans.read_text()))
        return result

    def check(self, rounds):
        checks = [tuple(c) for r in rounds for c in r.outputs.get("checks", [])]
        if not checks:
            checks.append(("lib: output checks ran", False,
                           rounds[0].outputs.get("error", "") if rounds else "no rounds"))
        return checks


WORKLOADS = {
    "cli-file-2d": CliFile2d,
    "study-coupled-2d": StudyCoupled2d,
    "lib-fine-3d": LibFine3d,
}


# -- per-layer metrics -----------------------------------------------------------------


def import_probe_s(workdir: Path) -> float:
    """Median time of ``import binpdf.cli`` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import binpdf.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for i in range(IMPORT_PROBES):
        child = run_child([sys.executable, "-c", code], workdir, f"import{i}")
        if child.code != 0:
            raise RuntimeError(f"import probe failed: {child.stderr}")
        times.append(float(child.stdout.strip()))
    return statistics.median(times)


def round_layers(round_: Round) -> tuple[dict, dict]:
    """Per-layer values of one traced round, and its per-span summary."""
    from spans import summarize

    summary: dict[str, dict] = {}
    levels = {k: 0.0 for k in STUDY_LEVELS}
    level_of_m = {2 ** (4 * k): k for k in STUDY_LEVELS}
    for spans in round_.spans:
        for name, entry in summarize(spans).items():
            total = summary.setdefault(name, {})
            for key, value in entry.items():
                total[key] = max(total.get(key, 0), value) if key == "peak_alloc_mb" \
                    else total.get(key, 0) + value
        for span in spans:
            parent = span["parent"]
            if (parent >= 0 and spans[parent]["name"] == "analysis.convergence_study"
                    and not span["attrs"].get("probe")):
                m = span["attrs"].get("points", span["attrs"].get("samples"))
                if m in level_of_m:
                    levels[level_of_m[m]] += span["end"] - span["start"]

    values = {name: summary.get(span, {}).get(key, 0)
              for name, (span, key) in SPAN_SOURCES.items()}
    sample = summary.get("sampling.sample", {})
    values["sampling.samples_per_s"] = (
        sample["points"] / sample["inclusive_s"] if sample.get("inclusive_s") else 0.0)
    for k, seconds in levels.items():
        values[f"analysis.study_level_k{k}_s"] = seconds
    return values, summary


# -- machine facts and the run -----------------------------------------------------------


def machine_facts() -> dict:
    import numpy
    import scipy

    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data") and level in ("2", "3"):
            facts[f"l{level}"] = size
    return facts


def median(values):
    return statistics.median(values) if values else math.nan


def benchmark_units(trace: bool) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json lists for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    work_root = ROOT / ".bench_work"
    workdir = work_root / f"{workload_name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[workload_name](seed, workdir)
        setups = workload.setup()
        untraced: list[Round] = []
        traced: list[Round] = []
        start = time.perf_counter()
        while True:
            untraced.append(workload.run_round(traced=False))
            if trace:
                traced.append(workload.run_round(traced=True))
            # stop before a further round would overrun the measuring time
            elapsed = time.perf_counter() - start
            if elapsed * (len(untraced) + 1) / len(untraced) > seconds:
                break
        setups += [r.setup_s for r in untraced if r.setup_s is not None]
        try:
            checks = workload.check(untraced)
        except (OSError, ValueError, KeyError) as err:
            # an output that a failed operation never wrote
            checks = [("outputs readable", False, repr(err))]
        import_s = import_probe_s(workdir) if trace else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rounds = untraced + traced
    units = benchmark_units(trace)
    print(f"machine: {json.dumps(machine_facts())}")
    print(f"workload: {workload_name} seed {seed}, {len(untraced)} untraced and "
          f"{len(traced)} traced rounds")
    for op in untraced[0].ops:
        values = [r.ops[op] for r in untraced]
        print(f"op {op}: mean {statistics.fmean(values):.4f} s, median {median(values):.4f} s,"
              f" min {min(values):.4f} s over {len(values)} rounds")
    for name, ok, detail in checks:
        print(f"check {'PASS' if ok else 'FAIL'}: {name}" + (f" ({detail})" if detail else ""))

    if trace:
        layers, summaries = [], []
        for r in traced:
            values, summary = round_layers(r)
            layers.append(values)
            summaries.append(summary)
        all_values = {name: median([v[name] for v in layers]) for name in layers[0]}
        all_values["cli.import_s"] = import_s
        all_values["trace.overhead_ratio"] = (
            median([r.wall_s for r in traced]) / median([r.wall_s for r in untraced]))
        for name, value in all_values.items():
            print(f"layer {name}: {value:.6g} {units.get(name, 's')}")
        for name, entry in sorted(summaries[-1].items()):
            print(f"span {name}: calls {entry['calls']}, inclusive {entry['inclusive_s']:.4f} s,"
                  f" self {entry['self_s']:.4f} s")
        trace_dir = ROOT / ".bench_traces"
        trace_dir.mkdir(exist_ok=True)
        (trace_dir / f"{workload_name}-seed{seed}.json").write_text(json.dumps({
            "workload": workload_name, "seed": seed, "machine": machine_facts(),
            "per_layer": all_values, "round_summaries": summaries,
            "round_spans": [r.spans for r in traced],
        }))
    else:
        all_values = {
            "setup_s": median(setups),
            "round_s": median([r.wall_s for r in untraced]),
            "peak_rss_mb": max(r.rss_mb for r in untraced),
        }

    missing = sorted(set(units) - set(all_values))
    if missing:
        raise SystemExit(f"error: BENCHMARK.json metrics {missing} are not measured")
    return {
        "correct": all(ok for _, ok, _ in checks),
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": all_values[name], "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=101,
                        help="input seed; the study uses seeds N..N+4 (default 101)")
    parser.add_argument("--seconds", type=float, default=35.0,
                        help="measure whole rounds for up to this long (at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "binpdf" / "__init__.py").is_file():
        print(f"error: no binpdf sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2
    # turn SIGTERM into SystemExit so that running children are killed and
    # reaped and the work directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
