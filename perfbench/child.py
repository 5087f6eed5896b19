"""Child processes of the benchmark.

``child.py cli --spans FILE -- ARGS...``
    runs ``binpdf ARGS...`` like ``python -m binpdf.cli`` would, with the
    layer functions traced; the spans are written to FILE at exit.

``child.py lib --seed N [--spans FILE] [--check]``
    one round of the ``lib-fine-3d`` workload in a fresh interpreter:
    import binpdf and draw the samples (set-up), then ``fit`` on a 256**3
    grid with ``threads=1``, again with ``threads=2``, and ``evaluate_batch``
    at held-out points. Prints one JSON line with the timings, the peak RSS
    of this process at the end of the timed part and, with ``--check``, the
    output checks.

Both expect ``binpdf`` on ``PYTHONPATH`` from the checkout's ``src/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

LIB_SAMPLES = 1_000_000
LIB_N_DELTA = 256
LIB_BOX = (-5.5, 5.5)
# Held-out points come from a second Philox stream, keyed apart from the
# fitting stream.
HELDOUT_XOR = 0x9E3779B97F4A7C15


def _import_binpdf():
    import binpdf

    where = Path(binpdf.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise SystemExit(f"error: imported binpdf from {where}, not from {ROOT / 'src'}")


def cli_main(spans_path: str, argv: list[str]) -> int:
    _import_binpdf()
    from spans import Recorder, install

    recorder = Recorder()
    install(recorder)
    from binpdf import cli

    try:
        with recorder.span("cli.main"):
            code = cli.main(argv)
    finally:
        recorder.write(spans_path)
    return code


def lib_main(seed: int, spans_path: str | None, check: bool) -> int:
    t0 = time.perf_counter()
    _import_binpdf()
    recorder = None
    if spans_path:
        from spans import Recorder, install

        recorder = Recorder()
        install(recorder)
    from binpdf import estimator, sampling
    from binpdf.grid import TensorGrid

    def span(name):
        return recorder.span(name) if recorder else contextlib.nullcontext()

    lo, hi = LIB_BOX
    spec = sampling.DistributionSpec((sampling.TruncatedGaussian(0.0, 1.0, lo, hi),) * 3)
    with span("bench.setup"):
        samples = sampling.sample(spec, LIB_SAMPLES, seed)
        heldout = sampling.sample(spec, LIB_SAMPLES, seed ^ HELDOUT_XOR)
    setup_s = time.perf_counter() - t0

    grid = TensorGrid((lo,) * 3, (hi,) * 3, (LIB_N_DELTA,) * 3)
    timings = {}
    start = time.perf_counter()
    with span("bench.fit_threads1"):
        pdf1 = estimator.fit(grid, samples, threads=1)
    timings["fit_s"] = time.perf_counter() - start
    start = time.perf_counter()
    with span("bench.fit_threads2"):
        pdf2 = estimator.fit(grid, samples, threads=2)
    timings["fit_threads2_s"] = time.perf_counter() - start
    start = time.perf_counter()
    with span("bench.evaluate"):
        values = pdf1.evaluate_batch(heldout)
    timings["evaluate_s"] = time.perf_counter() - start
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if recorder:
        recorder.write(spans_path)

    result = {"setup_s": setup_s, **timings, "maxrss_kb": maxrss_kb, "checks": []}
    if check:
        result["checks"] = lib_checks(samples, heldout, pdf1.coefficients,
                                      pdf2.coefficients, values)
    print(json.dumps(result))
    return 0


def lib_checks(samples, heldout, coefficients, coefficients2, values) -> list:
    """[name, ok, detail] for each lib-fine-3d output check."""
    import numpy as np
    import oracle

    lo, hi = LIB_BOX
    checks = []
    checks.append(["lib: coefficients >= 0", bool((coefficients >= 0).all()),
                   f"min {coefficients.min():.3g}"])
    total = float(coefficients @ oracle.hat_integrals(lo, hi, LIB_N_DELTA, 3))
    checks.append(["lib: integral is 1 to 1e-10", abs(total - 1.0) <= 1e-10,
                   f"integral {total!r}"])
    expected = oracle.linear_binning(samples, lo, hi, LIB_N_DELTA)
    worst = float(np.max(np.abs(coefficients - expected)))
    checks.append(["lib: coefficients match the bincount oracle to 1e-12", worst <= 1e-12,
                   f"max abs diff {worst:.3g}"])
    del expected
    same = bool(np.array_equal(coefficients, coefficients2))
    checks.append(["lib: threads=1 and threads=2 coefficients bit-identical", same, ""])
    reference = oracle.evaluate_linear(coefficients, lo, hi, LIB_N_DELTA, heldout)
    bad = np.abs(values - reference) > 1e-12 * np.abs(reference)
    checks.append(["lib: evaluate_batch matches RegularGridInterpolator to 1e-12 rel",
                   not bool(bad.any()), f"{int(bad.sum())} points off"])
    return checks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("cli")
    p.add_argument("--spans", required=True)
    p.add_argument("args", nargs=argparse.REMAINDER)
    p = sub.add_parser("lib")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--spans")
    p.add_argument("--check", action="store_true")
    args = parser.parse_args(argv)
    if args.mode == "cli":
        rest = args.args[1:] if args.args[:1] == ["--"] else args.args
        return cli_main(args.spans, rest)
    return lib_main(args.seed, args.spans, args.check)


if __name__ == "__main__":
    sys.exit(main())
