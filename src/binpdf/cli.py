"""Command-line front end: sample, fit, study, and compare.

Every command is deterministic given identical flags (seeds included) and
writes its files with the library writers, which publish atomically. Exit
codes: 0 success, 2 usage error, 1 runtime or data error; failures print a
line starting with ``error:`` on standard error, and warnings one line each
starting with ``warning:``.

Distributions are written in a small axis-spec language, one spec per axis
joined by ';':

    tgauss:MEAN,SD,LO,HI      truncated Gaussian
    uniform:LO,HI             uniform
    laplace:LOC,SCALE,LO,HI   truncated Laplace

plus shorthand presets: ``tgauss1d``/``tgauss2d``/``tgauss3d`` (iid standard
truncated Gaussians on [-5.5, 5.5]), ``laplace1d`` (location 0, scale 1.5 on
[-5.5, 5.5]), ``uniform1d`` (on [-1, 1]), and ``mixed2d`` (truncated
Gaussians with sd 2 and 1 on [-5.5, 5.5]^2).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import sys
import time
import warnings
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import BinPdfError, SampleOutOfDomainError

# numpy and the library modules are imported by the commands that run them,
# so that --help and usage errors caught by the parser load neither.
if TYPE_CHECKING:
    from . import analysis, sampling, textio
    from .grid import TensorGrid

_PRESETS = {
    "tgauss1d": "tgauss:0,1,-5.5,5.5",
    "tgauss2d": "tgauss:0,1,-5.5,5.5;tgauss:0,1,-5.5,5.5",
    "tgauss3d": ";".join(["tgauss:0,1,-5.5,5.5"] * 3),
    "laplace1d": "laplace:0,1.5,-5.5,5.5",
    "uniform1d": "uniform:-1,1",
    "mixed2d": "tgauss:0,2,-5.5,5.5;tgauss:0,1,-5.5,5.5",
}


class UsageError(Exception):
    """Bad flag values detected after parsing; exits with code 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(2)


# -- flag value parsing --------------------------------------------------------


def _parse_count(text: str, what: str) -> int:
    try:
        number = float(text)
    except ValueError as err:
        raise UsageError(f"{what} must be a number, got {text!r}") from err
    if not math.isfinite(number):
        raise UsageError(f"{what} must be a finite number, got {text!r}")
    value = int(number)
    if value != number:
        raise UsageError(f"{what} must be a whole number, got {text!r}")
    if value < 1:
        raise UsageError(f"{what} must be >= 1, got {text}")
    if value > sys.maxsize:  # numpy's largest index, np.iinfo(np.intp).max
        raise UsageError(f"{what} must be at most {sys.maxsize}, got {text}")
    return value


def _parse_axis(text: str) -> sampling.AxisDistribution:
    from . import sampling

    kind, _, rest = text.partition(":")
    try:
        params = [float(p) for p in rest.split(",")] if rest else []
    except ValueError as err:
        raise UsageError(f"bad distribution parameters in {text!r}") from err
    try:
        if kind == "tgauss" and len(params) == 4:
            return sampling.TruncatedGaussian(*params)
        if kind == "uniform" and len(params) == 2:
            return sampling.Uniform(*params)
        if kind == "laplace" and len(params) == 4:
            return sampling.TruncatedLaplace(*params)
    except ValueError as err:
        raise UsageError(f"invalid distribution {text!r}: {err}") from err
    raise UsageError(f"unknown axis distribution {text!r}")


def _parse_dist(text: str) -> sampling.DistributionSpec:
    from . import sampling

    text = _PRESETS.get(text, text)
    return sampling.DistributionSpec(tuple(_parse_axis(p) for p in text.split(";")))


def _parse_levels(text: str) -> list[int]:
    """``LO..HI`` or ``K1,K2,...``; the study rejects empty or non-ascending levels."""
    try:
        if ".." in text:
            lo, _, hi = text.partition("..")
            return list(range(int(lo), int(hi) + 1))
        return [int(p) for p in text.split(",")]
    except ValueError as err:
        raise UsageError(f"bad levels {text!r}") from err


def _parse_mode(args) -> analysis.StudyMode:
    """``--mode`` with the ``--m`` or ``--n-delta`` it needs."""
    from . import analysis

    text = args.mode
    if text == "fixed_m":
        if args.m is None:
            raise UsageError("--mode fixed_m requires --m")
        return analysis.FixedM(_parse_count(args.m, "--m"))
    if text == "fixed_delta":
        if args.n_delta is None:
            raise UsageError("--mode fixed_delta requires --n-delta")
        return analysis.FixedDelta(_parse_count(args.n_delta, "--n-delta"))
    if text.startswith("coupled:"):
        try:
            r = int(text.split(":", 1)[1])
        except ValueError as err:
            raise UsageError(f"bad mode {text!r}") from err
        if r not in (1, 2):
            raise UsageError(f"coupling order {r} is not supported (use 1 or 2)")
        return analysis.Coupled(r)
    raise UsageError(f"unknown mode {text!r} (fixed_m | fixed_delta | coupled:R)")


def _per_axis(text: str, dim: int, what: str, sep: str = ",", convert=float) -> tuple:
    """One ``convert``-ed value per axis; a single value applies to every axis."""
    try:
        values = tuple(convert(p) for p in text.split(sep))
    except ValueError as err:
        raise UsageError(f"bad {what} {text!r}") from err
    if len(values) == 1:
        values *= dim
    if len(values) != dim:
        raise UsageError(f"{what} has {len(values)} entries, expected {dim}")
    return values


def _pair(text: str) -> tuple[float, float]:
    """One axis of ``--domain``: ``lo,hi``."""
    lo, hi = (float(p) for p in text.split(","))
    return lo, hi


# -- commands ------------------------------------------------------------------


def cmd_sample(args) -> int:
    from . import sampling

    spec = _parse_dist(args.dist)
    m = _parse_count(args.m, "--m")
    try:
        sampling.check_seed(args.seed)
    except ValueError as err:
        raise UsageError(f"bad --seed: {err}") from err
    try:  # with the seed checked, m is the one argument a draw can reject
        sampling.draw_samples_csv(args.out, spec, m, args.seed)
    except ValueError as err:
        raise UsageError(f"bad --m: {err}") from err
    print(f"rows: {m}")
    return 0


def _grid(bounds, n_delta) -> TensorGrid:
    """Grid on one ``(lo, hi)`` pair per axis; a rejected grid is a usage error."""
    from .grid import TensorGrid

    try:
        return TensorGrid(*zip(*bounds), n_delta)
    except ValueError as err:
        raise UsageError(str(err)) from err


def _open_samples(path: str) -> textio.TableReader:
    from . import sampling

    try:
        return sampling.open_samples(path)
    except ValueError as err:
        raise BinPdfError(f"could not parse sample file {path}: {err}") from err


def cmd_fit(args) -> int:
    from . import estimator, textio

    out = Path(args.out)
    if textio.sidecar_path(out) == out:
        raise UsageError(f"--out {out} would be overwritten by its .json sidecar")
    with _open_samples(args.samples) as rows:
        dim = rows.shape[1]
        if args.support == "auto":
            if args.lower is not None or args.upper is not None:
                raise UsageError("--support auto conflicts with --lower/--upper")
            from . import analysis

            bounds = analysis.estimate_support(rows)
        else:
            if args.lower is None or args.upper is None:
                raise UsageError("either --support auto or both --lower and --upper")
            bounds = zip(_per_axis(args.lower, dim, "--lower"),
                         _per_axis(args.upper, dim, "--upper"))
        grid = _grid(bounds, _per_axis(args.n_delta, dim, "--n-delta",
                                       convert=functools.partial(_parse_count, what="--n-delta")))

        t0 = time.perf_counter()
        pdf = estimator._fit(estimator.Accumulator, grid, rows)
        seconds = time.perf_counter() - t0

    estimator.save_pdf(pdf, out)
    print(f"samples: {pdf.sample_count}")
    print(f"bins: {grid.n_bins}")
    print(f"integral: {pdf.integral():.12g}")
    print(f"fit-seconds: {seconds:.6g}")
    return 0


def cmd_study(args) -> int:
    from . import analysis

    out = Path(args.out)
    script = out.with_suffix(".gp")
    if script == out:
        raise UsageError(f"--out {out} would be overwritten by its .gp plot script")
    spec = _parse_dist(args.dist)
    mode = _parse_mode(args)
    levels = _parse_levels(args.k)
    try:
        seeds = [args.seed] if args.seeds is None else [int(s) for s in args.seeds.split(",")]
    except ValueError as err:
        raise UsageError(f"bad --seeds {args.seeds!r}") from err

    if args.support == "auto":
        if args.domain is not None:
            raise UsageError("--support auto conflicts with --domain")
        if args.holdout:
            raise UsageError("--holdout conflicts with --support auto")
        grid_domain = "auto"
    elif args.domain is not None:
        grid_domain = _per_axis(args.domain, spec.dim, "--domain", sep=";", convert=_pair)
    else:
        grid_domain = None

    try:  # every argument is checked before the first draw
        result = analysis.averaged_study(
            spec, mode, levels, seeds, grid_domain=grid_domain, holdout=args.holdout,
        )
    except ValueError as err:
        raise UsageError(str(err)) from err
    analysis.write_study_csv(result, out)
    analysis.write_plot_script(out, script, title=f"{args.dist} {args.mode}")
    print(f"delta-rate: {result.fitted_rate_delta:.12g}")
    print(f"m-rate: {result.fitted_rate_m:.12g}")
    return 0


def _parse_estimators(text: str) -> list[tuple[str, object]]:
    """``(label, make_evaluator)`` pairs; ``make_evaluator(grid, rows)`` fits
    one estimator to the rows of a :class:`TableReader` and returns its
    batch evaluator."""
    from . import baselines, estimator

    accumulators = {"fe": estimator.Accumulator, "histogram": baselines.HistogramAccumulator}
    wanted = []
    for part in text.split(","):
        if part in accumulators:
            wanted.append((part, lambda g, r, a=accumulators[part]:
                           estimator._fit(a, g, r).evaluate_batch))
        elif part.startswith("kde:"):
            pieces = part.split(":")
            kernel = pieces[1] if len(pieces) == 3 else "triangular"
            if len(pieces) > 3 or kernel not in baselines.KERNELS:
                raise UsageError(f"bad kde estimator {part!r} (kde:B | kde:KERNEL:B)")
            try:
                bandwidth = float(pieces[-1])
            except ValueError as err:
                raise UsageError(f"bad kde bandwidth in {part!r}") from err
            if not (math.isfinite(bandwidth) and bandwidth > 0):
                raise UsageError(f"kde bandwidth must be finite and > 0, got {bandwidth}")
            wanted.append((f"kde:{kernel}:{bandwidth:g}", lambda g, r, k=kernel, b=bandwidth:
                           functools.partial(baselines.eval_kde_batch,
                                             baselines.KdeSpec(k, b, r.read()))))
        else:
            raise UsageError(f"unknown estimator {part!r} (fe | histogram | kde:B)")
    return wanted


def cmd_compare(args) -> int:
    from . import analysis, baselines, estimator, textio

    with contextlib.ExitStack() as stack:
        samples = stack.enter_context(_open_samples(args.samples))
        ref_samples = (stack.enter_context(_open_samples(args.ref_samples))
                       if args.ref_samples else samples)
        dim = samples.shape[1]
        if ref_samples.shape[1] != dim:
            raise UsageError(f"--samples {args.samples} has dimension {dim} but --ref-samples "
                             f"{args.ref_samples} has dimension {ref_samples.shape[1]}")
        ref_m = _parse_count(args.ref_m, "--ref-m") if args.ref_m else ref_samples.shape[0]
        fit_m = _parse_count(args.m, "--m") if args.m else samples.shape[0]
        if ref_m > ref_samples.shape[0] or fit_m > samples.shape[0]:
            raise UsageError("requested more samples than the file provides")
        ref_n = _parse_count(args.ref_n_delta, "--ref-n-delta")
        coarse_n = _parse_count(args.n_delta, "--n-delta")
        wanted = _parse_estimators(args.estimators)

        if args.domain is None:
            bounds = analysis.estimate_support(ref_samples)
        else:
            bounds = _per_axis(args.domain, dim, "--domain", sep=";", convert=_pair)

        reference = estimator._fit(baselines.HistogramAccumulator,
                                   _grid(bounds, (ref_n,) * dim), ref_samples.head(ref_m))
        coarse = samples.head(fit_m)
        coarse_grid = _grid(bounds, (coarse_n,) * dim)

        lines = ["estimator,n_delta,m,ref_n_delta,ref_m,rmse"]
        for label, make_evaluator in wanted:
            evaluator = make_evaluator(coarse_grid, coarse)
            rmse = analysis.rmse_vs_histogram(evaluator, reference, coarse)
            lines.append(f"{label},{coarse_n},{fit_m},{ref_n},{ref_m},{rmse:.12g}")
            print(f"{label}: {rmse:.12g}")
    textio.write_text(args.out, "\n".join(lines) + "\n")
    return 0


# -- parser --------------------------------------------------------------------


_THREADS_HELP = "accepted (>= 1) for compatibility; affects neither results nor speed"


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="binpdf", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw seeded samples to a CSV file")
    p.add_argument("--dist", required=True, help="distribution spec or preset")
    p.add_argument("--m", required=True, help="number of samples")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("fit", help="fit the piecewise-linear estimator to a sample CSV")
    p.add_argument("--samples", required=True)
    p.add_argument("--lower", help="comma-separated per-axis lower bounds")
    p.add_argument("--upper", help="comma-separated per-axis upper bounds")
    p.add_argument("--n-delta", required=True, help="per-axis bin counts")
    p.add_argument("--support", choices=["auto"], help="grid on the sample extremes")
    p.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("study", help="run a convergence study, write CSV + plot script")
    p.add_argument("--dist", required=True)
    p.add_argument("--mode", required=True, help="fixed_m | fixed_delta | coupled:R")
    p.add_argument("--k", required=True, help="levels, e.g. 2..5 or 2,3,4")
    p.add_argument("--m", help="sample count for fixed_m")
    p.add_argument("--n-delta", help="bin count for fixed_delta")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seeds", help="comma-separated seeds to average over")
    p.add_argument("--domain", help="grid domain lo,hi[;lo,hi...] (default: support)")
    p.add_argument("--support", choices=["auto"], help="grid on per-level sample extremes")
    p.add_argument("--holdout", action="store_true",
                   help="measure errors on an independent sample set")
    p.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_study)

    p = sub.add_parser("compare", help="RMSE of estimators against a fine histogram")
    p.add_argument("--samples", required=True)
    p.add_argument("--ref-samples", help="separate reference sample CSV")
    p.add_argument("--ref-m", help="reference sample count (default: whole file)")
    p.add_argument("--ref-n-delta", required=True, help="reference histogram bin count")
    p.add_argument("--m", help="coarse fit sample count (default: whole file)")
    p.add_argument("--n-delta", required=True, help="coarse bin count")
    p.add_argument("--estimators", default="fe",
                   help="fe,histogram,kde:B; kde visits every fit sample for every "
                        "evaluation point, an O(m^2) cost at --m m")
    p.add_argument("--domain", help="grid domain (default: reference sample extremes)")
    p.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_compare)

    return parser


def _exit_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return int(err.code or 0)
    if getattr(args, "threads", 1) < 1:
        print("error: --threads must be >= 1", file=sys.stderr)
        return 2
    import signal

    # SIGTERM unwinds like an error: temporary files are removed and a
    # study's worker processes stopped before the exit (code 143)
    try:
        previous = signal.signal(signal.SIGTERM, _exit_on_sigterm)
    except ValueError:  # not the main thread, where no handler can be set
        return _run(args)
    try:
        return _run(args)
    finally:
        signal.signal(signal.SIGTERM, previous or signal.SIG_DFL)


def _warning_line(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {message}", file=sys.stderr)


def _run(args) -> int:
    """Run the parsed command; errors become one ``error:`` line and an exit
    code, and each warning shown becomes one ``warning:`` line."""
    with warnings.catch_warnings():  # restores showwarning on return
        warnings.showwarning = _warning_line
        try:
            if not Path(args.out).name:  # checked before anything is read or drawn
                raise UsageError(f"--out {args.out!r} does not name a file")
            return args.func(args)
        except UsageError as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
        except SampleOutOfDomainError as err:
            where = "outside the grid domain" if math.isfinite(err.value) else "not finite"
            print(f"error: sample row {err.index}: coordinate {err.value!r} on axis "
                  f"{err.axis} is {where}", file=sys.stderr)
            return 1
        except (BinPdfError, OSError) as err:
            print(f"error: {err}", file=sys.stderr)
            return 1
        except MemoryError as err:
            print(f"error: out of memory: {err}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    raise SystemExit(main())
