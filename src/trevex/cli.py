"""Command-line front end: parameter dry-runs, batch extraction over files,
design precomputation, and design verification.

Exit codes (stable contract for scripting):
  0 success, 1 usage error, 2 infeasible parameters, 3 insufficient
  input/seed data, 4 I/O or format failure, 5 design verification failure.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import bitext, params, verify, weakdesign
from .params import InfeasibleParameters, RKind
from .trevisan import BitBuffer, ExtractionJob, extract_all
from .weakdesign import DesignError, DesignFormatError, DesignVariant

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_INSUFFICIENT = 3
EXIT_IO = 4
EXIT_VERIFY = 5

_VARIANTS = {
    "gfp": DesignVariant.GFP,
    "gf2x": DesignVariant.GF2X,
    "block-gfp": DesignVariant.BLOCK_GFP,
    "block-gf2x": DesignVariant.BLOCK_GF2X,
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> _Parser:
    p = _Parser(prog="trevex", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--bitext", choices=["xor", "rsh", "lu"],
                   help="one-bit extractor family")
    p.add_argument("--design", choices=sorted(_VARIANTS), default="gfp",
                   help="weak design variant (default: gfp)")
    p.add_argument("-n", type=int, help="input length in bits")
    p.add_argument("-m", type=int, help="output length in bits "
                   "(default: maximum feasible)")
    p.add_argument("--alpha", type=float, help="source min-entropy rate")
    p.add_argument("--mu", type=float, help="extraction-ratio parameter (xor)")
    p.add_argument("--nu", type=float, help="free parameter <= 1/2 (lu)")
    p.add_argument("--eps", type=float, help="error per output bit")
    p.add_argument("--input", help="input randomness file (raw bitstream)")
    p.add_argument("--seed", help="seed file (raw bitstream, never generated)")
    p.add_argument("--output", help="output file")
    p.add_argument("--save-design", help="write the design cache here")
    p.add_argument("--load-design", help="reuse a design cache file")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--dry-run", action="store_true",
                   help="report derived parameters, no extraction")
    p.add_argument("--gen-design", action="store_true",
                   help="precompute the design and save it (needs --save-design)")
    p.add_argument("--verify-design", metavar="PATH",
                   help="load a design cache and verify its properties")
    return p


def _derive(args) -> params.ExtractorParams:
    for name in ("bitext", "n", "alpha", "eps"):
        if getattr(args, name) is None:
            raise UsageError(f"--{name.replace('_', '-')} is required" if name != "n"
                             else "-n is required")
    if args.bitext == "xor" and args.mu is None:
        raise UsageError("--mu is required for the xor extractor")
    if args.bitext == "lu" and args.nu is None:
        raise UsageError("--nu is required for the lu extractor")
    variant = _VARIANTS[args.design]
    r_kind = RKind.ONE if variant.is_block else RKind.TWO_E
    m = args.m
    if m is None:
        m = params.max_output_len(args.bitext, args.n, args.alpha, args.eps,
                                  r_kind, mu=args.mu, nu=args.nu)
    p = params.derive_params(args.bitext, args.n, m, args.alpha, args.eps,
                             r_kind, mu=args.mu, nu=args.nu)
    p.t_act, p.d = weakdesign.design_d(variant, p.t_req, m)
    return p


def run_dry(args) -> int:
    p = _derive(args)
    print(f"n={p.n}")
    print(f"m={p.m}")
    print(f"gamma={p.gamma if p.gamma is not None else 0.0}")
    print(f"ell={p.ell}")
    print(f"t_req={p.t_req}")
    print(f"t_act={p.t_act}")
    print(f"d={p.d}")
    print(f"k={p.k}")
    print(f"r={p.r}")
    print(f"feasible={'true' if p.feasible else 'false'}")
    print(f"seed_surplus={p.m - p.d}")
    return EXIT_OK if p.feasible else EXIT_INFEASIBLE


def _read_bits(path: str, bits: int, what: str) -> BitBuffer:
    need = (bits + 7) // 8
    with open(path, "rb") as fh:
        data = fh.read(need)
    if len(data) < need:
        raise InsufficientData(f"{what} file {path} has {len(data)} bytes, "
                               f"need {need}")
    return BitBuffer.from_bytes(data, bits)


class InsufficientData(Exception):
    pass


def _design_for(args, p: params.ExtractorParams):
    variant = _VARIANTS[args.design]
    if args.load_design:
        design = weakdesign.design_load(args.load_design)
        # k was derived with the r of --design; a cache of another variant
        # would leave the entropy accounting describing a different design.
        if design.variant is not variant:
            raise DesignFormatError(
                f"cached design is {design.variant.name}, but --design "
                f"{args.design} was requested")
        if design.t_act < p.t_req or design.m < p.m:
            raise DesignFormatError(
                f"cached design ({design.t_act=}, {design.m=}) too small for "
                f"this job (t_req={p.t_req}, m={p.m})")
        return design
    return weakdesign.make_design(variant, p.t_req, p.m)


def run_extract(args) -> int:
    p = _derive(args)
    if not p.feasible:
        print("infeasible parameter set (use --dry-run for the report)",
              file=sys.stderr)
        return EXIT_INFEASIBLE
    for name in ("input", "seed", "output"):
        if getattr(args, name) is None:
            raise UsageError(f"--{name} is required for extraction")
    design = _design_for(args, p)
    input_buf = _read_bits(args.input, p.n, "input")
    seed_buf = _read_bits(args.seed, design.d, "seed")
    extractor = bitext.from_params(p)
    job = ExtractionJob(input=input_buf, seed=seed_buf, design=design,
                        extractor=extractor, m=p.m, workers=args.threads)
    start = time.perf_counter()
    out = extract_all(job)
    elapsed = time.perf_counter() - start
    with open(args.output, "wb") as fh:
        fh.write(out.to_bytes())
    if args.save_design:
        weakdesign.design_save(design, args.save_design)
    print(f"bits_in={p.n}")
    print(f"bits_out={p.m}")
    print(f"d={design.d}")
    print(f"wall_time_s={elapsed:.3f}")
    return EXIT_OK


def run_gen_design(args) -> int:
    if args.save_design is None:
        raise UsageError("--gen-design needs --save-design")
    p = _derive(args)
    design = weakdesign.make_design(_VARIANTS[args.design], p.t_req, p.m)
    weakdesign.design_save(design, args.save_design)
    print(f"t_act={design.t_act}")
    print(f"m={design.m}")
    print(f"d={design.d}")
    return EXIT_OK


def run_verify_design(args) -> int:
    design = weakdesign.design_load(args.verify_design)
    t, m, d = design.t_act, design.m, design.d
    for i in range(m):
        row = design.compute_Si(i)
        if len(set(row)) != t:
            print(f"verification failed: row {i} has {len(set(row))} distinct "
                  f"elements, want {t}", file=sys.stderr)
            return EXIT_VERIFY
        if min(row) < 0 or max(row) >= d:
            print(f"verification failed: row {i} outside [0, {d})",
                  file=sys.stderr)
            return EXIT_VERIFY
    if t <= verify.OVERLAP_MAX_T and m <= verify.OVERLAP_MAX_M:
        report = verify.overlap_check(design)
        if not report.passed:
            print(f"verification failed: row {report.worst_row} overlap sum "
                  f"{report.worst_sum} exceeds the r*m bound", file=sys.stderr)
            return EXIT_VERIFY
        print(f"overlap_worst_sum={report.worst_sum}")
    print(f"t_act={t}")
    print(f"m={m}")
    print(f"d={d}")
    print("verified=true")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.verify_design:
            return run_verify_design(args)
        if args.gen_design:
            return run_gen_design(args)
        if args.dry_run:
            return run_dry(args)
        return run_extract(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InfeasibleParameters as exc:
        print(f"infeasible parameters: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except InsufficientData as exc:
        print(f"insufficient data: {exc}", file=sys.stderr)
        return EXIT_INSUFFICIENT
    except (DesignFormatError, DesignError, OSError) as exc:
        print(f"I/O or format error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
