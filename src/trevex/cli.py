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

from . import bitext, params, weakdesign
from .params import InfeasibleParameters
from .trevisan import BitBuffer, ExtractionJob, extract_all
from .weakdesign import DesignFormatError, DesignVariant

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
    p.add_argument("--threads", type=int, default=1,
                   help="worker processes (default: 1); the output is "
                   "the same for any count")
    p.add_argument("--dry-run", action="store_true",
                   help="report derived parameters, no extraction")
    p.add_argument("--gen-design", action="store_true",
                   help="precompute the design and save it (needs --save-design)")
    p.add_argument("--verify-design", metavar="PATH",
                   help="load a design cache and verify its properties")
    return p


def _derive(args):
    """The run's parameters, its one-bit extractor, which owns t_req, and
    its design's sizing (t_act, d): (p, extractor, t_act, d)."""
    for flag in ("--bitext", "-n", "--alpha", "--eps"):
        if getattr(args, flag.lstrip("-")) is None:
            raise UsageError(f"{flag} is required")
    if args.bitext == "xor" and args.mu is None:
        raise UsageError("--mu is required for the xor extractor")
    if args.bitext == "lu" and args.nu is None:
        raise UsageError("--nu is required for the lu extractor")
    variant = _VARIANTS[args.design]
    m = args.m
    if m is None:
        m = params.max_output_len(args.bitext, args.n, args.alpha, args.eps,
                                  variant.r_kind, mu=args.mu, nu=args.nu)
    p = params.derive_params(args.bitext, args.n, m, args.alpha, args.eps,
                             variant.r_kind, mu=args.mu, nu=args.nu)
    extractor = bitext.from_params(p)
    return (p, extractor, *weakdesign.design_d(variant, extractor.t_req, m))


def run_dry(args) -> int:
    p, extractor, t_act, d = _derive(args)
    print(f"n={p.n}")
    print(f"m={p.m}")
    print(f"gamma={p.gamma if p.gamma is not None else 0.0}")
    print(f"ell={p.ell}")
    print(f"t_req={extractor.t_req}")
    print(f"t_act={t_act}")
    print(f"d={d}")
    print(f"k={p.k}")
    print(f"r={p.r_kind.real}")
    print(f"feasible={'true' if p.feasible else 'false'}")
    print(f"seed_surplus={p.m - d}")
    return EXIT_OK if p.feasible else EXIT_INFEASIBLE


def _read_bits(path: str, bits: int, what: str) -> BitBuffer:
    need = (bits + 7) // 8
    buf = BitBuffer(bits)
    with open(path, "rb") as fh:
        got = buf.readinto(fh)
    if got < need:
        raise InsufficientData(f"{what} file {path} has {got} bytes, "
                               f"need {need}")
    return buf


class InsufficientData(Exception):
    pass


def _design_for(args, m: int, t_req: int, t_act: int):
    """The design the run sizes, or a cache of that design: its variant
    (k used its r), its t_act (the seed is sized by it), and rows that
    serve m (weakdesign.serves)."""
    variant = _VARIANTS[args.design]
    if not args.load_design:
        return weakdesign.make_design(variant, t_req, m)
    design = weakdesign.design_load(args.load_design)
    if (design.variant is not variant or design.t_act != t_act
            or not weakdesign.serves(design, m)):
        raise DesignFormatError(
            f"cached design ({design.variant.name}, t_act={design.t_act}, "
            f"m={design.m}) is not the design of --design {args.design} "
            f"for this job (t_act={t_act}, m={m})")
    return design


def _derive_feasible(args):
    """_derive for a run that builds a design: a parameter set the dry-run
    reports infeasible is refused before anything is written."""
    derived = _derive(args)
    if not derived[0].feasible:
        raise InfeasibleParameters(
            "feasible=false (use --dry-run for the report)")
    return derived


def run_extract(args) -> int:
    p, extractor, t_act, _ = _derive_feasible(args)
    for name in ("input", "seed", "output"):
        if getattr(args, name) is None:
            raise UsageError(f"--{name} is required for extraction")
    design = _design_for(args, p.m, extractor.t_req, t_act)
    input_buf = _read_bits(args.input, p.n, "input")
    seed_buf = _read_bits(args.seed, design.d, "seed")
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
    p, extractor, _, _ = _derive_feasible(args)
    design = weakdesign.make_design(_VARIANTS[args.design], extractor.t_req, p.m)
    weakdesign.design_save(design, args.save_design)
    print(f"t_act={design.t_act}")
    print(f"m={design.m}")
    print(f"d={design.d}")
    return EXIT_OK


def run_verify_design(args) -> int:
    from decimal import Decimal
    from . import verify  # the oracles serve this command alone
    design = weakdesign.design_load(args.verify_design)
    report = verify.overlap_check(design)
    if not report.passed:
        print(f"verification failed: {report.error}", file=sys.stderr)
        return EXIT_VERIFY
    print(f"overlap_worst_sum={report.worst_sum}")
    print(f"overlap_bound={Decimal(report.bound_num) / report.bound_den}")
    print(f"t_act={design.t_act}")
    print(f"m={design.m}")
    print(f"d={design.d}")
    print("verified=true")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.threads < 1:
            raise UsageError(f"--threads must be at least 1, got {args.threads}")
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
    except (DesignFormatError, OSError) as exc:
        print(f"I/O or format error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
