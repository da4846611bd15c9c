#!/usr/bin/env python3
"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Runs one triple of jobs per case and exits 0 only if the clean triple
passes and every planted fault is counted as a failed job:

* flip: one bit of one clean xor-gfp output flipped after the CLI wrote it;
* transposed: xor-gfp rows built with the pair map (x, p(x)) -> p(x)*t + x
  instead of x*t + p(x);
* modulus: rsh-block computed in GF(2^50) modulo the second irreducible
  degree-50 polynomial of the fixed search order instead of the first.

Faults in the program are planted by a launcher that patches the imported
package and then calls ``trevex.cli.main``; no file changes.
"""

from __future__ import annotations

import dataclasses
import shutil
import sys
import tempfile
from itertools import islice
from pathlib import Path

import reference
from harness import Bench, SetupError
from run import WORK

MUTANT = """
import sys
from trevex import bitext, cli, finfield, weakdesign
kind = sys.argv.pop(1)
if kind == "transposed":
    def compute_Si(self, i):
        coeffs, ev, t = self.coefficients(i), self.field.poly_eval, self.t_act
        return sorted(ev(coeffs, x) * t + x for x in range(t))
    weakdesign.BasicDesign.compute_Si = compute_Si
elif kind == "modulus":
    poly = int(sys.argv.pop(1))
    bitext.find_irreducible = lambda l: finfield.BinaryField(l, poly)
sys.exit(cli.main(sys.argv[1:]))
"""


def main() -> int:
    WORK.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    second = next(islice(reference.irreducibles(50), 1, None))
    mutant = [sys.executable, "-c", MUTANT]
    try:
        xor = Bench("xor-gfp", 7, workdir / "xor")
        clean = xor.triple()
        flipped = [dataclasses.replace(j, problems=[]) for j in clean]
        out = bytearray(flipped[1].out)
        out[len(out) // 2] ^= 0x10
        flipped[1].out = bytes(out)
        xor.check(flipped)
        transposed = Bench("xor-gfp", 7, workdir / "transposed",
                           launcher=mutant + ["transposed"]).triple()
        modulus = Bench("rsh-block", 7, workdir / "modulus",
                        launcher=mutant + ["modulus", str(second)]).triple()
    except SetupError as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ok = True
    for case, jobs in (("clean", clean), ("flip", flipped),
                       ("transposed", transposed), ("modulus", modulus)):
        n = sum(1 for j in jobs if j.problems)
        want = n == 0 if case == "clean" else n > 0
        ok &= want
        print(f"{case:10s} failed {n}/{len(jobs)} "
              f"{'as expected' if want else 'NOT AS EXPECTED'}")
        for j in jobs:
            if j.problems:
                print(f"    {j.problems[0]} (+{len(j.problems) - 1} more)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
