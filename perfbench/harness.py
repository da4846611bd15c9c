"""Shared parts of the trevex benchmark: the workloads, running one CLI
process with its peak memory, and the per-run set-up and output checks."""

from __future__ import annotations

import os
import random
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# Output bits recomputed by the reference per job.  A wrong row map or
# modulus flips each of them with probability 1/2, so one wrong job goes
# unnoticed with probability 2**-16.
SPOT_BITS = 16

CLI = [sys.executable, "-m", "trevex.cli"]


@dataclass(frozen=True)
class Workload:
    family: str
    n: int
    m: int
    design: str
    params: tuple[str, ...]  # --alpha and the family's other flags
    threads: int
    cached: bool            # jobs use --load-design of a per-run cache
    ell: int                # expected from the CLI's dry run
    t_req: int

    @property
    def flags(self) -> list[str]:
        return ["--bitext", self.family, "-n", str(self.n), "-m", str(self.m),
                "--design", self.design, *self.params]


# Why these three: README.md.  m is kept off multiples of 8 so that the
# output's zero padding is checked.
WORKLOADS = {
    "xor-gfp": Workload("xor", 1 << 20, 1531, "gfp",
                        ("--alpha", "0.9", "--mu", "0.9", "--eps", "1e-3"),
                        threads=1, cached=False, ell=66, t_req=1320),
    "rsh-block": Workload("rsh", 1 << 16, 123, "block-gfp",
                          ("--alpha", "0.5", "--eps", repr(2.0 ** -16)),
                          threads=1, cached=False, ell=50, t_req=100),
    "lu-cached": Workload("lu", 1 << 20, 509, "gfp",
                          ("--alpha", "1.0", "--nu", "0.45", "--eps", "1e-3"),
                          threads=2, cached=True, ell=168, t_req=4697),
}


class SetupError(Exception):
    """The workload cannot be run: missing package, CLI failure, or
    parameters that disagree with the reference."""


@dataclass
class Job:
    data: bytes
    exit_code: int
    job_s: float
    rss_mib: float
    speed: float
    out: bytes | None = None
    extract_s: float | None = None
    problems: list[str] = field(default_factory=list)

    @property
    def scale(self) -> float:
        """Factor from this job's seconds to seconds at REF_SAMPLE_S."""
        return (REF_SAMPLE_S / self.speed) ** SPEED_EXPONENT


# Job times are scaled by (REF_SAMPLE_S / mean host-speed sample taken while
# the job ran) ** SPEED_EXPONENT (hostspeed.py): seconds on a host where the
# sampler's loop takes REF_SAMPLE_S.  Jobs slow by more than the loop: per
# job, the log-log slope of time against sample was 1.16-1.26 on xor-gfp
# and 1.34 on lu-cached (README.md, "Steadiness").
REF_SAMPLE_S = 5e-4
SPEED_EXPONENT = 1.25


@dataclass
class Proc:
    code: int
    wall_s: float
    rss_mib: float
    stdout: str
    speed: float | None  # mean host-speed sample in seconds, if sampled


def kill_tree(proc: subprocess.Popen) -> None:
    """Kill proc and its children (pool workers), and reap proc."""
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            # "pid (comm) state ppid ..."; comm may hold spaces or ")".
            ppid = int(stat.read_text().rsplit(")", 1)[1].split()[1])
            if ppid == proc.pid:
                os.kill(int(stat.parent.name), signal.SIGKILL)
        except (OSError, ValueError):
            pass  # the process ended meanwhile
    proc.kill()
    proc.wait()


def run_process(cmd: list[str], env: dict, log: Path, cpus=None) -> Proc:
    """Run cmd to its end.  Given cpus, it runs on those alone and the host
    speed is sampled on them meanwhile.  The peak RSS covers the process
    and every child it reaped (pool workers)."""
    allowed = os.sched_getaffinity(0)
    sampler = None
    with open(log.with_suffix(".stdout"), "w+b") as so, \
            open(log.with_suffix(".stderr"), "w+b") as se:
        try:
            if cpus:
                sampler = subprocess.Popen(
                    [sys.executable, str(HERE / "hostspeed.py"), *map(str, cpus)],
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
                if sampler.stdout.readline() != "ready\n":
                    raise SetupError("host-speed sampler did not start")
                os.sched_setaffinity(0, cpus)  # the child inherits it
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=so, stderr=se, env=env)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                kill_tree(proc)
                raise
            wall = time.perf_counter() - start
            speed = None
            if sampler:
                speed = float(sampler.communicate()[0])
        finally:
            os.sched_setaffinity(0, allowed)
            if sampler and sampler.poll() is None:
                sampler.kill()
                sampler.wait()
        proc.returncode = os.waitstatus_to_exitcode(status)
        so.seek(0)
        se.seek(0)
        out = so.read().decode()
        if proc.returncode:
            print(f"{' '.join(cmd[-12:])}: exit {proc.returncode}: "
                  f"{se.read().decode().strip()}", file=sys.stderr)
    return Proc(proc.returncode, wall, usage.ru_maxrss / 1024.0, out, speed)


def key_values(text: str) -> dict[str, str]:
    return dict(line.split("=", 1) for line in text.splitlines() if "=" in line)


def xor_bytes(a: bytes, b: bytes) -> bytes:
    return (int.from_bytes(a, "little") ^ int.from_bytes(b, "little")
            ).to_bytes(len(a), "little")


class Bench:
    """One run's set-up: seed file, parameters checked against the
    reference, design cache where the workload uses one."""

    def __init__(self, name: str, seed: int, workdir: Path, launcher=CLI):
        if not (SRC / "trevex" / "cli.py").is_file():
            raise SetupError(f"no trevex package under {SRC}")
        self.name = name
        self.label = f"{name}-seed{seed}"
        self.wl = WORKLOADS[name]
        self.rng = random.Random(f"{name}/{seed}")
        self.dir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.launcher = launcher
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        # A 1-worker job stays on one CPU, the one its speed is sampled on.
        self.cpus = sorted(os.sched_getaffinity(0))[:self.wl.threads]
        self.jobs = 0
        # Compile the package's bytecode before any timed process.
        self.process([sys.executable, "-c", "import trevex.cli"], "warmup")
        report = key_values(self.process(
            CLI + self.wl.flags + ["--dry-run"], "dry-run").stdout)
        self.design, self.extractor = self.reference_model(report)
        self.seed = self.rng.randbytes((self.design.d + 7) // 8)
        self.seed_path = workdir / "seed.bin"
        self.seed_path.write_bytes(self.seed)
        self.design_path = workdir / "design.twd"
        if self.wl.cached:
            self.process(
                launcher + self.wl.flags
                + ["--gen-design", "--save-design", str(self.design_path)],
                "gen-design")

    def process(self, cmd: list[str], tag: str):
        result = run_process(cmd, self.env, self.dir / tag)
        if result.code:
            raise SetupError(f"{tag} exited {result.code}")
        return result

    def reference_model(self, report: dict[str, str]):
        wl = self.wl
        got = {k: int(report.get(k, -1)) for k in ("m", "ell", "t_req", "t_act", "d")}
        design = reference.Design(reference.next_prime(wl.t_req), wl.m,
                                  block=wl.design.startswith("block"))
        want = {"m": wl.m, "ell": wl.ell, "t_req": wl.t_req,
                "t_act": design.t, "d": design.d}
        if got != want:
            raise SetupError(f"dry run reports {got}, reference wants {want}")
        if wl.family == "xor":
            extractor = reference.Xor(wl.n, wl.ell)
        elif wl.family == "rsh":
            extractor = reference.Rsh(wl.n, wl.ell,
                                      next(reference.irreducibles(wl.ell)))
        else:
            extractor = reference.Lu(wl.n, wl.ell, wl.t_req)
        if extractor.t_req != wl.t_req:
            raise SetupError(f"reference t_req {extractor.t_req} != {wl.t_req}")
        return design, extractor

    def job_args(self, in_path: Path, out_path: Path, threads: int) -> list[str]:
        args = self.wl.flags + ["--input", str(in_path), "--seed",
                                str(self.seed_path), "--output", str(out_path),
                                "--threads", str(threads)]
        if self.wl.cached:
            args += ["--load-design", str(self.design_path)]
        return args

    def run_job(self, data: bytes) -> Job:
        tag = f"job{self.jobs}"
        self.jobs += 1
        in_path, out_path = self.dir / f"{tag}.in", self.dir / f"{tag}.out"
        in_path.write_bytes(data)
        proc = run_process(
            self.launcher + self.job_args(in_path, out_path, self.wl.threads),
            self.env, self.dir / tag, self.cpus)
        job = Job(data, proc.code, proc.wall_s, proc.rss_mib, proc.speed)
        if proc.code:
            job.problems.append(f"exit code {proc.code}")
        else:
            report = key_values(proc.stdout)
            job.extract_s = float(report["wall_time_s"])
            job.out = out_path.read_bytes()
            if int(report["bits_out"]) != self.wl.m:
                job.problems.append(f"bits_out={report['bits_out']}")
        in_path.unlink()
        out_path.unlink(missing_ok=True)
        return job

    def check_output(self, data: bytes, out: bytes) -> list[str]:
        """Length, zero padding, and SPOT_BITS seed-chosen bits against the
        reference."""
        m = self.wl.m
        if len(out) != (m + 7) // 8:
            return [f"output has {len(out)} bytes, want {(m + 7) // 8}"]
        problems = []
        if out[-1] >> (m % 8 or 8):
            problems.append("nonzero padding after bit m")
        for i in sorted(self.rng.sample(range(m), SPOT_BITS)):
            want = reference.output_bit(self.design, self.extractor,
                                        self.seed, data, i)
            if reference.bit(out, i) != want:
                problems.append(f"bit {i} differs from the reference")
        return problems

    def triple(self) -> list[Job]:
        """Jobs on x, y and x^y; outputs must satisfy out(x^y) = out(x)^out(y)."""
        nbytes = (self.wl.n + 7) // 8
        x, y = self.rng.randbytes(nbytes), self.rng.randbytes(nbytes)
        jobs = [self.run_job(d) for d in (x, y, xor_bytes(x, y))]
        self.check(jobs)
        return jobs

    def check(self, jobs: list[Job]) -> None:
        """Add to each job of a triple what its output gets wrong.  A
        failure of linearity marks all three: which is wrong cannot be told."""
        for j in jobs:
            if j.out is not None:
                j.problems += self.check_output(j.data, j.out)
        outs = [j.out for j in jobs]
        if None not in outs and xor_bytes(outs[0], outs[1]) != outs[2]:
            for j in jobs:
                j.problems.append("out(x^y) != out(x)^out(y)")
