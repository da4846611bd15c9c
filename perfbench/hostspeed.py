"""Host-speed sampler of the trevex benchmark, one process per job.

    python3 perfbench/hostspeed.py CPU [CPU ...]

On a shared host a vCPU runs slower while other tenants load the same core
and its caches: one xor-gfp job took from 1.35 s to 3.0 s over minutes, in
stretches of seconds to minutes, and CPU time slowed as much as wall time.
A run's mean or median job then follows the host, not the program.  So
while a job runs on the given CPUs, this process wakes every
SAMPLE_PERIOD_S, pins itself in turn to each of them and times a fixed loop
in its own CPU time, which waiting behind the job does not count.

Protocol: it takes one sample, prints ``ready``, samples until its standard
input reaches end of file, then prints the mean sample in seconds.  It runs
apart from the process that starts the jobs, so its buffer does not enter
the peak RSS that ``wait4`` reports for a job: a child's peak counts the
memory its parent held when it was started.

Of the loops tried, one that reads scattered 4 KiB slices of an 8 MiB
buffer tracked job time best on both xor-gfp and lu-cached (correlation
0.95 and 0.74 per job); a loop of small-int arithmetic that stays in L1
tracked less well.  It imports nothing from trevex, so a change to the
program does not move it.
"""

import os
import random
import select
import sys
import time

SAMPLE_PERIOD_S = 0.04
_BUFFER = random.Random(0).randbytes(1 << 23)


def speed_sample() -> float:
    """CPU seconds of a fixed loop; larger when the host is slower."""
    start = time.thread_time()
    acc = 0
    for k in range(40):
        offset = k * 209441
        acc ^= int.from_bytes(_BUFFER[offset:offset + 4096], "little").bit_count()
    return time.thread_time() - start


def main() -> None:
    cpus = [int(c) for c in sys.argv[1:]]
    samples: list[float] = []

    def sample() -> None:
        os.sched_setaffinity(0, {cpus[len(samples) % len(cpus)]})
        samples.append(speed_sample())

    sample()
    print("ready", flush=True)
    while not select.select([sys.stdin], [], [], SAMPLE_PERIOD_S)[0]:
        sample()
    print(sum(samples) / len(samples), flush=True)

if __name__ == "__main__":
    main()
