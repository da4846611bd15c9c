"""Per-layer run of the trevex benchmark (``--trace 1``).

Spans are recorded from outside the package: for the duration of one job,
the public functions and methods the CLI reaches are replaced by wrappers
that note (trace, name, start, end, parent) in memory; the originals are put
back afterwards and the spans are written to ``results/`` at the end.

One pass, on one fresh input drawn from the seed:

1. probes in fresh processes: ``import trevex.cli`` alone, the CLI's
   ``--gen-design``, and ``design_load`` of that cache with the RSS it adds;
2. traced in-process ``--gen-design``: design construction and save.
   Before it and before step 4 the irreducible-polynomial cache is cleared,
   as every CLI process starts without it;
3. the workload's job in-process, untraced, 1 worker: the reference time;
4. the same job traced, 1 worker: every per-bit layer;
5. the same job untraced with 2 workers: the parallel speed-up.

The three job outputs must be equal and pass the reference spot check.
Passes repeat while another fits in ``--seconds``; each metric is the
median over passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

from harness import CLI, SRC, key_values

IMPORT_PROBES = 3
LOAD_PROBES = 2

LOAD_PROBE = """
import json, os, sys, time
from trevex import weakdesign

def rss():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")

before = rss()
start = time.perf_counter()
design = weakdesign.design_load(sys.argv[1])
load_s = time.perf_counter() - start
print(json.dumps({"load_s": load_s, "loaded_mib": (rss() - before) / 2**20}))
"""

UNITS = {
    "params.derive_s": "s",
    "finfield.irreducible_s": "s",
    "weakdesign.make_s": "s",
    "weakdesign.save_s": "s",
    "weakdesign.cache_mib": "MiB",
    "weakdesign.load_s": "s",
    "weakdesign.loaded_mib": "MiB",
    "weakdesign.row_us": "us",
    "weakdesign.rows_computed_per_row": "ratio",
    "bitext.extract_us": "us",
    "bitext.prepare_s": "s",
    "trevisan.gather_us": "us",
    "trevisan.loop_us": "us",
    "trevisan.read_s": "s",
    "trevisan.parallel_speedup": "ratio",
    "trevisan.fanout_s": "s",
    "cli.import_s": "s",
    "cli.gen_design_s": "s",
    "trace.overhead_pct": "%",
}

DERIVE = {"params.max_output_len", "params.derive_params", "weakdesign.design_d"}
FIELD = {"finfield.field_for_order", "finfield.find_irreducible"}
ROW = "weakdesign.compute_Si"


class Tracer:
    """In-memory spans; ``patched`` swaps wrappers in and always restores."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.trace = ""
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (self.trace, name, start, end, parent)
        return traced

    @contextlib.contextmanager
    def patched(self, trace: str, targets):
        self.trace = trace
        first = len(self.spans)
        saved = []
        try:
            for owner, attr, name in targets:
                raw = vars(owner)[attr]
                saved.append((owner, attr, raw))
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(self.wrap(name, raw.__func__)))
                else:
                    setattr(owner, attr, self.wrap(name, raw))
            yield lambda: {i: self.spans[i]
                           for i in range(first, len(self.spans))}
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)


def targets(mods):
    """(owner, attribute, span name) of every call the spans cover."""
    params, finfield, weakdesign = mods.params, mods.finfield, mods.weakdesign
    bitext, trevisan, cli = mods.bitext, mods.trevisan, mods.cli
    out = [
        (params, "max_output_len", "params.max_output_len"),
        (params, "derive_params", "params.derive_params"),
        (weakdesign, "design_d", "weakdesign.design_d"),
        (weakdesign, "field_for_order", "finfield.field_for_order"),
        (finfield, "find_irreducible", "finfield.find_irreducible"),
        (bitext, "find_irreducible", "finfield.find_irreducible"),
        (weakdesign, "make_design", "weakdesign.make_design"),
        (weakdesign, "design_save", "weakdesign.design_save"),
        (weakdesign, "design_load", "weakdesign.design_load"),
        (trevisan.BitBuffer, "from_bytes", "trevisan.from_bytes"),
        (cli, "extract_all", "trevisan.extract_all"),
        (trevisan, "slice_subseed", "trevisan.slice_subseed"),
        (bitext.RshExtractor, "prepare", "bitext.prepare"),
    ]
    for cls in (weakdesign.BasicDesign, weakdesign.BlockDesign,
                weakdesign.LoadedBasicDesign, weakdesign.LoadedBlockDesign):
        out.append((cls, "compute_Si", f"{ROW}.{cls.__name__}"))
    for cls in (bitext.XorExtractor, bitext.RshExtractor, bitext.LuExtractor):
        out.append((cls, "extract", "bitext.extract"))
    return out


def run_cli(cli, argv: list[str]) -> dict[str, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code:
        raise RuntimeError(f"trevex {' '.join(argv)} exited {code}")
    return key_values(buf.getvalue())


def dur(span) -> float:
    return span[3] - span[2]


def field_setup(by_id: dict[int, tuple]) -> float:
    """Time in field construction, outermost spans only."""
    return sum(dur(s) for s in by_id.values() if s[1] in FIELD
               and (s[4] == -1 or by_id[s[4]][1] not in FIELD))


def job_layers(by_id: dict[int, tuple], m: int) -> tuple[dict[str, float], float]:
    """Per-layer figures of one traced job from its spans, keyed by id,
    and the traced extraction time."""
    spans = list(by_id.values())
    top = [s for s in spans if s[4] == -1]
    (run,) = [i for i, s in by_id.items() if s[1] == "trevisan.extract_all"]
    run_span = by_id[run]
    children = [s for s in spans if s[4] == run]
    rows = [s for s in children if s[1].startswith(ROW)]
    first_row = min(s[2] for s in rows)
    in_loop = [s for s in children if s[2] >= first_row]

    def total(name: str) -> float:
        return sum(dur(s) for s in children if s[1] == name)

    figures = {
        "params.derive_s": sum(dur(s) for s in top if s[1] in DERIVE),
        "trevisan.read_s": sum(dur(s) for s in spans
                               if s[1] == "trevisan.from_bytes"),
        "bitext.prepare_s": first_row - run_span[2],
        "weakdesign.row_us": 1e6 * sum(dur(s) for s in rows) / m,
        "weakdesign.rows_computed_per_row": sum(
            1 for s in spans if s[1] == f"{ROW}.BasicDesign") / m,
        "bitext.extract_us": 1e6 * total("bitext.extract") / m,
        "trevisan.gather_us": 1e6 * total("trevisan.slice_subseed") / m,
        "trevisan.loop_us": 1e6 * (run_span[3] - first_row
                                   - sum(dur(s) for s in in_loop)) / m,
    }
    return figures, dur(run_span)


def one_pass(bench, tracer: Tracer, mods, index: int) -> tuple[dict, list]:
    wl, cli = bench.wl, mods.cli
    tag = f"pass{index}"
    figures: dict[str, float] = {}
    imports = [bench.process([sys.executable, "-c", "import trevex.cli"],
                             f"{tag}-import").wall_s
               for _ in range(IMPORT_PROBES)]
    figures["cli.import_s"] = statistics.median(imports)
    cache = bench.dir / f"{tag}.twd"
    figures["cli.gen_design_s"] = bench.process(
        CLI + wl.flags + ["--gen-design", "--save-design", str(cache)],
        f"{tag}-gen-design").wall_s
    figures["weakdesign.cache_mib"] = cache.stat().st_size / 2**20
    loads = [json.loads(bench.process([sys.executable, "-c", LOAD_PROBE, str(cache)],
                                      f"{tag}-load").stdout)
             for _ in range(LOAD_PROBES)]
    for key in ("load_s", "loaded_mib"):
        figures[f"weakdesign.{key}"] = statistics.median(p[key] for p in loads)
    cache.unlink()

    clear_field_cache = mods.finfield.find_irreducible.cache_clear
    clear_field_cache()
    with tracer.patched(f"{tag}/gen-design", targets(mods)) as spans:
        run_cli(cli, wl.flags + ["--gen-design", "--save-design", str(cache)])
    gen_spans = spans()
    gen = gen_spans.values()
    figures["weakdesign.make_s"] = sum(dur(s) for s in gen
                                       if s[1] == "weakdesign.make_design")
    figures["weakdesign.save_s"] = sum(dur(s) for s in gen
                                       if s[1] == "weakdesign.design_save")
    cache.unlink()

    data = bench.rng.randbytes((wl.n + 7) // 8)
    in_path = bench.dir / f"{tag}.in"
    in_path.write_bytes(data)
    outs, problems = [], []

    def job(threads: int) -> float:
        out_path = bench.dir / f"{tag}-{len(outs)}.out"
        report = run_cli(cli, bench.job_args(in_path, out_path, threads))
        outs.append(out_path.read_bytes())
        out_path.unlink()
        return float(report["wall_time_s"])

    one_worker = job(1)
    clear_field_cache()
    with tracer.patched(f"{tag}/job", targets(mods)) as spans:
        job(1)
    job_spans = spans()
    layers, traced_s = job_layers(job_spans, wl.m)
    figures["finfield.irreducible_s"] = (field_setup(gen_spans)
                                         + field_setup(job_spans))
    two_workers = job(2)
    in_path.unlink()

    figures.update(layers)
    figures["trace.overhead_pct"] = 100.0 * (traced_s / one_worker - 1.0)
    figures["trevisan.parallel_speedup"] = one_worker / two_workers
    figures["trevisan.fanout_s"] = two_workers - one_worker / 2.0
    if outs[1] != outs[0] or outs[2] != outs[0]:
        problems.append("traced or 2-worker output differs from the 1-worker one")
    problems += bench.check_output(data, outs[0])
    return figures, problems


def traced(bench, seconds: float, results: Path) -> dict:
    sys.path.insert(0, str(SRC))
    from trevex import bitext, cli, finfield, params, trevisan, weakdesign
    mods = SimpleNamespace(bitext=bitext, cli=cli, finfield=finfield,
                           params=params, trevisan=trevisan,
                           weakdesign=weakdesign)
    tracer = Tracer()
    passes, failed = [], 0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        figures, found = one_pass(bench, tracer, mods, len(passes))
        passes.append(figures)
        failed += bool(found)
        for p in found:
            print(f"{bench.name}: traced pass failed: {p}", file=sys.stderr)
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            break
    results.mkdir(parents=True, exist_ok=True)
    (results / f"trace-{bench.label}.json").write_text(json.dumps(
        {"workload": bench.name, "fields": ["trace", "name", "start", "end", "parent"],
         "spans": tracer.spans}))
    metrics = {name: {"value": statistics.median(p[name] for p in passes),
                      "unit": unit} for name, unit in UNITS.items()}
    return {"correct": not failed, "attempted": len(passes),
            "failed": failed, "metrics": metrics}
