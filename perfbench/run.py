"""Benchmark of the epcodes classifier, end to end and layer by layer.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Workloads (BENCHMARK.json records why each one exists):

* ``tables-verify``: ``verify-tables`` at its default scope with one worker,
  pinned in four invocations;
* ``selfdual-p3n6``: ``classify self-dual --p 3 --n 6 --workers 2``;
* ``equiv-batch``: a seeded batch of ``equivalent_ep`` queries (gen.py).

An operation is one CLI invocation or one equivalence query.  Every
operation is checked: an invocation must exit 0 and print exactly the bytes
recorded at the seed commit, with every table row CONFIRMED, SKIPPED or an
allowlisted known discrepancy; a query must return a witness that maps the
first code onto the second (re-applied with MonomialMapEp.apply) exactly
when the pair was generated equivalent.

Every operation runs in a child process (child.py), the same way with and
without tracing.  With ``--trace 0`` the run makes ``--seconds // pass_s``
untraced passes of the workload (at least one), where ``pass_s`` is the
workload's planned pass length; the equivalence passes run as rounds inside
one child, and in each round a query runs up to REPEAT times back to back.
An operation's latency is its fastest time in the run, and the end-to-end
metrics are taken over these: the machine's noise only ever adds time, so
the fastest of several times is the steadiest estimate.  The number of
passes does not depend on how fast the program runs, so every version is
measured on as many samples.  With
``--trace 1`` it makes one untraced pass as configured and one traced pass
(spans.py) with one worker, interleaved operation by operation, and reports
the per-layer metrics; a workload with more workers also gets an untraced
one-worker pass, against which the tracing overhead is measured.  The last
line of stdout is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import time
import uuid
from collections import Counter
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import spans  # noqa: E402

SETUP_PROBES = 11

# in an untraced equivalence round, a query runs up to REPEAT times back to
# back, and again only while the time spent on it is under REPEAT_S seconds:
# the queries below 10 ms, over half of the batch, run REPEAT times at little
# cost, those of 10-20 ms twice, and the slower ones, which the machine's
# short stalls disturb less, once
REPEAT = 3
REPEAT_S = 0.02

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
    "query_p50_ms": "ms",
    "query_p95_ms": "ms",
    "queries_per_s": "1/s",
}

PER_LAYER_UNITS = {
    "fp.enumerate.count": "count",
    "fp.enumerate.s": "s",
    "fp.predicate.calls": "count",
    "fp.predicate.hits": "count",
    "fp.predicate.s": "s",
    "fp.predicate.hit_ratio": "ratio",
    "equiv.canon_free.calls": "count",
    "equiv.canon_free.s": "s",
    "equiv.canon_free.max_ms": "ms",
    "equiv.canon_joint.calls": "count",
    "equiv.canon_joint.s": "s",
    "equiv.canon_joint.max_ms": "ms",
    "equiv.new_class_ratio": "ratio",
    "equiv.equivalent.calls": "count",
    "equiv.equivalent.s": "s",
    "equiv.equivalent.max_ms": "ms",
    "code.invariants.calls": "count",
    "code.invariants.s": "s",
    "classify.calls": "count",
    "classify.cache_hits": "count",
    "classify.classes": "count",
    "classify.parallel_eff": "ratio",
    "tables.load.s": "s",
    "cli.s": "s",
    "layer.fp.self_s": "s",
    "layer.code.self_s": "s",
    "layer.equiv.self_s": "s",
    "layer.classify.self_s": "s",
    "layer.tables.self_s": "s",
    "layer.cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.unspanned_s": "s",
}

# printed rows whose discrepancy is a confirmed defect of the publication
KNOWN_DISCREPANCIES = {(7, "n=8 #1 (printed)")}


@dataclass(frozen=True)
class Invocation:
    """One CLI call with the stdout digest and verdict tally of the seed."""

    argv: tuple[str, ...]
    sha256: str
    verdicts: tuple[tuple[str, int], ...] = ()


# ``pass_s`` is the planned length of one pass on the reference machine; a
# run of ``--seconds`` makes ``--seconds // pass_s`` passes, at least one
@dataclass(frozen=True)
class CliWorkload:
    name: str
    invocations: tuple[Invocation, ...]
    workers: int
    pass_s: float


@dataclass(frozen=True)
class EquivWorkload:
    name: str
    shapes: tuple
    structured: tuple
    pass_s: float


def _tables(ids: list[int], max_n: int) -> tuple[str, ...]:
    argv = ["verify-tables"]
    for table_id in ids:
        argv += ["--table", str(table_id)]
    return tuple(argv + ["--max-n", str(max_n), "--workers", "1"])


# Together these print exactly what `verify-tables --workers 1` prints at the
# default scope (135 CONFIRMED, 28 SKIPPED, 1 known DISCREPANCY); the scope is
# pinned so that widening the default does not silently change the workload.
WORKLOADS = {
    "tables-verify": CliWorkload(
        "tables-verify",
        (
            Invocation(
                _tables([1, 3, 5, 8, 9], 6),
                "7531a47208e509d41729ccd2a849ea03c528bcd8768c3293e8b1d6d8027c08f9",
                (("CONFIRMED", 65), ("SKIPPED", 17)),
            ),
            Invocation(
                _tables([2, 4, 6], 5),
                "7e516ea6c37bb151c63697e7b19bb9dc3858279d877b21d656ede159239cea28",
                (("CONFIRMED", 59), ("SKIPPED", 11)),
            ),
            Invocation(
                _tables([7], 8),
                "c9df45064b220eaa592cf1652c8abddfde2ad513aaf975d21d9ed659b4c6d904",
                (("CONFIRMED", 7), ("DISCREPANCY (known)", 1)),
            ),
            Invocation(
                _tables([10], 4),
                "20826aee194ab902c3069398718bc7f6eac1c6777489826d9d9de46abe53996d",
                (("CONFIRMED", 4),),
            ),
        ),
        workers=1,
        pass_s=40.0,
    ),
    "selfdual-p3n6": CliWorkload(
        "selfdual-p3n6",
        (
            Invocation(
                ("classify", "self-dual", "--p", "3", "--n", "6", "--workers", "2"),
                "8479ddaea1c04a64fa7c011b241c7163b0e76a8526f4efa7301bce4e0e9b0e07",
            ),
        ),
        workers=2,
        pass_s=20.0,
    ),
    "equiv-batch": EquivWorkload("equiv-batch", gen.BATCH_SHAPES, gen.STRUCTURED_SHAPES, 17.0),
}


# -- processes ----------------------------------------------------------------------


class Runner:
    """Starts the measured processes in one checkout and keeps their output."""

    def __init__(self, root: str) -> None:
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.out_dir = os.path.join(root, ".perfbench")

    def _run(self, cmd: list[str], stdin: bytes | None = None) -> tuple[float, subprocess.CompletedProcess]:
        t0 = time.perf_counter()
        proc = subprocess.run(
            cmd, cwd=self.root, env=self.env, input=stdin, capture_output=True, check=False
        )
        return time.perf_counter() - t0, proc

    def setup_s(self) -> float:
        """Median wall time of interpreter start plus ``import epcodes``."""
        walls = []
        for _ in range(SETUP_PROBES):
            wall, proc = self._run([sys.executable, "-c", "import epcodes"])
            if proc.returncode != 0:
                raise RuntimeError("import epcodes failed: " + proc.stderr.decode(errors="replace"))
            walls.append(wall)
        return statistics.median(walls)

    def child(self, mode: str, args: list[str], trace_as: tuple[str, str] | None,
              stdin: bytes | None = None):
        """Runs child.py, traced as (run id, file tag) if given; returns its
        wall time and its JSON outcome."""
        cmd = [sys.executable, os.path.join(HERE, "child.py"), mode]
        if trace_as is not None:
            os.makedirs(self.out_dir, exist_ok=True)
            run_id, tag = trace_as
            cmd += ["--trace", run_id, os.path.join(self.out_dir, f"spans-{tag}.tsv")]
        wall, proc = self._run(cmd + args, stdin)
        if proc.returncode != 0:
            raise RuntimeError(f"child {mode} failed: " + proc.stderr.decode(errors="replace"))
        return wall, json.loads(proc.stdout.decode().splitlines()[-1])


# -- checks ---------------------------------------------------------------------------

_VERDICT = re.compile(r"^  (\S.*?)\s+(CONFIRMED|SKIPPED|DISCREPANCY)( \(known\))?(?:  |$)")


def verdict_tally(stdout: str) -> tuple[Counter, list[str]]:
    """Verdict counts of a verify-tables text report, and disallowed rows."""
    tally: Counter = Counter()
    bad = []
    table = None
    for line in stdout.splitlines():
        head = re.match(r"^table (\d+):$", line)
        if head:
            table = int(head.group(1))
            continue
        m = _VERDICT.match(line)
        if m is None:
            continue
        label, verdict, known = m.group(1), m.group(2), bool(m.group(3))
        tag = verdict + (" (known)" if known else "")
        tally[tag] += 1
        if verdict == "DISCREPANCY" and not (known and (table, label) in KNOWN_DISCREPANCIES):
            bad.append(f"table {table} {label}: {tag}")
    return tally, bad


def check_invocation(inv: Invocation, exit_code: int, stdout: str) -> list[str]:
    """Problems with one invocation's outcome; empty when it is correct."""
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    digest = hashlib.sha256(stdout.encode("utf-8")).hexdigest()
    if digest != inv.sha256:
        problems.append(f"stdout sha256 {digest[:16]}, expected {inv.sha256[:16]}")
    if inv.argv[0] == "verify-tables":
        tally, bad = verdict_tally(stdout)
        problems += bad
        if tally != Counter(dict(inv.verdicts)):
            problems.append(f"verdicts {dict(tally)}, expected {dict(inv.verdicts)}")
    return problems


def check_query(query: gen.Query, witness_ok) -> list[str]:
    """A query is right when a witness exists, and maps the first code onto
    the second, exactly for the pairs generated equivalent."""
    if isinstance(witness_ok, str):
        return ["equivalent_ep raised: " + witness_ok.strip().splitlines()[-1]]
    if query.equivalent:
        if witness_ok is None:
            return ["equivalent pair reported inequivalent"]
        if not witness_ok:
            return ["witness does not map the first code onto the second"]
        return []
    if query.certificate[0] == query.certificate[1]:
        return ["the generator's certificate does not separate the pair"]
    if witness_ok is not None:
        return ["pair with distinct certificates reported equivalent"]
    return []


# -- measurement ----------------------------------------------------------------------


@dataclass
class Pass:
    """One pass over a workload: per-operation latencies and failures.

    ``work_s`` sums the children's own wall times from tracer install to the
    end of the work; ``summaries`` holds their span summaries when traced;
    ``attempted`` counts the operations run and checked.
    """

    wall_s: float
    latency_s: list[float]
    failed: int
    problems: list[str]
    work_s: float
    summaries: list[dict]
    attempted: int


def _with_workers(argv: tuple[str, ...], workers: int) -> list[str]:
    out = list(argv)
    if "--workers" in out:
        out[out.index("--workers") + 1] = str(workers)
    return out


def cli_passes(runner: Runner, wl: CliWorkload, configs: list[tuple[int | None, str | None]]) -> list[Pass]:
    """One pass per (workers, run id) config, interleaved invocation by
    invocation so that slow drift of the machine hits every config alike.
    ``workers=None`` keeps the invocation's own; a run id turns tracing on."""
    passes = [Pass(0.0, [], 0, [], 0.0, [], 0) for _ in configs]
    for i, inv in enumerate(wl.invocations):
        for (workers, run_id), p in zip(configs, passes):
            argv = inv.argv if workers is None else _with_workers(inv.argv, workers)
            trace_as = None if run_id is None else (run_id, f"{wl.name}-{i}")
            wall, out = runner.child("cli", ["--", *argv], trace_as)
            found = check_invocation(inv, out["exit"], out["stdout"])
            if out["error"]:
                found.append("raised: " + out["error"].strip().splitlines()[-1])
            p.wall_s += wall
            p.latency_s.append(wall)
            p.attempted += 1
            p.work_s += out["work_s"]
            p.failed += bool(found)
            p.problems += found
            if run_id is not None:
                p.summaries.append(out["trace"])
    return passes


def equiv_pass(runner: Runner, batch: list[gen.Query], run_id: str | None = None,
               rounds: int = 1, repeat: int = 1) -> Pass:
    """One child making ``rounds`` rounds over the batch, with up to
    ``repeat`` runs of a query in each; each latency is the fastest run of
    its query, and every round's answer is checked."""
    stdin = json.dumps({
        "queries": [{"first": q.first, "second": q.second} for q in batch],
        "rounds": rounds,
        "repeat": repeat,
        "repeat_s": REPEAT_S,
    }).encode()
    trace_as = None if run_id is None else (run_id, "equiv-batch")
    _, out = runner.child("equiv", [], trace_as, stdin)
    if len(out["witness_ok"]) != rounds or any(len(r) != len(batch) for r in out["witness_ok"]):
        raise RuntimeError("the equivalence child answered a different number of queries")
    problems = []
    failed = 0
    for answers in out["witness_ok"]:
        for q, ok in zip(batch, answers):
            found = check_query(q, ok)
            failed += bool(found)
            problems += found
    summaries = [] if run_id is None else [out["trace"]]
    return Pass(out["loop_s"], out["latency_s"], failed, problems, out["work_s"], summaries,
                len(batch) * rounds)


def _p95(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=20, method="inclusive")[18]


def end_to_end(passes: list[Pass], setup_s: float, attempted: int, failed: int) -> dict:
    """Every timing is taken over the operations' fastest times in the run:
    ``wall_s`` is one pass with each operation at its fastest."""
    latency = [min(times) for times in zip(*(p.latency_s for p in passes))]
    wall = sum(latency)
    return {
        "wall_s": wall,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        "ok_ratio": (attempted - failed) / attempted,
        "query_p50_ms": statistics.median(latency) * 1000,
        "query_p95_ms": _p95(latency) * 1000,
        "queries_per_s": len(latency) / wall,
    }


def per_layer(traced: Pass, serial: Pass, workers: int, untraced_wall: float) -> dict:
    """Merge the span summaries of the traced processes into layer metrics.

    Every ``.s`` metric is self time, so nested spans are not counted twice.
    ``serial`` is the untraced one-worker pass the tracing overhead is
    measured against; ``untraced_wall`` is the wall time of the pass as
    configured.
    """
    merged: dict[str, dict] = {}
    counts: Counter = Counter()
    roots = 0.0
    for s in traced.summaries:
        roots += s["roots_s"]
        counts.update(s["counts"])
        for name, agg in s["spans"].items():
            acc = merged.setdefault(name, {"calls": 0, "self_s": 0.0, "max_s": 0.0})
            acc["calls"] += agg["calls"]
            acc["self_s"] += agg["self_s"]
            acc["max_s"] = max(acc["max_s"], agg["max_s"])

    def get(name: str, field: str) -> float:
        return merged.get(name, {}).get(field, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    canon_calls = get("equiv.canon_free", "calls") + get("equiv.canon_joint", "calls")
    m = {
        "fp.enumerate.count": counts["fp.enumerate.count"],
        "fp.enumerate.s": get("fp.enumerate", "self_s"),
        "fp.predicate.calls": get("fp.predicate", "calls"),
        "fp.predicate.hits": counts["fp.predicate.hits"],
        "fp.predicate.s": get("fp.predicate", "self_s"),
        "fp.predicate.hit_ratio": ratio(counts["fp.predicate.hits"], get("fp.predicate", "calls")),
        "equiv.new_class_ratio": ratio(counts["classify.classes"], canon_calls),
        "code.invariants.calls": get("code.invariants", "calls"),
        "code.invariants.s": get("code.invariants", "self_s"),
        "classify.calls": counts["classify.calls"],
        "classify.cache_hits": counts["classify.cache_hits"],
        "classify.classes": counts["classify.classes"],
        # traced one-worker busy time over the time the untraced run had on
        # its workers; computed, not measured inside the pool, and 0 where
        # nothing is classified
        "classify.parallel_eff": ratio(roots, workers * untraced_wall) if counts["classify.calls"] else 0.0,
        "tables.load.s": get("tables.load", "self_s"),
        "cli.s": get("cli.main", "self_s"),
        "trace.wall_s": traced.work_s,
        "trace.overhead_s": traced.work_s - serial.work_s,
        "trace.unspanned_s": traced.work_s - roots,
    }
    for name in ("equiv.canon_free", "equiv.canon_joint", "equiv.equivalent"):
        m[f"{name}.calls"] = get(name, "calls")
        m[f"{name}.s"] = get(name, "self_s")
        m[f"{name}.max_ms"] = get(name, "max_s") * 1000
    for layer in spans.LAYERS:
        m[f"layer.{layer}.self_s"] = sum(
            agg["self_s"] for name, agg in merged.items() if name.split(".")[0] == layer
        )
    return {name: m[name] for name in PER_LAYER_UNITS}


# -- workloads ------------------------------------------------------------------------


def stratum_notes(batch: list[gen.Query], passes: list[Pass]) -> list[str]:
    """Query latency per stratum of the batch, over all passes."""
    by: dict[str, list[float]] = {}
    for p in passes:
        for q, lat in zip(batch, p.latency_s):
            by.setdefault(q.stratum, []).append(lat)
    return [
        f"stratum {name}: {len(lat)} queries, p50 {statistics.median(lat) * 1000:.3g} ms, "
        f"p95 {_p95(lat) * 1000:.3g} ms, max {max(lat) * 1000:.4g} ms, total {sum(lat):.3g} s"
        for name, lat in sorted(by.items())
    ]


def run_workload(runner: Runner, wl, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """Measure one workload; returns the result object and note lines."""
    notes = [f"workload={wl.name} seed={seed} seconds={seconds} trace={int(trace)}"]
    if isinstance(wl, EquivWorkload):
        batch = gen.make_batch(seed, wl.shapes, wl.structured)
        notes.append(f"inputs: {len(batch)} queries, sha256 {gen.batch_digest(batch)}")
        workers = 1

        def measure(configs, rounds: int = 1) -> list[Pass]:
            # traced runs time each query once, so that span counts are per query
            repeat = 1 if trace else REPEAT
            return [equiv_pass(runner, batch, run_id, rounds, repeat) for _, run_id in configs]
    else:
        notes.append("invocations: " + " | ".join(" ".join(inv.argv) for inv in wl.invocations))
        workers = wl.workers

        def measure(configs, rounds: int = 1) -> list[Pass]:
            return [p for _ in range(rounds) for p in cli_passes(runner, wl, configs)]

    if trace:
        run_id = uuid.uuid4().hex
        notes.append(f"run_id={run_id}")
        configs = [(None, None)] + [(1, None)] * (workers > 1) + [(1, run_id)]
        count = len(configs)
        passes = measure(configs)
        traced, serial = passes[-1], passes[-2]
        metrics = per_layer(traced, serial, workers, passes[0].wall_s)
        within = abs(metrics["trace.unspanned_s"]) <= metrics["trace.overhead_s"]
        notes.append(
            f"trace accounting: traced wall minus layer self times {metrics['trace.unspanned_s']:.4f} s, "
            f"overhead {metrics['trace.overhead_s']:.4f} s: {'within' if within else 'NOT within'}"
        )
        units = PER_LAYER_UNITS
    else:
        setup = runner.setup_s()
        count = max(1, int(seconds // wl.pass_s))
        passes = measure([(None, None)], count)
        units = END_TO_END_UNITS
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    if not trace:
        metrics = end_to_end(passes, setup, attempted, failed)
    problems = [x for p in passes for x in p.problems]
    notes.append(f"passes={count} wall={sum(p.wall_s for p in passes):.2f}s "
                 f"attempted={attempted} failed={failed}")
    if isinstance(wl, EquivWorkload):
        notes += stratum_notes(batch, passes)
    notes += [f"FAILED: {x}" for x in problems[:20]]
    notes += [f"{name} {metrics[name]:.6g} {units[name]}" for name in units]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    return result, notes


def environment(root: str) -> str:
    """nproc, Python version, CPU model and commit of this measurement."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "not a git checkout"
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, check=False)
        commit = proc.stdout.strip() or commit
    return (f"env: nproc={os.cpu_count()} python={sys.version.split()[0]} "
            f"cpu={cpu!r} commit={commit}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "epcodes", "__init__.py")):
        print(f"error: no epcodes sources under {root}/src; run from a checkout root",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        # one process per workload, so that peak_rss_mb covers its own children
        status = 0
        for name in sorted(WORKLOADS):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
                 str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
                check=False,
            )
            status = status or proc.returncode
        return status
    print(environment(root))
    result, notes = run_workload(
        Runner(root), WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)
    )
    for line in notes:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
