"""One measured process: runs epcodes in-process and reports as JSON.

Usage, from the root of a checkout (``src/epcodes`` must exist):

    python3 perfbench/child.py cli [--trace RUN_ID SPANS] -- ARGS...
        runs ``epcodes.cli.main(ARGS)`` with its stdout captured;
    python3 perfbench/child.py equiv [--trace RUN_ID SPANS] < BATCH
        runs ``equivalent_ep`` on each pair of the JSON object
        ``{"queries": [...], "rounds": R, "repeat": K, "repeat_s": S}``:
        R rounds over all the queries, in each of which a query runs up to K
        times back to back, and again only while the time spent on it in
        the round is under S seconds.  A query's latency is its fastest run;
        the witness of its first run in each round is re-applied with
        MonomialMapEp.apply.

With ``--trace`` the layers are wrapped in spans (see spans.py) and the span
file is written to SPANS when the work is done.  The last line of stdout is
one JSON object with the outcome, including ``work_s``: the wall time from
just before the tracer is installed (or would be) to the end of the work,
which leaves out interpreter start, import, and the span summary and file.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time
import traceback

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(1, os.path.dirname(os.path.abspath(__file__)))

import epcodes  # noqa: E402
from epcodes import cli, equiv  # noqa: E402
from epcodes.code import EpGenMatrix  # noqa: E402

import spans  # noqa: E402

if not os.path.abspath(epcodes.__file__).startswith(os.path.join(ROOT, "src", "")):
    raise SystemExit(f"epcodes imported from {epcodes.__file__}, not from {ROOT}/src")


def run_cli(argv: list[str]) -> dict:
    out = io.StringIO()
    error = None
    with contextlib.redirect_stdout(out):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse reports usage errors this way
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed operation, not a failed benchmark
            code, error = 1, traceback.format_exc()
    return {"exit": code, "stdout": out.getvalue(), "error": error}


def _parse(text: str):
    return EpGenMatrix.parse(text).code()


def _apply(witness, code):
    return witness.apply(code)


def _timed(first, second, repeat: int, repeat_s: float):
    """The first run's witness and the fastest run's time of one query."""
    clock = time.perf_counter
    t0 = clock()
    witness = equiv.equivalent_ep(first, second)
    best = spent = clock() - t0
    for _ in range(repeat - 1):
        if spent >= repeat_s:
            break
        t0 = clock()
        equiv.equivalent_ep(first, second)
        took = clock() - t0
        best, spent = min(best, took), spent + took
    return witness, best


def run_equiv(batch: dict, tracer) -> dict:
    queries, rounds = batch["queries"], batch["rounds"]
    repeat, repeat_s = batch["repeat"], batch["repeat_s"]
    parse, apply = _parse, _apply
    if tracer is not None:
        parse = tracer.call("code.parse", parse)
        apply = tracer.call("equiv.apply", apply)
    pairs = [(parse(q["first"]), parse(q["second"])) for q in queries]
    latency = [float("inf")] * len(pairs)
    witnesses = []
    clock = time.perf_counter
    start = clock()
    errors = {}
    for r in range(rounds):
        found = []
        for i, (first, second) in enumerate(pairs):
            t0 = clock()
            try:
                witness, took = _timed(first, second, repeat, repeat_s)
            except Exception:  # a crash is a failed query, not a failed benchmark
                witness, took = None, clock() - t0
                errors[r, i] = traceback.format_exc()
            found.append(witness)
            latency[i] = min(latency[i], took)
        witnesses.append(found)
    loop_s = clock() - start
    # per round and query, True or False: the witness does or does not map
    # first onto second; None: no witness; a string: the query raised
    witness_ok = [
        [
            errors.get((r, i)) if w is None else apply(w, first) == second
            for i, ((first, second), w) in enumerate(zip(pairs, found))
        ]
        for r, found in enumerate(witnesses)
    ]
    return {"latency_s": latency, "loop_s": loop_s, "witness_ok": witness_ok}


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    tracer = None
    start = time.perf_counter()
    if rest[:1] == ["--trace"]:
        tracer = spans.Tracer(rest[1])
        spans.install(tracer)
        path, rest = rest[2], rest[3:]
    if mode == "cli":
        if rest[:1] == ["--"]:
            rest = rest[1:]
        result = run_cli(rest)
    elif mode == "equiv":
        result = run_equiv(json.load(sys.stdin), tracer)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    result["work_s"] = time.perf_counter() - start
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.write(path)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
