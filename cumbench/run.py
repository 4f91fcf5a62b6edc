"""Benchmark runner: closed-loop, single-client workloads through ``cumulants``.

Run from the root of a checkout::

    python3 cumbench/run.py --workload listing --seed 1 --seconds 35 --trace 0
    python3 cumbench/run.py --workload all --seed 1

A round is one fresh worker interpreter (``worker.py``) that runs the whole
operation list of the workload once, in seeded order; a run is a whole number
of rounds, started while the run is expected to end within ``--seconds``.
The worker collects garbage before each operation and times the reference
kernel (``kernel.py``) around and during it.  Times are reported in reference
seconds: wall time times ``kernel.NOMINAL_S`` over the kernel's time at that
moment, a trimmed mean of the kernel runs during and near the operation.
After each round this runner checks every output against ``oracles``; no
operation is timed while it does.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics from spans the worker records around the package's functions.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import pickle
import statistics
import subprocess
import sys
from collections import defaultdict
from fractions import Fraction
from time import perf_counter

import oracles
import workloads
from kernel import NOMINAL_S

HERE = os.path.dirname(os.path.abspath(__file__))
#: An operation's kernel time is the trimmed mean of the kernel runs that
#: started during it or within this many seconds of it, its own and its
#: neighbours'.
KERNEL_WINDOW_S = 0.1
#: Share of kernel times dropped from each end before averaging.
KERNEL_TRIM = 0.2
#: Set-up time is scaled by a bare interpreter start instead of the kernel:
#: process start follows the kernel's speed hardly at all (a log-log slope of
#: 0.2 was measured), a bare start half of the way.  This is the bare start's
#: reference time.
BARE_START_NOMINAL_S = 0.05
#: Extra set-up measurements per run, besides one per round.
SETUP_PROBES = 6
WORKER_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def _scale(kernels: list[float]) -> float:
    """Reference seconds per wall second, from the kernel times of a moment."""
    kernels = sorted(kernels)
    cut = int(len(kernels) * KERNEL_TRIM)
    return NOMINAL_S / statistics.mean(kernels[cut:len(kernels) - cut])


def _bare_start(env: dict) -> float:
    """Wall time to start and stop an interpreter that imports nothing."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
    return perf_counter() - t0


class Worker:
    """One worker interpreter and its framed pipe protocol."""

    def __init__(self, root: str, flags: list[str]):
        env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=os.path.join(root, "src"))
        # Installed packages import from cached bytecode; let the first probe
        # write it even where the environment forbids it.
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        bare = _bare_start(env)
        t0 = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py")] + flags,
            cwd=root, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        ready, _ = self.read()
        self.setup_wall = ready["ready"] - t0
        bare = (bare + _bare_start(env)) / 2
        self.setup_ref = self.setup_wall * BARE_START_NOMINAL_S / bare
        expected = os.path.realpath(os.path.join(root, "src", "cumulants", "__init__.py"))
        if os.path.realpath(ready["module"]) != expected:
            self.close()
            raise BenchError(f"worker imported {ready['module']}, not {expected}")

    def read(self) -> tuple[dict, bytes]:
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"worker exited with code {self.proc.wait()}")
        header = json.loads(line)
        return header, self.proc.stdout.read(header["len"])

    def send(self, text: str) -> None:
        self.proc.stdin.write(text.encode() + b"\n")
        self.proc.stdin.flush()

    def close(self) -> None:
        if self.proc.stdin:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


# ---------------------------------------------------------------------------
# Checks


def _partition(op: dict):
    blocks = oracles.parse_partition(op["p"])
    return blocks, sum(len(b) for b in blocks)


def decode(op: dict, body: bytes) -> dict:
    """The output as a document: the CLI's JSON, or the worker's pickle of
    plain data (written by this benchmark's own worker).  Terms become
    (coefficient, factors) pairs either way."""
    if op["call"] == "cli":
        doc = json.loads(body)
        if "terms" in doc:
            doc["terms"] = [(t["coeff"], t["factors"]) for t in doc["terms"]]
        return doc
    doc = pickle.loads(body)
    if "terms" in doc:
        doc["terms"] = [(coeff, [mi for mi, mult in key for _ in range(mult)])
                        for key, coeff in doc["terms"]]
    return doc


def check(op: dict, doc: dict) -> str | None:
    """None when the output passes its oracle, else the fault."""
    oracle = op["oracle"]
    if oracle == "listing":
        blocks, n = _partition(op)
        entries = doc["complementary"]
        if doc.get("count", len(entries)) != len(entries):
            return f"count field {doc['count']} but {len(entries)} entries"
        return oracles.check_listing(blocks, n, entries)
    if oracle == "gencum":
        blocks, n = _partition(op)
        return oracles.check_gencum(blocks, n, doc["terms"])
    if oracle == "count":
        blocks, n = _partition(op)
        return oracles.check_count(blocks, n, doc["count"])
    if oracle == "gmc":
        return oracles.check_gmc(op["lambda"], doc["terms"])
    if oracle == "estimate":
        return oracles.check_estimate(doc["estimate"], Fraction(op["ref"]))
    raise BenchError(f"unknown oracle {oracle!r}")


class Checker:
    """Checks outputs.  An output whose content is identical to one already
    checked for the same operation gets the same verdict without a second
    check; the ``csp`` CLI's ``elapsed_ms`` field is not content."""

    def __init__(self):
        self.verdicts: dict[tuple, str | None] = {}

    def __call__(self, op: dict, header: dict, body: bytes) -> str | None:
        if "error" in header:
            return header["error"]
        if op["call"] == "cli" and header["rc"] != 0:
            return f"exit code {header['rc']}: {header['stderr'].strip()}"
        content = body
        if op["call"] == "cli" and op["oracle"] == "listing":
            content = body.rsplit(b', "elapsed_ms"', 1)[0]
        key = (json.dumps(op, sort_keys=True), hashlib.sha256(content).digest())
        if key not in self.verdicts:
            try:
                self.verdicts[key] = check(op, decode(op, body))
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                self.verdicts[key] = f"malformed output: {exc!r}"
        return self.verdicts[key]


# ---------------------------------------------------------------------------
# Rounds


def run_round(root: str, ops: list[dict], trace: bool, checker: Checker) -> dict:
    """One worker runs every operation; outputs are checked after it exits,
    so the runner's work never sits between two timed operations."""
    worker = Worker(root, ["--trace"] if trace else [])
    outputs = []
    try:
        worker.send(json.dumps(ops))
        for i in range(len(ops)):
            worker.send(f"go {i}")
            outputs.append(worker.read())
        worker.send("end")
        maxrss_kb = worker.read()[0]["maxrss_kb"]
    finally:
        worker.close()
    timed = [header for header, _ in outputs if "wall" in header]
    kernels = sorted(k for header in timed for k in header["kernels"])
    starts = [ts for ts, _ in kernels]
    records = []
    for op, (header, body) in zip(ops, outputs):
        rec = {"op": op, "fault": checker(op, header, body)}
        if "wall" in header:
            lo = bisect.bisect_left(starts, header["start"] - KERNEL_WINDOW_S)
            hi = bisect.bisect_right(starts, header["end"] + KERNEL_WINDOW_S)
            scale = _scale([k for _, k in kernels[lo:hi]])
            rec.update(wall=header["wall"], ref=header["wall"] * scale, scale=scale,
                       out_bytes=header.get("out_bytes", 0),
                       spans=header.get("spans", []), folds=header.get("folds", []))
        records.append(rec)
    return {"records": records, "setup_ref": worker.setup_ref,
            "setup_wall": worker.setup_wall, "maxrss_mb": maxrss_kb / 1024}


def probe_setup(root: str) -> tuple[float, float]:
    worker = Worker(root, ["--probe"])
    worker.close()
    return worker.setup_ref, worker.setup_wall


# ---------------------------------------------------------------------------
# Metrics


def end_to_end(rounds: list[dict], setups: list[tuple[float, float]]) -> tuple[dict, dict]:
    """The metrics in reference time, and the same figures in wall time."""
    recs = [r for rnd in rounds for r in rnd["records"] if "ref" in r]
    if not recs:
        raise BenchError("no operation completed")
    rss = statistics.median(rnd["maxrss_mb"] for rnd in rounds)

    def figures(key: str, setup: int) -> dict:
        times = [r[key] for r in recs]
        return {
            "setup_s": (statistics.median(s[setup] for s in setups), "s"),
            "ops_per_s": (len(times) / sum(times), "ops/s"),
            "latency_p50_ms": (statistics.median(times) * 1e3, "ms"),
            "peak_rss_mb": (rss, "MB"),
        }

    return figures("ref", 0), figures("wall", 1)


def per_layer(rounds: list[dict]) -> dict:
    """Per-round totals from the spans, times in reference seconds."""
    tot: dict[str, float] = defaultdict(float)
    for rnd in rounds:
        for rec in rnd["records"]:
            if "ref" not in rec:
                continue
            scale = rec["scale"]
            tot["round_ref_s"] += rec["ref"]
            tot["cli.output_bytes"] += rec["out_bytes"]
            spans, folds = rec["spans"], rec["folds"]
            child = [0.0] * len(spans)
            for name, parent, count, total in folds:
                if parent >= 0:
                    child[parent] += total
                tot[name + ".s"] += total * scale
                tot[name + ".calls"] += count
            for name, t0, t1, parent, note in spans:
                if parent >= 0:
                    child[parent] += t1 - t0
            for i, (name, t0, t1, parent, note) in enumerate(spans):
                tot[name + ".s"] += (t1 - t0) * scale
                tot[name + ".self_s"] += (t1 - t0 - child[i]) * scale
                tot[name + ".calls"] += 1
                for key, value in (note or {}).items():
                    tot[f"{name}.{key}"] += value
                if name == "csp.twoblock":
                    tot["csp.visited"] += oracles.bell(note["n"])
    per_round = {k: v / len(rounds) for k, v in tot.items()}

    def ratio(a: str, b: str) -> float:
        return tot[a] / tot[b] if tot[b] else 0.0

    g = per_round.get
    return {
        "cli.self_s": (g("cli.self_s", 0.0), "s"),
        "cli.output_mb": (g("cli.output_bytes", 0.0) / 1e6, "MB"),
        "csp.twoblock_s": (g("csp.twoblock.s", 0.0), "s"),
        "csp.twoblock_calls": (g("csp.twoblock.calls", 0.0), "count"),
        "csp.lattice_visited": (g("csp.visited", 0.0), "count"),
        "csp.survivor_ratio": (ratio("csp.twoblock.listed", "csp.visited"), "ratio"),
        "csp.graph_s": (g("csp.graph.s", 0.0), "s"),
        "csp.laplacian_s": (g("csp.laplacian.s", 0.0), "s"),
        "csp.nullspace_s": (g("csp.nullspace.s", 0.0), "s"),
        "csp.stafford_s": (g("csp.stafford.s", 0.0), "s"),
        "csp.count_s": (g("csp.count.s", 0.0), "s"),
        "csp.count_calls": (g("csp.count.calls", 0.0), "count"),
        "algebra.gencum_self_s": (g("algebra.gencum.self_s", 0.0), "s"),
        "algebra.gencum_terms": (g("algebra.gencum.terms", 0.0), "count"),
        "csp.onevec_s": (g("csp.onevec.s", 0.0), "s"),
        "indicator.dummy_s": (g("indicator.dummy.s", 0.0), "s"),
        "indicator.collapse_s": (g("indicator.collapse.s", 0.0), "s"),
        "indicator.collapse_calls": (g("indicator.collapse.calls", 0.0), "count"),
        "algebra.gmc_self_s": (g("algebra.gmc.self_s", 0.0), "s"),
        "algebra.gmc_terms": (g("algebra.gmc.terms", 0.0), "count"),
        "algebra.c2m_s": (g("algebra.c2m.s", 0.0), "s"),
        "algebra.c2m_calls": (g("algebra.c2m.calls", 0.0), "count"),
        "partitions.mip_enum_s": (g("partitions.mip_enum.s", 0.0), "s"),
        "partitions.mip_enum_calls": (g("partitions.mip_enum.calls", 0.0), "count"),
        "estimation.load_csv_s": (g("estimation.load_csv.s", 0.0), "s"),
        "estimation.rows_per_s": (ratio("estimation.load_csv.rows", "estimation.load_csv.s"), "1/s"),
        "estimation.build_s": (g("estimation.build.s", 0.0), "s"),
        "estimation.power_sum_s": (g("estimation.power_sum.s", 0.0), "s"),
        "estimation.power_sum_calls": (g("estimation.power_sum.calls", 0.0), "count"),
        "estimation.evaluate_self_s": (g("estimation.evaluate.self_s", 0.0), "s"),
        "estimation.monomials": (g("estimation.evaluate.monomials", 0.0), "count"),
        "bench.round_ref_s": (g("round_ref_s", 0.0), "s"),
    }


def _tails(values: list[float]) -> str:
    """The highest of p99 and p90 that has ten samples beyond it."""
    for q in (99, 90):
        if len(values) * (100 - q) / 100 >= 10:
            cut = statistics.quantiles(values, n=100)[q - 1]
            return f"p{q} {cut * 1e3:.1f} ms"
    return "no tail with ten samples beyond it"


# ---------------------------------------------------------------------------


def run_workload(root: str, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    ops = workloads.build(workload, seed, root)
    probe_setup(root)  # untimed: compiles the package's bytecode if missing
    setups = [probe_setup(root) for _ in range(SETUP_PROBES)]
    checker = Checker()
    rounds = []
    start = perf_counter()
    while True:
        rounds.append(run_round(root, ops, trace, checker))
        setups.append((rounds[-1]["setup_ref"], rounds[-1]["setup_wall"]))
        # Stop when another round would be expected to end more than half a
        # round past the deadline.
        elapsed = perf_counter() - start
        if elapsed + 0.5 * elapsed / len(rounds) >= seconds:
            break
    records = [r for rnd in rounds for r in rnd["records"]]
    failed = [r for r in records if r["fault"] is not None]
    unexpected = [r for r in failed if "known_fault" not in r["op"]]
    print(f"== {workload}  seed {seed}  {len(rounds)} rounds of {len(ops)} operations"
          f"  ({perf_counter() - start:.1f} s)")
    for r in {r["op"]["name"]: r for r in failed}.values():
        kind = "known fault" if "known_fault" in r["op"] else "FAILED"
        print(f"  {kind}: {r['op']['name']}: {r['fault']}")
    if trace:
        metrics = per_layer(rounds)
        for name, (value, unit) in metrics.items():
            print(f"  {name:28s} {value:14.6g} {unit}")
    else:
        metrics, walls = end_to_end(rounds, setups)
        for name, (value, unit) in metrics.items():
            print(f"  {name:16s} {value:12.4f} {unit:6s} (wall {walls[name][0]:.4f})")
        timed = [r for r in records if "ref" in r]
        print(f"  latency samples {len(timed)}; reference {_tails([r['ref'] for r in timed])};"
              f" wall {_tails([r['wall'] for r in timed])}")
    print(f"  attempted {len(records)}  failed {len(failed)}  unexpected {len(unexpected)}")
    return {
        "correct": not unexpected,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cumulants benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "cumulants", "__init__.py")):
        print("run.py: no src/cumulants here; run it from the root of a checkout",
              file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for name in names:
            result = run_workload(root, name, args.seed, args.seconds, bool(args.trace))
            print(json.dumps(result), flush=True)
    except (BenchError, OSError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
