"""Benchmark harness comparing the five complementary-partition algorithms.

Instances are keyed by the integer partition of block sizes: thanks to the
relabeling transfer, one representative per size type suffices.  Algorithms
run single-threaded and sequentially; each gets one discarded warm-up run and
the median of the timed repetitions is reported, after asserting that all
five produced identical sets.  Absolute times are machine-dependent: only the
relative ordering is meaningful.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field

from .csp import ALGORITHM_NAMES, CSP_ALGORITHMS
from .errors import AlgebraConsistencyError, BoundsError
from .partitions import IntegerPartition, SetPartition, bell_number

#: Default instance list (block-size types with ground sets up to 9).
DEFAULT_TYPES = (
    (1, 1, 2, 2),
    (2, 2, 2),
    (2, 2, 3),
    (3, 4),
    (1, 1, 2, 2, 2),
    (1, 3, 4),
    (1, 2, 2, 4),
    (2, 3, 4),
)


def instance_partition(block_type: IntegerPartition) -> SetPartition:
    """Canonical representative: consecutive integers fill blocks of the given
    sizes in decreasing-size order."""
    blocks = []
    nxt = 1
    for size in block_type.parts:
        blocks.append(tuple(range(nxt, nxt + size)))
        nxt += size
    return SetPartition(block_type.n, blocks)


@dataclass
class BenchRow:
    block_type: IntegerPartition
    median_seconds: dict[str, float]
    complementary_count: int
    not_complementary_count: int


@dataclass
class BenchReport:
    rows: list[BenchRow] = field(default_factory=list)
    reps: int = 0
    warmup: int = 1
    clock_resolution: float = 0.0

    def to_json_dict(self) -> dict:
        return {
            "rows": [
                {
                    "type": list(row.block_type.parts),
                    "counts": {
                        "complementary": row.complementary_count,
                        "not_complementary": row.not_complementary_count,
                    },
                    "median_ms": {
                        name: row.median_seconds[name] * 1000.0
                        for name in ALGORITHM_NAMES
                    },
                }
                for row in self.rows
            ],
            "config": {
                "reps": self.reps,
                "warmup": self.warmup,
                "clock_resolution_s": self.clock_resolution,
            },
        }


def _median(values: list[float]) -> float:
    values = sorted(values)
    mid = len(values) // 2
    if len(values) % 2:
        return values[mid]
    return 0.5 * (values[mid - 1] + values[mid])


def run_bench(types, reps: int) -> BenchReport:
    """Time all five algorithms on one instance per block-size type.

    ``reps`` timed repetitions follow a single discarded warm-up; repetitions
    are interleaved round-robin across the algorithms so that machine-load
    drift hits all of them alike, and medians are reported.  Before any timing
    is kept, the five warm-up outputs must agree exactly, otherwise the run
    aborts.
    """
    if reps < 3:
        raise BoundsError(f"reps must be >= 3, got {reps}")
    report = BenchReport(
        reps=reps,
        warmup=1,
        clock_resolution=time.get_clock_info("perf_counter").resolution,
    )
    btypes = [t if isinstance(t, IntegerPartition) else IntegerPartition(t) for t in types]
    for btype in btypes:  # every row is checked before any is timed
        if btype.n > 10:
            raise BoundsError(f"ground set {btype.n} too large for the bench")
    for btype in btypes:
        p = instance_partition(btype)
        warm = {}
        for name in ALGORITHM_NAMES:
            warm[name] = CSP_ALGORITHMS[name](p)
        reference = warm["twoblock"].keys
        for name in ALGORITHM_NAMES:
            got = warm[name].keys
            if got != reference:
                raise AlgebraConsistencyError(
                    f"algorithm {name} disagrees on type {btype}: "
                    f"{len(got)} vs {len(reference)} partitions"
                )
        times: dict[str, list[float]] = {name: [] for name in ALGORITHM_NAMES}
        gc_was_enabled = gc.isenabled()
        try:
            for _ in range(reps):
                gc.collect()
                gc.disable()
                for name in ALGORITHM_NAMES:
                    times[name].append(CSP_ALGORITHMS[name](p).elapsed)
                if gc_was_enabled:
                    gc.enable()
        finally:
            if gc_was_enabled:
                gc.enable()
        medians = {name: _median(times[name]) for name in ALGORITHM_NAMES}
        count = len(reference)
        report.rows.append(
            BenchRow(
                block_type=btype,
                median_seconds=medians,
                complementary_count=count,
                not_complementary_count=bell_number(btype.n) - count,
            )
        )
    return report
