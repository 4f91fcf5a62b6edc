"""Benchmark harness plumbing and the command-line interface."""

import json
import os
import re
import subprocess
import sys
import threading
import time

import pytest

import cumulants
from cumulants import (
    ALGORITHM_NAMES,
    BoundsError,
    IntegerPartition,
    MultiIndexPartition,
    SetPartition,
    bell_number,
    count_not_complementary,
    generalized_multivariate_cumulant_subtractive,
    instance_partition,
    run_bench,
)
from cumulants.cli import main


def test_instance_partition_consecutive_fill():
    p = instance_partition(IntegerPartition((2, 3, 4)))
    assert p == SetPartition(9, [(1, 2, 3, 4), (5, 6, 7), (8, 9)])
    q = instance_partition(IntegerPartition((1, 1, 2, 2)))
    assert q == SetPartition(6, [(1, 2), (3, 4), (5,), (6,)])


def test_run_bench_single_row():
    report = run_bench([IntegerPartition((1, 1, 2, 2))], reps=3)
    assert report.reps == 3
    (row,) = report.rows
    assert set(row.median_seconds) == set(ALGORITHM_NAMES)
    assert all(t > 0 for t in row.median_seconds.values())
    instance = instance_partition(row.block_type)
    expected = bell_number(6) - count_not_complementary(instance)
    assert row.complementary_count == expected
    assert row.not_complementary_count == count_not_complementary(instance)
    doc = report.to_json_dict()
    assert doc["rows"][0]["type"] == [2, 2, 1, 1]
    assert set(doc["rows"][0]["median_ms"]) == set(ALGORITHM_NAMES)
    assert doc["config"]["reps"] == 3
    assert doc["config"]["warmup"] == 1


def test_run_bench_rejects_few_reps():
    with pytest.raises(BoundsError):
        run_bench([IntegerPartition((2, 2))], reps=2)


# --- CLI ------------------------------------------------------------------------


def test_cli_csp_lines(capsys):
    assert main(["csp", "--partition", "1|2,3,4", "--algo", "twoblock"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 10
    assert "1234" in lines


def test_cli_csp_json_all_algorithms(capsys):
    docs = []
    for name in ALGORITHM_NAMES:
        assert main(["csp", "--partition", "1|234", "--algo", name, "--json"]) == 0
        docs.append(json.loads(capsys.readouterr().out))
    first = docs[0]
    assert first["count"] == 10
    assert first["n"] == 4
    for doc in docs[1:]:
        assert doc["complementary"] == first["complementary"]


def test_cli_gencum(capsys):
    assert main(["gencum", "--partition", "1|2,3"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "κ[1,1,1] + κ[1,1,0] κ[0,0,1] + κ[1,0,1] κ[0,1,0]"


def test_cli_gmc_text_and_json(capsys):
    assert main(["gmc", "--lambda", "1,0|0,2"]) == 0
    assert capsys.readouterr().out.strip() == "κ[1,2] + 2 κ[1,1] κ[0,1]"
    assert main(["gmc", "--lambda", "1,0|0,2", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {
        "terms": [
            {"coeff": 1, "factors": [[1, 2]]},
            {"coeff": 2, "factors": [[1, 1], [0, 1]]},
        ]
    }


def test_cli_gmc_many_distinct_columns_is_bounded(capsys):
    unit = "|".join(",".join("1" if j == k else "0" for j in range(9)) for k in range(9))
    t0 = time.perf_counter()
    assert main(["gmc", "--lambda", unit]) == 0
    assert time.perf_counter() - t0 < 5.0
    assert capsys.readouterr().out.strip() == "κ[1,1,1,1,1,1,1,1,1]"


def test_cli_gmc_twelve_distinct_columns(capsys):
    # 12 unit columns: one dummy element per variable, so the only
    # complementary partition of the singletons is the one-block partition
    unit = "|".join(",".join("1" if j == k else "0" for j in range(12)) for k in range(12))
    assert main(["gmc", "--lambda", unit]) == 0
    assert capsys.readouterr().out == "κ[1,1,1,1,1,1,1,1,1,1,1,1]\n"
    assert main(["gmc", "--lambda", unit, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"terms": [{"coeff": 1, "factors": [[1] * 12]}]}


#: Runs the CLI on its arguments in a child process, then writes that child's
#: peak RSS to stderr.  Linux carries a process's peak RSS across fork and
#: exec, so a CLI process started straight from the test process would report
#: the test process's peak; started from this small interpreter, it reports
#: its own.
_LAUNCHER = """
import resource, subprocess, sys
subprocess.run([sys.executable, "-m", "cumulants.cli", *sys.argv[1:]], check=True)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss, file=sys.stderr)
"""


def test_cli_gmc_repeated_columns_fresh_process():
    pytest.importorskip("resource")
    lam = "3,3|3,2"  # Bell(11) dummy partitions
    src = os.path.dirname(os.path.dirname(cumulants.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", _LAUNCHER, "gmc", "--lambda", lam, "--json"],
        capture_output=True, text=True, timeout=300, check=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    want = generalized_multivariate_cumulant_subtractive(MultiIndexPartition.parse(lam))
    assert run.stdout == want.to_json() + "\n"
    # ru_maxrss is in bytes on macOS and in kilobytes elsewhere
    peak_mb = int(run.stderr.split()[-1]) / (2**20 if sys.platform == "darwin" else 2**10)
    assert peak_mb < 64


def _fresh_listing(argv: list, sep: bytes) -> tuple[str, int, float]:
    """Run the CLI in a fresh process through ``_LAUNCHER`` and read its
    output as it comes, never holding all of it: the first bytes, the
    number of times ``sep`` occurs, and the child's peak memory in MB."""
    src = os.path.dirname(os.path.dirname(cumulants.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-c", _LAUNCHER, *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=path),
    )
    timer = threading.Timer(300, proc.kill)
    timer.start()
    try:
        head, carry, seps = b"", b"", 0
        while chunk := proc.stdout.read(1 << 20):
            head = head or chunk[:256]
            chunk = carry + chunk
            seps += chunk.count(sep)
            carry = chunk[max(len(chunk) + 1 - len(sep), 0):]  # empty for one byte
        err = proc.stderr.read().decode()
        assert proc.wait() == 0, err
    finally:
        timer.cancel()
    # ru_maxrss is in bytes on macOS and in kilobytes elsewhere
    peak_mb = int(err.split()[-1]) / (2**20 if sys.platform == "darwin" else 2**10)
    return head.decode(), seps, peak_mb


def test_cli_listings_at_the_size_bound_fresh_process():
    # a listing at the size bound stays under 512 MB as a fresh process
    pytest.importorskip("resource")
    one_block = SetPartition.parse(",".join(map(str, range(1, 13))))
    head, seps, peak_mb = _fresh_listing(
        ["csp", "--partition", one_block.render(), "--json"], b'", "'
    )
    count = int(re.search(r'"count": (\d+)', head).group(1))
    assert count == bell_number(12)
    # two separators fall in the header: after "input" and "algorithm"
    assert seps - 2 == count - 1
    assert peak_mb < 512

    p = SetPartition.parse("1,2,3|4,5,6|7,8,9|10,11,12")
    head, seps, peak_mb = _fresh_listing(["gencum", "--partition", p.render()], b" + ")
    assert head.startswith("κ[1,1,1,1,1,1,1,1,1,1,1,1] + ")
    assert seps + 1 == bell_number(12) - count_not_complementary(p) == 3_724_180
    assert peak_mb < 512

    head, lines, peak_mb = _fresh_listing(["partitions", "--n", "12"], b"\n")
    assert head.startswith("1,10,11,12|2,3,4,5,6,7,8,9\n")  # cr2 text order
    assert lines == bell_number(12) == 4_213_597
    assert peak_mb < 512


def test_cli_partitions(capsys):
    assert main(["partitions", "--n", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 5
    assert main(["partitions", "--n", "4", "--m", "2", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["count"] == 7


def test_cli_estimate(tmp_path, capsys):
    path = tmp_path / "s.csv"
    path.write_text("1,2\n3,4\n")
    assert main(["estimate", "--data", str(path), "--lambda", "1,0|0,1", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["estimate"] == pytest.approx(2.0)
    assert doc["N"] == 2 and doc["n"] == 2
    assert "S[1,1]" in doc["expression"]


def test_cli_estimate_with_header(tmp_path, capsys):
    path = tmp_path / "s.csv"
    path.write_text("a,b\n1,2\n3,4\n5,6\n")
    assert main(["estimate", "--data", str(path), "--lambda", "1,0|0,1", "--header"]) == 0
    out = capsys.readouterr().out
    assert "a, b" in out


def test_cli_bench_json(capsys):
    assert main(["bench", "--types", "2,2;1,1,2", "--reps", "3", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [row["type"] for row in doc["rows"]] == [[2, 2], [2, 1, 1]]
    for row in doc["rows"]:
        assert set(row["median_ms"]) == set(ALGORITHM_NAMES)
        assert row["counts"]["complementary"] + row["counts"]["not_complementary"] == bell_number(sum(row["type"]))


def test_cli_bench_out_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["bench", "--types", "2,2", "--reps", "3", "--out", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    assert doc["config"]["reps"] == 3


def test_cli_usage_errors(capsys):
    assert main(["bogus"]) == 1
    assert main([]) == 1
    assert main(["csp"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("types", ["a", "0"])
def test_cli_bench_bad_types_is_usage_error(capsys, types):
    assert main(["bench", "--types", types]) == 1
    assert capsys.readouterr().err.startswith("usage error:")


@pytest.mark.parametrize("argv", [
    ["csp", "--partition", "1,2|3,4|5,6|7,8|9,10|11,12|13,14|15,16"],
    ["gmc", "--lambda", "8,0|0,8"],
    ["gmc", "--lambda", "3000000"],
    ["gmc", "--lambda", "1^30000000"],
    ["bench", "--types", "2,2,2,2,2;6,5"],
    ["gencum", "--partition", "|".join(map(str, range(1, 17))), "--json"],
    ["gencum", "--partition", "|".join(map(str, range(1, 14)))],
    ["csp", "--partition", ",".join(map(str, range(1, 14))), "--json"],
    ["partitions", "--n", "13"],
    ["partitions", "--n", "4", "--m", "5"],
])
def test_cli_ground_set_bound(capsys, argv):
    t0 = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - t0 < 1.0
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert captured.out == ""


def test_cli_estimate_size_bound_before_loading(capsys, tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("".join(f"{r},{r % 7}\n" for r in range(20)))
    for lam, size in [("|".join(["1,1"] * 8), 16), ("1,0^30000000", 30000000)]:
        t0 = time.perf_counter()
        assert main(["estimate", "--data", str(path), "--lambda", lam]) == 2
        assert time.perf_counter() - t0 < 1.0
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"got {size}" in err


@pytest.mark.parametrize("content", [
    b"1,2\n3,nan\n",
    b"1,2\ninf,4\n",
    b"\xff\xfe1,2\n",
    b"1,2\n3," + b"9" * 200_000 + b"\n",  # longer than the csv field limit
], ids=["nan", "inf", "not-utf8", "oversized-field"])
def test_cli_estimate_bad_data_is_parse_error(capsys, tmp_path, content):
    path = tmp_path / "d.csv"
    path.write_bytes(content)
    assert main(["estimate", "--data", str(path), "--lambda", "1,0|0,1"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_cli_computation_errors(capsys, tmp_path):
    assert main(["csp", "--partition", "1|1"]) == 2
    assert "error" in capsys.readouterr().err
    assert main(["estimate", "--data", str(tmp_path / "missing.csv"), "--lambda", "1,0|0,1"]) == 2
    capsys.readouterr()
    path = tmp_path / "tiny.csv"
    path.write_text("1,2,3\n4,5,6\n")
    # the joint-cumulant estimator needs three distinct rows
    assert main(["estimate", "--data", str(path), "--lambda", "1,0,0|0,1,0|0,0,1"]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_deterministic_output(capsys):
    main(["csp", "--partition", "12|34|5"])
    first = capsys.readouterr().out
    main(["csp", "--partition", "12|34|5"])
    assert capsys.readouterr().out == first
    main(["gmc", "--lambda", "2,1|1,0"])
    a = capsys.readouterr().out
    main(["gmc", "--lambda", "2,1|1,0"])
    assert capsys.readouterr().out == a
