"""Byte-identity of the CLI listings against plain renderings of library results.

Each expected output is ``json.dumps`` (or a plain line join) of a structure
built directly from what the library returns: the complementary partitions
joined block by block, and the polynomial terms sorted in decreasing key
order with each factor written out as ``list(mi)``.  None of it goes through
the CLI's renderers.
"""

import json

import pytest

from cumulants import (
    CSP_ALGORITHMS,
    MultiIndexPartition,
    SetPartition,
    csp_twoblock,
    enumerate_partitions,
    generalized_cumulant,
    generalized_multivariate_cumulant,
)
from cumulants.algebra import _term
from cumulants.cli import main

#: One partition per block type of the benchmark's ``listing`` workload.
LISTING_PARTITIONS = (
    "1,4,9|2,6,7|3,5,8",
    "1,5,7,9|2,6|3,4,8",
    "1,2,5,6,9|3,4,7,8",
    "1,2,7|3,9|4,8,10|5,6",
)

#: Partitions of [10] and [11] on which cr2 text order and indicator order differ.
TWO_DIGIT_PARTITIONS = (
    "1,4,10|2,5|3,6,8|7,9",
    "1,10|2,3,4|5,6,7|8,9",
    "1,5,9|2,6,10|3,7,11|4,8",
    "2,10,11|1,3|4,5,6|7,8,9",
)

GMC_LAMBDAS = ("1,0|0,2", "2,1,1|1,1,2", "1,0,0|0,1,0|0,0,1", "1,1,0|0,0,1", "2,2|2,2")

_SYMBOLS = {"kappa": "κ", "mu": "μ"}


def _cli(capsys, argv) -> str:
    assert main(argv) == 0
    return capsys.readouterr().out


def _assert_same(got: str, expected: str, label: str) -> None:
    # a failing == between texts of megabytes would have pytest diff them
    # for minutes; report the first differing offset instead
    if got != expected:
        at = next(
            (k for k, (a, b) in enumerate(zip(got, expected)) if a != b),
            min(len(got), len(expected)),
        )
        lo = max(at - 40, 0)
        pytest.fail(
            f"{label}: output differs at offset {at} of {len(got)} "
            f"(expected {len(expected)}): {got[lo:at + 40]!r} vs {expected[lo:at + 40]!r}"
        )


def _plain_render(n, blocks) -> str:
    sep = "" if n <= 9 else ","
    return "|".join(sep.join(str(e) for e in b) for b in blocks)


def _sorted_terms(poly):
    return sorted(poly.terms.items(), reverse=True)


def _terms_json(poly) -> str:
    terms = []
    lists = {}  # one list per distinct factor keeps the n = 11 structure small
    for key, coeff in _sorted_terms(poly):
        factors = []
        for mi, mult in key:
            factors += [lists.setdefault(mi, list(mi))] * mult
        terms.append({"coeff": coeff, "factors": factors})
    return json.dumps({"terms": terms}) + "\n"


def _terms_text(poly) -> str:
    if not poly.terms:
        return "0\n"
    sym = _SYMBOLS[poly.symbol]
    out = ""
    for k, (key, coeff) in enumerate(_sorted_terms(poly)):
        factors = " ".join(
            f"{sym}[{','.join(str(e) for e in mi)}]" + (f"^{mult}" if mult > 1 else "")
            for mi, mult in key
        )
        mag = abs(coeff)
        body = str(mag) if not factors else factors if mag == 1 else f"{mag} {factors}"
        if k == 0:
            out = ("-" if coeff < 0 else "") + body
        else:
            out += (" - " if coeff < 0 else " + ") + body
    return out + "\n"


def _check_csp(capsys, text, algo="twoblock"):
    p = SetPartition.parse(text)
    listed = [_plain_render(p.n, q.blocks) for q in CSP_ALGORITHMS[algo](p).complementary]
    got = _cli(capsys, ["csp", "--partition", text, "--algo", algo, "--json"])
    expected = {
        "input": _plain_render(p.n, p.blocks),
        "n": p.n,
        "algorithm": algo,
        "count": len(listed),
        "complementary": listed,
        # wall time differs per call; taken from the output, so the rest
        # of the text is still compared byte for byte
        "elapsed_ms": json.loads(got)["elapsed_ms"],
    }
    _assert_same(got, json.dumps(expected) + "\n", text)
    got = _cli(capsys, ["csp", "--partition", text, "--algo", algo])
    _assert_same(got, "".join(line + "\n" for line in listed), text)


def _check_gencum(capsys, text):
    poly = generalized_cumulant(SetPartition.parse(text))
    _assert_same(_cli(capsys, ["gencum", "--partition", text, "--json"]), _terms_json(poly), text)
    _assert_same(_cli(capsys, ["gencum", "--partition", text]), _terms_text(poly), text)


def test_csp_and_gencum_output_on_every_partition_up_to_six(capsys):
    for n in range(1, 7):
        for p in enumerate_partitions(n):
            text = "|".join(",".join(map(str, b)) for b in p.blocks)
            _check_csp(capsys, text)
            _check_gencum(capsys, text)


@pytest.mark.parametrize("text", LISTING_PARTITIONS + TWO_DIGIT_PARTITIONS)
def test_csp_and_gencum_output_on_listing_block_types(capsys, text):
    _check_csp(capsys, text)
    _check_gencum(capsys, text)


def test_csp_output_of_every_algorithm(capsys):
    for algo in CSP_ALGORITHMS:
        _check_csp(capsys, "1,2|3,4|5", algo)


@pytest.mark.parametrize("lam", GMC_LAMBDAS)
def test_gmc_output(capsys, lam):
    poly = generalized_multivariate_cumulant(MultiIndexPartition.parse(lam))
    assert _cli(capsys, ["gmc", "--lambda", lam, "--json"]) == _terms_json(poly)
    assert _cli(capsys, ["gmc", "--lambda", lam]) == _terms_text(poly)


@pytest.mark.parametrize(
    "n, m", [(1, None), (4, None), (4, 2), (7, 3), (10, None), (10, 4), (10, 9), (10, 10)]
)
def test_partitions_output(capsys, n, m):
    listed = [_plain_render(n, p.blocks) for p in enumerate_partitions(n, m)]
    argv = ["partitions", "--n", str(n)] + ([] if m is None else ["--m", str(m)])
    expected = {"n": n, "m": m, "count": len(listed), "partitions": listed}
    assert _cli(capsys, argv + ["--json"]) == json.dumps(expected) + "\n"
    assert _cli(capsys, argv) == "".join(line + "\n" for line in listed)


def _indicator(block, n):
    return tuple(1 if e in block else 0 for e in range(1, n + 1))


def test_gencum_keys_equal_the_sorted_factor_keys():
    for n in range(1, 8):
        for p in enumerate_partitions(n):
            expected = {
                _term([(_indicator(b, n), 1) for b in q.blocks])
                for q in csp_twoblock(p).complementary
            }
            keys = list(generalized_cumulant(p).terms)
            assert len(keys) == len(expected) and set(keys) == expected, p.render()
