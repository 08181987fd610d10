"""Tests of the benchmark itself: oracles, failure counting, determinism.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import mdtds
import oracles as orc
import run
import workloads
from mdtds import cesaro_scan

RATES = [[Fraction(2), Fraction(3)], [Fraction(3, 2), Fraction(7, 5)],
         [Fraction(2), Fraction(5, 4), Fraction(3)]]
ANGLES = [[Fraction(1, 3), Fraction(2, 7)], [Fraction(5, 29), Fraction(11, 30)],
          [Fraction(1, 2), Fraction(3, 8), Fraction(4, 9)]]


@pytest.mark.parametrize("rates", RATES)
@pytest.mark.parametrize("x", [Fraction(1), Fraction(7, 3)])
def test_leading_letter_recurrence_matches_walk(rates, x):
    radius = 6 if len(rates) == 2 else 5
    expected = orc.ball_rows(orc.leading_letter_sums(orc.growth_mults(rates), x, radius),
                             len(rates))
    report = cesaro_scan(mdtds.BankFamily(rates), x, radius)
    assert [(r.radius, r.ball_size, r.ball_sum, r.mean) for r in report.rows] == expected


@pytest.mark.parametrize("q", [4, 6])
def test_sign_recurrence_matches_walk(q):
    for radius in range(7 if q == 4 else 6):
        assert sum(orc.leading_letter_sums([-1] * q, 1, radius)) == \
            mdtds.sign_ball_sum_brute(radius, q)


@pytest.mark.parametrize("angles", ANGLES)
@pytest.mark.parametrize("x", [Fraction(0), Fraction(2, 5)])
def test_residue_counts_match_walk(angles, x):
    radius = 6 if len(angles) == 2 else 5
    expected = orc.ball_rows(orc.rotation_sphere_sums(angles, x, radius), len(angles))
    report = cesaro_scan(mdtds.CircleFamily(angles), x, radius)
    assert [(r.radius, r.ball_size, r.ball_sum, r.mean) for r in report.rows] == expected


def test_approximate_scans_match_exact_within_tolerance():
    angles, x = ANGLES[1], Fraction(2, 5)
    family = mdtds.CircleFamily([float(a) for a in angles], exact=False)
    report = cesaro_scan(family, float(x), 6)
    expected = orc.ball_rows(orc.rotation_sphere_sums(angles, x, 6), 2)
    assert workloads._rows_match(report.rows, expected, approx=True)


@pytest.mark.parametrize("n_gens,radius", [(1, 6), (2, 6), (3, 4)])
def test_enumeration_oracle_matches_library(n_gens, radius):
    got = [workloads._node_data(node) for node in mdtds.ball_enumerate(radius, n_gens)]
    assert got == list(orc.ball_nodes(radius, n_gens))
    assert orc.ball_count(radius, n_gens) == mdtds.ball_size(radius, n_gens) == len(got)


@pytest.mark.parametrize("spec", [
    ("full",), ("cyclic", ((1, 1), (2, -1))), ("cyclic", ((1, 2),)), ("bal", (1,)),
    ("bal", (1, 2)), ("even", (1, 2)), ("even", (2,)), ("ker", (1, 2)),
    ("and", (("even", (1, 2)), ("bal", (1,))))])
@pytest.mark.parametrize("n_gens", [2, 3])
def test_membership_oracles_match_subgroup_ball(spec, n_gens):
    radius = 6 if n_gens == 2 else 4
    member = orc.member_predicate(spec, radius)
    expected = [w for w in orc.ball_words(radius, n_gens) if member(w)]
    got = mdtds.subgroup_ball(workloads._library_spec(mdtds, spec, n_gens), radius)
    assert [w.runs for w in got] == expected
    assert str(workloads._library_spec(mdtds, spec, n_gens)) == orc.spec_text(spec, n_gens)


def test_closed_forms_match_engine_evaluation():
    rates, angles, x = RATES[1], ANGLES[0], Fraction(1, 5)
    bank, circle = mdtds.BankFamily(rates), mdtds.CircleFamily(angles)
    for w in orc.ball_words(5, 2):
        word = mdtds.Word.from_runs(2, w) if w else mdtds.Word.identity(2)
        assert mdtds.evaluate(bank, word, x) == x * orc.growth_multiplier(rates, w)
        assert mdtds.evaluate(circle, word, x) == orc.circle_value(angles, w, x)
        assert orc.word_text(w) == str(word)


def test_decomposition_digest_matches_ball():
    blocks = mdtds.ball_decompose(5, 2)
    words = [w.runs for block in blocks for w in block.words]
    assert orc.multiset_digest(words) == orc.multiset_digest(orc.ball_words(5, 2))
    assert orc.multiset_digest(words[1:]) != orc.multiset_digest(orc.ball_words(5, 2))


@pytest.mark.parametrize("workload", ["exact-scan", "word-verify"])
def test_every_answer_of_a_round_passes_its_check(workload):
    requests = workloads.build_round(mdtds, workload, 3)
    small = [r for r in requests if "n=12" not in r.label and "n=11" not in r.label]
    latencies, failures, rounds = run.run_rounds(small, 3, 0, rounds=1)
    assert (len(latencies), failures, rounds) == (len(small), [], 1)


def _corrupt(request, change):
    call = request.call
    return workloads.Request(request.kind, request.label, lambda: change(call()),
                             request.check)


def test_corrupted_answers_are_counted_as_failed():
    scan = workloads.build_round(mdtds, "exact-scan", 5)[0]
    words = next(r for r in workloads.build_round(mdtds, "word-verify", 5)
                 if r.kind == "sphere_words")
    verdict = next(r for r in workloads.build_round(mdtds, "word-verify", 5)
                   if r.kind == "is_h_periodic")

    def bump_last_sum(report):
        last = report.rows[-1]
        rows = report.rows[:-1] + (mdtds.CesaroRow(last.radius, last.ball_size,
                                                   last.ball_sum + 1, last.mean),)
        return mdtds.CesaroReport(rows)

    def swap_verdict(v):
        if isinstance(v, mdtds.VerifiedUpTo):
            return mdtds.VerifiedUpTo(v.depth_t + 1, v.depth_r)
        return mdtds.Counterexample(v.t, v.r, v.lhs, v.lhs)

    def boom():
        raise RuntimeError("corrupted request")

    raising = workloads.Request("cesaro_scan", "raises", boom, scan.check)
    requests = [scan, _corrupt(scan, bump_last_sum), words,
                _corrupt(words, lambda ws: ws[:-1]), verdict,
                _corrupt(verdict, swap_verdict), raising]
    latencies, failures, _ = run.run_rounds(requests, 0, 0, rounds=1)
    assert len(latencies) == 7
    assert len(failures) == 4
    assert sum("raises" in f for f in failures) == 1


def test_cli_check_rejects_changed_output():
    request = next(r for r in workloads.build_round(mdtds, "word-verify", 2)
                   if r.kind == "orbit")
    code, text = request.call()
    assert request.check((code, text))
    assert not request.check((code, text.replace("\n", "\n0", 1)))
    assert not request.check((1, text))


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_same_seed_gives_same_requests(workload):
    first = workloads.describe(workloads.build_round(mdtds, workload, 11))
    again = workloads.describe(workloads.build_round(mdtds, workload, 11))
    other = workloads.describe(workloads.build_round(mdtds, workload, 12))
    assert first == again
    assert first != other
    orders = workloads.round_orders(11, len(first)), workloads.round_orders(11, len(first))
    assert [next(orders[0]) for _ in range(3)] == [next(orders[1]) for _ in range(3)]


def test_rounds_time_every_slot_once_per_round():
    requests = [r for r in workloads.build_round(mdtds, "exact-scan", 4)
                if "n=8" in r.label][:3]
    spent = []
    per_slot, failures, rounds = run.run_rounds(requests, 4, 0, rounds=3,
                                                between=spent.append)
    assert (rounds, failures, [len(s) for s in per_slot]) == (3, [], [3, 3, 3])
    assert spent == sorted(spent) and len(spent) == 3


def test_tail_leaves_ten_samples_above():
    value, pct = run.tail([float(i) for i in range(100)])
    assert (value, pct) == (89.0, 90.0)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", "results"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "word-verify",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
