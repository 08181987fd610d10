"""The benchmark's workloads: seeded request lists and the checks on answers.

A workload builds one *round*: a fixed list of request slots whose kinds and
sizes are part of the workload's definition, and whose numbers (rates,
angles, points, words, subgroup specs, paper items) are drawn from the seed.
A run repeats whole rounds, each in a seeded order, so every run of every
seed has the same shape of latencies: the median and the tail percentile
then land on slots of the same size and stay steady from seed to seed.

Each request carries a ``call`` (the library call a researcher makes) and a
``check`` that compares the answer with an oracle from :mod:`oracles`.  The
oracle is computed on the first check and kept, outside the timed region.
"""
from __future__ import annotations

import contextlib
import csv
import importlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import oracles as orc

# Threads a scan may ask for; the benchmark never runs more than the CPUs.
SCAN_THREADS = max(1, min(2, os.cpu_count() or 1))

# Approximate sums must match the exact-angle answer within this much per
# ball word: |float sum - exact sum| <= APPROX_TOL * (|exact sum| + |V_n|).
APPROX_TOL = 1e-9

# Orbit values checked against the closed form in each orbit_ball answer.
ORBIT_SAMPLE = 64


@dataclass
class Request:
    """One request: the call, its check, and what kind of request it is.

    ``check(answer)`` returns True when the answer agrees with the oracle.
    ``repeat`` marks a request that reuses an earlier slot's family at a
    larger radius; ``approx`` marks a float family.
    """

    kind: str
    label: str
    call: Callable[[], object]
    check: Callable[[object], bool]
    repeat: bool = False
    approx: bool = False


@dataclass
class Workload:
    why: str
    build: Callable[[object, random.Random], list]


def _memo(fn):
    """Compute ``fn()`` once, on first use."""
    box: list = []

    def get():
        if not box:
            box.append(fn())
        return box[0]
    return get


def word_data(word) -> tuple:
    """A library Word as the oracle's run tuple (reads the public field)."""
    return word.runs


# -- exact-scan ------------------------------------------------------------------

EXACT_SCAN_WHY = (
    "ball averages on the exactly solvable models: the tree walk in kernels "
    "is most of the time, so sphere-sum recurrences and walk changes show here")

# (kind, generators, radius, threads, repeat_of) per slot.  Radii 8-10 on two
# generators and 5-6 on three; five of 28 slots repeat an earlier family at
# a larger radius, five use float families, eight pass threads=2.  Ten
# radius-8 scans and sums of about the same cost (3-4 ms) hold the median
# and the radius-8 float and radius-9 scans (8-13 ms) the tail, so both land
# on slots of one size from seed to seed.  A round takes about a quarter of
# a second, so a run sends each slot about a hundred times and its fastest
# repeat is well sampled: short requests also run whole between the host's
# bursts of load more often than long ones.
EXACT_SCAN_SLOTS = (
    ("bank_int", 2, 8, 1, None),        # 0
    ("bank_int", 2, 8, 1, None),        # 1
    ("bank_int", 2, 9, 2, None),        # 2
    ("bank_int", 2, 8, 1, None),        # 3
    ("bank_frac", 2, 8, 1, None),       # 4
    ("bank_frac", 2, 8, 1, None),       # 5
    ("bank_frac", 2, 9, 2, None),       # 6
    ("circle", 2, 8, 1, None),          # 7
    ("circle", 2, 8, 1, None),          # 8
    ("circle", 2, 9, 2, None),          # 9
    ("brute", 2, 8, 1, None),           # 10
    ("brute", 2, 8, 1, None),           # 11
    ("sign", 2, 8, 1, None),            # 12
    ("sign", 2, 9, 2, None),            # 13
    ("circle_float", 2, 8, 1, None),    # 14
    ("circle_float", 2, 8, 1, None),    # 15
    ("line_float", 2, 8, 2, None),      # 16
    ("line_float", 2, 8, 1, None),      # 17
    ("bank_int", 3, 5, 1, None),        # 18
    ("bank_frac", 3, 5, 2, None),       # 19
    ("circle", 3, 5, 1, None),          # 20
    ("sign", 3, 5, 1, None),            # 21
    ("sign", 3, 5, 2, None),            # 22
    (None, None, 10, 2, 7),             # 23 repeats slot 7
    (None, None, 9, 1, 8),              # 24 repeats slot 8
    (None, None, 9, 1, 4),              # 25 repeats slot 4
    (None, None, 6, 1, 18),             # 26 repeats slot 18
    (None, None, 9, 1, 14),             # 27 repeats slot 14
)


# Non-integer rates of similar size, so a rate's digits barely change the cost.
FRACTIONAL_RATES = tuple(Fraction(t) for t in (
    "3/2", "4/3", "5/3", "5/4", "7/4", "6/5", "7/5", "8/5", "9/5"))


def _rational_above_one(rng: random.Random) -> Fraction:
    return rng.choice(FRACTIONAL_RATES)


def _angle(rng: random.Random, max_den: int = 30, min_den: int = 3) -> Fraction:
    den = rng.randint(min_den, max_den)
    return Fraction(rng.randint(1, den - 1), den)


def _circle_point(rng: random.Random) -> Fraction:
    den = rng.randint(2, 9)
    return Fraction(rng.randint(0, den - 1), den)


def _scan_family(m, kind: str, n_gens: int, rng: random.Random) -> dict:
    """A family description, the library object, and its exact oracle sums."""
    if kind == "bank_int":
        rates = [Fraction(r) for r in rng.sample(range(2, 7), n_gens)]
        x = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        return dict(family=m.BankFamily(rates), x=x,
                    sums=lambda r: orc.leading_letter_sums(orc.growth_mults(rates), x, r))
    if kind == "bank_frac":
        rates = [_rational_above_one(rng) for _ in range(n_gens)]
        x = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        return dict(family=m.BankFamily(rates), x=x,
                    sums=lambda r: orc.leading_letter_sums(orc.growth_mults(rates), x, r))
    if kind == "circle":
        angles = [_angle(rng) for _ in range(n_gens)]
        x = _circle_point(rng)
        return dict(family=m.CircleFamily(angles), x=x,
                    sums=lambda r: orc.rotation_sphere_sums(angles, x, r))
    if kind == "circle_float":
        angles = [_angle(rng) for _ in range(n_gens)]
        x = _circle_point(rng)
        return dict(family=m.CircleFamily([float(a) for a in angles], exact=False),
                    x=float(x), approx=True,
                    sums=lambda r: orc.rotation_sphere_sums(angles, x, r))
    if kind == "line_float":
        rates = [float(Fraction(rng.randint(5, 12), rng.randint(4, 8)))
                 for _ in range(n_gens)]
        x = float(Fraction(rng.randint(1, 9), 4))
        pairs = [((lambda v, a=a: v * a), (lambda v, a=a: v / a)) for a in rates]
        family = m.CallableMapFamily(pairs, m.Domain(), exact=False)
        exact = [Fraction(a) for a in rates]
        return dict(family=family, x=x, approx=True,
                    sums=lambda r: orc.leading_letter_sums(
                        orc.growth_mults(exact), Fraction(x), r))
    raise ValueError(kind)


def _rows_match(rows, expected, approx: bool) -> bool:
    if len(rows) != len(expected):
        return False
    for row, (n, size, total, mean) in zip(rows, expected):
        if row.radius != n or row.ball_size != size:
            return False
        if approx:
            tol = APPROX_TOL * (abs(total) + size)
            if abs(row.ball_sum - total) > tol or abs(row.mean - mean) > tol / size:
                return False
        elif row.ball_sum != total or row.mean != mean:
            return False
    return True


def build_exact_scan(m, rng: random.Random) -> list:
    families: dict = {}
    requests = []
    for index, (kind, n_gens, radius, threads, repeat_of) in enumerate(EXACT_SCAN_SLOTS):
        threads = min(threads, SCAN_THREADS)
        if repeat_of is not None:
            kind, n_gens, _, _, _ = EXACT_SCAN_SLOTS[repeat_of]
            fam = families[repeat_of]
        else:
            fam = None
        if kind in ("brute", "sign"):
            requests.append(_sum_request(m, kind, n_gens, radius, threads, rng))
            continue
        if fam is None:
            fam = families[index] = _scan_family(m, kind, n_gens, rng)
        requests.append(_scan_request(m, kind, fam, radius, threads,
                                      repeat=repeat_of is not None))
    return requests


def _scan_request(m, kind, fam, radius, threads, *, repeat) -> Request:
    family, x, approx = fam["family"], fam["x"], fam.get("approx", False)
    expected = _memo(lambda: orc.ball_rows(fam["sums"](radius), family.n_gens))
    return Request(
        "cesaro_scan", f"cesaro_scan {kind} k={family.n_gens} n={radius} "
        f"threads={threads} x={x} {getattr(family, 'rates', getattr(family, 'angles', ''))}",
        lambda: m.cesaro_scan(family, x, radius, threads=threads),
        lambda report: _rows_match(report.rows, expected(), approx),
        repeat=repeat, approx=approx)


def _sum_request(m, kind, n_gens, radius, threads, rng) -> Request:
    if kind == "sign":
        q = 2 * n_gens
        expected = _memo(lambda: sum(orc.leading_letter_sums([-1] * q, 1, radius)))
        return Request("sign_ball_sum_brute", f"sign q={q} n={radius} threads={threads}",
                       lambda: m.sign_ball_sum_brute(radius, q, threads=threads),
                       lambda got: got == expected())
    rates = [_rational_above_one(rng) if rng.random() < 0.5 else Fraction(rng.randint(2, 6))
             for _ in range(n_gens)]
    x = Fraction(rng.randint(1, 9), rng.randint(1, 4))
    expected = _memo(lambda: sum(orc.leading_letter_sums(orc.growth_mults(rates), x, radius)))
    return Request("ball_sum_brute", f"ball_sum_brute {rates} x={x} n={radius} "
                   f"threads={threads}",
                   lambda: m.ball_sum_brute(rates, x, radius, threads=threads),
                   lambda got: got == expected())


# -- word-verify -----------------------------------------------------------------

WORD_VERIFY_WHY = (
    "enumerate words and test them, through the library and the mdtds command "
    "line: words, subgroups, engine, cli and repro carry the time and kernels "
    "is never called, so walk changes should not move it")


def _node_data(node) -> tuple:
    letter = node.letter
    return (node.word.runs, None if node.parent is None else node.parent.runs,
            None if letter is None else (letter.gen, letter.sign))


def _enumerate_request(m, radius, n_gens) -> Request:
    expected = _memo(lambda: orc.sequence_digest(orc.ball_nodes(radius, n_gens)))
    return Request("ball_enumerate", f"ball_enumerate n={radius} k={n_gens}",
                   lambda: list(m.ball_enumerate(radius, n_gens)),
                   lambda got: orc.sequence_digest(map(_node_data, got)) == expected())


def _sphere_request(m, radius, n_gens) -> Request:
    expected = _memo(lambda: orc.sequence_digest(
        w for w in orc.ball_words(radius, n_gens) if orc.length(w) == radius))
    return Request("sphere_words", f"sphere_words n={radius} k={n_gens}",
                   lambda: m.sphere_words(radius, n_gens),
                   lambda got: orc.sequence_digest(map(word_data, got)) == expected())


def _decompose_request(m, radius, n_gens) -> Request:
    """Blocks must be disjoint and cover the ball: equal multisets of words."""
    expected = _memo(lambda: orc.multiset_digest(orc.ball_words(radius, n_gens)))

    def check(blocks):
        words = (w.runs for block in blocks for w in block.words)
        kinds = [block.kind for block in blocks]
        return kinds.count("identity") == 1 and orc.multiset_digest(words) == expected()
    return Request("ball_decompose", f"ball_decompose n={radius} k={n_gens}",
                   lambda: m.ball_decompose(radius, n_gens), check)


def _two_letter_word(rng: random.Random) -> tuple:
    """``s_a^+-1 s_b^+-1`` with a != b over two generators: every seed's
    cyclic subgroup then costs the same to enumerate."""
    first = rng.randint(1, 2)
    return ((first, rng.choice((1, -1))), (3 - first, rng.choice((1, -1))))


def _library_spec(m, spec: tuple, n_gens: int):
    kind = spec[0]
    if kind == "full":
        return m.FullGroup(n_gens)
    if kind == "cyclic":
        return m.CyclicSubgroup(m.Word.from_runs(n_gens, spec[1]))
    if kind == "and":
        return m.IntersectionSubgroup(tuple(_library_spec(m, p, n_gens) for p in spec[1]))
    cls = {"bal": m.Balanced, "even": m.EvenCount, "ker": m.KernelSubgroup}[kind]
    return cls(n_gens, frozenset(spec[1]))


def _subgroup_ball_request(m, spec, n_gens, radius) -> Request:
    lib_spec = _library_spec(m, spec, n_gens)

    def oracle():
        member = orc.member_predicate(spec, radius)
        return orc.sequence_digest(w for w in orc.ball_words(radius, n_gens) if member(w))
    expected = _memo(oracle)
    return Request("subgroup_ball", f"subgroup_ball {orc.spec_text(spec)} k={n_gens} "
                   f"n={radius}",
                   lambda: m.subgroup_ball(lib_spec, radius),
                   lambda got: orc.sequence_digest(map(word_data, got)) == expected())


def _model_family(m, model: str, params):
    return m.BankFamily(params) if model == "bank" else m.CircleFamily(params)


def _model_value(model: str, params, word: tuple, x):
    if model == "bank":
        return Fraction(x) * orc.growth_multiplier(params, word)
    return orc.circle_value(params, word, x)


def _orbit_request(m, model, params, x, radius, sample_seed) -> Request:
    n_gens = len(params)
    family = _model_family(m, model, params)
    keys = _memo(lambda: orc.sequence_digest(orc.ball_words(radius, n_gens)))
    closed_form = m.bank.evaluate_closed_form if model == "bank" \
        else m.circle.evaluate_closed_form
    fam_arg = params if model == "bank" else family

    def check(ball):
        values = ball.values
        if orc.sequence_digest(w.runs for w in values) != keys():
            return False
        picks = set(random.Random(sample_seed).sample(range(len(values)),
                                                      min(ORBIT_SAMPLE, len(values))))
        return all(value == closed_form(fam_arg, word, x)
                   for i, (word, value) in enumerate(values.items()) if i in picks)
    return Request("orbit_ball", f"orbit_ball {model} {params} x={x} n={radius}",
                   lambda: m.orbit_ball(family, x, radius), check)


def _first_nontrivial(model, params, spec, n_gens, radius):
    """First member != e, in ball order, that moves points; None if none."""
    member = orc.member_predicate(spec, radius)
    for w in orc.ball_words(radius, n_gens):
        if w and member(w) and not orc.acts_trivially(model, params, w):
            return w
    return None


def _verdict_ok(verdict, expected, model, params, spec, x, depth_t, depth_r) -> bool:
    """Compare a periodicity verdict with the oracle's, and re-check its evidence.

    For these commuting models ``r`` fixes ``D_t(x)`` exactly when ``r`` acts
    trivially, so the first violation is at ``t = e`` with the first
    nontrivial member ``r`` in ball order.
    """
    if expected is None:
        return (type(verdict).__name__ == "VerifiedUpTo"
                and (verdict.depth_t, verdict.depth_r) == (depth_t, depth_r))
    if type(verdict).__name__ != "Counterexample":
        return False
    t, r = verdict.t.runs, verdict.r.runs
    member = orc.member_predicate(spec, depth_r)
    lhs = _model_value(model, params, t, x)
    rhs = _model_value(model, params, orc.multiply(r, t), x)
    return (t == () and r == expected and member(r) and orc.length(r) <= depth_r
            and verdict.lhs == lhs and verdict.rhs == rhs and lhs != rhs)


def _periodic_request(m, model, params, spec, x, depth_t, depth_r) -> Request:
    n_gens = len(params)
    family, lib_spec = _model_family(m, model, params), _library_spec(m, spec, n_gens)
    expected = _memo(lambda: _first_nontrivial(model, params, spec, n_gens, depth_r))
    return Request("is_h_periodic", f"is_h_periodic {model} {params} "
                   f"{orc.spec_text(spec)} x={x} depths=({depth_t},{depth_r})",
                   lambda: m.is_h_periodic(family, lib_spec, x, depth_t, depth_r),
                   lambda v: _verdict_ok(v, expected(), model, params, spec, x,
                                         depth_t, depth_r))


def _fixed_request(m, model, params, spec, x, depth) -> Request:
    n_gens = len(params)
    family, lib_spec = _model_family(m, model, params), _library_spec(m, spec, n_gens)
    expected = _memo(lambda: _first_nontrivial(model, params, spec, n_gens, depth))
    return Request("is_h_fixed", f"is_h_fixed {model} {params} {orc.spec_text(spec)} "
                   f"x={x} depth={depth}",
                   lambda: m.is_h_fixed(family, lib_spec, x, depth),
                   lambda v: _verdict_ok(v, expected(), model, params, spec, x, 0, depth))


def _set_verdict_ok(result, witness_value, exists, model, params, spec, depth) -> bool:
    """A set-level verdict from the ball search: a witness iff one exists.

    Any member within the searched ball that moves points is a valid
    witness; the reported multiplier or rotation must be the witness's own.
    """
    if not exists:
        return result.kind == "undecided" and result.witness is None
    if result.kind != "empty" or result.witness is None:
        return False
    w = result.witness.runs
    member = orc.member_predicate(spec, depth)
    return (member(w) and orc.length(w) <= depth
            and not orc.acts_trivially(model, params, w)
            and witness_value(result) == (orc.growth_multiplier(params, w) if model == "bank"
                                          else orc.rotation(params, w)))


def _classify_request(m, rates, spec, depth) -> Request:
    lib_spec = _library_spec(m, spec, len(rates))
    exists = _memo(lambda: _first_nontrivial("bank", rates, spec, len(rates), depth) is not None)
    return Request("classify_periodicity", f"classify_periodicity {rates} "
                   f"{orc.spec_text(spec)} depth={depth}",
                   lambda: m.classify_periodicity(rates, lib_spec, depth),
                   lambda res: _set_verdict_ok(res, lambda r: r.multiplier, exists(),
                                               "bank", rates, spec, depth))


def _periodic_set_request(m, angles, spec, depth) -> Request:
    family, lib_spec = m.CircleFamily(angles), _library_spec(m, spec, len(angles))
    exists = _memo(lambda: _first_nontrivial("circle", angles, spec, len(angles), depth)
                   is not None)
    return Request("periodic_set", f"periodic_set {angles} {orc.spec_text(spec)} "
                   f"depth={depth}",
                   lambda: m.periodic_set(family, lib_spec, depth),
                   lambda res: _set_verdict_ok(res, lambda r: r.rotation, exists(),
                                               "circle", angles, spec, depth))


def build_word_verify(m, rng: random.Random) -> list:
    def rates(n):
        return [Fraction(r) for r in rng.sample(range(2, 7), n)]

    def angles(n):
        # denominators of one size: Fraction sizes, and so costs, vary little by seed
        return [_angle(rng, 12, 8) for _ in range(n)]

    def point():
        return Fraction(rng.randint(1, 9), rng.randint(1, 4))

    # generator 1 rotates by 1/3, so cyclic:s1^3 is periodic; a fixed power
    # keeps the cost of its membership tests the same for every seed
    unit = 3
    periodic_angles = [Fraction(1, unit)] + angles(1)
    subgroup_specs = [("full",), ("cyclic", _two_letter_word(rng)),
                      ("bal", (rng.randint(1, 2),)), ("even", (1, 2)),
                      ("and", (("even", (1, 2)), ("bal", (1,))))]
    even_pair = ("even", (1, 2))
    trivial = ("ker", (1, 2))  # over two generators the kernel is {e}
    # Every answer holds at most ~5k words, so a request's objects stay
    # small next to the caches and the run measures the library, not memory
    # traffic shared with other processes.  Most requests take 1-8 ms, so a
    # run sends each one over a hundred times; the median lands among a
    # cluster of 4-5 ms requests and the tail among one of 6-8 ms.
    requests = [
        _enumerate_request(m, 6, 2),
        _enumerate_request(m, 4, 3),
        _sphere_request(m, 6, 2),
        _sphere_request(m, 4, 3),
        _decompose_request(m, 5, 2),
        _decompose_request(m, 6, 2),
        _decompose_request(m, 7, 2),
        _decompose_request(m, 4, 3),
        *[_subgroup_ball_request(m, spec, 2, 6) for spec in subgroup_specs],
        _subgroup_ball_request(m, ("ker", (1, 2)), 3, 4),
        _orbit_request(m, "bank", rates(2), point(), 6, rng.random()),
        _orbit_request(m, "bank", rates(2), point(), 6, rng.random()),
        _orbit_request(m, "circle", angles(2), _circle_point(rng), 6, rng.random()),
        _orbit_request(m, "circle", angles(2), _circle_point(rng), 6, rng.random()),
        _periodic_request(m, "bank", rates(2), ("bal", (1, 2)), point(), 4, 4),
        _periodic_request(m, "circle", periodic_angles, ("cyclic", ((1, unit),)),
                          _circle_point(rng), 4, 5),
        _periodic_request(m, "circle", angles(2), even_pair, _circle_point(rng), 4, 5),
        _periodic_request(m, "bank", rates(3), ("ker", (1, 2)), point(), 4, 4),
        _fixed_request(m, "circle", periodic_angles, ("cyclic", ((1, unit),)),
                       _circle_point(rng), 6),
        _fixed_request(m, "bank", rates(2), ("and", (("bal", (1, 2)), even_pair)),
                       point(), 6),
        _fixed_request(m, "bank", rates(2), even_pair, point(), 6),
        _classify_request(m, rates(2), even_pair, 6),
        _classify_request(m, rates(2), trivial, 6),
        _periodic_set_request(m, angles(2), even_pair, 6),
        _periodic_set_request(m, angles(2), trivial, 6),
    ]
    return requests + cli_requests(m, rng)


# -- cli -------------------------------------------------------------------------

# Paper items that never call kernels (prop5.4, ex3.9 and the whole report
# do), at 1-4 ms each.
WORD_PAPER_ITEMS = ("prop5.1", "prop5.2", "prop5.3", "thm6.1", "thm6.2", "thm6.3")


def _csv(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _json_equal(expected):
    """Check that stdout parses to the JSON object ``expected()`` builds."""
    expected = _memo(expected)

    def check(text):
        try:
            return json.loads(text) == expected()
        except ValueError:
            return False
    return check


def _verdict_json(model, params, spec, x, depth_t, depth_r) -> dict:
    bad = _first_nontrivial(model, params, spec, len(params), depth_r)
    if bad is None:
        return {"type": "verified_up_to", "depth_t": depth_t, "depth_r": depth_r}
    return {"type": "counterexample", "t": "e", "r": orc.word_text(bad),
            "lhs": str(Fraction(x)), "rhs": str(_model_value(model, params, bad, x))}


def run_cli(argv) -> tuple:
    """One ``mdtds`` call through ``mdtds.cli.main``: (exit code, stdout text).

    In process, not as a fresh interpreter: a subprocess per request times
    the host's process start-up, which swings far more from run to run than
    the library does.  Start-up and import are in ``setup_s`` and in the
    traced run's ``cli.startup_ms`` and ``cli.import_ms``.
    """
    cli = importlib.import_module("mdtds.cli")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue()


def _cli_request(kind, argv, expected_code, expected_text=None,
                 check_text=None) -> Request:
    """``expected_text`` is a memo of the exact stdout; ``check_text`` a predicate."""
    def check(answer):
        code, text = answer
        if code != expected_code:
            return False
        if check_text is not None:
            return check_text(text)
        return text == expected_text()
    return Request(kind, "mdtds " + " ".join(argv), lambda: run_cli(argv), check)


def _fmt_list(values) -> str:
    return ",".join(str(v) for v in values)


def cli_requests(m, rng: random.Random) -> list:
    """Fifteen ``mdtds`` commands of 1-15 ms that never call kernels: info,
    fixed, periodic, ball, orbit, paper items, a refusal and a usage error."""
    importlib.import_module("mdtds.cli")  # part of set-up, as for a user of the CLI

    def info():
        return {"version": m.__version__, "kernel_backend": m.kernel_backend()}
    reqs = [_cli_request("info", ["info"], 0, check_text=_json_equal(info))]

    angles = [_angle(rng) for _ in range(2)]

    def fixed_set():
        witness = next((i for i, a in enumerate(angles, 1) if a.denominator != 1), None)
        return {"model": "circle", "set": {"kind": "empty" if witness else "full",
                                           "witness_index": witness, "certified": True}}
    reqs.append(_cli_request(
        "fixed", ["fixed", "--model", "circle", "--theta", _fmt_list(angles)], 0,
        check_text=_json_equal(fixed_set)))

    unit = 3  # the cost of a cyclic verdict grows with the power
    p_angles = [Fraction(1, unit), _angle(rng)]
    x = _circle_point(rng)
    for spec, depth in ((("cyclic", ((1, unit),)), 6), (("even", (1, 2)), 5)):
        reqs.append(_cli_request(
            "fixed", ["fixed", "--model", "circle", "--theta", _fmt_list(p_angles),
                      "--subgroup", orc.spec_text(spec), "--x", str(x),
                      "--depth", str(depth)], 0,
            check_text=_json_equal(lambda spec=spec, depth=depth, x=x: {
                "model": "circle", "point": str(x), "subgroup": orc.spec_text(spec),
                "verdict": _verdict_json("circle", p_angles, spec, x, 0, depth)})))

    rates = [Fraction(r) for r in rng.sample(range(2, 7), 2)]
    spec = ("even", (1, 2))
    depth = 5

    def bank_set():
        bad = _first_nontrivial("bank", rates, spec, 2, depth)
        return {"model": "bank", "subgroup": orc.spec_text(spec), "set": {
            "kind": "empty" if bad else "undecided",
            "witness": orc.word_text(bad) if bad else None,
            "multiplier": str(orc.growth_multiplier(rates, bad)) if bad else None,
            "depth": None if bad else depth}}
    reqs.append(_cli_request(
        "periodic", ["periodic", "--model", "bank", "--q", _fmt_list(rates),
                        "--subgroup", orc.spec_text(spec), "--depth", str(depth)], 0,
        check_text=_json_equal(bank_set)))
    c_angles = [_angle(rng) for _ in range(2)]

    def circle_set():
        bad = _first_nontrivial("circle", c_angles, spec, 2, depth)
        return {"model": "circle", "subgroup": orc.spec_text(spec), "set": {
            "kind": "empty" if bad else "undecided",
            "witness": orc.word_text(bad) if bad else None,
            "rotation": str(orc.rotation(c_angles, bad)) if bad else None,
            "certified": True,
            "note": "" if bad else "no witness within the searched ball"}}
    reqs.append(_cli_request(
        "periodic", ["periodic", "--model", "circle", "--theta", _fmt_list(c_angles),
                        "--subgroup", orc.spec_text(spec), "--depth", str(depth)], 0,
        check_text=_json_equal(circle_set)))
    y = _circle_point(rng)
    cyc = ("cyclic", ((1, unit),))
    reqs.append(_cli_request(
        "periodic", ["periodic", "--model", "circle", "--theta", _fmt_list(p_angles),
                        "--subgroup", orc.spec_text(cyc), "--x", str(y),
                        "--depth-t", "4", "--depth-r", "5"], 0,
        check_text=_json_equal(lambda: {
            "model": "circle", "subgroup": orc.spec_text(cyc), "point": str(y),
            "verdict": _verdict_json("circle", p_angles, cyc, y, 4, 5)})))

    for n_gens, radius in ((2, 5), (2, 6)):
        text = _memo(lambda n_gens=n_gens, radius=radius: _csv(
            [["word", "length", "parent", "letter"]]
            + [[orc.word_text(w), orc.length(w),
                "" if p is None else orc.word_text(p),
                "" if l is None else orc.letter_text(l)]
               for w, p, l in orc.ball_nodes(radius, n_gens)]))
        reqs.append(_cli_request("ball", ["ball", "--s", str(n_gens), "--n", str(radius)],
                                 0, text))

    for model, n_gens, radius in (("bank", 2, 6), ("circle", 2, 5)):
        params = ([Fraction(r) for r in rng.sample(range(2, 7), n_gens)] if model == "bank"
                  else [_angle(rng) for _ in range(n_gens)])
        x = Fraction(rng.randint(1, 9), rng.randint(1, 4)) if model == "bank" \
            else _circle_point(rng)
        opt = "--q" if model == "bank" else "--theta"
        text = _memo(lambda model=model, params=params, x=x, n_gens=n_gens, radius=radius:
                     _csv([["word", "value"]]
                          + [[orc.word_text(w), str(_model_value(model, params, w, x))]
                             for w in orc.ball_words(radius, n_gens)]))
        reqs.append(_cli_request("orbit", ["orbit", "--model", model, opt,
                                              _fmt_list(params), "--x", str(x),
                                              "--n", str(radius)], 0, text))

    def paper_text(item):
        result = importlib.import_module("mdtds.repro").run_item(item)
        return result.render() + "\n" if result.passed else "expected the item to pass"

    for item in rng.sample(WORD_PAPER_ITEMS, 3):
        reqs.append(_cli_request("paper", ["paper", "--item", item], 0,
                                 _memo(lambda item=item: paper_text(item))))

    radius = rng.randint(8, 10)
    cap = rng.randint(500, 1500)  # refused early: the cost does not depend on the seed
    reqs.append(_cli_request("refused", ["ball", "--s", "2", "--n", str(radius),
                                            "--node-cap", str(cap)], 2,
                             check_text=lambda text: text == ""))
    bad_argv = rng.choice((["orbit", "--model", "bank", "--x", "1", "--n", "3"],
                           ["periodic", "--model", "bank", "--q", "2,3",
                            "--subgroup", "cyclic:s9"],
                           ["ball", "--s", "2", "--n", "two"]))
    reqs.append(_cli_request("usage_error", bad_argv, 1,
                             check_text=lambda text: text == ""))
    return reqs


WORKLOADS = {
    "exact-scan": Workload(EXACT_SCAN_WHY, build_exact_scan),
    "word-verify": Workload(WORD_VERIFY_WHY, build_word_verify),
}


def build_round(m, workload: str, seed: int) -> list:
    """The workload's round for ``seed``: the same seed gives the same list."""
    return WORKLOADS[workload].build(m, random.Random(f"{workload}:{seed}"))


def round_orders(seed: int, size: int):
    """Seeded order of the slots for each successive round."""
    rng = random.Random(f"order:{seed}")
    while True:
        order = list(range(size))
        rng.shuffle(order)
        yield order


def describe(requests) -> list:
    return [(r.kind, r.label) for r in requests]
