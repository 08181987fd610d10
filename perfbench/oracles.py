"""Reference answers for the benchmark, written without the library's code.

Every function here works on plain data: a word is a tuple of
``(generator, exponent)`` runs, the same layout as ``Word.runs``, but built and
reduced here; numbers are ``Fraction``, ``int`` or ``float``.  Nothing in
this module imports ``mdtds``, so an oracle cannot share a defect with the
call it checks.  The benchmark calls these outside its timed region.
"""
from __future__ import annotations

import math
from fractions import Fraction

# -- words ---------------------------------------------------------------------


def signed_letters(n_gens: int) -> list:
    """``(gen, sign)`` pairs in dense-index order: generator order, +1 first.

    Letter ``i`` and letter ``i ^ 1`` are inverse to each other.
    """
    return [(g, s) for g in range(1, n_gens + 1) for s in (1, -1)]


def reduce_runs(runs) -> tuple:
    """Freely reduce a sequence of runs (merge or cancel at every seam)."""
    out: list = []
    for gen, exp in runs:
        if exp == 0:
            continue
        if out and out[-1][0] == gen:
            exp += out.pop()[1]
            if exp:
                out.append((gen, exp))
        else:
            out.append((gen, exp))
    return tuple(out)


def multiply(a: tuple, b: tuple) -> tuple:
    return reduce_runs(a + b)


def invert(runs: tuple) -> tuple:
    return tuple((g, -e) for g, e in reversed(runs))


def length(runs: tuple) -> int:
    return sum(abs(e) for _, e in runs)


def word_text(runs: tuple) -> str:
    """The package's printed word syntax: ``e`` or ``s1^2 s2^-1`` tokens."""
    if not runs:
        return "e"
    return " ".join(f"s{g}" if e == 1 else f"s{g}^{e}" for g, e in runs)


def letter_text(letter) -> str:
    gen, sign = letter
    return f"s{gen}" if sign > 0 else f"s{gen}^-1"


def ball_count(radius: int, n_gens: int) -> int:
    """Number of reduced words of length at most ``radius``, by counting spheres."""
    total, sphere = 1, 2 * n_gens
    for _ in range(radius):
        total += sphere
        sphere *= 2 * n_gens - 1
    return total


def ball_nodes(radius: int, n_gens: int):
    """Yield ``(word, parent, letter)`` over the ball in the documented order.

    Depth first, parents before children, children by generator index with
    +1 before -1; a child is ``letter * parent`` and never cancels the
    parent's leading letter.  The root has parent and letter ``None``.
    """
    alphabet = signed_letters(n_gens)

    def prepend(word, gen, sign):
        if word and word[0][0] == gen:
            exp = word[0][1] + sign
            return word[1:] if exp == 0 else ((gen, exp),) + word[1:]
        return ((gen, sign),) + word

    def walk(word, blocked, depth):
        for index, (gen, sign) in enumerate(alphabet):
            if index == blocked:
                continue
            child = prepend(word, gen, sign)
            yield child, word, (gen, sign)
            if depth + 1 < radius:
                yield from walk(child, index ^ 1, depth + 1)

    yield (), None, None
    if radius > 0:
        yield from walk((), None, 0)


def ball_words(radius: int, n_gens: int):
    for word, _, _ in ball_nodes(radius, n_gens):
        yield word


# -- order-preserving and order-free digests -----------------------------------
# Built-in hashes of tuples of ints do not depend on PYTHONHASHSEED, so a
# digest computed here matches one computed from the library's answer.

_MASK = (1 << 64) - 1


def sequence_digest(items) -> tuple:
    """(count, digest) of a sequence; the digest depends on the order."""
    acc, count = 0, 0
    for item in items:
        acc = hash((acc, item))
        count += 1
    return count, acc


def multiset_digest(items) -> tuple:
    """(count, digest) of a multiset; equal for any order of the same items."""
    acc, count = 0, 0
    for item in items:
        acc = (acc + hash(item)) & _MASK
        count += 1
    return count, acc


# -- subgroup membership ---------------------------------------------------------


def member_predicate(spec: tuple, radius: int):
    """Membership test for a subgroup described as plain data.

    ``spec`` is ``("full",)``, ``("cyclic", runs)``, ``("bal", gens)``,
    ``("even", gens)``, ``("ker", gens)`` or ``("and", (spec, ...))``.  Words
    longer than ``radius`` are never asked about, which bounds the powers a
    cyclic subgroup needs.
    """
    kind = spec[0]
    if kind == "full":
        return lambda w: True
    if kind == "cyclic":
        u = spec[1]
        powers = {()}
        for base in (u, invert(u)):
            power = ()
            for _ in range(radius):  # |u^n| >= n for reduced u != e
                power = multiply(power, base)
                if length(power) <= radius:
                    powers.add(power)
        return powers.__contains__
    if kind == "bal":
        gens = spec[1]
        return lambda w: all(sum(e for g, e in w if g == i) == 0 for i in gens)
    if kind == "even":
        gens = spec[1]
        return lambda w: sum(abs(e) for g, e in w if g in gens) % 2 == 0
    if kind == "ker":
        gens = spec[1]
        return lambda w: not reduce_runs(r for r in w if r[0] in gens)
    if kind == "and":
        parts = [member_predicate(p, radius) for p in spec[1]]
        return lambda w: all(p(w) for p in parts)
    raise ValueError(f"unknown subgroup kind {kind!r}")


def spec_text(spec: tuple, n_gens: int = 0) -> str:
    """The CLI's subgroup syntax for a data description.

    Balancing every one of ``n_gens`` generators prints as ``bal:``.
    """
    kind = spec[0]
    if kind == "full":
        return "full"
    if kind == "cyclic":
        return "cyclic:" + word_text(spec[1]).replace(" ", "*")
    if kind == "and":
        return "and(" + ";".join(spec_text(p, n_gens) for p in spec[1]) + ")"
    if kind == "bal" and len(set(spec[1])) == n_gens:
        return "bal:"
    return f"{kind}:" + ",".join(str(i) for i in sorted(spec[1]))


# -- the two commuting models ------------------------------------------------------


def growth_multiplier(rates, word: tuple) -> Fraction:
    out = Fraction(1)
    for g, e in word:
        out *= Fraction(rates[g - 1]) ** e
    return out


def rotation(angles, word: tuple) -> Fraction:
    return sum((e * Fraction(angles[g - 1]) for g, e in word), Fraction(0))


def circle_value(angles, word: tuple, x) -> Fraction:
    value = Fraction(x) + rotation(angles, word)
    return value - math.floor(value)


def acts_trivially(model: str, params, word: tuple) -> bool:
    """Whether the word moves no point: multiplier 1, or an integer rotation."""
    if model == "bank":
        return growth_multiplier(params, word) == 1
    return rotation(params, word).denominator == 1


# -- per-sphere sums ------------------------------------------------------------


def leading_letter_sums(mults, x, radius: int) -> list:
    """Per-sphere sums when a child's value is ``mults[letter] * parent``.

    With ``S_d[j]`` the sum over sphere-``d`` words whose leading letter is
    ``j``, ``S_{d+1}[j] = m_j (T_d - S_d[j^1])`` where ``T_d = sum(S_d)``:
    a child may take any leading letter but the inverse of its parent's.
    Covers the growth model (``m = q_i, 1/q_i``), the sign study (``m = -1``)
    and multiplicative float maps.
    """
    sums = [x]
    if radius < 1:
        return sums
    layer = [m * x for m in mults]
    sums.append(sum(layer))
    for _ in range(radius - 1):
        total = sum(layer)
        layer = [m * (total - layer[j ^ 1]) for j, m in enumerate(mults)]
        sums.append(sum(layer))
    return sums


def growth_mults(rates) -> list:
    out = []
    for r in rates:
        r = Fraction(r)
        out += [r, 1 / r]
    return out


def rotation_sphere_sums(angles, x, radius: int) -> list:
    """Per-sphere sums of ``(x + rotation) mod 1`` from residue counts.

    All values are multiples of ``1/M`` for ``M`` the common denominator of
    the angles and ``x``, so counting sphere words by (leading letter,
    residue) is exact: ``C_{d+1}[j][r + s_j] = sum_i C_d[i][r] - C_d[j^1][r]``.
    """
    angles = [Fraction(a) for a in angles]
    x = Fraction(x) - math.floor(Fraction(x))
    modulus = x.denominator
    for a in angles:
        modulus = math.lcm(modulus, a.denominator)
    steps = []
    for a in angles:
        step = int(a * modulus) % modulus
        steps += [step, (-step) % modulus]
    start = int(x * modulus)
    sums = [x]
    if radius < 1:
        return sums
    counts = []
    for step in steps:
        row = [0] * modulus
        row[(start + step) % modulus] = 1
        counts.append(row)

    def sphere_sum(rows):
        return Fraction(sum(r * c for row in rows for r, c in enumerate(row) if c),
                        modulus)

    sums.append(sphere_sum(counts))
    for _ in range(radius - 1):
        total = [sum(col) for col in zip(*counts)]
        nxt = []
        for j, step in enumerate(steps):
            avoid = counts[j ^ 1]
            row = [0] * modulus
            for r in range(modulus):
                n = total[r] - avoid[r]
                if n:
                    row[(r + step) % modulus] = n
            nxt.append(row)
        counts = nxt
        sums.append(sphere_sum(counts))
    return sums


def ball_rows(sphere_sums, n_gens: int) -> list:
    """(radius, ball size, ball sum, mean) for every radius, from sphere sums."""
    rows, running = [], 0
    for n, s in enumerate(sphere_sums):
        running = running + s
        size = ball_count(n, n_gens)
        mean = running / size if isinstance(running, float) \
            else Fraction(running, size)
        rows.append((n, size, running, mean))
    return rows
