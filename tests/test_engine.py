import math
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mdtds import (BankFamily, Balanced, CallableMapFamily, CircleFamily,
                   Counterexample,
                   CyclicSubgroup, Domain, DomainViolationError,
                   EvaluationError, EvenCount, ExactnessError, FullGroup,
                   KernelSubgroup, OmegaSample, Ray,
                   ResourceLimitError, SignedLetter, VerifiedUpTo, Word,
                   WordSyntaxError, affine_and_square_family, ball_enumerate,
                   ball_size, cluster_values, evaluate,
                   fixed_point_residual, identity_family, is_fixed,
                   is_h_fixed, is_h_periodic, omega_sample, orbit_ball,
                   parse_subgroup, stable_set_check, subgroup_ball)

from conftest import (LETTER_MAP_FAMILIES, LINE_PAIRS, W, _exact_circle,
                      _exact_unit, _positive, random_fraction, random_word,
                      words_strategy)


@pytest.fixture
def fam44():
    return affine_and_square_family()


@pytest.fixture
def u_spec():
    return CyclicSubgroup(W("s1 s2"))


class TestEvaluate:
    def test_identity_time(self, fam44):
        assert evaluate(fam44, W("e"), F(1, 3)) == F(1, 3)

    def test_single_generator_power(self, fam44):
        # f1(1/3) = 1/2, f1(1/2) = 5/8
        assert evaluate(fam44, W("s1^2"), F(1, 3)) == F(5, 8)

    def test_rightmost_letter_acts_first(self, fam44):
        # s1 s2 s1^2 at 1/3: f1^2 -> 5/8, square -> 25/64, f1 -> 139/256
        assert evaluate(fam44, W("s1 s2 s1^2"), F(1, 3)) == F(139, 256)
        # independent oracle: explicit nested composition
        f1 = lambda v: F(3, 4) * v + F(1, 4)
        f2 = lambda v: v * v
        assert f1(f2(f1(f1(F(1, 3))))) == F(139, 256)

    def test_left_action_cocycle(self, fam44):
        # D[u * v](x) == D[u](D[v](x)) for noncommuting maps
        u, v, x = W("s1 s2"), W("s2 s1^2"), F(1, 2)
        assert evaluate(fam44, u * v, x) == evaluate(fam44, u, evaluate(fam44, v, x))

    def test_cocycle_on_models(self, rng):
        bank = BankFamily([2, 3])
        circle = CircleFamily([F(1, 2), F(1, 3)])
        for family, point in ((bank, lambda: random_fraction(rng)),
                              (circle, lambda: random_fraction(rng) % 1)):
            for _ in range(500):
                t1, t2 = random_word(rng, 2, 6), random_word(rng, 2, 6)
                x = point()
                combined = evaluate(family, t1 * t2, x)
                assert combined == evaluate(family, t2, evaluate(family, t1, x))
                assert combined == evaluate(family, t1, evaluate(family, t2, x))

    def test_inverse_consistency(self, rng):
        bank = BankFamily([2, 3])
        for _ in range(100):
            t = random_word(rng, 2, 8)
            x = random_fraction(rng)
            assert evaluate(bank, t * t.inverse(), x) == x

    def test_exact_family_rejects_floats(self, fam44):
        with pytest.raises(WordSyntaxError):
            evaluate(fam44, W("s1"), 0.5)

    def test_domain_violation_carries_word(self, fam44):
        # the affine inverse leaves [0, 1] below 1/4
        with pytest.raises(DomainViolationError) as err:
            evaluate(fam44, W("s1^-2"), F(1, 3))
        assert err.value.word == W("s1^-2")

    def test_exactness_error_on_irrational_root(self, fam44):
        with pytest.raises(ExactnessError):
            evaluate(fam44, W("s2^-1"), F(1, 3))


class TestMapFamilyContract:
    @pytest.mark.parametrize("family_fn,point", [
        (lambda: BankFamily([2, 3]), F(5, 7)),
        (lambda: CircleFamily([F(1, 2), F(1, 3)]), F(5, 7)),
        (affine_and_square_family, F(1, 2)),
    ])
    def test_zero_power_is_identity(self, family_fn, point):
        family = family_fn()
        for gen in range(1, family.n_gens + 1):
            assert family.apply(point, gen, 0) == point

    @pytest.mark.parametrize("family_fn", [
        lambda: BankFamily([2, 3]),
        lambda: CircleFamily([F(1, 2), F(1, 3)]),
    ])
    def test_powers_add(self, family_fn, rng):
        family = family_fn()
        for _ in range(100):
            gen = rng.randint(1, family.n_gens)
            a, b = rng.randint(-5, 5), rng.randint(-5, 5)
            x = random_fraction(rng) % 1 if family.domain.bounded \
                else random_fraction(rng)
            assert family.apply(family.apply(x, gen, a), gen, b) == \
                family.apply(x, gen, a + b)

    @pytest.mark.parametrize("family_fn", [
        lambda: BankFamily([F(7, 5), 2]),
        lambda: CircleFamily([F(1, 2), F(2, 7)]),
    ])
    def test_closed_form_power_equals_iteration(self, family_fn, rng):
        family = family_fn()
        for _ in range(50):
            gen = rng.randint(1, family.n_gens)
            k = rng.randint(-6, 6)
            x = random_fraction(rng) % 1 if family.domain.bounded \
                else random_fraction(rng)
            stepped = x
            for _ in range(abs(k)):
                stepped = family.apply(stepped, gen, 1 if k > 0 else -1)
            assert family.apply(x, gen, k) == stepped


    @pytest.mark.parametrize("bound", [F(0), F(1), F(1, 3)])
    @pytest.mark.parametrize("lower_open, upper_open",
                             [(False, False), (True, True)])
    def test_float_bounds_answer_as_fractions(self, bound, lower_open,
                                              upper_open):
        def fraction_contains(domain, x):
            x = F(x)
            low, high = domain.lower, domain.upper
            return ((low is None or low < x or (x == low and not lower_open))
                    and (high is None or x < high
                         or (x == high and not upper_open)))
        for domain in (Domain(bound, None, lower_open, upper_open),
                       Domain(None, bound, lower_open, upper_open),
                       Domain(bound - 1, bound, lower_open, upper_open)):
            for edge in (domain.lower, domain.upper):
                if edge is None:
                    continue
                near = float(edge)
                for x in (math.nextafter(near, -math.inf), near,
                          math.nextafter(near, math.inf)):
                    assert domain.contains(x) == fraction_contains(domain, x)
            assert domain == Domain(domain.lower, domain.upper, lower_open,
                                    upper_open)
            assert "_float" not in repr(domain)

    @pytest.mark.parametrize("bound, copy", [
        (None, None), (F(0), 0.0), (F(1), 1.0), (F(1, 2), 0.5),
        (F(1, 3), F(1, 3)), (10 ** 400, 10 ** 400)])
    @pytest.mark.parametrize("is_open", [False, True])
    def test_a_bound_has_a_float_copy_only_when_exact(self, bound, copy,
                                                      is_open):
        probes = [-1.0, 0.0, 1.0, 1e308, F(1, 3), 10 ** 400 - 1, 10 ** 400,
                  10 ** 400 + 1]
        if bound is not None and bound < 10 ** 300:
            near = float(bound)
            probes += [math.nextafter(near, -math.inf), near,
                       math.nextafter(near, math.inf), bound]
        for domain, side in ((Domain(bound, None, lower_open=is_open), 1),
                             (Domain(None, bound, upper_open=is_open), -1)):
            held = domain._float_lower if side == 1 else domain._float_upper
            assert type(held) is type(copy) and held == copy
            for x in probes:
                # the exact answer: x on the bound's inside, or on a closed bound
                inside = bound is None or side * (F(x) - bound) > 0 or \
                    (F(x) == bound and not is_open)
                assert domain.contains(x) == inside, (domain, x)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_no_domain_contains_a_non_finite_point(self, value):
        assert not Domain().contains(value)
        assert not Domain(F(0), F(1), upper_open=True).contains(value)
        for family in (CircleFamily([0.3, 0.5], exact=False),
                       affine_and_square_family(exact=False)):
            with pytest.raises(DomainViolationError):
                orbit_ball(family, value, 1)


@st.composite
def letter_map_cases(draw):
    kind = draw(st.sampled_from(sorted(LETTER_MAP_FAMILIES)))
    make, points = LETTER_MAP_FAMILIES[kind]
    family = make()
    return kind, draw(points), draw(st.integers(0, 2 * family.n_gens - 1))


def _outcome(call):
    try:
        value = call()
    except Exception as exc:  # the exception's type and text are compared
        return type(exc), str(exc)
    return type(value), repr(value)


class TestLetterMaps:
    """``letter_maps()[i](v)`` against ``apply(v, gen, sign)``, family by family."""

    @settings(max_examples=400, deadline=None)
    @given(letter_map_cases())
    @example(("affine/square exact", F(1, 8), 1))  # DomainViolationError
    @example(("affine/square exact", F(1, 2), 3))  # ExactnessError
    @example(("affine/square float", 0.125, 1))
    @example(("callable float", 1e308, 0))
    def test_each_map_is_apply_at_a_unit_power(self, case):
        # letter maps do not count: a scan counts its walk's applications
        kind, x, letter = case
        family = LETTER_MAP_FAMILIES[kind][0]()
        maps = family.letter_maps()
        assert len(maps) == 2 * family.n_gens
        gen, sign = letter // 2 + 1, -1 if letter % 2 else 1
        expected = _outcome(lambda: family.apply(x, gen, sign))
        outcome = _outcome(lambda: maps[letter](x))
        unbounded = family.domain == Domain()
        if unbounded and isinstance(family, CallableMapFamily) and \
                expected[0] is DomainViolationError:
            # a bare callable returns the NaN or infinity that ``apply``
            # refuses; the scan finds it in its sphere sum
            value = maps[letter](x)
            assert isinstance(value, float) and not math.isfinite(value)
        else:
            assert outcome == expected

    def test_examples_reach_both_evaluation_errors(self):
        family = affine_and_square_family()
        maps = family.letter_maps()
        with pytest.raises(DomainViolationError):
            maps[1](F(1, 8))
        with pytest.raises(ExactnessError):
            maps[3](F(1, 2))
        # an unbounded callable family walks its own callables
        line = CallableMapFamily(LINE_PAIRS, Domain(), exact=False)
        maps = line.letter_maps()
        assert all(maps[i] is LINE_PAIRS[i // 2][i % 2] for i in range(4))


class TestCheckedSteps:
    """A bounded callable family checks each value in one step per letter:
    ``apply`` iterates it, and ``letter_maps()`` returns it."""

    @pytest.mark.parametrize("exact, points", [
        (True, [F(0), F(1, 16), F(1, 5), F(1, 4), F(1, 2), F(9, 16), F(1)]),
        (False, [0.0, 0.0625, 0.2, 0.25, 0.5, 0.9, 1.0]),
    ])
    def test_apply_iterates_the_letter_maps(self, exact, points):
        family = affine_and_square_family(exact)
        maps = family.letter_maps()
        assert all(a is b for a, b in zip(maps, family.letter_maps()))

        def stepped(step, x, k):
            for _ in range(k):
                x = step(x)
            return x

        kinds = set()
        for x in points:
            for letter, step in enumerate(maps):
                gen, sign = letter // 2 + 1, -1 if letter % 2 else 1
                for k in (1, 2, 3):
                    expected = _outcome(lambda: family.apply(x, gen, sign * k))
                    assert _outcome(lambda: stepped(step, x, k)) == expected
                    kinds.add(expected[0])
        # the affine inverse leaves [0, 1] below 1/4
        assert DomainViolationError in kinds
        assert (ExactnessError in kinds) == exact


class TestToleranceBoundary:
    """Float families compare within ``tol``, its edge included."""

    def test_a_residual_of_exactly_tol_is_fixed(self):
        def shift(by):
            return CallableMapFamily([(lambda v: v + by, lambda v: v - by)],
                                     Domain(), exact=False)
        tol = shift(0.0).tol
        assert is_fixed(shift(tol), 0.0)
        assert not is_fixed(shift(math.nextafter(tol, 1)), 0.0)

    @pytest.mark.parametrize("tol", [-1e-9, float("nan"), float("inf")])
    def test_a_nan_infinite_or_negative_tolerance_is_refused(self, tol):
        # a negative tol would call no value equal to itself
        with pytest.raises(WordSyntaxError, match="tol"):
            CallableMapFamily(LINE_PAIRS, Domain(), exact=False, tol=tol)

    def test_a_tolerance_of_0_compares_by_equality(self):
        family = CallableMapFamily(LINE_PAIRS, Domain(), exact=False, tol=0.0)
        assert family.values_equal(0.25, 0.25)
        assert not family.values_equal(0.25, math.nextafter(0.25, 1))


class TestOrbitBall:
    def test_radius_zero(self):
        ball = orbit_ball(identity_family(2), F(7), 0)
        assert dict(ball.items()) == {W("e"): F(7)}

    def test_bank_radius_one(self):
        ball = orbit_ball(BankFamily([2, 3]), F(1), 1)
        assert {str(w): v for w, v in ball.items()} == {
            "e": F(1), "s1": F(2), "s1^-1": F(1, 2), "s2": F(3), "s2^-1": F(1, 3)}

    @pytest.mark.parametrize("family_fn", [
        lambda: BankFamily([2, 3]),
        lambda: CircleFamily([F(1, 2), F(1, 3)]),
    ])
    def test_agrees_with_evaluate_exhaustively(self, family_fn):
        family = family_fn()
        ball = orbit_ball(family, F(1, 7) if family.domain.bounded else F(2),
                          5)
        for word, value in ball.items():
            assert value == evaluate(family, word, ball.base_point), str(word)

    def test_one_application_per_edge(self):
        family = BankFamily([2, 3])
        family.reset_counter()
        orbit_ball(family, F(1), 6)
        from mdtds import ball_size
        assert family.apply_calls == ball_size(6, 2) - 1


# float rotations by a whole power round otherwise than step by step, so
# ``evaluate`` is not a bit-for-bit reference for the walk there
_ORBIT_KINDS = sorted(set(LETTER_MAP_FAMILIES) - {"circle float"})


@st.composite
def orbit_cases(draw):
    kind = draw(st.sampled_from(_ORBIT_KINDS))
    return kind, draw(LETTER_MAP_FAMILIES[kind][1]), draw(st.integers(0, 4))


class TestOrbitBallFromTheDepthPath:
    """Every ball value against ``evaluate``, or the same first error."""

    @settings(max_examples=300, deadline=None)
    @given(orbit_cases())
    # preorder meets s2^-1 s1^2 (no square root of 65/128) before s1^-1
    # (which leaves the domain), so the walk must name the former
    @example(("affine/square exact", F(1, 8), 3))
    @example(("affine/square exact", F(1), 4))
    @example(("callable float", 1e308, 2))
    def test_values_and_errors_match_evaluate(self, case):
        kind, x, radius = case
        make = LETTER_MAP_FAMILIES[kind][0]
        family, reference = make(), make()
        words = [node.word for node in ball_enumerate(radius, family.n_gens)]
        try:
            expected = [(w, evaluate(reference, w, x)) for w in words]
        except EvaluationError as exc:
            # the first failing word in enumeration order, or none when x
            # itself lies outside the domain
            with pytest.raises(EvaluationError) as info:
                orbit_ball(family, x, radius)
            assert (type(info.value), info.value.word, str(info.value)) == \
                (type(exc), exc.word, str(exc))
            return
        ball = orbit_ball(family, x, radius)
        assert list(ball.items()) == expected
        assert family.apply_calls == ball_size(radius, family.n_gens) - 1

    def test_an_over_cap_ball_is_refused_before_any_application(self):
        family = BankFamily([2, 3])
        with pytest.raises(ResourceLimitError) as info:
            orbit_ball(family, F(1), 10, node_cap=100)
        assert (info.value.requested, info.value.cap) == (ball_size(10, 2), 100)
        # a ball too large to count exactly is refused just as early
        with pytest.raises(ResourceLimitError) as info:
            orbit_ball(family, F(1), 10_000, node_cap=100)
        assert (info.value.requested, info.value.exact) == (2 ** 64, False)
        assert family.apply_calls == 0
        ball = orbit_ball(family, F(1), 3, node_cap=ball_size(3, 2))
        assert len(ball.values) == ball_size(3, 2)


class TestFixedPoints:
    def test_residual_at_common_fixed_point(self, fam44):
        assert fixed_point_residual(fam44, F(1)) == 0
        assert is_fixed(fam44, F(1))

    def test_residual_away_from_fixed_point(self, fam44):
        # squaring moves 1/3 to 1/9: residual 2/9 dominates the affine 1/6
        assert fixed_point_residual(fam44, F(1, 3)) == F(2, 9)
        assert not is_fixed(fam44, F(1, 3))

    def test_integer_rotations_fix_everything(self):
        family = CircleFamily([1, 2])
        for x in (F(0), F(1, 3), F(9, 10)):
            assert fixed_point_residual(family, x) == 0

    def test_fixed_point_verifies_over_full_group(self, fam44):
        verdict = is_h_fixed(fam44, FullGroup(2), F(1), 4)
        assert isinstance(verdict, VerifiedUpTo)

    def test_moving_point_fails_at_depth_one(self, fam44):
        verdict = is_h_fixed(fam44, FullGroup(2), F(1, 3), 1)
        assert isinstance(verdict, Counterexample)
        assert verdict.r.length == 1


class TestHFixed:
    def test_accepts_both_cycle_roots(self, fam44, u_spec):
        # roots of f1(f2(x)) = x, i.e. 3x^2 - 4x + 1 = 0
        for x in (F(1, 3), F(1)):
            assert F(3, 4) * x * x + F(1, 4) == x
            assert isinstance(is_h_fixed(fam44, u_spec, x, 6), VerifiedUpTo)

    def test_rejects_the_other_composition_root(self, fam44, u_spec):
        # 1/9 solves f2(f1(x)) = x but is not fixed for this subgroup
        verdict = is_h_fixed(fam44, u_spec, F(1, 9), 4)
        assert isinstance(verdict, Counterexample)

    def test_counterexample_at_one_half(self, fam44, u_spec):
        verdict = is_h_fixed(fam44, u_spec, F(1, 2), 4)
        assert isinstance(verdict, Counterexample)
        assert verdict.r == W("s1 s2")
        assert verdict.rhs == F(7, 16)  # f1(f2(1/2))

    def test_inverse_powers_checked_exactly(self, fam44, u_spec):
        # (s1 s2)^-k evaluations stay rational on the verified points
        assert evaluate(fam44, W("s1 s2").inverse(), F(1, 3)) == F(1, 3)
        assert isinstance(is_h_fixed(fam44, u_spec, F(1, 3), 6), VerifiedUpTo)


class TestHPeriodic:
    def test_common_fixed_point_is_periodic(self, fam44, u_spec):
        assert isinstance(is_h_periodic(fam44, u_spec, F(1), 4, 4), VerifiedUpTo)

    def test_sub_fixed_point_fails_periodicity(self, fam44, u_spec):
        # 1/3 is fixed for the subgroup dynamics but its orbit is not
        verdict = is_h_periodic(fam44, u_spec, F(1, 3), 4, 4)
        assert isinstance(verdict, Counterexample)
        assert (verdict.t, verdict.r) == (W("s1"), W("s1 s2"))
        assert (verdict.lhs, verdict.rhs) == (F(1, 2), F(7, 16))

    def test_strict_inclusion_witnessed(self, fam44, u_spec):
        # periodic implies sub-fixed; 1/3 shows the converse fails
        assert isinstance(is_h_fixed(fam44, u_spec, F(1, 3), 4), VerifiedUpTo)
        assert isinstance(is_h_periodic(fam44, u_spec, F(1, 3), 4, 4),
                          Counterexample)

    def test_documented_counterexample_pair(self, fam44):
        # shift r = s1 s2 against t = s1^2: values derived by nested
        # composition in test_rightmost_letter_acts_first
        t, r, x = W("s1^2"), W("s1 s2"), F(1, 3)
        lhs = evaluate(fam44, t, x)
        rhs = evaluate(fam44, r * t, x)
        assert lhs == F(5, 8)
        assert rhs == F(139, 256)
        assert lhs != rhs

    def test_periodic_implies_h_fixed_on_models(self, rng):
        circle = CircleFamily([F(1, 2), F(1, 3)])
        spec = CyclicSubgroup(W("s1^2"))
        for _ in range(10):
            x = random_fraction(rng) % 1
            periodic = is_h_periodic(circle, spec, x, 3, 3)
            fixed = is_h_fixed(circle, spec, x, 3)
            assert periodic.verified
            assert fixed.verified

    def test_traversal_error_names_the_word(self, fam44, u_spec):
        # s2^-1 needs sqrt(s1^3(1/3)) = sqrt(23/32), which is irrational
        with pytest.raises(ExactnessError) as info:
            is_h_periodic(fam44, u_spec, F(1, 3), 4, 1)
        assert info.value.word == W("s2^-1 s1^3")

    def test_cyclic_member_ball_far_smaller_than_its_radius_ball(self):
        # the members of <s1^3> within V_3000 take 6,001 visited words
        family = CircleFamily([F(1, 3), F(1, 5)])
        spec = CyclicSubgroup(W("s1^3"))
        assert is_h_periodic(family, spec, F(1, 7), 2, 3000,
                             node_cap=100_000) == VerifiedUpTo(2, 3000)

    def test_witness_at_the_identity_ends_the_member_walk(self):
        # V_12 has far more than 1,000 words, but s1 moves 1 at once
        family = BankFamily([2, 3])
        verdict = is_h_periodic(family, FullGroup(2), F(1), 1, 12, node_cap=1000)
        assert verdict == Counterexample(W("e"), W("s1"), F(1), F(2))
        assert family.apply_calls == 1

    def test_member_walk_over_the_cap_is_refused_by_count(self):
        # the identity fixes every point, so the walk goes on to the cap
        with pytest.raises(ResourceLimitError) as info:
            is_h_periodic(identity_family(2), FullGroup(2), F(0), 1, 12,
                          node_cap=1000)
        assert (info.value.requested, info.value.cap) == (1001, 1000)

    def test_deep_search_refusal_holds_a_short_depth_path(self):
        # the walk over t stops at the cap: 1,000 words never need a depth
        # path of 2*10**7 entries, which would take 160 MB
        family, spec = identity_family(2), FullGroup(2)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError) as info:
                is_h_periodic(family, spec, F(0), 2 * 10 ** 7, 1, node_cap=1000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert info.value.requested == 1001
        assert peak < 2 ** 20

    def test_full_group_periodicity_equals_fixedness(self, fam44):
        verdict = is_h_periodic(fam44, FullGroup(2), F(1), 3, 3)
        assert isinstance(verdict, VerifiedUpTo)

    def test_verdict_matches_literal_composite_evaluation(self, rng):
        # independent route: evaluate the reduced composite word r*t directly
        # instead of walking the orbit ball
        from mdtds import ball_enumerate, subgroup_ball
        family = CircleFamily([F(1, 2), F(1, 5)])
        for spec in (CyclicSubgroup(W("s1 s2")), CyclicSubgroup(W("s1^2")),
                     Balanced.all_generators(2)):
            members = [w for w in subgroup_ball(spec, 3) if not w.is_identity]
            for _ in range(8):
                x = random_fraction(rng) % 1
                verdict = is_h_periodic(family, spec, x, 3, 3)
                literal_ok = all(
                    evaluate(family, r * node.word, x) ==
                    evaluate(family, node.word, x)
                    for node in ball_enumerate(3, 2) for r in members)
                assert verdict.verified == literal_ok

    def test_fixed_verdict_matches_literal_membership_scan(self, fam44, rng):
        from mdtds import subgroup_ball
        spec = CyclicSubgroup(W("s1 s2"))
        members = [w for w in subgroup_ball(spec, 4) if not w.is_identity]
        for x in (F(1, 3), F(1), F(1, 9), F(1, 2), F(2, 3)):
            verdict = is_h_fixed(fam44, spec, x, 4)
            literal_ok = True
            for r in members:
                try:
                    value = evaluate(fam44, r, x)
                except Exception:
                    value = evaluate(fam44, r.inverse(), x)
                if value != x:
                    literal_ok = False
                    break
            assert verdict.verified == literal_ok


def reference_h_periodic(family, spec, x, depth_t, depth_r):
    """is_h_periodic by brute force: every t evaluated from scratch, every
    (t, r) pair checked, no orbit value skipped.  Returns the verdict, or
    the error type and the word it names."""
    x = family.coerce_point(x)
    members = subgroup_ball(spec, depth_r)[1:]
    try:
        for node in ball_enumerate(depth_t, family.n_gens):
            t = node.word
            value = evaluate(family, t, x)
            for r in members:
                try:
                    used, rhs = r, evaluate(family, r, value)
                except EvaluationError:
                    used = r.inverse()
                    rhs = evaluate(family, used, value)
                if not family.values_equal(rhs, value):
                    return Counterexample(t, used, value, rhs)
    except EvaluationError as exc:
        return type(exc), exc.word
    return VerifiedUpTo(depth_t, depth_r)


def library_h_periodic(family, spec, x, depth_t, depth_r):
    try:
        return is_h_periodic(family, spec, x, depth_t, depth_r)
    except EvaluationError as exc:
        return type(exc), exc.word


SPECS = ["full", "cyclic:s1*s2", "cyclic:s1^2", "cyclic:s1*s2^-1", "bal:",
         "bal:1", "even:1,2", "even:2", "ker:1,2", "and(even:1,2;bal:1)"]
SMALL_DENOMINATOR_FRACTIONS = st.builds(F, st.integers(0, 12), st.integers(1, 6))


def permutation_family(first, second):
    """Two permutations of {0, 1/n, .., (n-1)/n}: exact maps whose orbits
    repeat values and whose periodicity depends on the point."""
    n = len(first)

    def pair(perm):
        forward = {F(i, n): F(j, n) for i, j in enumerate(perm)}
        backward = {v: k for k, v in forward.items()}
        return forward.__getitem__, backward.__getitem__

    return CallableMapFamily([pair(first), pair(second)], Domain(F(0), F(1)))


@st.composite
def exact_families_and_points(draw):
    kind = draw(st.sampled_from(["bank", "circle", "affine", "permutation"]))
    if kind == "permutation":
        first, second = draw(st.permutations(range(5))), draw(st.permutations(range(5)))
        return permutation_family(first, second), F(draw(st.integers(0, 4)), 5)
    if kind == "bank":
        rates = draw(st.lists(st.sampled_from([F(2), F(3), F(3, 2), F(4), F(6)]),
                              min_size=2, max_size=2))
        x = draw(SMALL_DENOMINATOR_FRACTIONS.filter(lambda v: v > 0))
        return BankFamily(rates), x
    if kind == "circle":
        angles = draw(st.lists(SMALL_DENOMINATOR_FRACTIONS.filter(lambda v: v > 0),
                               min_size=2, max_size=2))
        return CircleFamily(angles), draw(SMALL_DENOMINATOR_FRACTIONS) % 1
    x = draw(st.sampled_from([F(0), F(1, 9), F(1, 4), F(1, 3), F(9, 16), F(1)]))
    return affine_and_square_family(), x


class TestDistinctValueSkipping:
    """is_h_periodic checks each distinct exact orbit value once."""

    @settings(max_examples=200, deadline=None)
    @given(exact_families_and_points(), st.sampled_from(SPECS),
           st.integers(1, 4), st.integers(1, 4))
    # s1 fixes 0 (so the s1^k repeat its value) but not s2's value 1/5
    @example((permutation_family([0, 2, 1, 3, 4], [1, 0, 2, 3, 4]), F(0)),
             "cyclic:s1", 3, 2)
    def test_verdict_equals_the_unskipped_reference(self, family_and_point,
                                                    spec_text, depth_t, depth_r):
        family, x = family_and_point
        spec = parse_subgroup(spec_text, 2)
        got = library_h_periodic(family, spec, x, depth_t, depth_r)
        want = reference_h_periodic(family, spec, x, depth_t, depth_r)
        assert type(got) is type(want) and got == want
        if isinstance(want, Counterexample):
            assert type(got.lhs) is type(want.lhs) and type(got.rhs) is type(want.rhs)

    def test_each_distinct_value_is_checked_once(self):
        # rotations by 1/2 and 1/3 from 0: six distinct values in V_5
        family = CircleFamily([F(1, 2), F(1, 3)])
        spec = Balanced.all_generators(2)
        members = subgroup_ball(spec, 5)[1:]
        family.reset_counter()
        assert is_h_periodic(family, spec, F(0), 5, 5) == VerifiedUpTo(5, 5)
        walk = ball_size(5, 2) - 1
        checks = 6 * sum(len(r.runs) for r in members)
        assert family.apply_calls == walk + checks

    def test_float_families_check_every_value(self):
        family = CircleFamily([0.5, 0.25], exact=False)
        spec = CyclicSubgroup(W("s1^2"))
        members = subgroup_ball(spec, 2)[1:]
        family.reset_counter()
        # the orbit repeats values, but a float family checks every one
        assert is_h_periodic(family, spec, 0.0, 3, 2) == VerifiedUpTo(3, 2)
        checks = ball_size(3, 2) * sum(len(r.runs) for r in members)
        assert family.apply_calls == ball_size(3, 2) - 1 + checks


class TestOmega:
    def test_circle_two_point_limit_set(self):
        family = CircleFamily([F(1, 2)])
        sample = omega_sample(family, F(0), Ray(Word.parse("s1", 1)), 40,
                              F(1, 100))
        assert sample.points == (F(0), F(1, 2))
        assert not sample.diverged

    def test_bank_ray_diverges(self):
        family = BankFamily([2, 3])
        sample = omega_sample(family, F(1), Ray(W("s1")), 40, F(1, 100))
        assert sample.diverged and sample.points == ()

    def test_prefixed_ray_approaches_shifted_point(self):
        # along prefix * u^n the values converge to the prefix image of the
        # inner limit; with the trivial prefix that is the inner limit itself
        family = CircleFamily([F(1, 3), F(1, 5)])
        inner = omega_sample(family, F(0), Ray(W("s1^3")), 30, F(1, 1000))
        assert inner.points == (F(0),)
        shifted = omega_sample(family, F(0), Ray(W("s1^3"), prefix=W("s2")), 30,
                               F(1, 1000))
        assert shifted.points == (F(1, 5),)

    def test_non_increasing_ray_rejected(self):
        family = BankFamily([2, 3])
        ray = Ray(W("s1 s2 s1^-1"))  # powers cancel interior letters
        with pytest.raises(WordSyntaxError):
            omega_sample(family, F(1), ray, 10, F(1, 100))

    def test_letter_stream(self):
        family = CircleFamily([F(1, 2), F(1, 3)])
        stream = [SignedLetter(1, 1), SignedLetter(2, 1), SignedLetter(1, 1)]
        sample = omega_sample(family, F(0), stream, 3, F(1, 100))
        assert not sample.diverged

    @pytest.mark.parametrize("tail_fraction", [0, -0.5, 1.5, 2])
    def test_tail_fraction_outside_zero_to_one_is_refused(self, tail_fraction):
        family = CircleFamily([F(1, 2)])
        with pytest.raises(ValueError, match="tail_fraction"):
            omega_sample(family, F(0), Ray(Word.parse("s1", 1)), 40, F(1, 100),
                         tail_fraction=tail_fraction)

    def test_tail_fraction_bounds(self):
        # s1 turns by 1/3: 0, 1/3, 2/3 repeat, so the whole sample holds the
        # three points, and a tail too short to be empty holds the last one
        family = CircleFamily([F(1, 3)])
        ray = Ray(Word.parse("s1", 1))
        whole = omega_sample(family, F(0), ray, 40, F(1, 100), tail_fraction=1)
        assert whole.points == (F(0), F(1, 3), F(2, 3))
        last = omega_sample(family, F(0), ray, 40, F(1, 100), tail_fraction=1e-20)
        assert last.points == (F(1, 3),)


class TestStableSet:
    def test_point_itself(self, fam44, u_spec):
        assert stable_set_check(fam44, u_spec, F(1), F(1), 5, F(1, 1000))

    def test_attraction_through_inverse_ray(self):
        # forward composition contracts toward 1/3, so 1 repels; but the
        # inverse ray contracts toward 1, carrying 0.9 into any eps-ball
        family = affine_and_square_family(exact=False)
        spec = CyclicSubgroup(W("s1 s2"))
        assert stable_set_check(family, spec, 1.0, 0.9, 100, 1e-6)

    def test_exact_mode_skips_irrational_rays(self, fam44, u_spec):
        # the inverse ray needs irrational square roots from 9/10, and the
        # forward ray converges to 1/3, so nothing exact reaches 1; step
        # counts stay small because squaring doubles denominator digits
        assert not stable_set_check(fam44, u_spec, F(1), F(9, 10), 12, F(1, 10 ** 6))

    def test_forward_ray_reaches_interior_fixed_point(self, fam44, u_spec):
        assert stable_set_check(fam44, u_spec, F(1, 3), F(9, 10), 12, F(1, 100))

    def test_subgroup_of_another_group_rejected(self, fam44):
        # rays that cannot be evaluated are skipped; a size mismatch is not
        with pytest.raises(WordSyntaxError):
            stable_set_check(fam44, CyclicSubgroup(W("s1", 1)), F(1), F(1, 2),
                             5, F(1, 100))

    def test_ray_search_walks_only_up_to_its_rays(self):
        # s1^2 (the third word enumerated) rotates 1/2 onto 0 in one step;
        # the first max_rays members lie far inside the node cap
        family = CircleFamily([F(1, 4), F(1, 3)])
        assert stable_set_check(family, EvenCount(2, frozenset([1, 2])), F(0),
                                F(1, 2), 1, F(1, 100), ray_depth=12,
                                node_cap=1000)
        # ker:1,2 on 2 generators is {e}: its walk visits only the root
        assert stable_set_check(family, KernelSubgroup(2, frozenset([1, 2])), F(0),
                                F(1, 2), 1, F(1, 100), ray_depth=12,
                                node_cap=1000) is False

    def test_finite_rotation_orbit_never_enters(self):
        family = CircleFamily([F(1, 2), F(1, 3)])
        spec = CyclicSubgroup(W("s1^2"))
        # the sampled orbit of 0.2 under integer rotations stays at 0.2
        assert not stable_set_check(family, spec, F(0), F(1, 5), 50, F(1, 10))


# Reference rule for rays: build every ray word prefix * period^k, require
# it to extend the word before (is_prefix_of), then evaluate the step's value.
def _ray_by_words(family, x, ray, steps):
    current = ray.prefix if ray.prefix is not None \
        else Word.identity(ray.period.n_gens)
    for _ in range(steps):
        word = current * ray.period
        if not current.is_prefix_of(word) or word == current:
            raise WordSyntaxError(f"ray is not strictly increasing at {word}")
        current = word
        x = evaluate(family, ray.period, x)
        yield x if ray.prefix is None else evaluate(family, ray.prefix, x)


def _stream_by_words(family, x, letters):
    word = Word.identity(family.n_gens)
    for letter in letters:
        extended = word * Word.letter(family.n_gens, letter.gen, letter.sign)
        if not word.is_prefix_of(extended) or extended == word:
            raise WordSyntaxError("letter stream backtracks")
        word = extended
        yield evaluate(family, word, x)


def _omega_by_words(family, x, values_of, steps, eps):
    if steps < 1:
        raise ValueError("steps must be >= 1")
    x = family.coerce_point(x)
    values = list(values_of(x))
    if not family.domain.bounded and any(abs(v) > 10 ** 9 for v in values):
        return OmegaSample((), True, len(values))
    tail = values[len(values) // 2:] or values
    return OmegaSample(cluster_values(tail, eps), False, len(values))


def _stable_by_words(family, x_periodic, y, period, steps, eps):
    x_periodic, y = family.coerce_point(x_periodic), family.coerce_point(y)
    if abs(y - x_periodic) <= eps:
        return True
    for seed in (period, period.inverse()):
        try:
            for value in _ray_by_words(family, y, Ray(seed), steps):
                if abs(value - x_periodic) <= eps:
                    return True
        except (EvaluationError, WordSyntaxError):
            continue
    return False


def _counted(family, call):
    """The result or exception type of ``call`` (with an evaluation error's
    text) and the map applications it made, which fix the step reached."""
    family.reset_counter()
    try:
        result = call()
    except (EvaluationError, ValueError) as exc:
        result = type(exc), str(exc) if isinstance(exc, EvaluationError) else None
    return result, family.apply_calls


# kind -> (family on n generators, points, longest drawn word); exact squaring
# doubles denominator digits, so its words stay short
RAY_FAMILIES = {
    "circle exact": (lambda n: CircleFamily([F(1, 3), F(2, 7), F(1, 4)][:n]),
                     _exact_circle, 4),
    "bank": (lambda n: BankFamily([F(3, 2), 4, F(7, 5)][:n]), _positive, 4),
    "affine/square exact": (lambda n: affine_and_square_family(), _exact_unit, 2),
    "affine/square float": (lambda n: affine_and_square_family(exact=False),
                            st.floats(0, 1), 4),
}


@st.composite
def ray_cases(draw):
    kind = draw(st.sampled_from(sorted(RAY_FAMILIES)))
    make, points, longest = RAY_FAMILIES[kind]
    n = make(draw(st.integers(1, 3))).n_gens
    period = draw(words_strategy(n, longest).filter(lambda w: not w.is_identity))
    prefix = draw(st.sampled_from([None, Word.identity(n)])
                  | words_strategy(n, longest))
    letters = draw(st.lists(st.integers(0, 2 * n - 1), max_size=6))
    return (kind, n, draw(points), draw(points), period, prefix,
            [SignedLetter.from_index(i) for i in letters], draw(st.integers(0, 6)))


class TestRaysAgainstEveryWord:
    """omega_sample and stable_set_check against building every ray word."""

    @settings(max_examples=500, deadline=None)
    @given(ray_cases())
    # the prefix cancels with the period: refused before any step
    @example(("bank", 2, F(1), F(2), W("s1"), W("s1^-1"), [], 3))
    # the period cancels with itself: refused at step 2
    @example(("circle exact", 2, F(0), F(2, 3), W("s1 s2 s1^-1"), None, [], 4))
    # the first step leaves the domain: the EvaluationError wins
    @example(("affine/square exact", 2, F(0), F(1), W("s1 s2^-1 s1^-1"),
              None, [], 3))
    @example(("affine/square exact", 2, F(1, 2), F(1), W("s2^-1"), W("s1"),
              [SignedLetter(2, -1), SignedLetter(1, 1)], 2))  # ExactnessError
    @example(("affine/square float", 2, 0.125, 1.0, W("s1^-1"), None,
              [SignedLetter(1, 1), SignedLetter(1, -1)], 2))
    def test_same_outcome_at_the_same_step(self, case):
        kind, n, x, target, period, prefix, letters, steps = case
        family = RAY_FAMILIES[kind][0](n)
        ray, eps = Ray(period, prefix), F(1, 10)
        assert _counted(family, lambda: omega_sample(family, x, ray, steps, eps)) \
            == _counted(family, lambda: _omega_by_words(
                family, x, lambda v: _ray_by_words(family, v, ray, steps),
                steps, eps))
        assert _counted(family, lambda: omega_sample(family, x, letters, steps,
                                                     eps)) \
            == _counted(family, lambda: _omega_by_words(
                family, x, lambda v: _stream_by_words(family, v, letters[:steps]),
                steps, eps))
        assert _counted(family, lambda: stable_set_check(
            family, CyclicSubgroup(period), target, x, steps, eps)) \
            == _counted(family, lambda: _stable_by_words(
                family, target, x, period, steps, eps))

    def test_a_seed_that_cancels_with_itself_gets_its_first_step(self):
        # s1 s2 s1^-1 rotates by 1/5 and its inverse by -1/5; both stop at
        # step 2, so 1/5 is reached at step 1 and 2/5 is never reached
        family = CircleFamily([F(1, 4), F(1, 5)])
        spec = CyclicSubgroup(W("s1 s2 s1^-1"))
        assert stable_set_check(family, spec, F(1, 5), F(0), 5, F(1, 100))
        family.reset_counter()
        assert not stable_set_check(family, spec, F(2, 5), F(0), 5, F(1, 100))
        assert family.apply_calls == 2 * 3  # one step of three runs per seed

    def test_a_first_step_that_fails_wins_over_the_later_seam(self, fam44):
        # s1^-1 takes 0 to -1/3 before step 2 would cancel s1^-1 against s1
        with pytest.raises(DomainViolationError,
                           match="at -1/3 while evaluating s1 s2\\^-1 s1\\^-1"):
            omega_sample(fam44, F(0), Ray(W("s1 s2^-1 s1^-1")), 3, F(1, 100))

    def test_zero_steps_evaluate_nothing(self, fam44):
        fam44.reset_counter()
        assert not stable_set_check(fam44, CyclicSubgroup(W("s1 s2 s1^-1")),
                                    F(1), F(0), 0, F(1, 100))
        assert fam44.apply_calls == 0


def test_rays_build_no_ray_word(monkeypatch):
    """Two seams decide a ray: no prefix test and no word past prefix + period."""
    built, prefix_tests = [], []
    multiply, is_prefix_of = Word.__mul__, Word.is_prefix_of

    def recording_multiply(self, other):
        product = multiply(self, other)
        built.append(product.length)
        return product

    def recording_is_prefix_of(self, other):
        prefix_tests.append((self, other))
        return is_prefix_of(self, other)

    monkeypatch.setattr(Word, "__mul__", recording_multiply)
    monkeypatch.setattr(Word, "is_prefix_of", recording_is_prefix_of)
    family = CircleFamily([F(1, 3), F(1, 5)])
    prefix, period = W("s2"), W("s1 s2")
    sample = omega_sample(family, F(1, 7), Ray(period, prefix=prefix), 2000,
                          F(1, 100))
    assert sample.samples == 2000
    assert not stable_set_check(family, CyclicSubgroup(period), F(0), F(1, 7),
                                2000, 1e-9)
    assert prefix_tests == []
    assert max(built, default=0) <= prefix.length + period.length


@pytest.mark.parametrize("verdict", [
    lambda fam, spec: is_h_fixed(fam, spec, 1, 2),
    lambda fam, spec: is_h_periodic(fam, spec, 1, 2, 2),
    # y == x would return True before any ray is tried
    lambda fam, spec: stable_set_check(fam, spec, 1, 1, 5, F(1, 100)),
], ids=["is_h_fixed", "is_h_periodic", "stable_set_check"])
def test_verdicts_reject_a_subgroup_of_another_group(verdict):
    # ker:1,2 on 2 generators is {e}: no member would ever reach a map
    with pytest.raises(WordSyntaxError):
        verdict(BankFamily([2, 3, 5]), KernelSubgroup(2, frozenset([1, 2])))
