from fractions import Fraction as F

import pytest

from mdtds import (BankFamily, Balanced, CircleFamily, Counterexample,
                   CyclicSubgroup, DomainViolationError, EvenCount,
                   ExactnessError, FullGroup, KernelSubgroup, Ray,
                   ResourceLimitError, SignedLetter, VerifiedUpTo, Word,
                   WordSyntaxError, affine_and_square_family, evaluate,
                   fixed_point_residual, identity_family, is_fixed,
                   is_h_fixed, is_h_periodic, omega_sample, orbit_ball,
                   stable_set_check)

from conftest import W, random_fraction, random_word


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
        with pytest.raises(ResourceLimitError):  # ker:1,2 on 2 generators is {e}
            stable_set_check(family, KernelSubgroup(2, frozenset([1, 2])), F(0),
                             F(1, 2), 1, F(1, 100), ray_depth=12, node_cap=1000)

    def test_finite_rotation_orbit_never_enters(self):
        family = CircleFamily([F(1, 2), F(1, 3)])
        spec = CyclicSubgroup(W("s1^2"))
        # the sampled orbit of 0.2 under integer rotations stays at 0.2
        assert not stable_set_check(family, spec, F(0), F(1, 5), 50, F(1, 10))


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
