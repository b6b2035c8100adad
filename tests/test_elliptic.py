import itertools
from fractions import Fraction

import pytest

from oracles import ec_mul
from quadorbits.elliptic import Curve, INFINITY, SUBCASE_CURVE_E, \
    c_rational_points, curve_c_poly, curve_map_numerator, ec_add, \
    ec_order, lutz_nagell_candidates, point, preimage_check, \
    preimages_on_c, verify_curve_map
from quadorbits.polynomials import BiPoly

E = SUBCASE_CURVE_E
TU = ("t", "u")


class TestGroupLaw:
    def test_identity(self):
        assert ec_add(E, point(0, 1), INFINITY) == point(0, 1)

    def test_chord(self):
        assert ec_add(E, point(0, 1), point(1, 0)) == point(2, 1)

    def test_inverse_pair(self):
        assert ec_add(E, point(0, 1), point(0, -1)) == INFINITY

    def test_doubling_chain(self):
        P = point(0, 1)
        assert ec_mul(E, 2, P) == point(2, -1)
        assert ec_mul(E, 3, P) == point(1, 0)

    def test_off_curve_rejected(self):
        with pytest.raises(ValueError):
            ec_add(E, point(5, 5), point(0, 1))

    def test_order_of_an_off_curve_point_rejected(self):
        with pytest.raises(ValueError):
            ec_order(E, point(5, 5))

    def test_commutative_and_associative_on_torsion(self):
        pts = [INFINITY, point(1, 0), point(0, 1), point(0, -1),
               point(2, 1), point(2, -1)]
        for P, Q in itertools.product(pts, repeat=2):
            assert ec_add(E, P, Q) == ec_add(E, Q, P)
        for P, Q, R in itertools.product(pts, repeat=3):
            assert ec_add(E, ec_add(E, P, Q), R) == \
                ec_add(E, P, ec_add(E, Q, R))

    def test_closure_and_cyclic_structure(self):
        pts = {INFINITY, point(1, 0), point(0, 1), point(0, -1),
               point(2, 1), point(2, -1)}
        for P, Q in itertools.product(pts, repeat=2):
            assert ec_add(E, P, Q) in pts
        gen = point(0, 1)
        generated = {ec_mul(E, k, gen) for k in range(6)}
        assert generated == pts

    def test_orders(self):
        assert ec_order(E, point(0, 1)) == 6
        assert ec_order(E, point(1, 0)) == 2
        assert ec_order(E, INFINITY) == 1

    def test_infinite_order_detected(self):
        E2 = Curve(0, 0, -4)  # y^2 = x^3 - 4 has the non-torsion point (2, 2)
        assert ec_order(E2, point(2, 2)) is None


class TestLutzNagell:
    def test_subcase_curve(self):
        assert E.cubic_disc() == 5
        got = lutz_nagell_candidates(E)
        assert got == {point(1, 0), point(0, 1), point(0, -1),
                       point(2, 1), point(2, -1)}

    def test_classical_curve(self):
        got = lutz_nagell_candidates(Curve(0, 0, 1))
        assert {point(0, 1), point(0, -1), point(-1, 0), point(2, 3),
                point(2, -3)} <= got

    def test_y_zero_row(self):
        got = lutz_nagell_candidates(Curve(0, -1, 0))  # y^2 = x^3 - x
        assert {point(0, 0), point(1, 0), point(-1, 0)} <= got

    def test_rejects_non_integral(self):
        with pytest.raises(ValueError):
            lutz_nagell_candidates(Curve(Fraction(1, 2), 0, 1))


class TestExactness:
    def test_only_ints_and_fractions_are_accepted(self):
        assert point(Fraction(1, 2), 3) == point(Fraction(1, 2), Fraction(3))
        with pytest.raises(TypeError):
            point(0.1, "2")
        with pytest.raises(TypeError):
            point(0, "1")
        with pytest.raises(TypeError):
            Curve(0.5, 0, 1)
        with pytest.raises(TypeError):
            Curve(0, "-1", 0)


class TestCurveMap:
    def test_identity_holds(self):
        assert verify_curve_map()

    @staticmethod
    def numerator(x_shift: int, y_sign: int) -> BiPoly:
        """``curve_map_numerator`` with r perturbed: the x-component
        shifted by x_shift, the y-component's sign multiplied by y_sign."""
        t, u = BiPoly.variable("t", TU), BiPoly.variable("u", TU)
        u2 = u * u
        xnum = -t * u2 + 1 + x_shift * u2
        ynum = (t * u2 + u2 - 1) * y_sign
        return ynum * ynum - (xnum ** 3 - 2 * (xnum ** 2) * u2 + u2 ** 3)

    def test_sign_flip_still_lands(self):
        assert self.numerator(0, 1) == curve_map_numerator()
        assert curve_c_poly().divides(self.numerator(0, -1))

    def test_perturbed_map_fails(self):
        assert not curve_c_poly().divides(self.numerator(1, 1))

    def test_numerator_is_divisible(self):
        assert curve_c_poly().divides(curve_map_numerator())


class TestPreimages:
    def test_no_preimage_of_two_torsion(self):
        assert preimage_check()

    def test_preimages_of_other_points(self):
        assert preimages_on_c(point(0, 1)) == {(Fraction(1), Fraction(1))}
        assert preimages_on_c(point(2, 1)) == {(Fraction(-1), Fraction(-1))}

    def test_c_rational_points(self):
        assert c_rational_points() == {
            (Fraction(0), Fraction(0)),
            (Fraction(1), Fraction(1)), (Fraction(1), Fraction(-1)),
            (Fraction(-1), Fraction(1)), (Fraction(-1), Fraction(-1))}
