import math

import numpy as np
import pytest

from coincidia.errors import BracketingError, ConfigurationError, DomainError, NumericError
from coincidia.stability import PhiFunction, invert


class TestPhiFunction:
    def test_must_vanish_at_zero(self):
        with pytest.raises(ConfigurationError):
            PhiFunction(eval=lambda t: t + 1.0, upper_bracket=lambda e: e + 2.0)

    def test_must_be_positive_away_from_zero(self):
        with pytest.raises(ConfigurationError):
            PhiFunction(eval=lambda t: 0.0, upper_bracket=lambda e: e + 1.0)

    def test_must_be_nondecreasing(self):
        with pytest.raises(ConfigurationError):
            PhiFunction(eval=lambda t: t * (100.0 - t), upper_bracket=lambda e: e + 1.0)

    def test_raising_phi_at_zero_becomes_numeric_error_naming_phi(self):
        with pytest.raises(NumericError, match="^phi raised ZeroDivisionError") as info:
            PhiFunction(eval=lambda r: 1 / 0 if r == 0 else r, upper_bracket=lambda e: e + 1.0)
        assert isinstance(info.value.__cause__, ZeroDivisionError)

    def test_nan_at_zero_is_rejected(self):
        # abs(nan) > 1e-12 is False, so a direct comparison would accept it
        with pytest.raises(NumericError, match="^phi evaluated to a non-finite value"):
            PhiFunction(eval=lambda r: np.where(r == 0.0, np.nan, r),
                        upper_bracket=lambda e: e + 1.0)


class TestInvert:
    def test_linear(self):
        phi = PhiFunction(eval=lambda t: 2.0 * t, upper_bracket=lambda e: e + 1.0)
        assert invert(phi, 1.0, 1e-10) == pytest.approx(0.5, abs=1e-9)

    def test_pendulum_row_three(self):
        from coincidia.pendulum import phi_pendulum

        psi = invert(phi_pendulum(), 0.1011479123607, 1e-9)
        assert psi == pytest.approx(1.354285018462, abs=1e-6)

    def test_zero_eps(self):
        phi = PhiFunction(eval=lambda t: t, upper_bracket=lambda e: e + 1.0)
        assert invert(phi, 0.0, 1e-10) == 0.0

    @pytest.mark.parametrize("tol", [0.0, -1e-10])
    def test_tolerance_must_be_positive(self, tol):
        phi = PhiFunction(eval=lambda t: t, upper_bracket=lambda e: e + 1.0)
        with pytest.raises(ConfigurationError, match="inversion tolerance must be positive"):
            invert(phi, 1.0, tol)

    def test_negative_eps(self):
        phi = PhiFunction(eval=lambda t: t, upper_bracket=lambda e: e + 1.0)
        with pytest.raises(DomainError):
            invert(phi, -1.0, 1e-10)

    def test_bracket_end_at_the_target_is_accepted(self):
        # upper_bracket may return any hi with phi(hi) >= eps, equality included
        phi = PhiFunction(eval=lambda t: t, upper_bracket=lambda e: e)
        assert invert(phi, 0.75, 1e-12) == pytest.approx(0.75, abs=1e-12)

    def test_bracketing_error_on_bad_bracket(self):
        phi = PhiFunction(eval=lambda t: min(t, 1.0), upper_bracket=lambda e: 10.0)
        with pytest.raises(BracketingError):
            invert(phi, 5.0, 1e-9)

    def test_raising_bracket_becomes_numeric_error_naming_it(self):
        phi = PhiFunction(eval=lambda t: t, upper_bracket=lambda e: 1 / 0)
        with pytest.raises(NumericError, match="^upper_bracket raised ZeroDivisionError") as info:
            invert(phi, 1.0, 1e-9)
        assert isinstance(info.value.__cause__, ZeroDivisionError)

    @pytest.mark.parametrize("end", [0.0, -1.0])
    def test_non_positive_bracket_end_is_a_bracketing_error(self, end):
        phi = PhiFunction(eval=lambda t: t, upper_bracket=lambda e: end)
        with pytest.raises(BracketingError, match="unusable upper end"):
            invert(phi, 1.0, 1e-9)

    @pytest.mark.parametrize("end", [math.inf, math.nan])
    def test_non_finite_bracket_end_is_a_numeric_error(self, end):
        phi = PhiFunction(eval=lambda t: t, upper_bracket=lambda e: end)
        with pytest.raises(NumericError, match="^upper_bracket evaluated to a non-finite value"):
            invert(phi, 1.0, 1e-9)

    def test_raising_phi_becomes_numeric_error_naming_phi(self):
        # the probes stop at 100, so only the inversion reaches r > 150
        def phi(r):
            r = float(r)
            if r > 150.0:
                raise ZeroDivisionError("phi is undefined beyond 150")
            return r

        phi_fn = PhiFunction(eval=phi, upper_bracket=lambda e: 200.0)
        with pytest.raises(NumericError, match="^phi raised ZeroDivisionError"):
            invert(phi_fn, 1.0, 1e-9)
        assert invert(PhiFunction(eval=phi, upper_bracket=lambda e: 120.0), 1.0, 1e-9) == \
            pytest.approx(1.0, abs=1e-9)

    def test_roundtrip_identity(self):
        from coincidia.pendulum import phi_pendulum

        phi = phi_pendulum()
        rng = np.random.default_rng(17)
        for r in rng.uniform(0.0, 5.0, 50):
            assert invert(phi, phi.eval(r), 1e-9) == pytest.approx(r, abs=1e-8)

    def test_psi_monotone(self):
        from coincidia.pendulum import phi_pendulum

        phi = phi_pendulum()
        eps = np.sort(np.random.default_rng(19).uniform(0.0, 3.0, 20))
        psi = [invert(phi, e, 1e-9) for e in eps]
        assert all(b >= a - 1e-9 for a, b in zip(psi, psi[1:]))

    def test_continuity_at_zero_guard(self):
        from coincidia.pendulum import phi_pendulum

        # phi(t) = (1 - 1/2) t, the comparison function of the Geraghty modulus 1/2
        half = PhiFunction(eval=lambda t: (1.0 - 0.5) * t,
                           upper_bracket=lambda eps: max(1.0, eps / 0.5 + 1.0))
        for phi in (phi_pendulum(), half):
            assert invert(phi, 1e-12, 1e-15) <= 1e-3
