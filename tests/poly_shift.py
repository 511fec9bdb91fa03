"""Multiplication by X^k, which only the tests need: the sub-lattice anchor
C X^d B + R of the Poly-product oracle and the Laurent identities of
test_gfpoly."""

from hybridqmc.gfpoly import Poly


def shifted(a: Poly, k: int) -> Poly:
    """a * X^k for k >= 0, by prepending k zero coefficients."""
    if k < 0:
        raise ValueError("negative shift")
    return Poly(a.p, (0,) * k + a.coeffs)
