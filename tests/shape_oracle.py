"""The Poly-product route to a shape's dual weight sums, the oracle that
walsh._batch_bounds and its batch of one, walsh._modulus_bound, are
compared against: r_i = B*q_i mod pX is formed by a Poly product and a
division, then read off the rank profile of the 2m - 1 leading Laurent
digits of {r_1/pX}, one more division, at t = 1 or off pX's unit-group
table at log r_i for t >= 2."""

from hybridqmc.gfpoly import laurent_coeffs, poly_to_int
from hybridqmc.walsh import _bound_tuples, _rank_profile, _table_sums, _unit_group


def shape_sums(cfg, modulus) -> tuple:
    """S_d = sum_l prod_i 3p*phi(x_i(l)) over the p^d points l*B, deg l < d,
    for every d = 0..m - deg B, B = modulus."""
    pX, dmax = cfg.modulus, cfg.m - modulus.degree
    residues = [modulus * q % pX for q in cfg.generators]
    if residues[0].is_zero:
        raise ValueError("shape modulus is divisible by pX")
    if dmax < 0:  # no level past d = m
        return ()
    if cfg.t == 1:
        return _rank_profile(pX, laurent_coeffs(residues[0], pX, 2 * cfg.m - 1))[: dmax + 1]
    log = _unit_group(pX)[0]
    return _table_sums(pX, [log[poly_to_int(r)] for r in residues], dmax)


def shape_bounds(cfg, modulus) -> tuple:
    """The bound tuple of shape B = modulus for d = 0..m - deg B: the one
    lane of walsh._bound_tuples over one-lane sum columns, () past d = m."""
    sums = shape_sums(cfg, modulus)
    return _bound_tuples(cfg.p, cfg.m, cfg.t, zip(sums))[0] if sums else ()
