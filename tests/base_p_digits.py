"""Base-p digits of an exact coordinate num/p^L, which only the tests read:
the oracle of the Walsh exponent and of the Laurent digit checks, formed
from the low end by repeated division."""


def digits(num: int, p: int, L: int) -> tuple:
    """The L base-p digits of num/p^L after the radix point, most
    significant first."""
    low = []
    for _ in range(L):
        num, d = divmod(num, p)
        low.append(d)
    return tuple(reversed(low))
