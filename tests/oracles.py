"""Independent oracles shared by several test modules."""

from fqpencil.bivar import (BivariatePoly, _brute_force_singular,
                            homogenize_and_degree)


def brute_force_singular_search(f: BivariatePoly, m_max: int):
    """Independent smoothness oracle: exhaustive search over F_{q^m}, m <= m_max."""
    _, form = homogenize_and_degree(f)
    return _brute_force_singular(form, m_max)
