"""Hypothesis strategies shared by the test modules."""

from math import gcd

from hypothesis import strategies as st

from lspaceknots import NotLSpaceShape, cable, from_members, genus, torus


@st.composite
def formal_semigroups(draw, max_genus=40):
    """A genus g in 1..max_genus and one of s, 2g-1-s for each s < g, redrawn until the constructor accepts it.

    The redraws come from a true random generator seeded by Hypothesis: drawn
    from Hypothesis's own data, the rejection loop at g near 40 used up its
    entropy budget and failed the too-slow health check on a loaded machine.
    """
    g = draw(st.integers(1, max_genus))
    rng = draw(st.randoms(use_true_random=True))
    while True:
        small = tuple(rng.choice((s, 2 * g - 1 - s)) for s in range(g))
        try:
            return from_members(g, small)
        except NotLSpaceShape:
            continue


@st.composite
def certified_towers(draw):
    """T(p, q) cabled 0-2 times with q at most 4 above the L-space bound p(2g-1)."""
    p = draw(st.integers(2, 4))
    knot = torus(p, draw(st.integers(p + 1, 7).filter(lambda q: gcd(p, q) == 1)))
    for _ in range(draw(st.integers(0, 2))):
        p = draw(st.integers(2, 3))
        low = p * (2 * genus(knot) - 1)
        knot = cable(knot, p, draw(st.integers(low, low + 4).filter(lambda q: gcd(p, q) == 1)))
    return knot


@st.composite
def towers_below_hedden_bound(draw):
    """T(p, q) cabled 1-2 times, at least once with q below the L-space bound p(2g-1)."""
    p = draw(st.integers(2, 4))
    knot = torus(p, draw(st.integers(p + 1, 7).filter(lambda q: gcd(p, q) == 1)))
    n_stages = draw(st.integers(1, 2))
    low_stage = draw(st.integers(0, n_stages - 1))
    for i in range(n_stages):
        p = draw(st.integers(2, 3))
        bound = p * (2 * genus(knot) - 1)
        qs = st.integers(1, bound - 1) if i == low_stage else st.integers(bound, bound + 4)
        knot = cable(knot, p, draw(qs.filter(lambda q: gcd(p, q) == 1)))
    return knot
