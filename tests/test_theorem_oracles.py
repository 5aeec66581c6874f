"""Exact oracles for the three-term inequality from the paper's structure.

Both tests list their chains themselves: every admissible chain with
r_1 = 0, n 2-8 and steps -2, 2, 4 and 6, 21,844 of them.  The tail-order
lemma is checked with multiplicities counted here, so it shares nothing
with the walk, the certificate builder or the checker.  Duality checks
that the package's verdicts read a chain and its dual alike.
"""

from collections import Counter
from itertools import accumulate, product

from higgs_threeterm.chain import extend_chain, tail_slopes, three_term_holds
from higgs_threeterm.pairing import certify, verify_certificate

STEPS = (-2, 2, 4, 6)  # a drop of exactly 2, or an even rise: every step is admissible


def product_box():
    for n in range(2, 9):
        for steps in product(STEPS, repeat=n - 1):
            yield tuple(accumulate(steps, initial=0))


def violates(roots):
    m = Counter(roots)  # an absent height reads 0
    return any(m[r] > m[r - 2] + m[r + 2] for r in m)


def test_a_chain_that_ends_below_its_start_satisfies_the_three_term_inequality():
    # (sign of r_n - r_1, violates) over the box: the lemma is the empty (-1, True)
    seen = Counter(((roots[-1] > roots[0]) - (roots[-1] < roots[0]), violates(roots)) for roots in product_box())
    assert seen[-1, True] == 0
    assert seen[-1, False] == 288
    # r_n = r_1 can violate, so the strict inequality cannot be relaxed
    assert seen[0, True] == 96
    assert sum(seen.values()) == 21_844


def dual(roots):
    """The dual Higgs bundle's chain, shifted back to r_1 = 0: the steps reversed."""
    return tuple(roots[-1] - r for r in reversed(roots))


def walk_flag(roots):
    """The walk's stability flag for the whole tuple, handed as its own prefix."""
    [(_, stable, _)] = extend_chain(roots, len(roots), (), max(map(abs, roots)))
    return stable


def test_the_dual_keeps_every_verdict_and_a_stable_dual_certifies():
    stable = 0
    for roots in product_box():
        other = dual(roots)
        assert dual(other) == roots
        assert tail_slopes(other).kind == tail_slopes(roots).kind, roots
        assert three_term_holds(Counter(other))[0] == three_term_holds(Counter(roots))[0], roots
        assert walk_flag(other) == walk_flag(roots), roots
        if walk_flag(other):
            stable += 1
            targets, failures = certify(other)
            assert failures == {}, other
            for r in set(other):
                assert verify_certificate(other, r, targets) == (True, []), (other, r)
    assert stable == 104
