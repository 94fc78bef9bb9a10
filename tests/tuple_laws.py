"""The tuple form of a finite law, kept as a reference for the array form of `core`.

A law is a sorted tuple of (key tuple, prob) pairs: `canonical_distribution` merges equal
keys through a dict and sorts them, `canonical_equal` compares two such tuples pair by pair
within `tol`, and a NaN never agrees.  `core.canonical` and `core.same_law` must decide
every comparison the way these do.
"""
from nonmarkov.core import PROB_TOL


def canonical_distribution(outcomes):
    merged = {}
    for key, prob in outcomes:
        merged[key] = merged.get(key, 0.0) + prob
    return tuple(sorted(merged.items()))


def canonical_equal(c1, c2, tol=PROB_TOL):
    if len(c1) != len(c2):
        return False
    for (k1, p1), (k2, p2) in zip(c1, c2):
        if len(k1) != len(k2):
            return False
        if not all(abs(a - b) <= tol for a, b in zip(k1, k2)):
            return False
        if not abs(p1 - p2) <= tol:
            return False
    return True


def distributions_equal(d1, d2, tol=PROB_TOL):
    return canonical_equal(canonical_distribution(d1), canonical_distribution(d2), tol)


def flat_dist(row):
    """A transition row ((obs, reward), prob) as a law over flat (*obs, reward) keys."""
    return canonical_distribution([((*obs.tolist(), reward), p) for (obs, reward), p in row])
