import itertools
import math

import pytest

from diatomic import verify


def words_up_to(k):
    """All binary words of length at most k, shortest first."""
    for m in range(k + 1):
        for letters in itertools.product("ab", repeat=m):
            yield "".join(letters)


def words_of_length(k):
    for letters in itertools.product("ab", repeat=k):
        yield "".join(letters)


def letterwise_christoffel(p, q):
    """Christoffel word of slope p/q read off the values i*p mod (p+q):
    positions where the value increases carry a, the others b."""
    n = p + q
    letters = []
    prev = 0
    for _ in range(n):
        cur = (prev + p) % n
        letters.append("a" if cur > prev else "b")
        prev = cur
    return "".join(letters)


def coprime_from(p, n):
    """The first p' >= p coprime to n."""
    while math.gcd(p, n) != 1:
        p += 1
    return p


def check(name):
    """The ``verify`` check that prints ``name``, read from the registry
    at call time, so a patched ``verify.ALL_CHECKS`` is searched too."""
    return next(c for c in verify.ALL_CHECKS if c.__name__ == name)


@pytest.fixture(scope="session")
def small_words():
    return list(words_up_to(10))
