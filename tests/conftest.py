import pytest

from steinberg.field import Field
from steinberg.forms import Family, build_descriptor
from steinberg.harness import enumerate_group

F3 = Field(3)
F5 = Field(5)
F7 = Field(7)

ALL_FAMILIES = (Family.GSP, Family.GO_EVEN, Family.GO_ODD, Family.GO_MINUS)
ORTHOGONAL = (Family.GO_EVEN, Family.GO_ODD, Family.GO_MINUS)


def descriptor(family, l, field=F5, similitude=False):
    return build_descriptor(family, l, field, similitude=similitude)


@pytest.fixture(scope="session")
def o_plus_4_3():
    """Closure enumeration of the split O(4,3) isometry group (1152 elements)."""
    d = build_descriptor(Family.GO_EVEN, 2, F3)
    return d, enumerate_group(d, method="closure", cap=10**6)


@pytest.fixture(scope="session")
def whole_group():
    """``whole_group(family, l, p)`` gives (descriptor, enumeration) of the
    isometry group over F_p, by ``enumerate_group``'s own choice of method,
    enumerated once per test session: the census and the lookahead search
    share O(5,3), 103,680 elements, and O+(4,5)."""
    memo = {}

    def enumerate_once(family, l, p):
        if (family, l, p) not in memo:
            d = build_descriptor(family, l, Field(p))
            memo[family, l, p] = d, enumerate_group(d)
        return memo[family, l, p]

    return enumerate_once


@pytest.fixture(scope="session")
def sp_2_3():
    d = build_descriptor(Family.GSP, 1, F3)
    return d, enumerate_group(d, method="brute", cap=10**6)
