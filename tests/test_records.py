"""The immutable records: equality by field values within one class, a hash
that agrees with it, no assignment, and a fixed ``repr`` and ``str``."""

import pickle
from fractions import Fraction

import pytest

from steinberg.coset import CosetLabel
from steinberg.eliminate import Decomposition
from steinberg.field import Field, QQ, SquareClass
from steinberg.forms import Family, GroupDescriptor, build_descriptor
from steinberg.generators import IllegalToken, Word, x
from steinberg.harness import Enumeration
from steinberg.matrix import Matrix

F7 = Field(7)
D = build_descriptor(Family.GSP, 1, F7)
I2 = Matrix.identity(F7, 2)
TOK = "GeneratorToken(kind='x', i=1, j=-1, t=3, s=None, alpha=None, lam=None, mu=None)"
D_REPR = ("GroupDescriptor(family=<Family.GSP: 'GSp'>, l=1, field=Field(p=7), similitude=False,"
          " beta=Matrix(F7, [0 1; 6 0]), n=2, epsilon=None)")
W_REPR = f"Word(descriptor={D_REPR}, tokens=({TOK},))"
E_REPR = f"Word(descriptor={D_REPR}, tokens=())"


def word():
    return Word(D, [x(1, -1, 3)])


# (make a fixed instance, make one differing in one field, its repr, its str)
CASES = {
    "Field": (lambda: Field(7), lambda: Field(5), "Field(p=7)", "F7"),
    "Field-Q": (lambda: Field(), lambda: Field(7), "Field(p=None)", "Q"),
    "SquareClass": (lambda: SquareClass(-3, False), lambda: SquareClass(-3, True),
                    "SquareClass(rep=-3, prime=False)", "-3"),
    "SquareClass-Fp": (lambda: SquareClass(-1, True), lambda: SquareClass(1, True),
                       "SquareClass(rep=-1, prime=True)", "nonsquare"),
    "GroupDescriptor": (lambda: build_descriptor(Family.GSP, 1, Field(7)),
                        lambda: build_descriptor(Family.GSP, 1, Field(7), similitude=True),
                        D_REPR, "GSp(l=1,F7,isometry)"),
    "Word": (word, lambda: Word(D, [x(1, -1, 4)]), W_REPR, "x[1,-1](3)"),
    "Decomposition": (lambda: Decomposition(D, word(), Word(D, ()), I2, 1, 1, None, None, 1),
                      lambda: Decomposition(D, word(), Word(D, ()), I2, 1, 1, None, None, 2),
                      f"Decomposition(descriptor={D_REPR}, left={W_REPR}, right={E_REPR},"
                      " diagonal=Matrix(F7, [1 0; 0 1]), lam=1, mu=1, alpha=None, block=None, op_count=1)", None),
    "CosetLabel": (lambda: CosetLabel(1, D.beta, word(), Word(D, ())),
                   lambda: CosetLabel(1, D.beta, Word(D, ()), Word(D, ())),
                   f"CosetLabel(m=1, omega=Matrix(F7, [0 1; 6 0]), left_witness={W_REPR},"
                   f" right_witness={E_REPR})", None),
    "Enumeration": (lambda: Enumeration(D, (I2,), "closure"), lambda: Enumeration(D, (I2,), "brute"),
                    f"Enumeration(descriptor={D_REPR}, elements=(Matrix(F7, [1 0; 0 1]),), method='closure')",
                    None),
}


@pytest.mark.parametrize("name", CASES)
def test_record_semantics(name):
    make, other, rep, text = CASES[name]
    a, b, c = make(), make(), other()
    assert a is not b and a == b and not a != b and hash(a) == hash(b)
    assert a != c and not a == c
    assert a != object()
    assert repr(a) == rep and str(a) == (rep if text is None else text)
    assert pickle.loads(pickle.dumps(a)) == a
    field = rep[rep.index("(") + 1:rep.index("=")]
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(c, field))
    with pytest.raises(AttributeError):
        delattr(a, field)
    assert a == b and getattr(a, field) == getattr(b, field)


def test_records_of_different_classes_are_unequal():
    assert Field(7) != 7 and Field(7) != (7,) and QQ != None  # noqa: E711
    assert SquareClass(1, True) != (1, True)
    assert {Field(7): 1}[Field(7)] == 1 and len({SquareClass(2, False), SquareClass(2, False)}) == 1


def test_record_constructors_keep_their_checks_and_defaults():
    assert Field() == QQ and Field(p=7) == F7
    d = GroupDescriptor(Family.GSP, 1, F7, False, D.beta, 2)
    assert d == D and d.epsilon is None and d.pos(-1) == 1
    w = Word(descriptor=D, tokens=[x(1, -1, 3)])
    assert type(w.tokens) is tuple and w == word() and len(w) == 1
    with pytest.raises(IllegalToken):
        Word(D, [x(1, 1, 3)])
    for bad in (4, 2):
        with pytest.raises(ValueError, match="modulus must be an odd prime"):
            Field(bad)
    assert Field(7).of(Fraction(1, 2)) == 4
