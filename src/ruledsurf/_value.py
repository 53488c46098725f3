"""The immutable value base class and the int and class checks of every layer.

They live apart from geometry so that a layer that needs only them, such as
splitting, loads no geometry; geometry re-exports all three.
"""

from collections import namedtuple

# namedtuple's C-level field getters, by position: getter i reads item i of any tuple
# (ExtensionData, the widest value, has six fields)
_Fields = namedtuple("_Fields", "f0 f1 f2 f3 f4 f5")
_GETTERS = [*map(vars(_Fields).get, _Fields._fields)]
_eq, _ne = tuple.__eq__, tuple.__ne__


class _Value(tuple):
    """An immutable value, equal within its class and hashed by its fields.

    A value is a tuple of its fields, the layout collections.namedtuple
    uses, with no instance dict.  A subclass names its fields once, as
    `class DivisorClass(_Value, fields=("a", "b"))` with `__slots__ = ()`,
    and __init_subclass__ installs namedtuple's C-level getters for them.
    Its __new__ validates its arguments and returns
    `tuple.__new__(cls, (a, b))`, the fields in declared order, or has
    _checked do both from a list of the fields' classes.

    A value may also be built unchecked, by _unchecked(cls, fields), which
    is tuple.__new__ itself, where every field is a field of a value whose
    class was checked exactly (`type(v) is C`), an int checked in the same
    call, or int arithmetic on those, and where the result is known to pass
    the constructor's range checks.  _unchecked is the only unchecked build:
    splitting's list builders use it for the types enumerate_types and
    specialization_chain list, cohomology for the table h_line returns, and
    bundles for the values twist, grr_verify, extension_chern and
    extension_data_from_chern return.  tests/test_values.py checks that
    its values equal, hash, print and refuse assignment as the checked ones
    do.

    == and != test the class first: a value equals only a value of its own
    class, never a plain tuple or a value of another class with the same
    fields, which tuple's own == would call equal.  Past that test they,
    like hash, are tuple's C code, so a value hashes as the tuple of its
    fields.  Copies and pickles rebuild a value through its checked
    constructor.  The tuple behaviours that would treat a value as a
    sequence of numbers are refused with TypeError: <, <=, > and >=, and
    + and * (DivisorClass defines its own arithmetic).  Iteration, len and
    indexing still work, as tuple's, but they are not part of a value's
    interface: no code outside this class may rely on iterating a value or
    on its len; read its fields by name.
    """

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls, fields=None):
        if fields is not None:
            cls._fields = fields
            for i, name in enumerate(fields):
                setattr(cls, name, _GETTERS[i])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return _eq(self, other)
        # tuple's reflected == would compare another tuple's items with ours
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other):
        if other.__class__ is self.__class__:
            return _ne(self, other)
        return True if isinstance(other, tuple) else NotImplemented

    __hash__ = tuple.__hash__

    def _refuse(self, other):
        raise TypeError(f"{type(self).__name__} values are not ordered, "
                        "nor tuples to add or repeat")

    __lt__ = __le__ = __gt__ = __ge__ = __add__ = __radd__ = __mul__ = __rmul__ = _refuse

    def __getnewargs__(self):
        return tuple(self)

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in zip(self._fields, self))
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _repr_pretty_(self, p, cycle):
        # Pretty printers (hypothesis, IPython) render each field themselves:
        # an int past Python's str() digit limit shows in hex, where repr raises.
        name = type(self).__name__
        if cycle:
            return p.text(name + "(...)")
        with p.group(1, name + "(", ")"):
            for i, (field, value) in enumerate(zip(self._fields, self)):
                if i:
                    p.text(",")
                    p.breakable()
                p.text(field + "=")
                p.pretty(value)


# The one unchecked build, under the rule in _Value: _unchecked(cls, fields).
_unchecked = tuple.__new__


def _wrong_type(what: str, expected: type, value) -> TypeError:
    """The refusal of a field that must hold a value of class `expected` exactly."""
    name = expected.__name__
    article = "an" if name[0] in "AEIOU" else "a"
    return TypeError(f"{what} must be {article} {name}, got {type(value).__name__}")


def _require_int(what: str, *values) -> None:
    """Reject any value that is not an exact int: bool, float and Fraction included.

    The input values' public constructors and every public function check
    each int they take, most of them inline as `type(v) is int`, calling
    this only to raise; one call per divisor made the extension grid about
    a sixth slower.  tests/test_contract.py checks every int parameter, and
    every parameter of a value class (refused by _wrong_type), read from the
    signatures of the package's exports.  The list builders,
    splitting.enumerate_types and specialization_chain, and the extension
    round trip of bundles check their arguments once and build their
    results unchecked, as _Value describes.  It lives here rather than in
    geometry, which re-exports it, so that a split request loads no
    geometry.
    """
    for value in values:
        if type(value) is not int:  # bool is a subclass of int, so no isinstance
            raise TypeError(f"{what} must be integers, got {type(value).__name__}")


def _checked(cls, classes: str, *fields):
    """The value of cls with fields, each refused unless it is exactly of its class in
    classes, a space-separated list of bool and int: an int as _require_int words the
    refusal, a bool as _wrong_type does.  It serves a class whose checked build no grid
    makes, and imports nothing."""
    known = {"bool": bool, "int": int}
    for what, value, name in zip(cls._fields, fields, classes.split()):
        kind = known[name]
        if type(value) is not kind:
            if kind is int:
                _require_int(what, value)
            raise _wrong_type(what, kind, value)
    return tuple.__new__(cls, fields)
