"""The immutable value base class and the int and class checks of every layer.

They live apart from geometry so that a layer that needs only them, such as
splitting, loads no geometry; geometry re-exports all three.
"""


class _Value:
    """An immutable value, equal within its class and hashed by its fields.

    A subclass's __init__ validates its arguments, then writes them straight
    into its instance dict, `fields = self.__dict__; fields["x"] = x`, in
    declared order, so __dict__ holds the fields in that order.  Writing the
    dict bypasses __setattr__, which refuses every assignment, for the cost
    of one dict store per field.

    A value may also be built unchecked, by `object.__new__` and the same
    stores, where every field is a field of a value whose class was checked
    exactly (`type(v) is C`), an int checked in the same call, or int
    arithmetic on those, and where the result is known to pass the
    constructor's range checks.  One private builder per class does it, and
    nothing else does: splitting's _listed (SplittingType), for the types
    enumerate_types and specialization_chain list, and bundles' _divisor
    (DivisorClass), _bundle (BundleNumerics) and _extension (ExtensionData),
    for the values extension_chern and extension_data_from_chern return.
    tests/test_values.py checks that their values equal, hash, print and
    refuse assignment as the checked ones do.
    """

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.__dict__ == other.__dict__
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self.__dict__.values()))

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in self.__dict__.items())
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
            for i, (field, value) in enumerate(self.__dict__.items()):
                if i:
                    p.text(",")
                    p.breakable()
                p.text(field + "=")
                p.pretty(value)


def _wrong_type(what: str, expected: type, value) -> TypeError:
    """The refusal of a field that must hold a value of class `expected` exactly."""
    return TypeError(f"{what} must be a {expected.__name__}, got {type(value).__name__}")


def _require_int(what: str, *values) -> None:
    """Reject any value that is not an exact int: bool, float and Fraction included.

    The input values' public constructors and every public function check
    each int they take (tests/test_int_arguments.py lists them all), most
    of them inline, calling this only to raise: SurfaceGeometry,
    DivisorClass, BundleNumerics, ExtensionData, ConormalData and
    CohomologyTable test `type(v) is int`, SplittingType makes one pass of
    `map(type, parts)`; one call per divisor made the extension grid about
    a sixth slower.  The list builders, splitting.enumerate_types and
    specialization_chain, and the extension round trip of bundles check
    their arguments once and build their results unchecked, as _Value
    describes.  It lives here rather than in geometry, which re-exports it,
    so that a split request loads no geometry.
    """
    for value in values:
        if type(value) is not int:  # bool is a subclass of int, so no isinstance
            raise TypeError(f"{what} must be integers, got {type(value).__name__}")
