"""Exception types shared across the package, and the fixture-entry
readers that raise them.

Every error raised on invalid mathematical input derives from InputError so
the command line driver can map them to exit code 2 uniformly.
"""

from fractions import Fraction


class InputError(ValueError):
    """Base class for errors caused by invalid input data."""


class SchemaError(InputError):
    """A fixture value has the wrong JSON type or shape."""


# longest repr of a wrong-typed value that a message quotes whole
REPR_LIMIT = 80


def brief(value):
    """repr(value) for an error message: whole when it has at most
    REPR_LIMIT characters, else its first REPR_LIMIT and '...', so that a
    whole fixture given where a small value belongs, or a long entry with
    one bad element, is not quoted whole."""
    text = repr(value)
    return text if len(text) <= REPR_LIMIT else text[:REPR_LIMIT] + "..."


def int_entry(entry, size, what):
    """A fixture entry (a JSON list) as a tuple of `size` ints (any number
    when size is None), or SchemaError naming it.  Only JSON integers are
    accepted: no bools, floats or numeric strings."""
    if not (isinstance(entry, (list, tuple))
            and all(type(x) is int for x in entry)
            and (size is None or len(entry) == size)):
        raise SchemaError("%s entry %s is not %s integers"
                          % (what, brief(entry),
                             "a list of" if size is None else size))
    return tuple(entry)


def fraction_entry(num, den, what, entry):
    """The Fraction num/den of two integers read from a fixture entry, or
    SchemaError naming the entry when den is 0."""
    if den == 0:
        raise SchemaError("%s %s has denominator 0" % (what, brief(entry)))
    return Fraction(num, den)


def entry_list(value, what):
    """A fixture value that must be a JSON list, or SchemaError naming it."""
    if not isinstance(value, list):
        raise SchemaError("%s entries must be a list, not %s"
                          % (what, brief(value)))
    return value


def int_table(value, width, what):
    """A fixture value that must be a JSON list of `width`-integer entries,
    as a dict from each entry's leading integers (a plain int when width
    is 2) to its last integer.  As with a repeated key in a JSON object,
    the last entry for a key wins.  An entry that is not `width` JSON
    integers raises SchemaError naming it, as int_entry does."""
    table = {}
    for entry in entry_list(value, what):
        # int_entry's test, inline and without a generator: this loop runs
        # once per entry, and tables run to thousands of entries
        if isinstance(entry, (list, tuple)) and len(entry) == width:
            for x in entry:
                if type(x) is not int:
                    break
            else:
                table[entry[0] if width == 2 else tuple(entry[:-1])] = entry[-1]
                continue
        raise SchemaError("%s entry %s is not %d integers"
                          % (what, brief(entry), width))
    return table


def named(data, key):
    """The (name, value) pairs of the JSON object under key, if any."""
    value = data.get(key, {})
    if not isinstance(value, dict):
        raise SchemaError("%s must be an object of named entries, not %s"
                          % (key, brief(value)))
    return value.items()


class SimplicialIdentityViolation(InputError):
    def __init__(self, simplex, i, j):
        self.simplex = simplex
        self.i = i
        self.j = j
        super().__init__(
            "simplicial identity fails at %s: d_%d d_%d != d_%d d_%d"
            % (simplex, i, j, j - 1, i)
        )


class Disconnected(InputError):
    pass


class DimensionExceeded(InputError):
    pass


class MissingAlpha(InputError):
    pass


class WrongDimension(InputError):
    pass


class IndexMismatch(InputError):
    pass


class DegenerateCut(InputError):
    pass


class DiscontinuousInput(InputError):
    pass


class NotQCartierNearCurve(InputError):
    pass


class NotBalanced(InputError):
    pass


class UnsupportedDimension(InputError):
    pass


class InconsistentSheets(InputError):
    pass


class NonUnimodular(InputError):
    pass


class NoSolution(InputError):
    pass


class InconsistentData(InputError):
    def __init__(self, message, ridge=None):
        self.ridge = ridge
        super().__init__(message)


class UnknownName(InputError):
    pass


class PreconditionFailed(InputError):
    def __init__(self, verdict, message):
        self.verdict = verdict
        super().__init__("%s: %s" % (verdict, message))
