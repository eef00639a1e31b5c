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


def brief(value, ints=False):
    """repr(value) for an error message: whole when it has at most
    REPR_LIMIT characters, else its first REPR_LIMIT and '...', so that a
    whole fixture given where a small value belongs, or a long entry with
    one bad element, is not quoted whole.  With ints set, a cut list that
    holds an element other than a JSON integer also names the first such
    element and its index, which the cut may have hidden."""
    text = repr(value)
    if len(text) <= REPR_LIMIT:
        return text
    text = text[:REPR_LIMIT] + "..."
    if ints and isinstance(value, (list, tuple)):
        for i, x in enumerate(value):
            if type(x) is not int:
                return "%s (first bad element %s at index %d)" % (
                    text, brief(x), i)
    return text


def int_entry(entry, size, what):
    """A fixture entry (a JSON list) as a tuple of `size` ints (any number
    when size is None), or SchemaError naming it.  Only JSON integers are
    accepted: no bools, floats or numeric strings."""
    if not (isinstance(entry, (list, tuple))
            and all(type(x) is int for x in entry)
            and (size is None or len(entry) == size)):
        raise SchemaError("%s entry %s is not %s integers"
                          % (what, brief(entry, ints=True),
                             "a list of" if size is None else size))
    return tuple(entry)


def int_entries(entries, size, what):
    """The entries of a fixture list, each as int_entry reads it.  One
    pass tests each entry inline, with no call per entry; only when it
    stops at an entry does int_entry read them one by one, to name the
    first bad entry (or to read a tuple)."""
    rows = []
    for entry in entries:
        if type(entry) is list and (size is None or len(entry) == size):
            for x in entry:
                if type(x) is not int:
                    break
            else:
                rows.append(tuple(entry))
                continue
        break
    else:
        return rows
    return [int_entry(entry, size, what) for entry in entries]


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
    """A fixture value that must be a JSON list of `width`-integer entries
    (width 2 or 3), as a dict from each entry's leading integers (a plain
    int when width is 2) to its last integer.  As with a repeated key in a
    JSON object, the last entry for a key wins.

    One pass unpacks and tests each entry inline, with no call per entry.
    Only when it stops at an entry does int_entry read the entries one by
    one: it raises SchemaError naming the first that is not `width` JSON
    integers, and reads a tuple as a list.
    """
    entries = entry_list(value, what)
    table = {}
    if width == 2:
        for entry in entries:
            if type(entry) is list and len(entry) == 2:
                a, b = entry
                if type(a) is int and type(b) is int:
                    table[a] = b
                    continue
            break
        else:
            return table
    else:
        for entry in entries:
            if type(entry) is list and len(entry) == 3:
                a, b, c = entry
                if type(a) is int and type(b) is int and type(c) is int:
                    table[a, b] = c
                    continue
            break
        else:
            return table
    rows = [int_entry(entry, width, what) for entry in entries]
    return {row[0] if width == 2 else row[:-1]: row[-1] for row in rows}


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
