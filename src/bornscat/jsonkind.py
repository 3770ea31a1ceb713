"""The JSON-kind rule by which every bornscat input is read.

Configs, potential and material specs and stored-field headers all follow
it: a number is an int or a float, never true or false; an integer has no
fractional part; an object, array, string or boolean is of that kind; a
complex is a number or an object {"re", "im"} whose absent parts read as 0.
Every reader raises only ValueError.  `member` and `array_of` put the key or
item in front of the message, so each diagnostic names where it arose.
"""

REQUIRED = object()
_KIND_NAMES = {dict: "object", list: "array", str: "string", bool: "boolean"}


def within(label, read, value):
    """read(value), with `label: ` in front of the message of its ValueError."""
    try:
        return read(value)
    except ValueError as exc:
        raise ValueError(f"{label}: {exc}") from exc


def _expected(kind, value):
    return ValueError(f"expected a JSON {kind}, got {type(value).__name__}")


def kind_of(value, *kinds):
    """value, when it is an instance of one of kinds: dict, list, str or bool."""
    if not isinstance(value, kinds):
        raise _expected(" or ".join(_KIND_NAMES[kind] for kind in kinds), value)
    return value


def number(value):
    """A JSON number, as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _expected("number", value)
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{value} lies beyond the floating-point range") from None


def integer(value):
    if isinstance(value, bool) or not isinstance(value, int):
        raise _expected("integer", value)
    return value


def flag(value):
    return kind_of(value, bool)


def string(value):
    return kind_of(value, str)


def complex_number(value):
    if isinstance(value, dict):
        return complex(member(value, "re", number, 0.0), member(value, "im", number, 0.0))
    return complex(number(value))


def array_of(read):
    """A reader of a JSON array that reads each item with read, into a tuple."""
    def read_array(value):
        items = enumerate(kind_of(value, list))
        return tuple(within(f"item {index}", read, item) for index, item in items)
    return read_array


def member(data, key, read, default=REQUIRED):
    """read(data[key]) for a JSON object data; absent or null reads as default."""
    if data.get(key) is not None:
        return within(key, read, data[key])
    if default is REQUIRED:
        raise ValueError(f"{key}: missing")
    return default
