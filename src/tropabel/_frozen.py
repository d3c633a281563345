"""The base of the package's immutable value classes.

Matrices, monomials, tori, classes, lattices, bundles, characters and
representations are small immutable records, and every one of them is a
subclass of ``Frozen``, which behaves as under ``@dataclass(frozen=True)``:

- its fields are its own annotations, in order, and its ``__match_args__``;
- ``__init__`` takes them by position or keyword, then calls ``__post_init__``
  if the class defines one;
- ``==`` compares the fields with an instance of the same class only, and the
  hash is ``hash`` of the tuple of fields;
- the repr reads ``Name(field=value, ...)`` without the fields whose names
  start with ``_``;
- setting or deleting an attribute raises ``AttributeError``.

Each class also gets one private unchecked constructor, ``cls._from_valid(*fields)``:
it sets the fields in order, binds no keywords and runs no ``__post_init__``.
Input is validated once, by the public constructor or a decoder at the
boundary; an internal result that is valid by its construction is built
through ``_from_valid``.

A method the class defines itself is kept, as ``ValuedMonomial`` keeps its
``__repr__`` and a ``_from_valid`` that reduces the phase mod 1, and as
``QLattice`` and ``linalg.Mat`` keep an ``__init__`` whose argument is not
their fields: a basis, and rows.  The generated methods are closures made
once per class in ``__init_subclass__``, not generated source: defining a
class runs no ``exec``, and importing the package loads neither
``dataclasses`` nor ``inspect`` (with ``ast``, ``dis`` and ``tokenize``),
which every CLI call paid at start.
"""

from __future__ import annotations

from operator import attrgetter

# writing through object.__setattr__, not into self.__dict__, keeps CPython's
# compact attribute storage, so reading a field stays as fast as after
# dataclass's generated __init__
_setattr = object.__setattr__
_new = object.__new__


class Frozen:
    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = tuple(cls.__annotations__)
        cls.__match_args__ = fields
        n = len(fields)
        places = tuple(enumerate(fields))
        post_init = hasattr(cls, "__post_init__")
        get = attrgetter(*fields)
        # attrgetter of one name returns the value, not a 1-tuple
        single = n == 1

        def __init__(self, *args, **kwargs):
            if kwargs or len(args) != n:
                args = _bind(cls, fields, args, kwargs)
            for i, name in places:
                _setattr(self, name, args[i])
            if post_init:
                self.__post_init__()

        def _from_valid(*args):
            self = _new(cls)
            for i, name in places:
                _setattr(self, name, args[i])
            return self

        def __eq__(self, other):
            # a value equals itself without reading its fields, as under
            # dataclass from Python 3.13
            if self is other:
                return True
            if other.__class__ is self.__class__:
                return get(self) == get(other)
            return NotImplemented

        def __hash__(self):
            return hash((get(self),) if single else get(self))

        shown = [(f, attrgetter(f)) for f in fields if not f.startswith("_")]

        def __repr__(self):
            body = ", ".join(f"{f}={read(self)!r}" for f, read in shown)
            return f"{type(self).__qualname__}({body})"

        for method in (__init__, staticmethod(_from_valid), __eq__, __hash__, __repr__):
            if method.__name__ not in cls.__dict__:
                setattr(cls, method.__name__, method)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a {type(self).__name__}")


def _bind(cls: type, fields: tuple[str, ...], args: tuple, kwargs: dict) -> list:
    """The field values in order, from positional and keyword arguments; a
    missing, unknown or repeated argument raises ``TypeError``."""
    values = dict(zip(fields, args))
    values.update(kwargs)
    if len(values) != len(args) + len(kwargs) or values.keys() != set(fields):
        raise TypeError(
            f"{cls.__qualname__}() takes the fields {', '.join(fields)}, by position or "
            f"keyword, once each; got {len(args)} positional and {sorted(kwargs)} by keyword"
        )
    return [values[f] for f in fields]
