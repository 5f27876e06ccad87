"""Value types declared by annotation: the Record base class.

A subclass lists its fields as annotated class attributes, with optional
defaults, exactly as a standard-library data class does::

    class PowerLaw(Record, frozen=True):
        k: float
        p: float = 1.0

and gets an ``__init__`` taking the fields positionally or by keyword (then
calling ``__post_init__``), a data-class ``__repr__``, ``__eq__`` and
``__hash__`` over the tuple of field values, and ``to_dict``, which is
``asdict`` unless the subclass overrides it.  The class keywords are the
data-class decorator's: ``frozen=True`` refuses assignment after
``__init__`` (``object.__setattr__`` still works inside ``__post_init__``),
``eq=False`` keeps identity equality and hashing, and an ``eq`` class that
is not frozen is unhashable.  ``fields``, ``asdict`` and ``replace`` behave as
their namesakes in the standard library's data-class module.

Unlike that decorator, this generates no code: every subclass shares the
methods below, and ``__init_subclass__`` only reads the annotations and
defaults.  The data-class module loads inspect, ast and dis, and each
decorated class execs about six new functions, which together cost a
one-query CLI process tens of milliseconds.
"""

from __future__ import annotations

MISSING = object()
_ATOMIC_TYPES = frozenset({type(None), bool, int, float, complex, str, bytes})


class FrozenInstanceError(AttributeError):
    """Assignment to, or deletion of, a field of a frozen record."""


class Field:
    """One declared field: its name, annotation (a string under
    ``from __future__ import annotations``) and default or default factory."""

    __slots__ = ("name", "type", "default", "default_factory")

    def __init__(self, name=None, type=None, default=MISSING, default_factory=MISSING):
        self.name = name
        self.type = type
        self.default = default
        self.default_factory = default_factory


def field(*, default_factory) -> Field:
    """A field default built afresh for each instance by default_factory()."""
    return Field(default_factory=default_factory)


class Record:
    """Base of the package's value types; see the module docstring."""

    __record_fields__: tuple[Field, ...] = ()
    __record_names__: tuple[str, ...] = ()

    def __init_subclass__(cls, frozen: bool = False, eq: bool = True, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        fields_ = {f.name: f for f in cls.__record_fields__}  # a record base's
        for name, annotation in cls.__annotations__.items():  # its own, on 3.10+
            value = cls.__dict__.get(name, MISSING)
            if isinstance(value, Field):
                delattr(cls, name)
                value.name, value.type = name, annotation
                fields_[name] = value
            else:
                fields_[name] = Field(name, annotation, value)
        cls.__record_fields__ = tuple(fields_.values())
        cls.__record_names__ = tuple(fields_)
        if frozen:
            cls.__setattr__ = _refuse_setattr
            cls.__delattr__ = _refuse_delattr
        if not eq:
            cls.__eq__ = object.__eq__
            cls.__hash__ = object.__hash__
        elif not frozen:
            cls.__hash__ = None

    def __init__(self, *args, **kwargs) -> None:
        names = self.__record_names__
        if kwargs and not args and len(kwargs) == len(names):
            try:  # every field by keyword, the usual call, without _bind
                args = [kwargs[name] for name in names]
            except KeyError:
                args = _bind(type(self), args, kwargs)
        elif kwargs or len(args) != len(names):
            args = _bind(type(self), args, kwargs)
        self.__dict__.update(zip(names, args))
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def to_dict(self) -> dict:
        return asdict(self)

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__record_names__)
        return f"{type(self).__qualname__}({body})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _values(self) == _values(other)

    def __hash__(self) -> int:
        return hash(_values(self))


def _values(record: Record) -> tuple:
    return tuple(getattr(record, name) for name in record.__record_names__)


def _refuse_setattr(self, name: str, value) -> None:
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_delattr(self, name: str) -> None:
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _bind(cls: type, args: tuple, kwargs: dict) -> list:
    """Every field's value in order, from args, kwargs and the defaults,
    with the TypeError messages of a Python function of the same signature."""
    fields_ = cls.__record_fields__
    where = f"{cls.__qualname__}.__init__()"
    if len(args) > len(fields_):
        required = sum(f.default is MISSING and f.default_factory is MISSING for f in fields_)
        takes = f"from {required + 1} to " if required < len(fields_) else ""
        raise TypeError(
            f"{where} takes {takes}{len(fields_) + 1} positional arguments "
            f"but {len(args) + 1} were given"
        )
    for name in kwargs:
        if name not in cls.__record_names__:
            raise TypeError(f"{where} got an unexpected keyword argument {name!r}")
        if cls.__record_names__.index(name) < len(args):
            raise TypeError(f"{where} got multiple values for argument {name!r}")
    values = list(args)
    missing = []
    for f in fields_[len(args):]:
        if f.name in kwargs:
            values.append(kwargs[f.name])
        elif f.default is not MISSING:
            values.append(f.default)
        elif f.default_factory is not MISSING:
            values.append(f.default_factory())
        else:
            missing.append(repr(f.name))
    if missing:
        listed = missing[0] if len(missing) == 1 else (
            f"{', '.join(missing[:-1])}{',' if len(missing) > 2 else ''} and {missing[-1]}"
        )
        plural = "s" if len(missing) > 1 else ""
        raise TypeError(
            f"{where} missing {len(missing)} required positional argument{plural}: {listed}"
        )
    return values


def fields(record) -> tuple[Field, ...]:
    """The fields of a record class or instance, in declaration order."""
    if not (isinstance(record, Record) or isinstance(record, type) and issubclass(record, Record)):
        raise TypeError("must be called with a record type or instance")
    return record.__record_fields__


def asdict(record: Record) -> dict:
    """The record as a dict of its fields, recursing into records, lists,
    tuples and dicts; other values are deep copies, as the data-class
    asdict makes them."""
    if not isinstance(record, Record):
        raise TypeError("asdict() should be called on record instances")
    return _asdict_inner(record)


def _asdict_inner(obj):
    if type(obj) in _ATOMIC_TYPES:
        return obj
    if isinstance(obj, Record):
        return {name: _asdict_inner(getattr(obj, name)) for name in obj.__record_names__}
    if isinstance(obj, (list, tuple)):
        return type(obj)(_asdict_inner(v) for v in obj)
    if isinstance(obj, dict):
        return type(obj)((_asdict_inner(k), _asdict_inner(v)) for k, v in obj.items())
    import copy  # only for values no field of the package holds

    return copy.deepcopy(obj)


def replace(record: Record, /, **changes):
    """A new record of the same type with the given fields changed;
    __post_init__ runs again on the result."""
    if not isinstance(record, Record):
        raise TypeError("replace() should be called on record instances")
    for name in record.__record_names__:
        if name not in changes:
            changes[name] = getattr(record, name)
    return type(record)(**changes)
