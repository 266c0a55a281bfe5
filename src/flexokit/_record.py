"""``Record``, the frozen base of every flexokit value type.

A record declares its fields as annotated class attributes, in order, each
with an optional default or ``field(...)``. For each subclass the base
generates only ``__init__``, in one ``exec``: it stores the arguments and
then runs the subclass's ``__post_init__``, if it has one, which checks
them. Equality and hashing by value, ``repr``, ``replace`` and the refusal
to assign or delete an attribute are plain methods of the base. The
annotations are read as written, never evaluated, so a module may
postpone them.
"""

from operator import attrgetter
from typing import Any, Callable, NamedTuple, Optional

MISSING: Any = object()  # the default of a required field


class Field(NamedTuple):
    """One entry of a record's field table, ``_fields``."""

    name: str
    type: Any                  # the annotation as written
    default: Any               # MISSING when the field is required
    factory: Optional[Callable[[], Any]]  # makes the default when given
    key: str                   # the key that names it in a document
    init: bool                 # False: ``__post_init__`` sets it, and it is
                               # neither compared, hashed nor shown


def field(*, key: Optional[str] = None, init: bool = True,
          factory: Optional[Callable[[], Any]] = None) -> Field:
    """A field declared with options: ``name: type = field(...)``."""
    return Field("", None, MISSING, factory, key, init)


class Record:
    """A frozen record, compared and hashed by the values of its fields."""

    _fields: tuple[Field, ...] = ()
    _names: tuple[str, ...] = ()  # the compared fields, in order
    # ``_key(record)``: the compared values, a lone field's value alone. A
    # C getter is not bound as a method, so it is handed the record.
    _key: Callable[["Record"], Any]

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        table, params, lines = [], [], []
        scope = {"MISSING": MISSING, "_setattr": object.__setattr__}
        for name, annotation in cls.__annotations__.items():
            value = cls.__dict__.get(name, MISSING)
            if isinstance(value, Field):
                delattr(cls, name)
                f = Field(name, annotation, MISSING, value.factory,
                          value.key or name, value.init)
            else:
                f = Field(name, annotation, value, None, name, True)
            table.append(f)
            if not f.init:
                continue
            stored = name
            if f.factory is not None:
                scope[f"_f_{name}"] = f.factory
                params.append(f"{name}=MISSING")
                stored = f"_f_{name}() if {name} is MISSING else {name}"
            elif f.default is not MISSING:
                scope[f"_d_{name}"] = f.default
                params.append(f"{name}=_d_{name}")
            else:
                params.append(name)
            lines.append(f"_setattr(self, {name!r}, {stored})")
        if hasattr(cls, "__post_init__"):
            lines.append("self.__post_init__()")
        exec(f"def __init__(self, {', '.join(params)}):\n"
             + "".join(f"    {line}\n" for line in lines), scope)
        init = scope["__init__"]
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        cls.__init__ = init
        cls._fields = tuple(table)
        cls._names = names = tuple(f.name for f in table if f.init)
        cls._key = attrgetter(*names)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._names)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def replace(self, /, **changes):
        """A copy with ``changes`` made, checked as a new record is."""
        return type(self)(**{**{name: getattr(self, name)
                                for name in self._names}, **changes})
