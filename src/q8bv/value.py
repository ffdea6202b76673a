"""Value: the one base of the immutable value types of the package."""


class Value:
    """Immutable value whose fields, _fields, are the __slots__ of its class:
    equality, hash and repr follow them in order as for a frozen dataclass,
    and assigning or deleting a field raises AttributeError.  Types built on
    hot paths set their fields with object.__setattr__ in their own __init__,
    at half the cost of this one."""

    __slots__ = _fields = ()

    def __init__(self, *values: object) -> None:
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self._fields)})"

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: field {name!r} cannot change")

    __delattr__ = __setattr__
