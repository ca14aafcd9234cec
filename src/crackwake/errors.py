"""Exception hierarchy and the immutable record base shared by all
crackwake modules, and the one check of the command parameters."""

import math
import operator


class Record:
    """Immutable value type: its fields are its annotations, in order, with
    class attributes as defaults.  == and hash take the exact class and the
    field values; replace() returns a copy that __post_init__ validates."""

    def __init_subclass__(cls):
        cls._fields = fields = tuple(cls.__annotations__)
        cls._defaults = {f: cls.__dict__[f] for f in fields if f in cls.__dict__}
        cls._key = operator.attrgetter(*fields)

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            values = {**self._defaults, **kwargs}
            try:
                args += tuple(map(values.pop, fields[len(args):]))
            except KeyError:  # a field with no value
                args = ()
            if len(args) != len(fields) or not values.keys().isdisjoint(kwargs):  # unknown or repeated names
                raise TypeError(f"{type(self).__name__}() takes the fields {fields}, got {tuple(kwargs)} by name")
        # one new dict in field order: reads from self.__dict__ filled in
        # place would not specialize, and cost about 3x as much (3.11)
        object.__setattr__(self, "__dict__", dict(zip(fields, args)))
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return self._key(self) == self._key(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self._fields)})"

    def replace(self, **changes):
        """A copy with the named fields changed, validated again."""
        return type(self)(**{**dict(zip(self._fields, self._key(self))), **changes})


class CrackwakeError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(CrackwakeError):
    """Invalid input data (bad geometry, loads, config values)."""


class UnbalancedLoading(ValidationError):
    """Crack-face loading whose principal force vector is not zero."""

    def __init__(self, residual: float, scale: float):
        self.residual = residual
        self.scale = scale
        super().__init__(
            f"loading is not self-balanced: residual {residual:.3e} "
            f"exceeds 1e-12 x load scale ({scale:.3e})"
        )


class LoadTooCloseToTip(ValidationError):
    """Load support violates the required clearance from the crack tip."""


class InvalidPreset(ValidationError):
    """Preset loading parameters out of range."""


class InvalidDefect(ValidationError):
    """Defect geometry or material parameters out of range."""


class ConfigError(ValidationError):
    """Scenario file cannot be parsed or assembled."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class NumericalError(CrackwakeError):
    """Numerical evaluation failed."""


class QuadratureFailure(NumericalError):
    """Adaptive quadrature did not reach the requested tolerance."""


class ContourTruncationFailure(NumericalError):
    """Inversion contour kept growing without the integral settling."""


class OnCrackFaceUnderLoad(NumericalError):
    """Field evaluation point coincides with a loaded crack-face station."""


class DegenerateA0(NumericalError):
    """Second-order tip coefficient too small to divide by."""


class TipReachesLoad(NumericalError):
    """Advancing crack tip entered the loading support."""


class TipReachesDefect(NumericalError):
    """Advancing crack tip came closer to a defect than its own size."""


class DilutenessWarning(UserWarning):
    """Defect size is not small compared with its distance from the tip."""


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_param(key: str, value) -> None:
    """The one range and type check of every params entry and flag, and
    of the same arguments of scan_map and propagate."""
    if key == "grid":
        if not (type(value) is tuple and len(value) == 2 and all(type(n) is int for n in value)):
            raise ValidationError(f"grid expects NxM, got {value!r}")
        if min(value) < 2:
            raise ValidationError(f"grid must be at least 2x2, got {value[0]}x{value[1]}")
    elif key in ("delta", "arrest_tol"):
        if not (_is_number(value) and 0.0 < value < math.inf or value is None and key == "arrest_tol"):
            raise ValidationError(f"{key} must be positive and finite, got {value!r}")
    elif key in ("max_iter", "threads"):
        if not (type(value) is int and value >= 1):
            raise ValidationError(f"{key} expects a positive integer, got {value!r}")
    elif key == "out" and not (value is None or isinstance(value, str)):
        raise ValidationError(f"out expects a path, got {value!r}")
    elif key == "out" and value is not None and "\0" in value:
        raise ValidationError(f"out path {value!r} holds a NUL byte")
    elif key == "pgm" and type(value) is not bool:
        raise ValidationError(f"pgm expects true/false, got {value!r}")
    elif key == "pair" and value not in ("a", "b"):
        raise ValidationError(f'pair expects "a" or "b", got {value!r}')
