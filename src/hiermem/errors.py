"""Exception types shared across the package. ``check_fields`` is the one checker
of the JSON objects read from outside (configs, presets, timing, hardware and
schedule files), each against a field->types table; ``check_range`` bounds values."""
import math
import sys

REAL = (int, float)  # a JSON number; check_type keeps bools out of it


class ConfigError(ValueError):
    """Invalid configuration (bad dimensions, misaligned capacities, unknown names)."""


def check_type(field: str, value, expected: tuple[type, ...]) -> None:
    """Raise ConfigError naming ``field`` unless ``value`` has an ``expected``
    type. bool is an int subclass: it passes exactly where bool is expected."""
    if not isinstance(value, expected) or isinstance(value, bool) != (bool in expected):
        raise ConfigError(f"{field} has type {type(value).__name__}, "
                          f"expected {' or '.join(t.__name__ for t in expected)}")


def check_fields(what: str, raw, types: dict[str, tuple[type, ...]],
                 required=()) -> dict:
    """``raw`` once it is an object whose keys are in ``types`` and include
    ``required``, each value of its key's types; otherwise ConfigError."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{what} must be a JSON object")
    unknown = sorted(set(raw) - set(types))
    if unknown:
        raise ConfigError(f"unknown {what} keys: {unknown}")
    missing = sorted(set(required) - set(raw))
    if missing:
        raise ConfigError(f"{what} lacks {missing}")
    for key, value in raw.items():
        check_type(f"{what} {key!r}", value, types[key])
    return raw


def check_range(field: str, value, low: float = -math.inf, *, above: bool = False,
                finite: bool = True) -> None:
    """Raise ConfigError naming ``field`` unless ``value`` is at least ``low``
    (above it if ``above``) and, if ``finite``, finite. NaN is never in range,
    nor, where ``finite``, an int too large for a float."""
    if not (value > low if above else value >= low) or \
            (finite and not abs(value) <= sys.float_info.max):
        want = ["finite"] if finite else []
        if low > -math.inf:
            want.append(f"{'>' if above else '>='} {low:g}")
        raise ConfigError(f"{field} must be {' and '.join(want)}, not {value!r}")


class AllocationError(RuntimeError):
    """A tier pool cannot satisfy an allocation request."""

    def __init__(self, message: str, requested_bytes: int = 0, available_bytes: int = 0):
        super().__init__(message)
        self.requested_bytes = requested_bytes
        self.available_bytes = available_bytes


class MoveError(RuntimeError):
    """A page move cannot be carried out (full destination, tier policy, mid-move)."""


class InfeasibleScheduleError(RuntimeError):
    """No task schedule fits the GPU budget; names the first offending layer."""

    def __init__(self, layer: int, needed_bytes: int, available_bytes: int):
        super().__init__(
            f"layer {layer} cannot be scheduled: needs {needed_bytes} bytes, "
            f"only {available_bytes} available under the budget"
        )
        self.layer = layer
        self.needed_bytes = needed_bytes
        self.available_bytes = available_bytes


class SimulationError(RuntimeError):
    """Malformed schedule detected during discrete-event replay."""


class ProtocolError(RuntimeError):
    """Violation of the lock-free update protocol (shape mismatch, bad layer)."""
