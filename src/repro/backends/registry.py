"""Backend registry: names -> :class:`ExecutionBackend` classes.

Drivers accept ``backend=`` as either a registry name (``"numpy"``,
``"device"``) or a pre-configured
:class:`~repro.backends.base.ExecutionBackend` instance; this module
resolves both to a bound instance.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple, Type, Union

from repro.backends.base import ExecutionBackend
from repro.errors import BackendError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dft.hamiltonian import MatrixBuilder

#: Default backend used when drivers and settings are silent.
DEFAULT_BACKEND = "numpy"

_REGISTRY: Dict[str, Type[ExecutionBackend]] = {}


def register_backend(name: str) -> Callable[[Type[ExecutionBackend]], Type[ExecutionBackend]]:
    """Class decorator registering a backend under *name*."""

    def decorator(cls: Type[ExecutionBackend]) -> Type[ExecutionBackend]:
        if name in _REGISTRY:
            raise BackendError(f"backend {name!r} registered twice")
        cls.name = name
        _REGISTRY[name] = cls
        return cls

    return decorator


def available_backends() -> Tuple[str, ...]:
    """Registered backend names, sorted."""
    return tuple(sorted(_REGISTRY))


def create_backend(name: str, **kwargs) -> ExecutionBackend:
    """Instantiate a registered backend (unbound) by name."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise BackendError(
            f"unknown execution backend {name!r}; "
            f"available: {', '.join(available_backends())}"
        ) from None
    return cls(**kwargs)


def resolve_backend(
    spec: Union[str, ExecutionBackend, None],
    builder: "MatrixBuilder",
) -> ExecutionBackend:
    """Turn a name / instance / ``None`` into a backend bound to *builder*."""
    if spec is None:
        spec = DEFAULT_BACKEND
    if isinstance(spec, str):
        backend: ExecutionBackend = create_backend(spec)
    elif isinstance(spec, ExecutionBackend):
        backend = spec
    else:
        raise BackendError(
            f"backend must be a name or ExecutionBackend instance, "
            f"got {type(spec).__name__}"
        )
    return backend.bind(builder)
