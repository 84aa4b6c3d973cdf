"""Name-based protocol factory.

The CLI, the experiment drivers and the benches refer to protocols by name
(``"xmac"``, ``"dmac"``, ``"lmac"``, ``"scpmac"``); this module maps those
names to the analytical model classes and instantiates them against a
scenario.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Type

from repro.exceptions import ConfigurationError
from repro.protocols.base import DutyCycledMACModel
from repro.protocols.dmac import DMACModel
from repro.protocols.lmac import LMACModel
from repro.protocols.scpmac import SCPMACModel
from repro.protocols.xmac import XMACModel
from repro.scenario import Scenario

#: Mapping from canonical lower-case protocol name to its model class.
_REGISTRY: Dict[str, Type[DutyCycledMACModel]] = {
    "xmac": XMACModel,
    "dmac": DMACModel,
    "lmac": LMACModel,
    "scpmac": SCPMACModel,
}

#: Aliases accepted on the command line and in configuration files.
_ALIASES: Dict[str, str] = {
    "x-mac": "xmac",
    "d-mac": "dmac",
    "l-mac": "lmac",
    "scp-mac": "scpmac",
    "scp": "scpmac",
}

#: Protocol family of each registered protocol (for reports).
PROTOCOL_FAMILIES: Dict[str, str] = {
    name: cls.family for name, cls in _REGISTRY.items()
}

#: The three protocols evaluated in the paper, in the paper's order.
PAPER_PROTOCOL_NAMES = ("xmac", "dmac", "lmac")

#: Names of the built-in protocols, which can be neither unregistered nor
#: overwritten.
_BUILTIN_NAMES = ("xmac", "dmac", "lmac", "scpmac")


def canonical_name(name: str) -> str:
    """Normalize a user-supplied protocol name to its canonical registry key."""
    key = name.strip().lower()
    key = _ALIASES.get(key, key)
    if key not in _REGISTRY:
        known = ", ".join(sorted(_REGISTRY))
        raise ConfigurationError(f"unknown protocol {name!r}; known protocols: {known}")
    return key


def available_protocols() -> List[str]:
    """Canonical names of every registered protocol."""
    return sorted(_REGISTRY)


def protocol_class(name: str) -> Type[DutyCycledMACModel]:
    """Return the model class registered under ``name``."""
    return _REGISTRY[canonical_name(name)]


def create_protocol(name: str, scenario: Scenario, **kwargs: object) -> DutyCycledMACModel:
    """Instantiate the protocol model registered under ``name``.

    Extra keyword arguments are forwarded to the model constructor (e.g.
    ``max_frame=...`` for DMAC).
    """
    return protocol_class(name)(scenario, **kwargs)


def paper_protocols(scenario: Scenario) -> Dict[str, DutyCycledMACModel]:
    """Instantiate the three protocols of the paper against one scenario."""
    return {name: create_protocol(name, scenario) for name in PAPER_PROTOCOL_NAMES}


def register_protocol(
    name: str, cls: Type[DutyCycledMACModel], overwrite: bool = False
) -> None:
    """Register a user-defined protocol model under ``name``.

    This is the extension point for applying the framework to protocols
    beyond the built-in ones; see ``examples/custom_protocol.py``.  A
    registered protocol is addressable everywhere names are — including the
    ``protocols`` field of an :class:`~repro.api.spec.ExperimentSpec`,
    which resolves through this registry at plan time.  Registering joins
    the process's kept pool, so the next parallel run forks workers that
    know the class.

    Args:
        name: Registry key (normalized to lower case).
        cls: The model class.
        overwrite: Allow replacing an existing *user-registered* protocol
            of the same name (scripts and notebooks re-run registration);
            built-in protocols and aliases can never be replaced.

    Raises:
        ConfigurationError: if the name is already taken (and ``overwrite``
            is false, or the name is built-in/an alias) or the class does
            not derive from :class:`DutyCycledMACModel`.
    """
    key = name.strip().lower()
    if not key:
        raise ConfigurationError("protocol name must be non-empty")
    if key in _BUILTIN_NAMES or key in _ALIASES:
        raise ConfigurationError(
            f"protocol name {name!r} is reserved by a built-in protocol"
        )
    if key in _REGISTRY and not overwrite:
        raise ConfigurationError(
            f"protocol name {name!r} is already registered "
            f"(pass overwrite=True to replace it)"
        )
    if not (isinstance(cls, type) and issubclass(cls, DutyCycledMACModel)):
        raise ConfigurationError("protocol class must derive from DutyCycledMACModel")
    _REGISTRY[key] = cls
    PROTOCOL_FAMILIES[key] = cls.family
    _retire_pools()


def unregister_protocol(name: str) -> None:
    """Remove a previously registered user-defined protocol (test helper)."""
    key = name.strip().lower()
    if key in _BUILTIN_NAMES:
        raise ConfigurationError(f"built-in protocol {name!r} cannot be unregistered")
    _REGISTRY.pop(key, None)
    PROTOCOL_FAMILIES.pop(key, None)
    _retire_pools()


def _retire_pools() -> None:
    """Join the kept process pool: its workers were forked before this
    change, so they could not unpickle a model class registered after it."""
    # Imported here: the runtime imports this module.
    from repro.runtime.executor import shutdown_pools

    shutdown_pools()
