"""The reference's own map from analytical models to simulated behaviours.

It never consults the production kernel map, so the differential compares
two independent answers to "which simulator runs this model"."""

from __future__ import annotations

from typing import List, Mapping, Sequence, Type

import numpy as np

from repro.exceptions import SimulationError
from repro.protocols.base import DutyCycledMACModel
from repro.protocols.dmac import DMACModel
from repro.protocols.lmac import LMACModel
from repro.protocols.registry import available_protocols, protocol_class
from repro.protocols.scpmac import SCPMACModel
from repro.protocols.xmac import XMACModel
from scalar_reference.mac.base import MACSimBehaviour
from scalar_reference.mac.dmac import DMACSimBehaviour
from scalar_reference.mac.lmac import LMACSimBehaviour
from scalar_reference.mac.scpmac import SCPMACSimBehaviour
from scalar_reference.mac.xmac import XMACSimBehaviour

#: Analytical-model class → simulated-behaviour class.
_BEHAVIOURS: dict[Type[DutyCycledMACModel], Type[MACSimBehaviour]] = {
    XMACModel: XMACSimBehaviour,
    DMACModel: DMACSimBehaviour,
    LMACModel: LMACSimBehaviour,
    SCPMACModel: SCPMACSimBehaviour,
}


def has_behaviour_for(model_class: Type[DutyCycledMACModel]) -> bool:
    """Whether a simulated behaviour is mapped for a model class.

    Args:
        model_class: The analytical model class to look up (subclasses of a
            registered class count, matching :func:`behaviour_for_model`).

    Returns:
        True when :func:`behaviour_for_model` would succeed for instances
        of ``model_class``.
    """
    return any(
        isinstance(model_class, type) and issubclass(model_class, registered)
        for registered in _BEHAVIOURS
    )


def available_mac_protocols() -> List[str]:
    """Canonical names of the registered protocols the reference can simulate.

    Returns:
        Sorted canonical protocol names with a simulated behaviour (the
        four built-ins: ``dmac``, ``lmac``, ``scpmac``, ``xmac``).
    """
    return [
        name
        for name in available_protocols()
        if has_behaviour_for(protocol_class(name))
    ]


def behaviour_for_model(
    model: DutyCycledMACModel,
    params: Mapping[str, float] | Sequence[float] | np.ndarray,
    rng: np.random.Generator,
) -> MACSimBehaviour:
    """Instantiate the simulated behaviour matching an analytical model.

    Args:
        model: The analytical protocol model (a subclass of a mapped model
            class gets its parent's behaviour).
        params: Concrete parameter vector to simulate (mapping or array).
        rng: Random generator for phases and backoffs.

    Returns:
        The behaviour instance bound to ``model``'s configuration.

    Raises:
        SimulationError: if the model has no simulated counterpart (an
            analytical-only user-registered protocol); the message lists
            the simulatable protocol names.
    """
    for model_class, behaviour_class in _BEHAVIOURS.items():
        if isinstance(model, model_class):
            return behaviour_class(model, params, rng)
    raise SimulationError(
        f"no simulated behaviour is registered for {type(model).__name__} "
        f"({model.name}); protocols with a simulator: "
        f"{', '.join(available_mac_protocols())}"
    )
