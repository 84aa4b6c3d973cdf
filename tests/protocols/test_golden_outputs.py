"""Golden outputs of the built-in protocol models, pinned bit for bit.

Each built-in model states every quantity once, as an expression that the
point path runs on Python floats and the grid path on float64 columns.
These goldens were captured from the models as they stood before that
restructuring, when every formula was written twice (a scalar method and a
``.many`` twin), and they hold the restructured models to every bit.

For each preset × protocol the digest covers, at a 24-point grid (5 × 5 for
LMAC's two parameters), 64 seeded random points and two points outside the
box: every ring's energy breakdown, duty cycle, hop latency and end-to-end
latency, plus ``E(X)``, ``L(X)``, the capacity margin and the three
``.many`` outputs.  ``GOLDEN_MIDPOINTS`` keeps ``E``, ``L`` and the margin at
each box midpoint as readable ``float.hex`` strings.

A change that is meant to move a model's results must regenerate both
tables, and say so in CHANGES.md::

    PYTHONPATH=src python tests/protocols/test_golden_outputs.py

prints them in the form pasted below.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.protocols.base import EnergyBreakdown
from repro.protocols.registry import create_protocol
from repro.scenarios import scenario_by_name

PRESETS = (
    "paper-default",
    "dense-ring",
    "sparse-ring",
    "low-power",
    "high-rate",
    "sub-ghz",
    "legacy-bitradio",
    "bursty",
)
PROTOCOLS = ("dmac", "lmac", "scpmac", "xmac")
BREAKDOWN_FIELDS = tuple(EnergyBreakdown.__dataclass_fields__)


def golden_points(model) -> np.ndarray:
    """The grid, the seeded random points and two points outside the box."""
    space = model.parameter_space
    lower, upper = space.lower_bounds, space.upper_bounds
    per_dimension = 24 if space.dimension == 1 else 5
    unit = np.random.default_rng(20).uniform(0.0, 1.0, size=(64, space.dimension))
    return np.vstack(
        [space.grid(per_dimension), lower + unit * (upper - lower), 0.5 * lower, 2.0 * upper]
    )


def _call(function, *args):
    """The value of ``function(*args)``, or the name of the error it raised."""
    try:
        return function(*args)
    except Exception as exc:  # noqa: BLE001 - an error is an output too
        return type(exc).__name__


def model_outputs(model):
    """Every output of ``model`` that the digest covers, in a fixed order."""
    points = golden_points(model)
    rings = model.scenario.topology.rings()
    outputs = []
    for row in points:
        for ring in rings:
            breakdown = _call(model.energy_breakdown, row, ring)
            if isinstance(breakdown, str):
                outputs.append(breakdown)
            else:
                outputs.extend(getattr(breakdown, name) for name in BREAKDOWN_FIELDS)
            outputs.append(_call(model.duty_cycle, row, ring))
            outputs.append(_call(model.hop_latency, row, ring))
            outputs.append(_call(model.e2e_latency, row, ring))
        outputs.append(_call(model.system_energy, row))
        outputs.append(_call(model.system_latency, row))
        outputs.append(_call(model.capacity_margin, row))
    for method in (model.energy_many, model.latency_many, model.capacity_margin_many):
        outputs.extend(method(points).tolist())
    return outputs


def digest(outputs) -> str:
    """sha256 over the outputs, floats by ``float.hex`` and errors by name."""
    text = "\n".join(
        value if isinstance(value, str) else float(value).hex() for value in outputs
    )
    return hashlib.sha256(text.encode()).hexdigest()


def midpoint_values(model):
    """``E``, ``L`` and the capacity margin at the box midpoint, as hex."""
    point = model.parameter_space.midpoint()
    return tuple(
        float(function(point)).hex()
        for function in (model.system_energy, model.system_latency, model.capacity_margin)
    )


GOLDEN_DIGESTS = {
    ("paper-default", "dmac"): "7991eba516e136aae3f0cbec69a0157f495ce92d4b6f1e25bc74922506d42adb",
    ("paper-default", "lmac"): "be13e567d21dd1b9ce09bef598257f044c0f6a7ab105e1dfaa42b19794782167",
    ("paper-default", "scpmac"): "02892cbaed8e854c171d289d0c8273dabc4f46d079923daee3fc45568f8c8563",
    ("paper-default", "xmac"): "77b1c46360d2573daf430c66e9b420f9cea16f7e709304e1df849ca7791a9997",
    ("dense-ring", "dmac"): "163c6ead0b2a903819adf96fa528697107fb4084fcaa9c241afd10d43c1a995f",
    ("dense-ring", "lmac"): "f7b221ac434f62a6703e9cb6e9b859d3d2e06014cdf026996e530a0776a2b388",
    ("dense-ring", "scpmac"): "c02944c44e9c8e19418c9f3872184d8440e20337898be0627010f59225b60d9e",
    ("dense-ring", "xmac"): "b82f90877f198475c3d7a23ef26c3e347f1a2e05230e8c9732f57eb5a040972c",
    ("sparse-ring", "dmac"): "dee2288fb58eca0aa000fa7db871ea694a44668b787c2bd81e169145d8b509b4",
    ("sparse-ring", "lmac"): "7f0adff6341bea7551df144a6d3058f047344db17df004898d433cd3687f3500",
    ("sparse-ring", "scpmac"): "272b07e79a3742c7859e1c320d4a7c63a8cac57a28126e2da39342c0431147c5",
    ("sparse-ring", "xmac"): "3c79fab94cdc081469453f263639451b9eadd121375a16ca4c09f2d42b076aca",
    ("low-power", "dmac"): "dbec7199bb8152a2751ea24304ba399c12adc92f2df547173bd469c6e2d209ba",
    ("low-power", "lmac"): "bc8436874e6d23309299a5c04e82b707ccfb3a73a3c99f6339b9fdfed3f8a42c",
    ("low-power", "scpmac"): "6989e4d8e098ab1505174e05421cb99d5118270fe321bdb67dfb1fc90fca07dd",
    ("low-power", "xmac"): "2a61c7f6b5c5a1d5976ddd7e35f10bed337eadaca0375a915592cc2ca55e8dbc",
    ("high-rate", "dmac"): "687e186fd14075e5993378615d52c6fe7e712c0008d73abee0fd4d499073c788",
    ("high-rate", "lmac"): "b415d7f7782398ebd1f8f00e278c7d7aa2a565e7b20a0d43e77634be99a87db3",
    ("high-rate", "scpmac"): "f2228b79b7d03c7923a01154af32431a764e484dffe12fefcc0fbad60a1bc8ac",
    ("high-rate", "xmac"): "53dc61c1afecaa7dbde2036eea89e11069bc6068773a41fe0981628d2a252e77",
    ("sub-ghz", "dmac"): "21d8ece63d2cc4caf41e4c9db3415a59c0af2506233adb3da91d964dbafd757b",
    ("sub-ghz", "lmac"): "140d632b62741d3771a159a8249aa1289d76b5e0c91a802b750f37ec435aee7d",
    ("sub-ghz", "scpmac"): "2f0a799f98ead05326a24ab92a6af523a57d5e6714c1d00af673562f1018e41f",
    ("sub-ghz", "xmac"): "15811eb233818a020aab5de270ffd7d64534ee416c1bcebecf13a5a082c00d6f",
    ("legacy-bitradio", "dmac"): "720e0816928a7394e3ff3b946c688f05bf8e4a3623400fff14b64818ca3ddf64",
    ("legacy-bitradio", "lmac"): "1700f4e9a6fbd5f985137f1a360f8d1d5b7ad3f06f74b71def3f05b2f73b1ff4",
    ("legacy-bitradio", "scpmac"): "38ddcc7d3a2139d564260bde0f61508ad49277b38a49e8fea501552ca3e73da3",
    ("legacy-bitradio", "xmac"): "69419c7dcb341437d00699c6d0767f5c3daa1c466989b42d71c94df68c2fba81",
    ("bursty", "dmac"): "0fb5e9e1a9ce9817d88397f2259aa0d42285216c94d6ba0a204014897c49ac23",
    ("bursty", "lmac"): "7617149a83b47dbf43c11092443e2f4d312ac225d1bae6acccf409a60a926611",
    ("bursty", "scpmac"): "dfa7b56c518e338a36941ef4620e96626a4d700b61b0164a1b284073ae3a7997",
    ("bursty", "xmac"): "925909dbf921fab13854e48908c463319d5dbe1f8b996b0b173c0f34fc36eee0",
}

GOLDEN_MIDPOINTS = {
    ("paper-default", "dmac"): ("0x1.1faa5e9e0e2e8p-12", "0x1.367dd44135547p+1", "0x1.121cd15090533p-1"),
    ("paper-default", "lmac"): ("0x1.525acf0a1b46dp-11", "0x1.2e7f36262cba8p+4", "0x1.7eb8da3c21188p-1"),
    ("paper-default", "scpmac"): ("0x1.cebeacea65a46p-14", "0x1.9165fd8adab9fp+3", "0x1.998e7625f1014p-1"),
    ("paper-default", "xmac"): ("0x1.41acc877bae8ep-11", "0x1.91ff822bbecaap+2", "0x1.951f056222ee3p-1"),
    ("dense-ring", "dmac"): ("0x1.1faf0ded4f9dep-12", "0x1.367dd44135547p+1", "0x1.1540120f0e198p-2"),
    ("dense-ring", "lmac"): ("0x1.3af36418f7a3dp-10", "0x1.30bbd512ec6bdp+4", "0x1.7e85f3ee32309p-1"),
    ("dense-ring", "scpmac"): ("0x1.00997950e123bp-13", "0x1.9165fd8adab9fp+3", "0x1.998e745f881d4p-1"),
    ("dense-ring", "xmac"): ("0x1.45608833774a0p-11", "0x1.91ff822bbecaap+2", "0x1.951f056222ee3p-1"),
    ("sparse-ring", "dmac"): ("0x1.2325e94e596b8p-12", "0x1.39e0ded288ce7p+1", "0x1.d85a283ac9892p-2"),
    ("sparse-ring", "lmac"): ("0x1.7fc4dc93352eep-12", "0x1.e234a44c7b02fp+4", "0x1.550c09b1e8d42p-1"),
    ("sparse-ring", "scpmac"): ("0x1.dd9171385eb99p-14", "0x1.411e646f15619p+4", "0x1.997cbab6217a7p-1"),
    ("sparse-ring", "xmac"): ("0x1.648427175bb49p-10", "0x1.419934efcbd55p+3", "0x1.8e2227b9ca026p-1"),
    ("low-power", "dmac"): ("0x1.1dfc6df1db90bp-12", "0x1.367dd44135547p+1", "0x1.77ba678757480p-1"),
    ("low-power", "lmac"): ("0x1.51eb20114a11fp-11", "0x1.2e7f36262cba8p+4", "0x1.92e169c23b796p-1"),
    ("low-power", "scpmac"): ("0x1.b1be1566b81cbp-14", "0x1.9165fd8adab9fp+3", "0x1.9996d107a9b7ep-1"),
    ("low-power", "xmac"): ("0x1.068059a9ff5b4p-12", "0x1.91ff822bbecaap+2", "0x1.987af48bbbeecp-1"),
    ("high-rate", "dmac"): ("0x1.a3c8538846af2p-12", "0x1.367dd44135547p+1", "-0x1.e27a5578492e9p+3"),
    ("high-rate", "lmac"): ("0x1.74ac937fba2a9p-11", "0x1.2e7f36262cba8p+4", "-0x1.2cc4d013a92a4p+1"),
    ("high-rate", "scpmac"): ("0x1.5708522c21c01p-11", "0x1.9165fd8adab9fp+3", "0x1.96e7b0e4e6016p-1"),
    ("high-rate", "xmac"): ("0x1.de2dba33ca1e6p-6", "0x1.91ff822bbecaap+2", "0x1.19bdb93392d4ap-2"),
    ("sub-ghz", "dmac"): ("0x1.28046ca367751p-12", "0x1.3981a19ce4ef5p+1", "0x1.11f01352ab3f1p-1"),
    ("sub-ghz", "lmac"): ("0x1.5f6adb1bfa280p-11", "0x1.30fcb897d3379p+4", "0x1.7e865c0f54012p-1"),
    ("sub-ghz", "scpmac"): ("0x1.65923316f94bbp-15", "0x1.921bb32b82ac6p+3", "0x1.998685a4c7a7bp-1"),
    ("sub-ghz", "xmac"): ("0x1.f4a771ffeac35p-12", "0x1.941bf5946c332p+2", "0x1.95130f6fa45f2p-1"),
    ("legacy-bitradio", "dmac"): ("0x1.d56217171ac20p-15", "0x1.37b76fe4c4228p+1", "0x1.120aa330d23fdp-1"),
    ("legacy-bitradio", "lmac"): ("0x1.0fce79d30d1b3p-13", "0x1.2f97e8b2c4845p+4", "0x1.7ea31af9d8078p-1"),
    ("legacy-bitradio", "scpmac"): ("0x1.61211d6b265d0p-17", "0x1.91c11a88713b4p+3", "0x1.998a7b8de641bp-1"),
    ("legacy-bitradio", "xmac"): ("0x1.c40ed09f91fccp-13", "0x1.9304ea4a8c154p+2", "0x1.95192959165b7p-1"),
    ("bursty", "dmac"): ("0x1.2adca31a0a4acp-12", "0x1.367dd44135547p+1", "-0x1.7cdcbf418239cp+3"),
    ("bursty", "lmac"): ("0x1.55435d84e3516p-11", "0x1.2e7f36262cba8p+4", "-0x1.b84523f67f4ddp+0"),
    ("bursty", "scpmac"): ("0x1.480bfa2c1febdp-13", "0x1.9165fd8adab9fp+3", "0x1.97817d06a7577p-1"),
    ("bursty", "xmac"): ("0x1.8dcae02d26c7bp-9", "0x1.91ff822bbecaap+2", "0x1.853b9e66b2e78p-2"),
}

CASES = [
    pytest.param(preset, protocol, id=f"{preset}-{protocol}")
    for preset in PRESETS
    for protocol in PROTOCOLS
]


@pytest.mark.parametrize("preset, protocol", CASES)
def test_model_outputs_match_golden_digest(preset, protocol):
    model = create_protocol(protocol, scenario_by_name(preset))
    assert digest(model_outputs(model)) == GOLDEN_DIGESTS[preset, protocol]


@pytest.mark.parametrize("preset, protocol", CASES)
def test_midpoint_values_match_golden(preset, protocol):
    model = create_protocol(protocol, scenario_by_name(preset))
    assert midpoint_values(model) == GOLDEN_MIDPOINTS[preset, protocol]


def _print_tables() -> None:
    digests, midpoints = [], []
    for preset in PRESETS:
        for protocol in PROTOCOLS:
            model = create_protocol(protocol, scenario_by_name(preset))
            key = f'("{preset}", "{protocol}")'
            digests.append(f'    {key}: "{digest(model_outputs(model))}",')
            values = ", ".join(f'"{value}"' for value in midpoint_values(model))
            midpoints.append(f"    {key}: ({values}),")
    print("GOLDEN_DIGESTS = {", *digests, "}", sep="\n")
    print()
    print("GOLDEN_MIDPOINTS = {", *midpoints, "}", sep="\n")


if __name__ == "__main__":
    _print_tables()
