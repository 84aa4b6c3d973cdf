"""Golden game solutions, pinned bit for bit.

Each preset × protocol game is solved through the full (P1) → (P2) → (P4)
pipeline at ``grid_points_per_dimension`` 24, once at the preset's own
requirements and once with ``Lmax`` loosened by half.  For each of the
three problems the record holds the feasibility verdict, the solved
parameters, ``E``, ``L``, the evaluation count and, for (P1) and (P2), the
binding constraint; a game that cannot be played records its error instead.

``GOLDEN_GAME_DIGESTS`` is a sha256 over every record;
``GOLDEN_NASH_POINTS`` keeps the agreed ``(E*, L*)`` of each game at the
preset's requirements as readable ``float.hex`` strings.  A change that
only makes the solver faster (memos, shared evaluations, fewer array
copies) must leave both untouched.  A change meant to move solutions bumps
``SOLVER_REVISION`` and regenerates both tables, saying so in CHANGES.md::

    PYTHONPATH=src python tests/core/test_golden_games.py

prints them in the form pasted below.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.bargaining import NashBargainingSolver
from repro.exceptions import InfeasibleProblemError
from repro.protocols.registry import create_protocol
from repro.scenarios import scenario_preset

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
GRID_POINTS = 24
#: Requirement variants: the preset's own, and ``Lmax`` loosened by half.
DELAY_SCALES = (1.0, 1.5)


def _hex(value: float) -> str:
    return float(value).hex()


def _outcome_record(label: str, outcome) -> list:
    point = outcome.point
    return [
        label,
        "feasible" if outcome.feasible else "infeasible",
        *(f"{name}={_hex(value)}" for name, value in point.parameters.items()),
        f"E={_hex(point.energy)}",
        f"L={_hex(point.delay)}",
        f"binding={outcome.binding_constraint}",
        f"evaluations={outcome.evaluations}",
    ]


def game_record(preset: str, protocol: str, delay_scale: float) -> list:
    """The record of one game: one line per problem, or the game's error."""
    source = scenario_preset(preset)
    model = create_protocol(protocol, source.scenario)
    requirements = source.requirements()
    requirements = requirements.with_max_delay(requirements.max_delay * delay_scale)
    solver = NashBargainingSolver(grid_points_per_dimension=GRID_POINTS)
    try:
        solution = solver.solve(model, requirements)
    except InfeasibleProblemError as exc:
        return [f"infeasible: {exc}"]
    nash = solution.bargaining.point
    return [
        *_outcome_record("P1", solution.energy_optimum),
        *_outcome_record("P2", solution.delay_optimum),
        "P4",
        "feasible",
        *(f"{name}={_hex(value)}" for name, value in nash.parameters.items()),
        f"E={_hex(nash.energy)}",
        f"L={_hex(nash.delay)}",
        f"evaluations={solution.bargaining.evaluations}",
    ]


def digest(records) -> str:
    """sha256 over the records of a preset × protocol, in a fixed order."""
    text = "\n".join(line for record in records for line in record)
    return hashlib.sha256(text.encode()).hexdigest()


def case_records(preset: str, protocol: str) -> list:
    return [game_record(preset, protocol, scale) for scale in DELAY_SCALES]


def nash_point(records) -> tuple:
    """``(E*, L*)`` of the game at the preset's requirements, as hex."""
    record = records[0]
    start = record.index("P4")
    return tuple(line.split("=", 1)[1] for line in record[start:] if line[:2] in ("E=", "L="))


GOLDEN_GAME_DIGESTS = {
    ("paper-default", "dmac"): "8de9f1b7f52e44881a264bd2d0ed42aad494a06fb634e214b1889deb863fdbbb",
    ("paper-default", "lmac"): "e2c5182c7184db39804136913fe017910f89334b9a6a06018cd33e2ec2a374ba",
    ("paper-default", "scpmac"): "d341359a81cb850ca3740464be72ef58ce852b30480875ff2b8135b82490b211",
    ("paper-default", "xmac"): "8cb111015b788b009ab84162803bb20a3bbd940c28e45565dabc9b664e1059aa",
    ("dense-ring", "dmac"): "f595e1b2528c6b94eee5b987f70a13c93aaf0cbaacbe3b693b7204604c6203e9",
    ("dense-ring", "lmac"): "62bb2bc9e01eba2bc8b56113e8f20eafa54942693670f25651b056cf1edd2a54",
    ("dense-ring", "scpmac"): "f75f12fecfb11a83c63ed0fe4b5ac4bc2e4bc4946cf4cf8a4e766c64790ba5d5",
    ("dense-ring", "xmac"): "d8491b98122fd784303cf9ca7e82c38bf75c147bfe1f3c5c1b24ece44fc6b29b",
    ("sparse-ring", "dmac"): "f7b6d1ce34e834cd3526d9539be2081eb56f4bb031914fd0bbd7289b8b0b1e8a",
    ("sparse-ring", "lmac"): "a405b29cf143884927dc0d559ecde33efb2370766374907514491b8afc035320",
    ("sparse-ring", "scpmac"): "fa0609867d01d0a26bfbff9a7dc2d7836c174d8479ce0f516992771d04e4b49d",
    ("sparse-ring", "xmac"): "6e4e747e92f9265b78d6867af2f079fc713a7e5a35689b5a316681b2297a53d3",
    ("low-power", "dmac"): "40195b33b1a64bb835aef5868248ec4fc9411f9a219a15dfc4911b369d5caf67",
    ("low-power", "lmac"): "936403b80c6755525208917b64c665cf1772e97aa3fb6d13eb578b98eb0ab663",
    ("low-power", "scpmac"): "2cc873dc10acf5229da1f5ddfceda60612bc117cdb73fc7b7d2ebe2fc04e3d3d",
    ("low-power", "xmac"): "a2a49443a0e163f565d31f8b565fd6658b6903d5c6d08e5428c120f3b815064f",
    ("high-rate", "dmac"): "96a786ce7f7a9cb698437aa52ef6afe10ab580f4d8f85063034b41287101f8e8",
    ("high-rate", "lmac"): "ad88ff376ce92160cd535dcda844c80c807260c224abe86d179fbbecd7c776cd",
    ("high-rate", "scpmac"): "10acb068e8fd1e70e886914f7a0dc1b54c64ff09bf87ef59fc8d0be4332bfed4",
    ("high-rate", "xmac"): "6a2292450af1cbd87403253b637624e563287720be5f2a3165570d98804d8f56",
    ("sub-ghz", "dmac"): "5c67e610d4d50c35a29724c866f8fef7b4a503ee9a67d01aa5cafc43acac2c1e",
    ("sub-ghz", "lmac"): "ab7662e35732fabfb44fae5af72d4d40d7bce0f6302c6a7d6c77a0de25a75e73",
    ("sub-ghz", "scpmac"): "7ecb792d91e8f48eb00278e2b8056902dfa113ab4d1aea61a4db35cf546c2740",
    ("sub-ghz", "xmac"): "a93e453b35bc92e318d2fa215e8dfe0454ac1e96bbb5dd8aa724acee7f140cd8",
    ("legacy-bitradio", "dmac"): "1958c6e447e6aef58a616e54586fbfbe95887f8e2466bf0aaed43fa31c01ab8c",
    ("legacy-bitradio", "lmac"): "dff53dea78cfb543046ec2dc095802c25fd4c3a7347ab821e29b70e3a8a7f530",
    ("legacy-bitradio", "scpmac"): "a2e4d8895fd7003d79dedc43098414f0ca2135c0338756f0b1272310a1c46387",
    ("legacy-bitradio", "xmac"): "2d41a2e73fb9ed5b4748c5bcaef56b9cc782cf051f1e2ec33e8fc2186bf4264f",
    ("bursty", "dmac"): "191666a9eee4727024c7f2e33d770d5dc34af3e30831e2990c6aa9a4ec462f14",
    ("bursty", "lmac"): "162523af63a4e83f7e4d327725bca4b3efee95f3257d81ae4614d523036c30fc",
    ("bursty", "scpmac"): "14c95199a868e850cf76386b5349085b887cffd9dc99ff5c85eba602f924a39a",
    ("bursty", "xmac"): "9481c3500b91fb62bd7d1f38bf139e500c82da8082b034d76698c5b2919af2c1",
}

GOLDEN_NASH_POINTS = {
    ("paper-default", "dmac"): ("0x1.0c71ef8e8b690p-9", "0x1.2ddbdec293a50p-2"),
    ("paper-default", "lmac"): ("0x1.b8ee560114f8cp-8", "0x1.18d04cb81cb73p+0"),
    ("paper-default", "scpmac"): ("0x1.3a3af0f593b20p-10", "0x1.ab8280f0c9707p-2"),
    ("paper-default", "xmac"): ("0x1.ea0a7cde74daep-10", "0x1.0c5e1b7757362p-2"),
    ("dense-ring", "dmac"): ("0x1.3319a36921c57p-9", "0x1.0ca26f3c51a5ep-2"),
    ("dense-ring", "lmac"): ("0x1.0eba681055b0dp-7", "0x1.c2abdfde25fb8p+0"),
    ("dense-ring", "scpmac"): ("0x1.15c68282b6ae4p-10", "0x1.e90069eacdf6ap-2"),
    ("dense-ring", "xmac"): ("0x1.ebe45cbcbed55p-10", "0x1.0c5e1b771d211p-2"),
    ("sparse-ring", "dmac"): ("0x1.0ce1cd359ffd6p-9", "0x1.48f4334db088dp-2"),
    ("sparse-ring", "lmac"): ("0x1.163562a286152p-8", "0x1.6e1f4bd59f2e7p+0"),
    ("sparse-ring", "scpmac"): ("0x1.1bf053e48d4d6p-10", "0x1.7b8b614860392p-1"),
    ("sparse-ring", "xmac"): ("0x1.36842df15413cp-9", "0x1.5937eafc51c76p-2"),
    ("low-power", "dmac"): ("0x1.587bee070717fp-10", "0x1.c43c80ebf1fc3p-2"),
    ("low-power", "lmac"): ("0x1.3941d9c79ade1p-9", "0x1.90043087d8eeap+1"),
    ("low-power", "scpmac"): ("0x1.4ea5031dbd3b6p-11", "0x1.95f66e22e5741p-1"),
    ("low-power", "xmac"): ("0x1.4432df5634aecp-10", "0x1.8fa1d45651282p-2"),
    ("high-rate", "dmac"): ("0x1.a0b7e88892693p-7", "0x1.57d6658368ae1p-4"),
    ("high-rate", "lmac"): ("0x1.394b7c28e805cp-7", "0x1.8e02baa6d73a1p-1"),
    ("high-rate", "scpmac"): ("0x1.21ee2c2144131p-9", "0x1.36ebb2c7780f1p-2"),
    ("high-rate", "xmac"): ("0x1.888e903a8dd21p-8", "0x1.acf177952745ap-4"),
    ("sub-ghz", "dmac"): ("0x1.14b1404df3441p-9", "0x1.78c618c43af16p-2"),
    ("sub-ghz", "lmac"): ("0x1.6ac289dc2cb0cp-8", "0x1.898756ea4016ep+0"),
    ("sub-ghz", "scpmac"): ("0x1.9e448ccc7a386p-12", "0x1.c17cdf977a612p-2"),
    ("sub-ghz", "xmac"): ("0x1.9a188cc05a23dp-11", "0x1.e96d8fabe994ap-3"),
    ("legacy-bitradio", "dmac"): ("0x1.d09d873b50906p-12", "0x1.4d8e55d6c4895p-2"),
    ("legacy-bitradio", "lmac"): ("0x1.4741ff1f9adc9p-10", "0x1.4e2bad70d58dap+0"),
    ("legacy-bitradio", "scpmac"): ("0x1.906b0780e7cc8p-15", "0x1.b687bc8d9e910p-2"),
    ("legacy-bitradio", "xmac"): ("0x1.083f91caef06ap-13", "0x1.4caa7821bd824p-3"),
    ("bursty", "dmac"): ("0x1.702e03167fffbp-7", "0x1.6b19e18333618p-4"),
    ("bursty", "lmac"): ("0x1.b94b684afd900p-8", "0x1.18d04c69e1c7ap+0"),
    ("bursty", "scpmac"): ("0x1.4650856d8f866p-10", "0x1.ab8280ef48e73p-2"),
    ("bursty", "xmac"): ("0x1.87070a7e2043fp-9", "0x1.634350fc7ec50p-3"),
}

CASES = [
    pytest.param(preset, protocol, id=f"{preset}-{protocol}")
    for preset in PRESETS
    for protocol in PROTOCOLS
]


@pytest.mark.parametrize("preset, protocol", CASES)
def test_game_solutions_match_golden_digest(preset, protocol):
    records = case_records(preset, protocol)
    assert digest(records) == GOLDEN_GAME_DIGESTS[preset, protocol]
    assert nash_point(records) == GOLDEN_NASH_POINTS[preset, protocol]


def _print_tables() -> None:
    digests, points = [], []
    for preset in PRESETS:
        for protocol in PROTOCOLS:
            records = case_records(preset, protocol)
            key = f'("{preset}", "{protocol}")'
            digests.append(f'    {key}: "{digest(records)}",')
            values = ", ".join(f'"{value}"' for value in nash_point(records))
            points.append(f"    {key}: ({values}),")
    print("GOLDEN_GAME_DIGESTS = {", *digests, "}", sep="\n")
    print()
    print("GOLDEN_NASH_POINTS = {", *points, "}", sep="\n")


if __name__ == "__main__":
    _print_tables()
