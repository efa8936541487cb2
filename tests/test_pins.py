"""Pins of the built slot programs and the hand decoders' arithmetic.

Each built spec's slots and symbols are pinned by the SHA-256 of
`repr((slot_plans, symbols))`, and the decoders by `float.hex` of every
receiver's `max_residual` plus a digest of every recovered value's type and
bits, over seeds 0-1 at power 1e4.  Any change to a stream label, a slot, a
symbol or the order of a decoder's arithmetic shows here, and so in the
`--dump-*` files and the CSV residuals.  Each case's secrecy roles and
scored receivers are pinned too.
"""

import hashlib

import pytest

from sdof_lab.model import PowerBudget
from sdof_lab.schemes import SCHEME_IDS, build_scheme, decode_batch, run_seed_batches

_COMPOSITE_PARAMS = ({"sub": "tjsp53"}, {"sub": "fallback32"}, {"blocks": 20},
                     {"blocks": 40}, {"sub": "fallback32", "blocks": 12})
CASES = {scheme_id + "".join(f"-{k}={v}" for k, v in params.items()): (scheme_id, params)
         for scheme_id, params in [(scheme_id, {}) for scheme_id in SCHEME_IDS] + [
             (scheme_id, params) for scheme_id in ("MR_S30_29_A", "MR_S30_29_B")
             for params in _COMPOSITE_PARAMS]}

SPEC_DIGESTS = {
    "WT_PP":
        "95aabd8343f268958358f0233ff0b11e1ee11db4940b999227406a6de9d7067e",
    "WT_DP":
        "9b73de610a1e10f616ab5c9813e8d5a7ebbfe171b4262f07dec00ee4fc87daa0",
    "WT_PD":
        "7743f6d7f98ab58c3e764a696561a7f8be4f0e990ed29ab487f6668dc9cf01a6",
    "WT_DD_23":
        "f62da0aae68271b9cc632ca6e5a20756a5e068083f2c5d5a3e4004d9849e0ee6",
    "MR_PPD":
        "20d959a75c1f4a660fe7b2e837564217aad09f854752940918da017c71589d53",
    "MR_PDP":
        "5f7e319d0061e6c680768f9c1900758ea5135d8877e97f94d7f506444eed2568",
    "MR_DDP":
        "40878f57798e42775788767a3ef390c928ef42e06fda418bef26afe7d76ba701",
    "MR_PDD":
        "3e3ff6f35f84c25c8bd096bbb9ca1cce27d2ba580844b8288167313bcf8618a2",
    "MR_S30_29_A":
        "968ebf5fdf5e4ac6bc06afcca187785b2bbc3f2854f634efdf739c9653b9062a",
    "MR_S30_29_B":
        "86e4f2d7f998e4e7717cef69466d8616fa3a9845c3a8d90a9d7b99f2cd94cb27",
    "SUB_PD_DP_UNICAST":
        "f572136591b459778a2c1753e50f46a5bcb4743a57c8464b9e8ce45370684fde",
    "SUB_SECURE_MULTICAST":
        "298b64d8f92b7090ed7822f534c66e9eeab0a497d3a5d46d69a554c0185c7002",
    "BC_PP_S2":
        "5b5fb37e8540c4870522db93041f17703a362f36b19388c9a4084ab41fce4f58",
    "BC_DD_S1":
        "137b1cce3eab2d7c5ce24d453f62921423c23d28bb546324acd8bbc3a299862f",
    "BC_S1_43":
        "990056a7c9769cd64b23c76c9b20f8553f23c00a77f09aa346ea32a5205b392b",
    "BC_S2_43":
        "0849d91b81aa7a1483a4f2ecbfa8a651d5003b79251cb4e601616c555e8798bd",
    "MR_S30_29_A-sub=tjsp53":
        "968ebf5fdf5e4ac6bc06afcca187785b2bbc3f2854f634efdf739c9653b9062a",
    "MR_S30_29_A-sub=fallback32":
        "b6148d055d46a5dc84a9e868372b8971a4d59a02950625b7ef1ff7a500c9cb9d",
    "MR_S30_29_A-blocks=20":
        "5ad000ec6c97730d4463dd23144de138263c51dee136407547b1c34ec9418a54",
    "MR_S30_29_A-blocks=40":
        "207cf92d70dbffb7fa23cd10e287214f4b89ae0cee7fde9337c5f0d738b824cb",
    "MR_S30_29_A-sub=fallback32-blocks=12":
        "12188166e8c0ed0fa48163291dcd93134482e799caa37a06974d092740f316a1",
    "MR_S30_29_B-sub=tjsp53":
        "86e4f2d7f998e4e7717cef69466d8616fa3a9845c3a8d90a9d7b99f2cd94cb27",
    "MR_S30_29_B-sub=fallback32":
        "6dab7ec52d75f5a1f23906919fba49e176f8d004bc291a3a27e4c85c1f610c0d",
    "MR_S30_29_B-blocks=20":
        "116d5dec2c6c5e2bd5df82df63fc45236bd2ff883edf1b7c40ed289b25827c07",
    "MR_S30_29_B-blocks=40":
        "57d356a36edd5363ed9a30ec7a8c42f6e7b51e5508136d74e798a41e4775e097",
    "MR_S30_29_B-sub=fallback32-blocks=12":
        "12f3f808613347bcde03dbdcbfc519983623fbea1fe13e213aeaeec6e4017394",
}

# Every hand decoder: every case but the default composites, whose sub=tjsp53
# cases are the same specs.  Per seed, each receiver's max_residual; then the
# digest of every recovered value.
DECODE_PINS = {
    "WT_PP": ([
        {"rx1": "0x1.7000000000000p-56"},
        {"rx1": "0x1.6a44da5976ee2p-53"},
    ], "824a1603cd1ee6dff748e6cc60ca1cdf12b2908fd7d034c436ac329f520f9ee9"),
    "WT_DP": ([
        {"rx1": "0x1.7000000000000p-56"},
        {"rx1": "0x1.6a44da5976ee2p-53"},
    ], "824a1603cd1ee6dff748e6cc60ca1cdf12b2908fd7d034c436ac329f520f9ee9"),
    "WT_PD": ([
        {"rx1": "0x1.24bee12c447c4p-53"},
        {"rx1": "0x1.92bac4cdd95c8p-51"},
    ], "cbf6ea615b8490568ee0dab2f980b33133645564dfb0694ed0c1999b74f21e47"),
    "WT_DD_23": ([
        {"rx1": "0x1.6635421de004fp-52"},
        {"rx1": "0x1.2de32c6628741p-52"},
    ], "4ac2ce44790054de49c6ba82bb23f7fdd065a4241d395a32d5d64f85a5a69c39"),
    "MR_PPD": ([
        {"rx1": "0x1.26b4e5f3bb83ap-53", "rx2": "0x0.0p+0"},
        {"rx1": "0x1.8758ad44e2549p-50", "rx2": "0x1.68d17089bc668p-51"},
    ], "1fc64f2b40003f25b1ed4dd0e72b20ec9f35ec7bc4fa374c122151d343cf9328"),
    "MR_PDP": ([
        {"rx1": "0x1.94c583ada5b53p-52", "rx2": "0x1.1e3779b97f4a8p-52"},
        {"rx1": "0x1.27f85e966384ap-51", "rx2": "0x1.875d11df79a0cp-53"},
    ], "50378c98b088b13d8c51f48d8115ef7f5e24d89f3d096b4ba46abab4c95c3211"),
    "MR_DDP": ([
        {"rx1": "0x1.1e3779b97f4a8p-52", "rx2": "0x1.0000000000000p-53"},
        {"rx1": "0x1.3623ea316a0cep-50", "rx2": "0x1.768ce6d3c11e0p-50"},
    ], "28075a00dae5142109080e53252db963b6107ad43b8247a49245862510f44f09"),
    "MR_PDD": ([
        {"rx1": "0x1.8104fca49d6e9p-52"},
        {"rx1": "0x1.2a7248e319f0bp-51"},
    ], "2be9fa95b9e780c6ad98412b3a0e29a33f1be56e6652e1d07ad4591ee350c9bb"),
    "SUB_PD_DP_UNICAST": ([
        {"rx1": "0x1.2706821902e9ap-50", "rx2": "0x1.5079d1893d3e0p-50"},
        {"rx1": "0x1.76e45917ad74ep-50", "rx2": "0x1.1f389e8a5f1eep-49"},
    ], "e0d69baa176d382602e03cab323dcadf7f3c5477aab81709f424ce917989c4fe"),
    "BC_PP_S2": ([
        {"rx1": "0x1.011f5eb541470p-53", "rx2": "0x0.0p+0"},
        {"rx1": "0x1.21891a7faa275p-52", "rx2": "0x1.64e4911b726a9p-52"},
    ], "e8c3cacb254c586fc89e4aa9c2684e21f00375f1ac406d2537fe56b9d6fb9fca"),
    "BC_DD_S1": ([
        {"rx1": "0x1.f627c54f1e0abp-52", "rx2": "0x1.08e098b48ff6ep-52"},
        {"rx1": "0x1.b33f3f1490defp-52", "rx2": "0x1.1e3779b97f4a8p-52"},
    ], "ee3f2cbd60085c8d62afce39cca1f72a2560a5fb76e31f983916173d02c8b6d2"),
    "BC_S1_43": ([
        {"rx1": "0x1.c534e5bdd7825p-51", "rx2": "0x1.1e3779b97f4a8p-52"},
        {"rx1": "0x1.ae841693db8b4p-52", "rx2": "0x1.6524ec29da201p-50"},
    ], "2e66ec6425be0baac5f71683a929b0d559da1e22ad4c16ace47f16e5600c5f9c"),
    "BC_S2_43": ([
        {"rx1": "0x1.c534e5bdd7825p-51", "rx2": "0x1.1e3779b97f4a8p-52"},
        {"rx1": "0x1.ae841693db8b4p-52", "rx2": "0x1.6524ec29da201p-50"},
    ], "2e66ec6425be0baac5f71683a929b0d559da1e22ad4c16ace47f16e5600c5f9c"),
    "SUB_SECURE_MULTICAST": ([
        {"rx1": "0x1.52b17334ba750p-50", "rx2": "0x1.60d13630e6115p-50"},
        {"rx1": "0x1.0f3843f3b8246p-50", "rx2": "0x1.a11a9a3cb3181p-51"},
    ], "b687c1e523c9cce54fe3d837980fc1fe63603967351865b0fa289c9046dc107b"),
    "MR_S30_29_A-sub=tjsp53": ([
        {"rx1": "0x1.decd7c000bbefp-48", "rx2": "0x1.0319b79160cb3p-48"},
        {"rx1": "0x1.468bea8c04756p-44", "rx2": "0x1.db26ce53bc0e0p-44"},
    ], "f71a36ed05e21713b5e4551ec3923fb3f7796e8729f7a917ff9da1e47dd5510c"),
    "MR_S30_29_A-sub=fallback32": ([
        {"rx1": "0x1.895452266d926p-48", "rx2": "0x1.6889da3a8f648p-47"},
        {"rx1": "0x1.0c0494b14ad82p-47", "rx2": "0x1.19d2987c9220dp-48"},
    ], "2a5c043344c85e4b0fa5c9ff60a7ce5158c686a50d31feee47bb7d4b919c4244"),
    "MR_S30_29_A-blocks=20": ([
        {"rx1": "0x1.24795a825483ap-46", "rx2": "0x1.0acd6f3a11a5bp-45"},
        {"rx1": "0x1.832eba5e18a4dp-44", "rx2": "0x1.921800d4c8b2bp-44"},
    ], "89db2f199fbeaacb6c4950832868685d618612ef215848a81dd6dfef79daaa7e"),
    "MR_S30_29_A-blocks=40": ([
        {"rx1": "0x1.de1640d966311p-46", "rx2": "0x1.7346c9a28a1b9p-47"},
        {"rx1": "0x1.879ff43bcfc70p-45", "rx2": "0x1.23abcb87ae977p-44"},
    ], "217f67b1c4154cdeb60ab2317d5d4aa61397394b22463ef6b39566b395103dc0"),
    "MR_S30_29_A-sub=fallback32-blocks=12": ([
        {"rx1": "0x1.b36996339fef0p-49", "rx2": "0x1.98cd99ffffccap-47"},
        {"rx1": "0x1.12790be89a36cp-48", "rx2": "0x1.4f42d6f1a878dp-46"},
    ], "a6a6cd610ff5a8dfda7ab3dbb8800864da8309ba41a652de951320a2fcada191"),
    "MR_S30_29_B-sub=tjsp53": ([
        {"rx1": "0x1.b9b44d3a6ddebp-45", "rx2": "0x1.bbb6d51203c4fp-43"},
        {"rx1": "0x1.267c3a1b3f401p-46", "rx2": "0x1.eac26788aecc9p-48"},
    ], "85c65300077d9845c60bd4a35d5e497e6fddb291ff00f871d6ac2144c1dff7ea"),
    "MR_S30_29_B-sub=fallback32": ([
        {"rx1": "0x1.fd9e9550cf817p-48", "rx2": "0x1.606d635de7143p-47"},
        {"rx1": "0x1.9285852739653p-48", "rx2": "0x1.26280b3476096p-48"},
    ], "eb840e9e906504e6c8bc6505e25b9061e7086a5904ef83ff7a8fc7741a9972ef"),
    "MR_S30_29_B-blocks=20": ([
        {"rx1": "0x1.658fa9ba1059dp-45", "rx2": "0x1.ff3fdbf279a8bp-48"},
        {"rx1": "0x1.f424a49e6d178p-47", "rx2": "0x1.566a17f712653p-43"},
    ], "d803820da1607efe9dccdef4c33b0f9d263e63d6224b736bc29fb27e0b0bd373"),
    "MR_S30_29_B-blocks=40": ([
        {"rx1": "0x1.2d8789089583ep-46", "rx2": "0x1.f834c55d438b2p-46"},
        {"rx1": "0x1.66be9eb1c34f9p-45", "rx2": "0x1.ad935001a7c74p-44"},
    ], "291a5c6d0a024b9e5d5a517644fae1d9442d89f98eb298ab12a61a5a279c801f"),
    "MR_S30_29_B-sub=fallback32-blocks=12": ([
        {"rx1": "0x1.b0803aef5cb21p-48", "rx2": "0x1.b0aa8901b4454p-48"},
        {"rx1": "0x1.0e422c28644b1p-47", "rx2": "0x1.c5ac50a7732d9p-48"},
    ], "6cb994bed4c494f5addf3d958a38b562e2725614244fb629a316788a73fd4261"),
}


def _build(case_id: str):
    scheme_id, params = CASES[case_id]
    return build_scheme(scheme_id, **params)


@pytest.mark.parametrize("case_id", CASES)
def test_built_spec_digest(case_id):
    spec = _build(case_id)
    digest = hashlib.sha256(repr((spec.slot_plans, spec.symbols)).encode()).hexdigest()
    assert digest == SPEC_DIGESTS[case_id]


def _decode_pin(spec) -> tuple:
    residuals, values = [], []
    for batch in run_seed_batches(spec, range(2), PowerBudget(1e4)):
        for report in decode_batch(batch):
            residuals.append({node: got.max_residual.hex() for node, got in report.nodes.items()})
            values.append(sorted((node, sid, type(z).__name__, z.real.hex(), z.imag.hex())
                                 for node, got in report.nodes.items()
                                 for sid, z in got.recovered.items()))
    return residuals, hashlib.sha256(repr(values).encode()).hexdigest()


@pytest.mark.parametrize("case_id", DECODE_PINS)
def test_decode_residuals(case_id):
    assert _decode_pin(_build(case_id)) == DECODE_PINS[case_id]


@pytest.mark.parametrize("case_id", CASES)
def test_built_spec_carries_its_decoder(case_id):
    """Each builder puts its decoder and, for a composite, the sub-protocol
    it plugs in into the spec it returns."""
    scheme_id, params = CASES[case_id]
    spec = _build(case_id)
    assert callable(spec.decode)
    composite = scheme_id.startswith("MR_S30_29")
    assert spec.sub == (params.get("sub", "tjsp53") if composite else None)


# Each adversary's protected and a-priori known symbols, sorted, in the
# order `spec.protected` lists the adversaries, recorded from the
# hand-written roles the derived ones replace.
_S30_29_SECRETS = [
    "x0.0", "x0.1", "x0.2", "x1.0", "x1.1", "x1.2", "x2.0", "x2.1", "x2.2", "x3.0",
    "x3.1", "x3.2", "x4.0", "x4.1", "x4.2", "x5.0", "x5.1", "x5.2", "x6.0", "x6.1",
    "x6.2", "x7.0", "x7.1", "x7.2", "x8.0", "x8.1", "x8.2", "x9.0", "x9.1", "x9.2",
    "y0.0", "y0.1", "y0.2", "y1.0", "y1.1", "y1.2", "y2.0", "y2.1", "y2.2", "y3.0",
    "y3.1", "y3.2", "y4.0", "y4.1", "y4.2", "y5.0", "y5.1", "y5.2", "y6.0", "y6.1",
    "y6.2", "y7.0", "y7.1", "y7.2", "y8.0", "y8.1", "y8.2", "y9.0", "y9.1", "y9.2",
]
_V4, _W4 = ["v1", "v2", "v3", "v4"], ["w1", "w2", "w3", "w4"]
SECRECY_ROLES = {
    "WT_PP": [("eve", ["v"], [])],
    "WT_DP": [("eve", ["v"], [])],
    "WT_PD": [("eve", ["v"], [])],
    "WT_DD_23": [("eve", ["v1", "v2"], [])],
    "MR_PPD": [("eve", ["v", "w"], [])],
    "MR_PDP": [("eve", ["v1", "v2", "w"], [])],
    "MR_DDP": [("eve", ["v1", "v2", "w1", "w2"], [])],
    "MR_PDD": [("eve", ["v"], [])],
    "MR_S30_29_A": [("eve", _S30_29_SECRETS, [])],
    "MR_S30_29_B": [("eve", _S30_29_SECRETS, [])],
    "SUB_PD_DP_UNICAST": [],
    "SUB_SECURE_MULTICAST": [("eve", [f"c{i}" for i in range(10)], [])],
    "BC_PP_S2": [("rx1", ["w"], ["v"]), ("rx2", ["v"], ["w"])],
    "BC_DD_S1": [("rx1", ["w1", "w2"], ["v1", "v2"]), ("rx2", ["v1", "v2"], ["w1", "w2"])],
    "BC_S1_43": [("rx1", _W4, _V4), ("rx2", _V4, _W4)],
    "BC_S2_43": [("rx1", _W4, _V4), ("rx2", _V4, _W4)],
}
# the composite variants' roles, as (protected count, SHA-256 of their repr)
SECRECY_ROLE_DIGESTS = {
    "sub=tjsp53": (60, "a3149cfdce51b15ca05545636fc0e2b18b5d67b3abce716b956a1a3b091c2c17"),
    "sub=fallback32": (36, "f9b5dd63fddcf5ad164491fc82be5fcd8a4cb435d110c5502a8406b3fe3c8674"),
    "blocks=20": (120, "c6d350f8937dec9a013976ec84496cf7fdb89b44e2ffe56a65ef0fbb17702a6b"),
    "blocks=40": (240, "c89a0654d894fdcc952d6bba0210cf8023d799e86f6fba6c0e13affae6a540d1"),
    "sub=fallback32-blocks=12":
        (72, "bd1d816d9b39473901c9d81bbcbdb27ac9e85190e65a7b78ae505ac4a71b7cc2"),
}


@pytest.mark.parametrize("case_id", CASES)
def test_secrecy_roles(case_id):
    spec = _build(case_id)
    roles = [(adv, sorted(sids), sorted(spec.adversary_known.get(adv, ())))
             for adv, sids in spec.protected.items()]
    if case_id in SECRECY_ROLES:
        assert roles == SECRECY_ROLES[case_id]
    else:
        variant = case_id.split("-", 1)[1]
        assert (len(roles[0][1]), hashlib.sha256(repr(roles).encode()).hexdigest()) \
            == SECRECY_ROLE_DIGESTS[variant]


# Each scheme's scored receivers: the nodes other than the eavesdropper that
# are sent messages, in topology order; a composite variant has its scheme's.
RECEIVERS = {
    "WT_PP": ("rx1",),
    "WT_DP": ("rx1",),
    "WT_PD": ("rx1",),
    "WT_DD_23": ("rx1",),
    "MR_PPD": ("rx1", "rx2"),
    "MR_PDP": ("rx1", "rx2"),
    "MR_DDP": ("rx1", "rx2"),
    "MR_PDD": ("rx1",),
    "MR_S30_29_A": ("rx1", "rx2"),
    "MR_S30_29_B": ("rx1", "rx2"),
    "SUB_PD_DP_UNICAST": ("rx1", "rx2"),
    "SUB_SECURE_MULTICAST": ("rx1", "rx2"),
    "BC_PP_S2": ("rx1", "rx2"),
    "BC_DD_S1": ("rx1", "rx2"),
    "BC_S1_43": ("rx1", "rx2"),
    "BC_S2_43": ("rx1", "rx2"),
}


@pytest.mark.parametrize("case_id", CASES)
def test_receivers(case_id):
    assert _build(case_id).receivers == RECEIVERS[CASES[case_id][0]]
