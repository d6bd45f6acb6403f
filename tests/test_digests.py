"""SHA-256 digests of every deterministic runner's files across the Heston region.

``tests/golden/`` holds the files of the default model, one point of the
parameter region; these digests lock the same runners on five more Heston
sets whose Gamma shapes 2 kappa theta / xi^2 span 0.125 to 13.3 (the two
ends included).  Each set runs the jobs of a parameter sweep: ``invariant``
and ``poisson`` at q_g = 1/2 and 3/4, ``rate`` at five x points, ``ldp`` and
``compare`` with the standard radicand, and ``asymptotics``.  Any change in
the float operations or the cell formatting of a runner shows here.
"""

import hashlib
import os

import pytest

from mdpvol.config import validate_config
from mdpvol.reporting import RUNNERS

# name -> (kappa, theta, xi, rho, y0); Gamma shape in the name
SETS = {
    "shape0.125": (1.0, 0.04, 0.8, -0.8, 0.02),
    "shape0.5": (1.5, 0.06, 0.6, -0.3, 0.09),
    "shape1.92": (2.4, 0.1, 0.5, -0.65, 0.15),
    "shape4.69": (2.5, 0.15, 0.4, 0.0, 0.2),
    "shape13.3": (3.0, 0.2, 0.3, -0.5, 0.1),
}

JOBS = (
    ("invariant", {"q_g": 0.5}),
    ("invariant", {"q_g": 0.75}),
    ("poisson", {"q_g": 0.5}),
    ("poisson", {"q_g": 0.75}),
    ("rate", {"x_values": [-0.27, -0.05, 0.0, 0.013, 0.3]}),
    ("ldp", {"d_variant": "standard"}),
    ("compare", {"d_variant": "standard"}),
    ("asymptotics", {}),
)

DIGESTS = {
    "shape0.125": {
        "0-invariant.csv":
            "af5d6ecb3b31bc61da236e1cd8d8b0b22f9a585a70877e1517791fdf1b37910c",
        "1-invariant.csv":
            "ab0897d313f80162f4365eeec967373add7d4cdf29bf186e776a14cd391fc79b",
        "2-poisson.csv":
            "49ca5ea13f597878f02c0414c6760a4a7904e5d1df80a3bfd9f257b88368d0f1",
        "3-poisson.csv":
            "81da40d7dd573b87a6369c4d51f6c01923440ae89152c4e7ad03e67b75835fe8",
        "4-rate.csv":
            "c99fef0e44abf632d8a78333819f43296092fe08adeada22a516a0ff54e1d850",
        "5-ldp.csv":
            "d98cf4ae2c25038aedc83904e103cc7a3e98b7c22547ec55ca59d5365ee8fbc8",
        "6-compare.csv":
            "2ddbc6835cbab3b146411912dce1296f789164d8096425e8c331577b544958a8",
        "6-compare_summary.json":
            "f27e1d98fb458e2bf9e5b4ea605b1822f75e474b0ed738c11956940901c13618",
        "7-asymptotics.csv":
            "aec6ddd06a973f0e0184141384aa673c7580e6fbb88645de905848d0596d1d7c",
    },
    "shape0.5": {
        "0-invariant.csv":
            "348728c75ebc341e0b36d034032769ede15b0e4e85dde6f40c89e2b680a92271",
        "1-invariant.csv":
            "5aac06260543b4dfb6975f2ae535e5a6759269dc81621aa4e21e7bd4d1dc281f",
        "2-poisson.csv":
            "e20c470294f9905b7c51c2b382125342c65181d0138ed1e6cdafe80011f82114",
        "3-poisson.csv":
            "2268c8abeb82598b01b7d573539a8f55fc7d3c6196705dc0edee346bc5a38594",
        "4-rate.csv":
            "a798f73f1dfec57189741a66834ebe49bdd4959bf752b82b80182a0797ff081f",
        "5-ldp.csv":
            "0742d2c8eb7f9fe6a36d238728ebc1bf90c4845fa420907280a7894f2bc9b741",
        "6-compare.csv":
            "baf3da8ae68845de81cdd91165cd79fa943112d4b38375c13c0c68dfb072b5d5",
        "6-compare_summary.json":
            "a2e9043d0273f6e4dac92b4064f21b8faf6c1caddb5acd70e9b5bdff8975d7fb",
        "7-asymptotics.csv":
            "1ce72083458f479b85bd43289321d69f36d28059d1c64909c5f566f70bdae142",
    },
    "shape1.92": {
        "0-invariant.csv":
            "67e41b289b265c6918597eafdcab93746f09cfd18f6555d4f977041379eeacec",
        "1-invariant.csv":
            "1c403ebc1355c94088b06208c8aee399ff5839628a376fa9157f12e25bc6694a",
        "2-poisson.csv":
            "64d9e8ee6899dc10bc0af165b8b5a79fb43681b9e88245e415d82a5166a5a0c1",
        "3-poisson.csv":
            "a61be7f19258c2a4cd48930b7b6606ed75f405a190c3513a3f701147fe1e66aa",
        "4-rate.csv":
            "cccaa5988f0187e19845129b69d597bba2f6a54cdbb45be43865bb13f259e11f",
        "5-ldp.csv":
            "c06f8656c67b5808cb43564970f7834f601f5dd5493728e26a50a924014a27ff",
        "6-compare.csv":
            "218b6ecf040708b2017b8ccde622579421fe72e42dd6ae94a0e68a0decf01f7a",
        "6-compare_summary.json":
            "8d6ef53c457f3df8bcb71e3593395912e0fe2b681267ad71983af82df5c41b03",
        "7-asymptotics.csv":
            "e01d76b5cc3e75eac0bf37699e4abe2f91a94524eb5571519d7b252606bcaa7f",
    },
    "shape13.3": {
        "0-invariant.csv":
            "13591df1244ac7a6cbf440860b82f6f8e1bfede0b44b93e1b4e271b6a4d6f8c1",
        "1-invariant.csv":
            "f61cc72787794bd940f0c11f78ac537a1033f3b9f680878252fe19ef4c42e278",
        "2-poisson.csv":
            "bd7c7c06920f4f56f29f39d0bd28c557d98039a99ba11c38f62453bd9c191441",
        "3-poisson.csv":
            "7cfd43c04dde05df97216b63971e65b3555b736d266eaa1b30d7179a19f9eb99",
        "4-rate.csv":
            "201cca491cd6167b3ac1a091b2491cd37b72d45565612276d17eb8c57b663308",
        "5-ldp.csv":
            "a190ba3e009905259901dde261505b4791f449d63a5274436c00825dc0b58542",
        "6-compare.csv":
            "381451f5450cb7e521cf8d3e47017d93caf8f9e8c071ba1153611e6788bf7004",
        "6-compare_summary.json":
            "3388b02526adf5549b716d70f076af80cc1fbffd561111e03e6dab71605bbe37",
        "7-asymptotics.csv":
            "ed5009d7ea35e93ef5457b76c0fd8e9042dccaaf3bdf2c4100e4af5f71f4e04e",
    },
    "shape4.69": {
        "0-invariant.csv":
            "f5662434f27709c9d7b2f83dc804288b58b3a1ca13d6f773145621583812e63d",
        "1-invariant.csv":
            "9bc7eff6090722d0de76c745c910f529b3e051829320e26e1d731bed6ad18d4e",
        "2-poisson.csv":
            "4147a7bf998be6c938ae512f5343c311fa39a2c183e181a4a8b3f06f429a6523",
        "3-poisson.csv":
            "a34802c9c5120f5fcccc72e81f29c5248d04adb12575a3c2c1fd8b3dd7cf9703",
        "4-rate.csv":
            "327acd3c8aedddd1bde27aa9fec09a30df23b0d9901c6967815d6745d3c9816b",
        "5-ldp.csv":
            "7b07f0b8be7cc06e8fb365314e2bfc0499c823c7468d20f56be8c57005da55ef",
        "6-compare.csv":
            "cca059a33ff64744688448e25393cbf36b4e2645ce7a2698da6b51b6f7edcf3e",
        "6-compare_summary.json":
            "f0e04b748709cf478f129c939f95909ff6d4e19e36a75b3569b39f95a9d0c99b",
        "7-asymptotics.csv":
            "ff5f0e197cd48ef01e9e6e85975d9da3278642084b4a8551db9e9ab40845e005",
    },
}


def _digests(tmp_path, name):
    kappa, theta, xi, rho, y0 = SETS[name]
    model = {"kind": "heston", "kappa": kappa, "theta": theta, "xi": xi,
             "rho": rho, "x0": 0.0, "y0": y0}
    out = {}
    for position, (experiment, params) in enumerate(JOBS):
        config = validate_config({"experiment": experiment, "seed": 17 + position,
                                  "model": model, "params": params,
                                  "out_prefix": f"{position}-"})
        for path in RUNNERS[experiment](config, str(tmp_path)):
            with open(path, "rb") as handle:
                out[os.path.basename(path)] = hashlib.sha256(handle.read()).hexdigest()
    return out


@pytest.mark.parametrize("name", sorted(SETS))
def test_runner_digests(tmp_path, name):
    kappa, theta, xi = SETS[name][:3]
    assert name == f"shape{2 * kappa * theta / xi ** 2:.3g}"
    assert _digests(tmp_path, name) == DIGESTS[name]
