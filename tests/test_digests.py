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
            "148f69938cbe39b0e03dbd476b6fd10c4a1e576335d42adb38b4a9f3b8c6f0ac",
        "5-ldp.csv":
            "923ef56b0255892a3440c3d059b09b05358da90c102ce0a89733cdcde12db93a",
        "6-compare.csv":
            "5c7bd41691385a0a8f9562c7db7de918e8298f39c6d16f7443e28b61b729a0ab",
        "6-compare_summary.json":
            "00c47e599f4131555c1b09b06d2e54fb1f81bfe316cd9a0df9c28a28afa69543",
        "7-asymptotics.csv":
            "ed10c74baaff0d3a5aa7664638c46a40f20d6d2957cfe647019a470457b64e69",
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
            "97c7791bb1648f6291a8a73e4ac9e5e589658f298404f7b8d7a95bb5c92581cc",
        "5-ldp.csv":
            "213af21c1e7816ab7c0ec95d9af5f35be8dbbe2bed9fa302a37bb355dedc2a67",
        "6-compare.csv":
            "cce3cd4faa1cb902f8fab9751eed3541e43e3e1e3aaf026f2f909eb63a001e27",
        "6-compare_summary.json":
            "222d0e8455b4c712a519ad0d77ea459c9a1c768d4792dfa64af446fab5714dc9",
        "7-asymptotics.csv":
            "d7efd9382d4c5c6f5bb66f32df19a5112f589ec5a9444a631117cde41178d0a8",
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
            "ebbe5278064092e4644f93a1caecc066747d50a7cae7464d4d39547226bffa55",
        "5-ldp.csv":
            "6c7e30890ee473b470974405762320302b77c993c19726ade990b4da00842c76",
        "6-compare.csv":
            "6d94b14a6bdd0ac576781a1e03c26c3aeb2ad87e3f4433e12ad5b58e733a3fe4",
        "6-compare_summary.json":
            "22c9bf33ed2987813f1dae7dd4bc28d8ef9b6a95431b91fc3ad0fa4c6b8bf15e",
        "7-asymptotics.csv":
            "47abe9e0706b4d9454046027a6dcb36a3efdba1c98284a3324ca6d41db0f26f2",
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
            "d0cbcd8535a12dabb73c8796dce3827cd2fa0ee2b0f5a6b81405bb7c9286699e",
        "5-ldp.csv":
            "b023a77b8d86b554ca5dc673e2735965bc6b87aa61c0db46c582d02cf4122605",
        "6-compare.csv":
            "0981527830c682da76c7296252fa95089e7a5efc8f1cc60e9043b6ee7c39556c",
        "6-compare_summary.json":
            "a38e34501ca03e10d4821d38f369da3622879a11e88419147cec774a085406ea",
        "7-asymptotics.csv":
            "a20dcd92692a71a2d2836106767a26635a0d96f23e0e08ee54be3383ada55aa2",
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
            "9197d6c6a512ea02c7fe7769d421e495d675f7b167100f4ac90976782a7213ba",
        "5-ldp.csv":
            "42aece9d3fc154b4d2b5e53bfcefd3abf9720bce346c6e6971f75358b5fce671",
        "6-compare.csv":
            "efd3bdea441de909832d10cfb2eab42041e2b021041086a20beb741fe8563464",
        "6-compare_summary.json":
            "dd03003e8cf9244b494c4166c206f2e2d5a33c663a827475cd9e4785bf5b849c",
        "7-asymptotics.csv":
            "b03389f77ebd05a6b3cd85c2a8bdbe1695a8a460238f361af584bbd231b83c0f",
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
