"""Byte-identity of the exact ``--json`` reports on the conftest fixtures.

Each digest is the sha256 of the stdout of one ``dispatch([..., "--json"])``
call. Only exact commands are pinned: float output (moment-verify residuals,
float stability frames) depends on the BLAS build. To re-record after an
intended report change, run ``python tests/test_golden_reports.py`` from the
repository root with ``src`` on ``PYTHONPATH`` and paste its output into
``GOLDEN``.
"""

from __future__ import annotations

import json

import pytest

from quiverk3 import quiver_from_config, random_representation
from quiverk3.cli import rep_to_dict
from helpers import record_golden, report_digests

FIXTURES = ("elliptic_pair", "affine_a1", "affine_a1_22", "ogrady", "one_loop")

COMMANDS = (
    "quiver",
    "roots",
    "walls --side quiver",
    "walls --side ample",
    "walls --side both",
    "chambers",
    "character --pol H0",
    "character --pol H1",
    "correspondence",
    "strata",
    "cb-check",
    "summary",
    "stability",
)


def fixture_digests(cfg, tmp_dir) -> dict[str, str]:
    """sha256 of the --json stdout of every command in COMMANDS for cfg,
    with a polarization H1 = H0 + (1, ..., 1) and ``stability`` run on a
    seeded random representation."""
    n = cfg.mult
    rpath = tmp_dir / "rep.json"
    rep = random_representation(quiver_from_config(cfg), n, seed=7)
    rpath.write_text(json.dumps(rep_to_dict(rep)))
    theta = [-n[1], n[0]] + [0] * (cfg.s - 2) if cfg.s >= 2 else [0]
    stability = ["--rep", str(rpath), "--theta=" + ",".join(map(str, theta)), "--probes", "2"]
    return report_digests(cfg, tmp_dir, COMMANDS, {"H1": [d + 1 for d in cfg.h0deg]},
                          {"ell": 3, "seed": 1}, {"stability": stability})


GOLDEN = {
    "elliptic_pair": {
        "quiver": "690321d083246e04e77a760639f395873cf6d1647434b5e459d525f5fa44f7ed",
        "roots": "d8974c2b93f349be0f1c34c61ac1a82fafe13fe1816dfb46c77ab4745525ef2d",
        "walls --side quiver": "08e910ccf4ed52a5b103e2fc3a40b3480713ce61cb1d13b1d5328172b4b300fe",
        "walls --side ample": "a92bcae98eb61cd3cece58b4fc373d817c05f665ba971fa09669421ab26a1d89",
        "walls --side both": "b48b7cee962bf3ffa6950baee1740c77b320f49cf9c3c131e52fe1a6a27b9e69",
        "chambers": "6d39de6a9425eb30bf83597187a8395b8901ef571e47b37dcf43771740d227d7",
        "character --pol H0": "eaf0c8f8073d3429f1dafd7073111efe8b651ee20438888295bc1cf46fe36d08",
        "character --pol H1": "0157e659f57a721b143dcb426f14c0fc6dee303007532b593119fe3feb3a73cf",
        "correspondence": "0bb7fd3b5687c324c0b927dad452c4f5991fe25d14e6e406a4568fd177751b03",
        "strata": "7780874ec4373b8c4107ee2b3d10d7ffe4cbc3fc2f86b1d32c93273abcb18927",
        "cb-check": "bec07422fb3fbe50df0e8386402a2cafebc543eeca0ec4a8ef526da7f983e591",
        "summary": "aece354147842e690752725cf20810b7bcb7699ab8b2cc12c3a2d8451757f0fe",
        "stability": "e7e29d2071ed0f82225e4fccc9eb139fb5cfda9aef214a43832eb4d79190da20"
    },
    "affine_a1": {
        "quiver": "7612b81c5ce1db3c5de6945f16244bda977b3092198cf3121b0ac8f6abc3067c",
        "roots": "d8974c2b93f349be0f1c34c61ac1a82fafe13fe1816dfb46c77ab4745525ef2d",
        "walls --side quiver": "08e910ccf4ed52a5b103e2fc3a40b3480713ce61cb1d13b1d5328172b4b300fe",
        "walls --side ample": "a92bcae98eb61cd3cece58b4fc373d817c05f665ba971fa09669421ab26a1d89",
        "walls --side both": "b48b7cee962bf3ffa6950baee1740c77b320f49cf9c3c131e52fe1a6a27b9e69",
        "chambers": "6d39de6a9425eb30bf83597187a8395b8901ef571e47b37dcf43771740d227d7",
        "character --pol H0": "eaf0c8f8073d3429f1dafd7073111efe8b651ee20438888295bc1cf46fe36d08",
        "character --pol H1": "0157e659f57a721b143dcb426f14c0fc6dee303007532b593119fe3feb3a73cf",
        "correspondence": "0bb7fd3b5687c324c0b927dad452c4f5991fe25d14e6e406a4568fd177751b03",
        "strata": "0f9ae20960dcefdec250667ba975afe677735c7f9521e1abad473724d8a891ea",
        "cb-check": "bec07422fb3fbe50df0e8386402a2cafebc543eeca0ec4a8ef526da7f983e591",
        "summary": "199400d45208e101adfb40da2c9193538cb416b4eb0fc79d9b59feb7833f753a",
        "stability": "e7e29d2071ed0f82225e4fccc9eb139fb5cfda9aef214a43832eb4d79190da20"
    },
    "affine_a1_22": {
        "quiver": "7612b81c5ce1db3c5de6945f16244bda977b3092198cf3121b0ac8f6abc3067c",
        "roots": "5b39c896f83520e69c60e8028b9fb9dc5aed33b91883be062ec51b0442fa4f6a",
        "walls --side quiver": "8ca09dd1c33d63c6498d64a1cdc3192e041940f04a4ae825e7f23cb728596a2c",
        "walls --side ample": "b58eb37b0ccbcab9b8e880b9d152c93fed39605fb9adcd9a4dc313d68e985760",
        "walls --side both": "bd5cf6a74fcf01be9d3c0268e2928254ef8c1b3765b14d0ab47fa1cccc275cec",
        "chambers": "ddadd7588377624a886f1ccad90617925da3234957320aad73bbba63922d525e",
        "character --pol H0": "eaf0c8f8073d3429f1dafd7073111efe8b651ee20438888295bc1cf46fe36d08",
        "character --pol H1": "0157e659f57a721b143dcb426f14c0fc6dee303007532b593119fe3feb3a73cf",
        "correspondence": "0a6e4f2b06301dc73b1a516fd177d951d0728d03d8fde1ad10bc44889adf66d1",
        "strata": "277b095548d06de9865d89a3e89280714820bac0f2386b62d5b26f173df1b66b",
        "cb-check": "7fc1380e3e85135889e59545743afb9caf900299623c87a8836b819c8538d716",
        "summary": "5e36d0e3b9551d2876c6aac27c162139f951438a4d366ac723886424929e9ecb",
        "stability": "bb431cbd4330c717f458562a70a9224f201b97bcb1e98536785a147a90802646"
    },
    "ogrady": {
        "quiver": "1a327300a830b30ce2ba083ade8ff9c8907e91a556d7ef146b904e776e83b7b6",
        "roots": "2642c246aaf5bf9fe3a5390e8d9e666395e5507b7b85ed8a7445ccc58fd1d0ce",
        "walls --side quiver": "575649fee96ebdf6022bd5ce2d2eacb08e93725aaa24a8ee886740a3851acb05",
        "walls --side ample": "be03285f94075697c91d8fe12576f4cf684b35fb1adddd11855f4e7621a7f25e",
        "walls --side both": "b6b5d1502cc720e003a3de3c0b2acc4298cd990c9c470d25b0314c8ab01c35c5",
        "chambers": "62b2603838a81cd31ddef50b9a498a5ad6f0330eec2cf8554c3374c78a1b35b0",
        "character --pol H0": "8bfdb13ec9de91f14a8355119abd175e38de4093305f9b9530d29348aad1151f",
        "character --pol H1": "05ec3e68c00a2d1e89a382f245e0a7df70d9f627bfe5b39573b2f5ae94776637",
        "correspondence": "1e700f3943cc508b66d0a2c6e53a07380aa7eb510a5531f73c5aa0c232d8b9b6",
        "strata": "495a1905a0508cb2360c484f753348a76be332a4929bd793f86beaf5d920b5fd",
        "cb-check": "aa77d9be67ad2d8182643191c8ec2f08368c59534a5059d5cff481fba26e4166",
        "summary": "ce90290379fca0bc62abf6117e3d2a4674f8104c2b35b20f17ae05a79eb72264",
        "stability": "a06e5b2f065d1dee5d94f3437326d5192de40f5530a328ab06c7543853f6dcdd"
    },
    "one_loop": {
        "quiver": "a69e69afe9dba6c7174fb573a408b9868d1619131a45791ac5d91b32323b8634",
        "roots": "0e846e6c7b99f06561ea173af2272f5d7b79dc21e86607d20dc49ae14b04e4e3",
        "walls --side quiver": "575649fee96ebdf6022bd5ce2d2eacb08e93725aaa24a8ee886740a3851acb05",
        "walls --side ample": "be03285f94075697c91d8fe12576f4cf684b35fb1adddd11855f4e7621a7f25e",
        "walls --side both": "b6b5d1502cc720e003a3de3c0b2acc4298cd990c9c470d25b0314c8ab01c35c5",
        "chambers": "62b2603838a81cd31ddef50b9a498a5ad6f0330eec2cf8554c3374c78a1b35b0",
        "character --pol H0": "8bfdb13ec9de91f14a8355119abd175e38de4093305f9b9530d29348aad1151f",
        "character --pol H1": "05ec3e68c00a2d1e89a382f245e0a7df70d9f627bfe5b39573b2f5ae94776637",
        "correspondence": "1e700f3943cc508b66d0a2c6e53a07380aa7eb510a5531f73c5aa0c232d8b9b6",
        "strata": "da51eff2bcb4c2c2fee51897445579b646106f5a80bea6e20456e075131d8a58",
        "cb-check": "f4f1ba2ada213848d6061b6c5aff3cd7e5be599fb6ca68a24e561cdb39456521",
        "summary": "857833fd1c1e42c2155da922d47d9b7d321d06df2022da136ab7efe8595c57e1",
        "stability": "a06e5b2f065d1dee5d94f3437326d5192de40f5530a328ab06c7543853f6dcdd"
    }
}


@pytest.mark.parametrize("fixture", FIXTURES)
def test_exact_reports_are_byte_identical(fixture, request, tmp_path):
    cfg = request.getfixturevalue(fixture)
    assert fixture_digests(cfg, tmp_path) == GOLDEN[fixture]


if __name__ == "__main__":
    import conftest

    record_golden({name: getattr(conftest, name).__wrapped__() for name in FIXTURES},
                  fixture_digests)
