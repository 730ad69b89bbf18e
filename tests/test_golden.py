"""Golden digests: every gallery run's artifacts, byte for byte.

A change that alters any digest here changes simulated behaviour or the
artifact format; such a change must re-pin the digest and say why.
"""
import hashlib

import pytest

from bluehop import scenario_path
from bluehop.cli import main

ARTIFACTS = ("report.json", "trace.ndjson", "deliveries.csv")

# (scenario, seed) -> sha256 of ARTIFACTS, in that order.
GOLDEN = {
    ("churn25", 0): (
        "229157248c9c830743ff851d0f30ce4252d7fd3c32da2adc1f9b53c247806808",
        "9727897d1ae67f4006f6f24b24e788ff975a468f263cda1776feeb9e5b499dae",
        "01329f5980b91b02aed465bb1c751e79abb58b5698fb0ab3334547e6e7ebf729",
    ),
    ("churn25", 7): (
        "229157248c9c830743ff851d0f30ce4252d7fd3c32da2adc1f9b53c247806808",
        "e89a482a08ba8db1bcfbe7cb3f5afb49e73e4b597c48a2fc5b6f497f83860dfb",
        "01329f5980b91b02aed465bb1c751e79abb58b5698fb0ab3334547e6e7ebf729",
    ),
    ("diamond_failover", 0): (
        "4afbfed830fef0d6e8482ee998302a550fbe4823bb2028175050bbc0db9d1d01",
        "be2e21b942ada85c0ef8c283abcbc28543621a8c66b3d00f2d15739c7cc0345b",
        "5277dacb5d1b977bbec9302c45f71cd88014152bf4c8aa31e065b0f529a80c7e",
    ),
    ("diamond_failover", 7): (
        "4afbfed830fef0d6e8482ee998302a550fbe4823bb2028175050bbc0db9d1d01",
        "a9b275b6990ba4ca078461cf7730c741eb9e26e2f73495678e39a4a272253099",
        "5277dacb5d1b977bbec9302c45f71cd88014152bf4c8aa31e065b0f529a80c7e",
    ),
    ("figure4", 0): (
        "91706495cb3c721719eb77140c5c0d6fb507443b1ccaf19114452681b6c85142",
        "04c0530870b5395fe23daeb4316ea8427bbbef866a8dab8a73882665c0881400",
        "c4c845e054c88dc6efa43a2f2025373392b83a66e3ad701851d466566c97d80e",
    ),
    ("figure4", 7): (
        "91706495cb3c721719eb77140c5c0d6fb507443b1ccaf19114452681b6c85142",
        "df897218f218f8b3058b676afe369ab3dbec4838ec816e9cbd60550d99107988",
        "c4c845e054c88dc6efa43a2f2025373392b83a66e3ad701851d466566c97d80e",
    ),
    ("figure4_norelay", 0): (
        "abd07a85b2e55e83d58a5535b9be0af34f43d4d1e025c461fbdd8b2610f2eda0",
        "7c21690d1793413289b63330365d40953f6fe2fe6be9bcbc68ddd263f2152b26",
        "115771c08d48d1af16fc621415f0a32dc168eaedc5b9c94676fb2b0383ebba70",
    ),
    ("figure4_norelay", 7): (
        "abd07a85b2e55e83d58a5535b9be0af34f43d4d1e025c461fbdd8b2610f2eda0",
        "05c920e65e646bfe5c3546ec291b62cdaeb6a95ebafb06e006dce1f8c93a2da6",
        "115771c08d48d1af16fc621415f0a32dc168eaedc5b9c94676fb2b0383ebba70",
    ),
    ("line5", 0): (
        "50d8b93bd16d4da716f53b879cb2dff062944e7464049c97a717fde0f39d89a8",
        "6e28a1230426b9975e42e0b716a907e3d9dd3a105d8bd2916aa8db34f75499b4",
        "dd03ef740df9963541db841ef6cd60a9f7d5e5454a00fc2e17dead7c903c24b5",
    ),
    ("line5", 7): (
        "50d8b93bd16d4da716f53b879cb2dff062944e7464049c97a717fde0f39d89a8",
        "2c59f7887a11f6da15adbcd4491e636463de05f76658466398a24733f45186b2",
        "dd03ef740df9963541db841ef6cd60a9f7d5e5454a00fc2e17dead7c903c24b5",
    ),
}


@pytest.mark.parametrize("name,seed", sorted(GOLDEN))
def test_gallery_artifacts_match_pinned_digests(name, seed, tmp_path):
    out = tmp_path / "out"
    argv = ["run", scenario_path(f"{name}.json"), "--seed", str(seed), "--out", str(out)]
    assert main(argv) == 0
    digests = tuple(hashlib.sha256((out / f).read_bytes()).hexdigest() for f in ARTIFACTS)
    assert digests == GOLDEN[(name, seed)]
