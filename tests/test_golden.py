"""Golden digests: every gallery run's artifacts and three dumps, byte for byte.

The benchmark pools are pinned too: their runs exercise discovery storms
and scatternet churn, which the gallery files barely touch.

A change that alters any digest here changes simulated behaviour or the
artifact format; such a change must re-pin the digest and say why.
"""
import hashlib
import importlib.util
import json
from pathlib import Path

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


# dump argv after the scenario -> sha256 of the command's stdout.
DUMP_GOLDEN = {
    ("tables", "line5", "--at", "1.0"):
        "02d2e45064ccbe428812ccf268b6f4fe4d74b2efce0640b6002829d6ad3aceb3",
    ("topo", "churn25"):
        "935b86d0e51a58369ceec50a823466f5e749d6b005f4d294a7c49b171dc06250",
    ("tables", "churn25", "--at", "2.5"):
        "b997de8c84cd4d4b0b887f6eca78ebd2356c3de8fc87187e91821eeea1fa8449",
}


@pytest.mark.parametrize("argv", sorted(DUMP_GOLDEN))
def test_dumps_match_pinned_digests(argv, capsys):
    command, name, *rest = argv
    assert main([command, scenario_path(f"{name}.json"), *rest]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == DUMP_GOLDEN[argv]


def _load_workloads():
    """bench/workloads.py, imported without putting bench/ on sys.path."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# (workload, index in the seed-1 pool) -> sha256 of ARTIFACTS, in that order.
POOL_GOLDEN = {
    ("mobile_mesh", 0): (
        "af6d96173459a930cfcd543314a2742f1f621889079a2c9311563c341537ddd2",
        "d7239da661ddb7023e11dd62cafb15655a20925fc095f66fa81e97b8d27a89a5",
        "33dc3058694ceb9bca7404484bf5c8462b4a694051c93c1043c8e202ec5a6bc5",
    ),
    ("mobile_mesh", 1): (
        "001632ef756da5ab8b7ab0d5aec8dc2e3c0fa1884e58970ebfc81383e92df43b",
        "8241f6c57d3ff2e18cc3f255198b51c7240518d3197e160d56d611c0ea25f628",
        "d1b7ca10d2d64d7263d770a100972ab425e126143fe7289fa0541142621a6c9c",
    ),
    ("mobile_mesh", 2): (
        "3028c75ae3400ed675f07a9bd6425c5cfaa4aed5a5faccd3f71ee61cc1351d7c",
        "75ec8f639bde57c2d93dca6c66e5fd9886d20d5565f5c8740664e716f7461cd6",
        "23ef669e466877c8f042e4898ae4fac21a5b28992dc89ee8eaa8e6c97c4166c0",
    ),
    ("static_bulk", 0): (
        "73a0452e8c4b025cb60aaaff400d2c6181d5f8e179fc14e390aac0fed42526f1",
        "946882d34d1ec9a5d7683a684b29d0e79564f2082b09f7a95bb9434f41e758a0",
        "ecea84616c1ae552cc0f0a6bf545ef90b41cd0723470a22959c4d6077b3e9de1",
    ),
    ("static_bulk", 1): (
        "47d2b7ade36ba92d6f062af72291d36036270018ccc290682dca88ad65de7f52",
        "201643a4afa053d97fda49618226f7d674423acfb23b4d9dd7223939ffebc365",
        "f2c1bd6ea0af910d866b5969c0d758cd5878618978141e28480bfbbdb5dff774",
    ),
    ("static_bulk", 2): (
        "9c936b7e6f35db58d02e5ba797fe0ac7a0964130edfdaadb05e2e8286d10de2c",
        "caeef75d30ce6f2e74f82200a851b635ccd01345228c69a95018a2713796b0df",
        "351c8ecb4e0cf07478f9b5656eb754370c2fc2e0e79af806873ae009980f7b16",
    ),
    ("scatternet_churn", 0): (
        "9bdfcd968347ce91f9574007edbb0c92b8c24273f031b94e34ecf5daa24812c2",
        "788822caf2247fcb71d45607376bef139cda1f8933b461901022c366c7d7b382",
        "2f35d0fcb4529c1c8fd2ad2969e384a69c00fc389feb880f20e4d646567b6826",
    ),
    ("scatternet_churn", 1): (
        "4967ae814d37df94a90a3d591ea370257a1251f4678c22340d48a374f57e51d0",
        "4446c703de3aee99c07ae6bb0561325db575205cb495643462fb9480dd418b06",
        "b09d49f1a9e00551392f902c18646ea4383accb3e12b2cd7c83fb2200bf2099f",
    ),
    ("scatternet_churn", 2): (
        "459a3d66d091a59988006b10cf270b4d26454ac3c7bff535606b5791dcafa1e9",
        "9fb3113af692c72be145bf97fc8512938607e76f05bf0a3fb9abe73a546b3ff6",
        "d3d347e39c920898f16b0fe52ec63c93a046003851ee2a2883f3336b7343a881",
    ),
}


@pytest.fixture(scope="module")
def pools():
    workloads = _load_workloads()
    return {w: workloads.scenarios(w, 1) for w in sorted({w for w, _ in POOL_GOLDEN})}


@pytest.mark.parametrize("workload,index", sorted(POOL_GOLDEN))
def test_benchmark_pool_artifacts_match_pinned_digests(workload, index, pools, tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(pools[workload][index]))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 0
    digests = tuple(hashlib.sha256((out / f).read_bytes()).hexdigest() for f in ARTIFACTS)
    assert digests == POOL_GOLDEN[(workload, index)]
