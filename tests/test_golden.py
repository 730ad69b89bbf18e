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
        "f5d9023ba9d77b0c1c4c11bf02eba92e4e0cb55110ff9cd4d1b8fa314b44c9fd",
        "60564d0418c44e0679442be53a8ef15a6fe006a72eccf754b269a15d1f2be9fe",
        "0e3cfe3eb143b302fbb32e92b7666031cc141a7a05c1f7b681298275fb9149b7",
    ),
    ("churn25", 7): (
        "f5d9023ba9d77b0c1c4c11bf02eba92e4e0cb55110ff9cd4d1b8fa314b44c9fd",
        "d348b2cc90c5c57bbd21133ab176df773bef73bbcb169eccedb629f4ce1f6c3f",
        "0e3cfe3eb143b302fbb32e92b7666031cc141a7a05c1f7b681298275fb9149b7",
    ),
    ("diamond_failover", 0): (
        "4afbfed830fef0d6e8482ee998302a550fbe4823bb2028175050bbc0db9d1d01",
        "5e560caab24797178c1d9b486637d7a4917ae536fc3b76f2c7c217aebd11557f",
        "5277dacb5d1b977bbec9302c45f71cd88014152bf4c8aa31e065b0f529a80c7e",
    ),
    ("diamond_failover", 7): (
        "4afbfed830fef0d6e8482ee998302a550fbe4823bb2028175050bbc0db9d1d01",
        "e3f6f675335024f03f9edd021544e407bd64cfd3b6557fda9febe91ac2309504",
        "5277dacb5d1b977bbec9302c45f71cd88014152bf4c8aa31e065b0f529a80c7e",
    ),
    ("figure4", 0): (
        "91706495cb3c721719eb77140c5c0d6fb507443b1ccaf19114452681b6c85142",
        "dd3a98ed2f6665527fc1703a011dadac8049f8394f34f6cfffdd3a751f2047b6",
        "c4c845e054c88dc6efa43a2f2025373392b83a66e3ad701851d466566c97d80e",
    ),
    ("figure4", 7): (
        "91706495cb3c721719eb77140c5c0d6fb507443b1ccaf19114452681b6c85142",
        "7ab5db0e46ce3d4852da1e01e3dbd6d91529e3854c1d1c2dc6be2c762c19c341",
        "c4c845e054c88dc6efa43a2f2025373392b83a66e3ad701851d466566c97d80e",
    ),
    ("figure4_norelay", 0): (
        "f942eca9da374df70e24e61719fddde076d7734fa3e1f132b44636a95eb10906",
        "c769f0eaffbe2ad56c152c0b31bfd2b97e8f59f7e4c68f3c014f2760d28fe6ab",
        "cf59f3c1d5b5456003da304d7f4a1cf4dd968602a49d7117b934da88cdadea8a",
    ),
    ("figure4_norelay", 7): (
        "f942eca9da374df70e24e61719fddde076d7734fa3e1f132b44636a95eb10906",
        "c1efd0f27d4833a779d0d695d7111b9bda3d8e385429594f7702f18edc805d93",
        "cf59f3c1d5b5456003da304d7f4a1cf4dd968602a49d7117b934da88cdadea8a",
    ),
    ("line5", 0): (
        "50d8b93bd16d4da716f53b879cb2dff062944e7464049c97a717fde0f39d89a8",
        "c904ed9bef85f903c1a6879316ec4c6408d89a0136f7af8cecac463c1d5b682b",
        "dd03ef740df9963541db841ef6cd60a9f7d5e5454a00fc2e17dead7c903c24b5",
    ),
    ("line5", 7): (
        "50d8b93bd16d4da716f53b879cb2dff062944e7464049c97a717fde0f39d89a8",
        "0e5bbed46d52c61021959d559ef6b98dbbe5d233793cfe0b81b4b7ba28e19ebe",
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
        "8e85f8bdd767ec13e5d7522fc67e0b471e3b566a7efe68d5ea685c754f16b18f",
        "33dc3058694ceb9bca7404484bf5c8462b4a694051c93c1043c8e202ec5a6bc5",
    ),
    ("mobile_mesh", 1): (
        "001632ef756da5ab8b7ab0d5aec8dc2e3c0fa1884e58970ebfc81383e92df43b",
        "dde93296ff0cf4137381a22f8983433799601377b7c71ab91902af2cb1e84f90",
        "d1b7ca10d2d64d7263d770a100972ab425e126143fe7289fa0541142621a6c9c",
    ),
    ("mobile_mesh", 2): (
        "3028c75ae3400ed675f07a9bd6425c5cfaa4aed5a5faccd3f71ee61cc1351d7c",
        "f88991c0d1489d81f5127d7c488a0781ce36bbcf162a53dde919e4e3b316663b",
        "23ef669e466877c8f042e4898ae4fac21a5b28992dc89ee8eaa8e6c97c4166c0",
    ),
    ("static_bulk", 0): (
        "73a0452e8c4b025cb60aaaff400d2c6181d5f8e179fc14e390aac0fed42526f1",
        "68fa27d60ca2049b5320bfe76a7219045712f30ad7822fa220c5fd0273743c44",
        "ecea84616c1ae552cc0f0a6bf545ef90b41cd0723470a22959c4d6077b3e9de1",
    ),
    ("static_bulk", 1): (
        "47d2b7ade36ba92d6f062af72291d36036270018ccc290682dca88ad65de7f52",
        "f0446ca2d4008c075e46efdace2f82f083d8a1bf7c984558f5fde77690b8f993",
        "f2c1bd6ea0af910d866b5969c0d758cd5878618978141e28480bfbbdb5dff774",
    ),
    ("static_bulk", 2): (
        "9c936b7e6f35db58d02e5ba797fe0ac7a0964130edfdaadb05e2e8286d10de2c",
        "467839d05aa3ed9200b7a60acdcb4bf88f0e58800bbc34a58deacc08f7746638",
        "351c8ecb4e0cf07478f9b5656eb754370c2fc2e0e79af806873ae009980f7b16",
    ),
    ("scatternet_churn", 0): (
        "f2e7637240eb3f28035c99bec8714062849858b07fbd4b2bc291d64473dd34d5",
        "5fb7642d601189e9e50d140e5ff53f86ac2d53af0a3c368e3a2db3d6365b43e6",
        "831dbbc2c3bb18ef128fe4e2352c6570a2c32883a4bcf1f92415304dff9b9a68",
    ),
    ("scatternet_churn", 1): (
        "6297974f8e32b3a68bccf067cd38fa449710571f598faa93a8fd56862c8333ff",
        "f8ec3f12108f66551e9ce70656ce240dcdf4462801754055d626778e7a50b16a",
        "feb77ab7dce22704a17db44dba1e5bc62d1e19797db8edb7981388199a1a7134",
    ),
    ("scatternet_churn", 2): (
        "3f4b669f5af05418c72f8d9a3c8b957ade98cc9865acf4482d33d046270cc224",
        "d0c6db057541e399a543f1c5b30c8348e067ab3488f35329444c84c22bffbae5",
        "6b9e701e5390eb345c4d8f2e249897fe261e967b4c03191e97df03576acf5b9f",
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
