"""Golden outputs of the command line.

Each command runs through ``cli.main`` inside a fresh directory with the
relative ``--out out`` (``report.json`` embeds the output directory), and
the sha256 of every file it writes must match the recorded digest.  Any
refactoring of the problem classes must leave these bytes unchanged.
The digests also pin the bits of numpy's ufuncs, which depend on the numpy
version and the SIMD extensions it dispatches to (``np.exp`` and ``np.log``
differ from libm on some inputs on AVX-512 hosts), so a failure names both.

``PYTHONPATH=src python tests/test_golden.py [COMMAND ...]`` prints the
exit code and digests of each given command, or else of every recorded
one, as lines of ``GOLDEN``.
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from coincidia.cli import main

GOLDEN = [
    ('check --problem bvp3-example', 0, {'report.json': '1d6dfd23eb2528bd1f6c847ccd1af955f57df3dfd431b068d2e8ccfe5640bc84'}),
    ('check --problem bvp3-example --kappa 0.45', 3, {'report.json': '0650ebb7b299ee15f84ff14769861428a7264bbe0db9e1322774dd739ec6cce6'}),
    ('check --problem pendulum-Pa', 0, {'report.json': '19d5910848faedb748884bff691270046600d225544797521c74761bc5f5c74f'}),
    ('check --problem caputo-linear', 0, {'report.json': '5075caaff3105c905c5f97825c3c075f2142c92f2e55c80ee351000c11f534e1'}),
    ('check --problem caputo-linear --lf 1e308', 3, {'report.json': 'e821f87da8eed8db224852c112a435ee62919c0578c01da8544f7382fd1bb604'}),
    ('solve --problem bvp3-example --grid-n 256', 0, {'report.json': '3be13b1a3a130534c43fca86640950116f9afbd10a5a81a3c4069b0e5d874597', 'solution.csv': '433573726616e52b7956cebd843be41a67fdc086df20c684d5f5eda97f9906d7'}),
    ('solve --problem pendulum-Pa --grid-n 256', 0, {'report.json': 'a3dc90107c18c0eb0df7e955bb8833154e17f9b4ef33f91cae67002e2fcadcc4', 'solution.csv': '25d2827be875feee7294f2133cce23b954ee22c27674f4569a1c32583de01990'}),
    ('solve --problem caputo-constant --grid-n 256', 0, {'report.json': 'f5569b98bd5b59ca4984949e232b52fdcc7693d2f83e4d6d245c7097fc602bdc', 'solution.csv': '78d42479f1af3b2a403b2559e4ee2da6767b4aa6435e81e6462c845cdc0a46ea'}),
    ('solve --problem caputo-linear --grid-n 256', 0, {'report.json': 'ffeeb965dabc7ff41cb3bdbeb5d98d4e73a2726578505e2c38035124d1dd5a8d', 'solution.csv': 'd0cfef5d32efac493084f2cafe55f9fc83fc1b7e395dcc5ecf7891ba9573ebb1'}),
    ('solve --problem caputo-nonlocal --grid-n 256', 0, {'report.json': '478c5cd181232da12faebab52e979dda98659a7768df07676fc2ebd54847b408', 'solution.csv': '5b932ceecc690ef281967ba7ab83b5df0d17fb7dac85ca3df1a54892e9e0320c'}),
    ('solve --problem bvp3-example --grid-n 256 --scheme averaged', 0, {'report.json': '863e800acbf5410a3418f1fcf1d7d2213c84f69f933b81d3e2b07cfa621bad3b', 'solution.csv': 'a811b85d19b9a3a564dbbc2d657d459c1e8588f4bcc50cd894833a1807fb0749'}),
    ('solve --problem bvp3-example --grid-n 256 --scheme resolvent --tol 1e-4', 0, {'report.json': '5a57cc463bb87b76e5bdbd71e6caf26910becc3114219ac6b31a5ad79115505f', 'solution.csv': '48b14901a80fe39c0dd4cf59b98f3622326274f7e56880f265dc53c0326af728'}),
    ('solve --problem bvp3-example --grid-n 256 --scheme resolvent', 0, {'report.json': '2a69ed60a2de679dc293d4c0e606139af30a63b7520250fe4a13efa392d2e0c0', 'solution.csv': '16c62899f7628eeb038dd828346cd8d19b01fa2ef6d208f31b1dd47e11c93a49'}),
    ('solve --problem caputo-linear --grid-n 256 --scheme averaged', 2, {'report.json': '2bdded383567cf7b153639d060bb4b619990880b8aa85b005dacba3ecd7ccdff'}),
    ('stability --problem pendulum-Pa --grid-n 256', 0, {'localization.csv': 'ec37d364c9d9e56470b0b7b19db7695982ee2862ab7f81127c372d42c152646e', 'report.json': 'c221b85b33a175451fe3421123f77150fc154cf40d7f32c7198dfb828468b6a5', 'table.csv': 'f2ba3027fe443c333b3a6b40814ef1f3c665e3ca3121f0cbc6ab56bb5e313be2'}),
    ('stability --problem caputo-linear --grid-n 256', 2, {'report.json': 'b9869f3b4f967609dac6edd73a673017e505b45a80f349587544cb280ec630e2'}),
    ('oracle --problem bvp3-example --grid-n 256', 0, {'report.json': '3b1b66cc2a55e4093e7baf4690bb71a635c27798d9cc85d72531351e93ac9776'}),
    ('oracle --problem pendulum-Pa --grid-n 256', 0, {'report.json': '87d152af77d3b5130f3cd9de5b5919a15bb2dec5f90d1f4a48fe3659518abe30'}),
    ('oracle --problem caputo-constant --grid-n 256', 0, {'report.json': 'dcff0dba5d21bbfcddaca42817868c18b6bd54d165fe81f63f4a1c7a3cb264d7'}),
    ('oracle --problem caputo-nonlocal --grid-n 256', 0, {'report.json': 'd5108af75c84ae33d2dcf5e50be3d908fe99dea67cf684098685df76ef244d0c'}),
    ('oracle --problem caputo-linear --grid-n 1024', 0, {'report.json': '0cce6099b01da60806239030c9d72a876ef0e8a7fc0ffa3a97d27a4999c41f3d'}),
    ('oracle --problem caputo-linear --grid-n 4096', 0, {'report.json': 'e87420743612324480adbf727b3a1bf4057f24070c09360615e6e1e4594efda7'}),
    ('oracle --problem caputo-nonlocal --grid-n 4096', 0, {'report.json': 'c5751b5b3732fbed474d021f488f5e5c190a3e333295d435252421db163b4730'}),
    ('oracle --problem caputo-constant --grid-n 4096', 0, {'report.json': '0cec3857951abd2389a3dce13ce294bd0ce3b32f3505ac35d8e3e0bcc1c26402'}),
    ('oracle --problem bvp3-example --grid-n 256 --scheme averaged', 0, {'report.json': 'f3b2dec06830279343ec435ce27e18a0c62890d4868b15b56c75021a7c8d3b1b'}),
    ('oracle --problem bvp3-example --grid-n 256 --scheme resolvent --tol 1e-4', 0, {'report.json': 'd229a067ad77ae5a0a9cd4f7a63c85e824f3474a2d46c1605bd9f56df31d8230'}),
    ('oracle --problem bvp3-example --grid-n 64 --max-iter 3', 4, {'report.json': '77190c93f4071fc02fe397fe264bbdfed9c439e69feaa419c3e2e37bf7eac95f'}),
    ('oracle --problem pendulum-Pa --grid-n 16384', 0, {'report.json': '1e6c14ad64f674f54ea9980d46d24dbbbb0fed08ccb7fa9b0df49e54e82b6e86'}),
    ('solve --problem pendulum-Pa --grid-n 16384', 0, {'report.json': '9a2c5aebd021a9149c37efe1c44a92d2414826321e69dfd97dab4115ef2e6031', 'solution.csv': 'afaa62996323890dc82a34e44e3816af11c7fec8131354fca1646ea935512f04'}),
    ('check --problem bvp3-example --seed 7', 0, {'report.json': 'cee32c0faec03508b46c02046c84fe9363243b6b47fc615e92698cd2bff7f9b1'}),
    ('solve --problem caputo-linear --grid-n 333', 0, {'report.json': '9297e7f53f79193a2776f0bb42bc24bae464a70fdd199d4194eeef457b4a814a', 'solution.csv': 'e3d0e332115438bc840ba85cc228a05deab986895be4cd5a0784d57aa626bb8a'}),
    ('solve --problem nope', 2, {'report.json': 'a3798dad0d22c4acc9c4c0592c4799fdee4888046fde2a55287dd2994fc52990'}),
    ('solve --problem caputo-linear --lf 1e308 --grid-n 64', 3, {'report.json': '8a1498ea37fb8ed9e68655da10f20c34b265edcc8a8dc70438cb457e13490680'}),
    ('solve --problem caputo-constant --x0 1e15 --grid-n 64', 0, {'report.json': 'a8b5897de4dbaba160f015c959844172c1d64447339b7ee4e635290bf41435ee', 'solution.csv': '621a1f255eaa7213888cf56978ce31d823dd9cff6fe9df14a8fa44f31dbfcc3e'}),
]


def _run(command):
    """Exit code of ``command`` run with ``--out out`` in the working
    directory, and the digest of each file it writes."""
    code = main([*command.split(), "--out", "out"])
    return code, {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                  for p in sorted(Path("out").iterdir())}


def runtime() -> str:
    """What ``np.show_runtime()`` prints: the numpy version and the SIMD
    extensions found and not found on this host."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        np.show_runtime()
    return out.getvalue()


@pytest.mark.parametrize("command, exit_code, digests", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_outputs_are_byte_identical(tmp_path, monkeypatch, command, exit_code, digests):
    monkeypatch.chdir(tmp_path)
    assert _run(command) == (exit_code, digests), (
        f"the bits were recorded with numpy 2.4.6 on an AVX-512 host; this runtime is\n{runtime()}")


def test_the_runtime_names_the_numpy_version_and_simd_extensions():
    text = runtime()
    assert f"'numpy_version': '{np.__version__}'" in text
    assert "'simd_extensions'" in text and "'found'" in text


if __name__ == "__main__":
    home = os.getcwd()
    for command in sys.argv[1:] or [g[0] for g in GOLDEN]:
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            try:
                print(f"    {(command, *_run(command))!r},")
            finally:
                os.chdir(home)
