"""Golden outputs of the command line.

Each command runs through ``cli.main`` inside a fresh directory with the
relative ``--out out`` (``report.json`` embeds the output directory), and
the sha256 of every file it writes must match the recorded digest.  Any
refactoring of the problem classes must leave these bytes unchanged.
"""

import hashlib

import pytest

from coincidia.cli import main

GOLDEN = [
    ('check --problem bvp3-example', 0, {'report.json': '0944340c64581c878f628fac30fc7b71841d29c7d7f2e01e48a31cbbb4ada3b4'}),
    ('check --problem bvp3-example --kappa 0.45', 3, {'report.json': '9bee038e85130e1e9408c8605bcb8aa00f3fed65324c6fe4605a9606b56ecbd8'}),
    ('check --problem pendulum-Pa', 0, {'report.json': '8279ce9684a873c4261025e7abeb28fd9f03d19fe2182fad16bd8e468167ad8f'}),
    ('check --problem caputo-linear', 0, {'report.json': 'd99f8720b1a594fc36bbfd936ccf4191f037eb26b1b01365da4c7e779a3a344f'}),
    ('check --problem caputo-linear --lf 1e308', 3, {'report.json': '1ea6732a2704693dd856eed0caec74e750ea24483acf640a43033400f22bec30'}),
    ('solve --problem bvp3-example --grid-n 256', 0, {'report.json': '72e38dbd476642b3771b3997a559ec1330f05d1c928131126e1139f0dea567df', 'solution.csv': '433573726616e52b7956cebd843be41a67fdc086df20c684d5f5eda97f9906d7'}),
    ('solve --problem pendulum-Pa --grid-n 256', 0, {'report.json': '8808aa73a431dd18d0185e8aaa27220e449cee1f66edaf1e79f13dac31186515', 'solution.csv': '25d2827be875feee7294f2133cce23b954ee22c27674f4569a1c32583de01990'}),
    ('solve --problem caputo-constant --grid-n 256', 0, {'report.json': '452eb135ff4ee52b06f5a53ccb92de27ac079a0261326bd526a00edba8cdd93e', 'solution.csv': '78d42479f1af3b2a403b2559e4ee2da6767b4aa6435e81e6462c845cdc0a46ea'}),
    ('solve --problem caputo-linear --grid-n 256', 0, {'report.json': 'caa35cff84088e4fc2c74b95790553b592ddf5aa62f0942e8601db2b1c435491', 'solution.csv': 'd0cfef5d32efac493084f2cafe55f9fc83fc1b7e395dcc5ecf7891ba9573ebb1'}),
    ('solve --problem caputo-nonlocal --grid-n 256', 0, {'report.json': 'cd61a4056c75bac4324523c3f96117c30d2551cabcf66031477a9ee3c7c18ccf', 'solution.csv': '5b932ceecc690ef281967ba7ab83b5df0d17fb7dac85ca3df1a54892e9e0320c'}),
    ('solve --problem bvp3-example --grid-n 256 --scheme averaged', 0, {'report.json': 'd1e79f7e3dd976adb51618edb6c4962902af3d5e5c96f79d614ebd4de6dbce2a', 'solution.csv': 'a811b85d19b9a3a564dbbc2d657d459c1e8588f4bcc50cd894833a1807fb0749'}),
    ('solve --problem bvp3-example --grid-n 256 --scheme resolvent --tol 1e-4', 0, {'report.json': 'd9e2e9665ef0b8171ddf278829812c1e31bcd9045b8a544c416579c180607c47', 'solution.csv': '48b14901a80fe39c0dd4cf59b98f3622326274f7e56880f265dc53c0326af728'}),
    ('solve --problem bvp3-example --grid-n 256 --scheme resolvent', 0, {'report.json': '52b16ea5ac34bb34f978db8bc680e302a6abbc7f1777763019aeea6143cd4dab', 'solution.csv': '16c62899f7628eeb038dd828346cd8d19b01fa2ef6d208f31b1dd47e11c93a49'}),
    ('solve --problem caputo-linear --grid-n 256 --scheme averaged', 2, {'report.json': 'cd8b2677986a63e87d294a0b33f85408b96737eac600c43f103650a258f7fd6f'}),
    ('stability --problem pendulum-Pa --grid-n 256', 0, {'localization.csv': 'ec37d364c9d9e56470b0b7b19db7695982ee2862ab7f81127c372d42c152646e', 'report.json': '446951741c2c22eaf3e10ced37cf37e539192ba4f084a3cfede38e5e7bd9d869', 'table.csv': 'f2ba3027fe443c333b3a6b40814ef1f3c665e3ca3121f0cbc6ab56bb5e313be2'}),
    ('stability --problem caputo-linear --grid-n 256', 2, {'report.json': '25a922f33fb9c3859ceaa7dd61201dfc99a207caddb47ab097f49c48f88851ad'}),
    ('oracle --problem bvp3-example --grid-n 256', 0, {'report.json': '28cce79dee61752debf6df3cf07754562882da5f414bee86597624ae2038c2ff'}),
    ('oracle --problem pendulum-Pa --grid-n 256', 0, {'report.json': '8b9d657c6573da164a78dee80c0926487f643d9f369f3ff91b8252d2abe69194'}),
    ('oracle --problem caputo-constant --grid-n 256', 0, {'report.json': 'dc79ee20ed78934283d7fe08eeb98319e3195460be59760b2cd54ef45e2ae6b5'}),
    ('oracle --problem caputo-nonlocal --grid-n 256', 0, {'report.json': '6c991d202d0f5733e2d519e3b78a6691ee748f5cc4f807112ce6ef1de89efa31'}),
    ('oracle --problem caputo-linear --grid-n 1024', 0, {'report.json': '40191b21bd3b731378954982945efb1563836ae0265d85edfd6cf0e2685e2f86'}),
    ('check --problem bvp3-example --seed 7', 0, {'report.json': 'f2b84f9c616006da271b0d9d2b99b6ddbdc053d7c9b58238b1dfeb72e745838a'}),
    ('solve --problem caputo-linear --grid-n 333', 0, {'report.json': '22c1ce49b1fa7995aaf06f20f40edf0194a97fbc4739120d64f78c23391870a3', 'solution.csv': 'e3d0e332115438bc840ba85cc228a05deab986895be4cd5a0784d57aa626bb8a'}),
    ('solve --problem nope', 2, {'report.json': 'f37cdd94b2cbc83052b09e9d6462fd0eb79a936bbcfda25eaa719fcad400fc88'}),
]


@pytest.mark.parametrize("command, exit_code, digests", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_outputs_are_byte_identical(tmp_path, monkeypatch, command, exit_code, digests):
    monkeypatch.chdir(tmp_path)
    assert main([*command.split(), "--out", "out"]) == exit_code
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted((tmp_path / "out").iterdir())}
    assert written == digests
