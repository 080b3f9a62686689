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
    ('check --problem bvp3-example', 0, {'report.json': 'caba20172fb6e8363199ab1d28059c8d0008ad4548a886f7a234fd80f320eb29'}),
    ('check --problem bvp3-example --kappa 0.45', 3, {'report.json': 'df256e50f5bb73a4b823c52f01d5cec9d5f87e30f6a537dd3e02459d1b1751ff'}),
    ('check --problem pendulum-Pa', 0, {'report.json': 'b8ac9e7793847fe083264d771fb786e87947177945b8f6a1ceb7d440d16a69e0'}),
    ('check --problem caputo-linear', 0, {'report.json': '299fd89ddfbe4fc280fcf704e22c73eb584362ead864d5f3bfd14e02d173dcf9'}),
    ('check --problem caputo-linear --lf 1e308', 3, {'report.json': '146cc307a90b57dc454583e407492de037559eb58704342328b24649b2ce110c'}),
    ('solve --problem bvp3-example --grid-n 256', 0, {'report.json': '34d11c7bce132016af5831dcf15297f3c77be06b6c9d5a477b09696b8b11644a', 'solution.csv': '433573726616e52b7956cebd843be41a67fdc086df20c684d5f5eda97f9906d7'}),
    ('solve --problem pendulum-Pa --grid-n 256', 0, {'report.json': '4c8a9f863ce5ce8c65138c602cbc0c2c78ceb292d509f7fb7ee94ffc3f61f7f7', 'solution.csv': '25d2827be875feee7294f2133cce23b954ee22c27674f4569a1c32583de01990'}),
    ('solve --problem caputo-constant --grid-n 256', 0, {'report.json': 'e3f2dc74d1cbc8414037921a204b01d14060ab344f23fb443cfd6dffffe74448', 'solution.csv': '78d42479f1af3b2a403b2559e4ee2da6767b4aa6435e81e6462c845cdc0a46ea'}),
    ('solve --problem caputo-linear --grid-n 256', 0, {'report.json': '2226fe2ddc56dd8e9ea42dea1ee11293cbd10cc842a3e69a36a4e53c351a02c9', 'solution.csv': 'd0cfef5d32efac493084f2cafe55f9fc83fc1b7e395dcc5ecf7891ba9573ebb1'}),
    ('solve --problem caputo-nonlocal --grid-n 256', 0, {'report.json': '899a5cbc49c80b1cc160438c1cf514a92781d7485596e3b94ca63cd84851aed1', 'solution.csv': '5b932ceecc690ef281967ba7ab83b5df0d17fb7dac85ca3df1a54892e9e0320c'}),
    ('solve --problem bvp3-example --grid-n 256 --scheme averaged', 0, {'report.json': '7b7c1a2fce0a5f671a2417004b418e4cf3a86bece578b6828b2e869f18be5734', 'solution.csv': 'a811b85d19b9a3a564dbbc2d657d459c1e8588f4bcc50cd894833a1807fb0749'}),
    ('solve --problem bvp3-example --grid-n 256 --scheme resolvent --tol 1e-4', 0, {'report.json': '19a408d3c018c8c78a03dde1c8aba8e9028e33ba04101d5a0443e1171181596d', 'solution.csv': '48b14901a80fe39c0dd4cf59b98f3622326274f7e56880f265dc53c0326af728'}),
    ('solve --problem bvp3-example --grid-n 256 --scheme resolvent', 0, {'report.json': '90097c10e4a66058817ae1a3018ab98d88c17bc4986bb358b7926d556139e7d5', 'solution.csv': '16c62899f7628eeb038dd828346cd8d19b01fa2ef6d208f31b1dd47e11c93a49'}),
    ('solve --problem caputo-linear --grid-n 256 --scheme averaged', 2, {'report.json': 'e7598bdfcaf0d861a442bfcae4ba58e9a01de314be587880bed62a878872180e'}),
    ('stability --problem pendulum-Pa --grid-n 256', 0, {'localization.csv': 'ec37d364c9d9e56470b0b7b19db7695982ee2862ab7f81127c372d42c152646e', 'report.json': '1441c496af5ecbc74189cfe5c263e16c9858993359e50798a4b4c2a9fa6b2c0f', 'table.csv': 'f2ba3027fe443c333b3a6b40814ef1f3c665e3ca3121f0cbc6ab56bb5e313be2'}),
    ('stability --problem caputo-linear --grid-n 256', 2, {'report.json': 'f24ede234afd2cc7cf60ae292d61763c177cad31f467e0b66f360e897fbebf68'}),
    ('oracle --problem bvp3-example --grid-n 256', 0, {'report.json': '9c6eb074075492ff5f3032eac57c36fea71e732c846b27ee16ae1bd142fb40f7'}),
    ('oracle --problem pendulum-Pa --grid-n 256', 0, {'report.json': 'aa733dcf828aef7da65e15ca09f46b27eb111998f126f377912425762cc8c9fb'}),
    ('oracle --problem caputo-constant --grid-n 256', 0, {'report.json': '5fdd869ec665513938dae828a684ca49ae8b6c47b5da6264bd63002d089d0c44'}),
    ('oracle --problem caputo-nonlocal --grid-n 256', 0, {'report.json': 'b9de768fb70faf8f3d103e73396eb150870b3fac7252672d8c65e9f357b12e2a'}),
    ('oracle --problem caputo-linear --grid-n 1024', 0, {'report.json': '09fbcdd7ca4a4f7fba19398266c0c3782670b320e6250ee2220837621dd3ed3b'}),
    ('check --problem bvp3-example --seed 7', 0, {'report.json': '64d799a9b9a6f7eade6809370cc63386c2d06768c0dc35ef387a19b9a676dbe8'}),
    ('solve --problem caputo-linear --grid-n 333', 0, {'report.json': '3fddb557b6f1bdcaf619cd7cd8757542c5fb51cd47fe26ee0681f2fdf6c0a467', 'solution.csv': 'e3d0e332115438bc840ba85cc228a05deab986895be4cd5a0784d57aa626bb8a'}),
    ('solve --problem nope', 2, {'report.json': '0c640e3bf405af9117f2035ae51b98e5d426b931489b457a283e4196b3f312cc'}),
]


@pytest.mark.parametrize("command, exit_code, digests", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_outputs_are_byte_identical(tmp_path, monkeypatch, command, exit_code, digests):
    monkeypatch.chdir(tmp_path)
    assert main([*command.split(), "--out", "out"]) == exit_code
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted((tmp_path / "out").iterdir())}
    assert written == digests
