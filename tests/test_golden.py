"""Golden outputs of the command line.

Each command runs through ``cli.main`` inside a fresh directory with the
relative ``--out out`` (``report.json`` embeds the output directory), and
the sha256 of every file it writes must match the recorded digest.  Any
refactoring of the problem classes must leave these bytes unchanged.
The digests also pin the bits of numpy's ufuncs, which depend on the numpy
version and the SIMD extensions it dispatches to: on AVX-512 hosts,
``np.exp``, ``np.log``, ``np.power`` and ``np.log1p`` differ from libm on
some inputs.
``GOLDEN`` holds the digests of numpy 2.4.6 with its AVX-512 kernels, and
``LIBM`` those of the commands whose bits differ where numpy's results are
libm's, as on a host without AVX-512 or under
``NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"``.  A process
checks each command against exactly one digest set, chosen by whether
``np.exp`` and ``np.log1p`` give libm's bits (:func:`numpy_is_libm`); a
failure names the numpy version and the SIMD extensions.

``PYTHONPATH=src python tests/test_golden.py [COMMAND ...]`` prints the
exit code and digests of each given command, or else of every recorded
one, as lines of ``GOLDEN``.
"""

import ast
import contextlib
import hashlib
import io
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import coincidia
from coincidia.cli import main

GOLDEN = [
    ('check --problem bvp3-example', 0, {'report.json': '1d6dfd23eb2528bd1f6c847ccd1af955f57df3dfd431b068d2e8ccfe5640bc84'}),
    ('check --problem bvp3-example --kappa 0.45', 3, {'report.json': '0650ebb7b299ee15f84ff14769861428a7264bbe0db9e1322774dd739ec6cce6'}),
    ('check --problem pendulum-Pa', 0, {'report.json': '19d5910848faedb748884bff691270046600d225544797521c74761bc5f5c74f'}),
    ('check --problem caputo-linear', 0, {'report.json': '5075caaff3105c905c5f97825c3c075f2142c92f2e55c80ee351000c11f534e1'}),
    ('check --problem caputo-linear --lf 1e308', 3, {'report.json': 'e821f87da8eed8db224852c112a435ee62919c0578c01da8544f7382fd1bb604'}),
    ('solve --problem bvp3-example --grid-n 256', 0, {'report.json': '8731a777e8334e47c1e8821ad4719b46c0efb5ff83c2c8fde68e60fa568c65af', 'solution.csv': 'd5547be5d2e886b305cdc94bff8da979c182819bc0befc424ed731b40ee4f63e'}),
    ('solve --problem pendulum-Pa --grid-n 256', 0, {'report.json': 'a3dc90107c18c0eb0df7e955bb8833154e17f9b4ef33f91cae67002e2fcadcc4', 'solution.csv': '25d2827be875feee7294f2133cce23b954ee22c27674f4569a1c32583de01990'}),
    ('solve --problem caputo-constant --grid-n 256', 0, {'report.json': 'f5569b98bd5b59ca4984949e232b52fdcc7693d2f83e4d6d245c7097fc602bdc', 'solution.csv': '78d42479f1af3b2a403b2559e4ee2da6767b4aa6435e81e6462c845cdc0a46ea'}),
    ('solve --problem caputo-linear --grid-n 256', 0, {'report.json': 'ffeeb965dabc7ff41cb3bdbeb5d98d4e73a2726578505e2c38035124d1dd5a8d', 'solution.csv': 'd0cfef5d32efac493084f2cafe55f9fc83fc1b7e395dcc5ecf7891ba9573ebb1'}),
    ('solve --problem caputo-nonlocal --grid-n 256', 0, {'report.json': '478c5cd181232da12faebab52e979dda98659a7768df07676fc2ebd54847b408', 'solution.csv': '5b932ceecc690ef281967ba7ab83b5df0d17fb7dac85ca3df1a54892e9e0320c'}),
    ('solve --problem bvp3-example --grid-n 256 --scheme averaged', 0, {'report.json': '46e6a1d44234c5f6408437be73b79639b3eb33c008055877163ebbb2ae49bb0d', 'solution.csv': '1b65cf768a85cd8ed48e8a98d3966c6c6b1181e892127fdef842d92f960013c2'}),
    ('solve --problem bvp3-example --grid-n 256 --scheme resolvent --tol 1e-4', 0, {'report.json': '7b1cc84d9e509d8545d2e41ef42613bab387cb032d41218650d5cab322320745', 'solution.csv': '8707f13cf21c45109f1a56a3fe6b956f1e60495fe8f840b507c83e9f4ca36481'}),
    ('solve --problem bvp3-example --grid-n 256 --scheme resolvent', 0, {'report.json': '7c4372441c9eb14c815b61924f51e77224a697f2efc497789f3297363c9a222c', 'solution.csv': 'fe1d84be68f282b5caa305d6ddd3fdc7358726bd99aee9172f38ef40bf7f9cb7'}),
    ('solve --problem caputo-linear --grid-n 256 --scheme averaged', 2, {'report.json': '2bdded383567cf7b153639d060bb4b619990880b8aa85b005dacba3ecd7ccdff'}),
    ('stability --problem pendulum-Pa --grid-n 256', 0, {'localization.csv': 'ec37d364c9d9e56470b0b7b19db7695982ee2862ab7f81127c372d42c152646e', 'report.json': 'c221b85b33a175451fe3421123f77150fc154cf40d7f32c7198dfb828468b6a5', 'table.csv': 'f2ba3027fe443c333b3a6b40814ef1f3c665e3ca3121f0cbc6ab56bb5e313be2'}),
    ('stability --problem caputo-linear --grid-n 256', 2, {'report.json': 'b9869f3b4f967609dac6edd73a673017e505b45a80f349587544cb280ec630e2'}),
    ('oracle --problem bvp3-example --grid-n 256', 0, {'report.json': 'b9880f6237d09abc907d5ce955c515f16e559a36d9331176c1dc6645fa97eb41'}),
    ('oracle --problem pendulum-Pa --grid-n 256', 0, {'report.json': '87d152af77d3b5130f3cd9de5b5919a15bb2dec5f90d1f4a48fe3659518abe30'}),
    ('oracle --problem caputo-constant --grid-n 256', 0, {'report.json': 'dcff0dba5d21bbfcddaca42817868c18b6bd54d165fe81f63f4a1c7a3cb264d7'}),
    ('oracle --problem caputo-nonlocal --grid-n 256', 0, {'report.json': 'd5108af75c84ae33d2dcf5e50be3d908fe99dea67cf684098685df76ef244d0c'}),
    ('oracle --problem caputo-linear --grid-n 1024', 0, {'report.json': '0cce6099b01da60806239030c9d72a876ef0e8a7fc0ffa3a97d27a4999c41f3d'}),
    ('oracle --problem caputo-linear --grid-n 4096', 0, {'report.json': 'e87420743612324480adbf727b3a1bf4057f24070c09360615e6e1e4594efda7'}),
    ('oracle --problem caputo-nonlocal --grid-n 4096', 0, {'report.json': 'c5751b5b3732fbed474d021f488f5e5c190a3e333295d435252421db163b4730'}),
    ('oracle --problem caputo-constant --grid-n 4096', 0, {'report.json': '0cec3857951abd2389a3dce13ce294bd0ce3b32f3505ac35d8e3e0bcc1c26402'}),
    ('oracle --problem bvp3-example --grid-n 256 --scheme averaged', 0, {'report.json': 'a3cb2333acd23e56b4d92a6133b018d312033ee59efce04ef4e7f1d4ebe38c57'}),
    ('oracle --problem bvp3-example --grid-n 256 --scheme resolvent --tol 1e-4', 0, {'report.json': '9f2d97e8967a85aafbba859910bbb4748937f6bfee390c5f03952a2928554699'}),
    ('oracle --problem bvp3-example --grid-n 64 --max-iter 3', 4, {'report.json': '5a700ed286d143523924490e2811bbc1b6abf235332019c3b0913a27197080df'}),
    ('oracle --problem pendulum-Pa --grid-n 16384', 0, {'report.json': '1e6c14ad64f674f54ea9980d46d24dbbbb0fed08ccb7fa9b0df49e54e82b6e86'}),
    ('solve --problem pendulum-Pa --grid-n 16384', 0, {'report.json': '9a2c5aebd021a9149c37efe1c44a92d2414826321e69dfd97dab4115ef2e6031', 'solution.csv': 'afaa62996323890dc82a34e44e3816af11c7fec8131354fca1646ea935512f04'}),
    ('check --problem bvp3-example --seed 7', 0, {'report.json': 'cee32c0faec03508b46c02046c84fe9363243b6b47fc615e92698cd2bff7f9b1'}),
    ('solve --problem caputo-linear --grid-n 333', 0, {'report.json': '9297e7f53f79193a2776f0bb42bc24bae464a70fdd199d4194eeef457b4a814a', 'solution.csv': 'e3d0e332115438bc840ba85cc228a05deab986895be4cd5a0784d57aa626bb8a'}),
    ('solve --problem nope', 2, {'report.json': 'a3798dad0d22c4acc9c4c0592c4799fdee4888046fde2a55287dd2994fc52990'}),
    ('solve --problem caputo-linear --lf 1e308 --grid-n 64', 3, {'report.json': '8a1498ea37fb8ed9e68655da10f20c34b265edcc8a8dc70438cb457e13490680'}),
    ('solve --problem caputo-constant --x0 1e15 --grid-n 64', 0, {'report.json': 'a8b5897de4dbaba160f015c959844172c1d64447339b7ee4e635290bf41435ee', 'solution.csv': '621a1f255eaa7213888cf56978ce31d823dd9cff6fe9df14a8fa44f31dbfcc3e'}),
]

# the digests of GOLDEN's commands whose bits move when numpy computes exp,
# log, power and log1p with libm's bits
LIBM = {
    'solve --problem bvp3-example --grid-n 256': (0, {'report.json': 'a4e96fdf2d83f40b044a43f57e811fa93355f2a162ae8c6d75b69385ad4749fb', 'solution.csv': '95f5ad19ebd05a560f6041869936e2fcae7b14a34a609acd2141d2fd3e4ffdb2'}),
    'solve --problem caputo-constant --grid-n 256': (0, {'report.json': 'f5569b98bd5b59ca4984949e232b52fdcc7693d2f83e4d6d245c7097fc602bdc', 'solution.csv': 'b6899e3e0e078dc50ab505d809a12d3eb459a0c3044e842680b51e981de822df'}),
    'solve --problem caputo-linear --grid-n 256': (0, {'report.json': 'baf1edd15cd5f24499a3eb4a7ddd555efa4fd7eb9873e9380209cbad948f0cf2', 'solution.csv': '9d82d47e5a310259fdc8ff937c7ebc1ce66f3171128ff2e073a0a936b5fee474'}),
    'solve --problem bvp3-example --grid-n 256 --scheme averaged': (0, {'report.json': 'dfa0476498aff8f7ac38d8466c4acc3b61ec3d289b3983b54ccc4599beb862f0', 'solution.csv': '95c32423618ccba2f5f300db69d0a93d8f2dcc955749cbd13d53f35d8d8209dc'}),
    'solve --problem bvp3-example --grid-n 256 --scheme resolvent --tol 1e-4': (0, {'report.json': '5a57cc463bb87b76e5bdbd71e6caf26910becc3114219ac6b31a5ad79115505f', 'solution.csv': '928d6cbab49539db0882d098b02b0cb73fa6a3dc7b54b967022883e401b221cc'}),
    'solve --problem bvp3-example --grid-n 256 --scheme resolvent': (0, {'report.json': '0d63cb7afc202e28c34f5eaafe0db1b3e73ce2546d256aeb455ba57a999036e3', 'solution.csv': '5b000fd7d4ef104b0e457b434a0e2d41bbc3edff016f64c088c7a63c0c3d9827'}),
    'oracle --problem caputo-linear --grid-n 1024': (0, {'report.json': '5a3761c2b6500f7f862bd1a765e175fea78d63a69308b87bb89f23b4a9c2b0da'}),
    'oracle --problem caputo-linear --grid-n 4096': (0, {'report.json': 'b8937ee24847eb8f8412cfefa24e8a7f66af4e58efb1f9da5278042331af7f9b'}),
    'solve --problem caputo-linear --grid-n 333': (0, {'report.json': '9b99a48070debbaf0c0f2d58f3dee4219c74dcf1571d6d7e08fcf80839de8b56', 'solution.csv': '91a934609c3490cbf37024061a4fdcedee8a6ea2be008ee3419fc258a4e88133'}),
    'oracle --problem bvp3-example --grid-n 256': (0, {'report.json': '3b1b66cc2a55e4093e7baf4690bb71a635c27798d9cc85d72531351e93ac9776'}),
    'oracle --problem bvp3-example --grid-n 256 --scheme averaged': (0, {'report.json': 'f3b2dec06830279343ec435ce27e18a0c62890d4868b15b56c75021a7c8d3b1b'}),
    'oracle --problem bvp3-example --grid-n 256 --scheme resolvent --tol 1e-4': (0, {'report.json': 'd229a067ad77ae5a0a9cd4f7a63c85e824f3474a2d46c1605bd9f56df31d8230'}),
    'oracle --problem bvp3-example --grid-n 64 --max-iter 3': (4, {'report.json': '77190c93f4071fc02fe397fe264bbdfed9c439e69feaa419c3e2e37bf7eac95f'}),
}


def numpy_is_libm() -> bool:
    """Whether ``np.exp`` gives ``math.exp``'s bits on 10001 points of
    [-5, 5], and ``np.log1p`` ``math.log1p``'s on 10001 points of [0, 5];
    numpy 2.4.6 with its AVX-512 kernels differs on 457 and 928 of them."""
    def same(ufunc, libm, x):
        expected = np.array([libm(v) for v in x.tolist()])
        return np.array_equal(ufunc(x).view(np.uint64), expected.view(np.uint64))
    return (same(np.exp, math.exp, np.linspace(-5.0, 5.0, 10001))
            and same(np.log1p, math.log1p, np.linspace(0.0, 5.0, 10001)))


# the one digest set this process checks each command against
_MOVED = LIBM if numpy_is_libm() else {}
EXPECTED = {command: _MOVED.get(command, (code, digests)) for command, code, digests in GOLDEN}


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


@pytest.mark.parametrize("command", list(EXPECTED))
def test_outputs_are_byte_identical(tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    assert _run(command) == EXPECTED[command], (
        f"the bits were recorded with numpy 2.4.6, with and without its AVX-512 kernels; "
        f"this runtime is\n{runtime()}")


def without_avx512_kernels(args, cwd):
    """The stdout of ``python args`` run in ``cwd``, in a child process with
    numpy's AVX-512 kernels switched off and ``src`` and ``tests`` on its
    path.  numpy refuses the variable at import when it names a baseline
    feature, and warns when it names a feature it does not dispatch; the
    child turns that warning into an error, and either refusal skips the
    calling test with numpy's message."""
    path = [str(Path(coincidia.__file__).parents[1]), str(Path(__file__).parent),
            os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR",
           "PYTHONPATH": os.pathsep.join(filter(None, path))}
    child = subprocess.run(
        [sys.executable, "-W", "error:During parsing environment variable:ImportWarning",
         *args], cwd=cwd, env=env, capture_output=True, text=True)
    if child.returncode and "NPY_DISABLE_CPU_FEATURES" in child.stderr:
        pytest.skip(f"numpy refuses the variable here: {child.stderr.strip().splitlines()[-1]}")
    assert child.returncode == 0, child.stderr
    return child.stdout


def test_without_avx512_kernels_the_libm_digests_hold(tmp_path):
    """Three of the LIBM commands, run by this file's ``__main__`` with
    numpy's AVX-512 kernels switched off."""
    commands = ['solve --problem caputo-constant --grid-n 256',
                'solve --problem bvp3-example --grid-n 256',
                'oracle --problem bvp3-example --grid-n 256 --scheme averaged']
    stdout = without_avx512_kernels([__file__, *commands], tmp_path)
    seen = [ast.literal_eval(line.strip().rstrip(",")) for line in stdout.splitlines()]
    assert seen == [(command, *LIBM[command]) for command in commands]


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
