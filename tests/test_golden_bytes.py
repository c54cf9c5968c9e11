"""Byte gate on the CLI: each command of a fixed corpus prints the
stdout (``GOLDEN``, by its sha256) and stderr (``STDERR``, empty where
not listed), and exits with the code, recorded below; and equivalent
argv print equal bytes.

``numerics`` is left out: its ``max_residual`` digits depend on the
LAPACK build.  ``crosscheck`` draws its points from
``random.Random(seed)``, so its entries also pin CPython's
``randint`` stream.  Every command runs, with the same bytes, where
numpy cannot be imported.  After a change that means to alter the
output, regenerate the table with ``python tests/test_golden_bytes.py``
(``PYTHONPATH=src``) and say why in the change log.
"""

import contextlib
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from flagsheaf.cli import main

CORPUS = [
    "pipeline certificate --n 2",
    "pipeline certificate --n 2 --lambda 1/2",
    "pipeline certificate --n 2 --lambda 3 --format pretty",
    "pipeline certificate --n 2 --lambda 3 --format csv",
    "pipeline certificate --n 3",
    "pipeline certificate --n 3 --lambda 3/2",
    "pipeline certificate --n 3 --lambda 5/2",
    "pipeline certificate --n 3 --lambda 3/2 --d-grid 5,0,1/2,0",
    "pipeline certificate --n 4 --lambda 1",
    "pipeline certificate --n 4 --lambda 5/2",
    "pipeline certificate --n 5 --lambda 3",
    "pipeline certificate --n 4 --lambda 3/2 --degree-window -12:20"
    " --action-window -4:5/2 --d-grid 0",
    "pipeline pair --n 3 --lambda 3/2 --d 1/2",
    "pipeline pair --n 3 --lambda 3/2 --d 1/2 --side-b clifford_torus",
    "pipeline pair --n 3 --lambda 3/2 --d 1/2 --side-b real_projective"
    " --char2",
    "pipeline pair --n 3 --lambda 3/2 --d 1/2 --side-a clifford_torus"
    " --side-b clifford_torus",
    "pipeline pair --n 3 --lambda 3/2 --d 1/2 --side-a clifford_torus"
    " --side-b real_projective --char2",
    "pipeline pair --n 3 --lambda 3/2 --d 1/2 --side-a real_projective"
    " --side-b real_projective --char2",
    "pipeline pair --n 4 --lambda 5/2 --d 1 --side-b clifford_torus"
    " --format csv",
    "pipeline hom --n 2 --lambda 1 --d 1/2",
    "pipeline hom --n 3 --lambda 3/2 --i 1,2 --d 1",
    "pipeline hom --n 4 --lambda 5/2 --i 2 --d 2",
    "pipeline hom --n 4 --lambda 3/2 --i 1,3 --d 1",
    "pipeline hom --n 4 --lambda 3/2 --i 1,3 --d 1 --format pretty",
    "pipeline hom --n 4 --lambda 3/2 --i 1,3 --d 1 --format csv",
    "pipeline hom --n 5 --lambda 7/3 --i 2,4 --d 1/2",
    "pipeline hom --n 5 --lambda 7/3 --i 2,4 --d 1/2 --format pretty",
    "pipeline hom --n 5 --lambda 7/3 --i 2,4 --d 1/2 --format csv",
    "pipeline spectrum --n 2 --lambda 1",
    "pipeline spectrum --n 3 --lambda 3/2 --i 1",
    "pipeline spectrum --n 4 --lambda 5/2 --i 1,3",
    "flags betti --n 4",
    "flags gtable --n 4",
    "flags verify --n 4",
    "sheaf stalk --n 2 --point -5/2",
    "sheaf stalk --n 3 --z 1 --point -1/2,-4/3",
    "sheaf sections --n 3 --point -1/2,-1/2 --window -3:0",
    "sheaf sections --n 2 --u-kind uminus --point -1 --window -2:0",
    "sheaf delta --n 3 --i 1,2 --m 0,0",
    "sheaf delta --n 3 --z 1 --m -3,-3 --i 1",
    "pipeline crosscheck --n 2 --z all",
    "pipeline crosscheck --n 3 --z all",
    "pipeline crosscheck --n 4 --z all",
    "pipeline crosscheck --n 3 --z 2 --samples 25 --seed 9 --window -3:0"
    " --format pretty",
    # exit 1: a negative d; exit 3: a window short of the required box
    "pipeline certificate --n 3 --d-grid -1,0",
    "sheaf stalk --n 2 --point -5/2 --window -1:0",
    # exit 1: no point of the open chamber needs only the box at 0
    "pipeline crosscheck --n 3 --window 0:0",
]

# '<exit code> <sha256 of stdout>'; regenerate as the module docstring says
GOLDEN = {
    'pipeline certificate --n 2':
        '0 d07febfbfebf436b5aeb3380af445e552a4f7ba4e5eed031799477ec688e7c0d',
    'pipeline certificate --n 2 --lambda 1/2':
        '0 1da6064e686b20e13d38b4ed7fd9f8e683dcb52f01f7434c758b78f4f3733417',
    'pipeline certificate --n 2 --lambda 3 --format pretty':
        '0 192b9e4e1cc27411b13b4500ed265ce1a42bafcfc7175a8b159dc3f187a7c954',
    'pipeline certificate --n 2 --lambda 3 --format csv':
        '0 11d68fe76795c86585f666c1139ce79f2339120be7b76ce1f3bc4e6003c1937c',
    'pipeline certificate --n 3':
        '0 b3870650f1412039ba3184b66a88ffeb1f03246f697c23f9f310558c8cc7357c',
    'pipeline certificate --n 3 --lambda 3/2':
        '0 4c28348f9f42199e1e882c4bfb44cd504213ecd24048da493ac987063e104327',
    'pipeline certificate --n 3 --lambda 5/2':
        '0 722f7d2f0eb0784fa99028bcdfcc6d1d6fd250defd98fe84c5c14856b60336f2',
    'pipeline certificate --n 3 --lambda 3/2 --d-grid 5,0,1/2,0':
        '0 ba76cca07ab02eaccf0dd0c2bd5903551e4cb955ae646cf599c0c71fc17c49ff',
    'pipeline certificate --n 4 --lambda 1':
        '0 693ebd12b6b3d75a7bbc27290601497de5775f7d9fdc35f40875f85f5b40be21',
    'pipeline certificate --n 4 --lambda 5/2':
        '0 5ff2fe170afe13050794915346042e4b48dcb90d14e5754af9cdf694740ae3be',
    'pipeline certificate --n 5 --lambda 3':
        '0 44b0233259be0b8fdb73b566bcf4c5785b5bb6386cc8a1296793ea08e41a362c',
    'pipeline certificate --n 4 --lambda 3/2 --degree-window -12:20 --action-window -4:5/2 --d-grid 0':
        '0 de34d9bcf500ec9fb301812f3dd3d85db7ab1ef999bf5822dae7e7b1364a06e1',
    'pipeline pair --n 3 --lambda 3/2 --d 1/2':
        '0 b7540e83c4bfab096f058542e9e72cb0c837c19107da27cdb421a9dee9abc74d',
    'pipeline pair --n 3 --lambda 3/2 --d 1/2 --side-b clifford_torus':
        '0 ebbea0a24fa279fe7818378f5df8355573e7a6b1488ff372e2117e9420a9eb85',
    'pipeline pair --n 3 --lambda 3/2 --d 1/2 --side-b real_projective --char2':
        '0 4740b548a03d730b9bc84984fc319136f545443e2f210cdb4acf7553c39af74f',
    'pipeline pair --n 3 --lambda 3/2 --d 1/2 --side-a clifford_torus --side-b clifford_torus':
        '0 8a3b904be1cf0d4850bdd58ac414da8bd91c4f827ab8de7451a64f6fd8cb825c',
    'pipeline pair --n 3 --lambda 3/2 --d 1/2 --side-a clifford_torus --side-b real_projective --char2':
        '0 351cb4380db95e27813b4af6e5140eb1d679516e3535504dc36c00eba367974f',
    'pipeline pair --n 3 --lambda 3/2 --d 1/2 --side-a real_projective --side-b real_projective --char2':
        '0 512c8cee3c9d21da2f061fb1245d64006cc31d6f86bdc6d0f879991262129466',
    'pipeline pair --n 4 --lambda 5/2 --d 1 --side-b clifford_torus --format csv':
        '0 4903e1c4dd9d8ff2af35076fc31b9afbf1fb7c4379fb5e82782aa1fcac5d850b',
    'pipeline hom --n 2 --lambda 1 --d 1/2':
        '0 779d8604abe1672d6c5ba7b2a8c07240cda4faaad57eb6312fd739e5f4f3b85a',
    'pipeline hom --n 3 --lambda 3/2 --i 1,2 --d 1':
        '0 8e17a8e5c802fa92f268ebac78d4b22e0e135357b1fc7fa947aacbec98c678f4',
    'pipeline hom --n 4 --lambda 5/2 --i 2 --d 2':
        '0 fa1347f5559df7326fffe9b7f95e863177a41ed224e8e16c810a810ecc32edd1',
    'pipeline hom --n 4 --lambda 3/2 --i 1,3 --d 1':
        '0 fb4d4a35934799d82e5eda2e20333e45559921ce127882f033eaeeca844d6c4b',
    'pipeline hom --n 4 --lambda 3/2 --i 1,3 --d 1 --format pretty':
        '0 85ad17eba01db228f845796d4f2d654530aeb34ba7a143a29c92bbfb0ccd3c05',
    'pipeline hom --n 4 --lambda 3/2 --i 1,3 --d 1 --format csv':
        '0 2be691001125cdc34edde37831f1e87b93c19bda3ea19d2881a7144ecb38d066',
    'pipeline hom --n 5 --lambda 7/3 --i 2,4 --d 1/2':
        '0 a3dec070728c101ab7277a174c205a396711e7ff046afc77cc335e4ff792a088',
    'pipeline hom --n 5 --lambda 7/3 --i 2,4 --d 1/2 --format pretty':
        '0 36a933a9094ad65fad4ee041492dc3354f4c9a65eefc469b7986e81c49bd31aa',
    'pipeline hom --n 5 --lambda 7/3 --i 2,4 --d 1/2 --format csv':
        '0 27abf0a59b84ed3ba05d550807c19e6738c206e4ba086e342756eec8acf2094b',
    'pipeline spectrum --n 2 --lambda 1':
        '0 5c4a2cffa33d02484385ca0b5d061b685c79aa7dd184abe5e52ece4adfe3076a',
    'pipeline spectrum --n 3 --lambda 3/2 --i 1':
        '0 0e425573884add183d1511d3120d3b66e4cc5aed5e8cfd5a73dcd292abb0c686',
    'pipeline spectrum --n 4 --lambda 5/2 --i 1,3':
        '0 1d68da17497c6a01c27533f1398a92280587383fdefeaaac62d88cef090b4623',
    'flags betti --n 4':
        '0 1f5ab8cfda5e0937efb24a0cf6d8f46d1b0a11390e4148dd85a3663b825f5d79',
    'flags gtable --n 4':
        '0 76a0c8dab060616e7e3d222f731623eeff4cdc031220c0bfdd2e53555568949d',
    'flags verify --n 4':
        '0 eac3e0fc22083bc6f745a3ad985575c6997e94a0e89af4c90e8080d9bef1a724',
    'sheaf stalk --n 2 --point -5/2':
        '0 4be931cf0162f0e0f357b95cc18b4b267e52aabf8ab8a61e2b9b32e453bd8865',
    'sheaf stalk --n 3 --z 1 --point -1/2,-4/3':
        '0 36a2bea68e423ed77361e38c06c9a7222ef0780d868b13eadcd75a9646170039',
    'sheaf sections --n 3 --point -1/2,-1/2 --window -3:0':
        '0 33c0e56a8901dbd227af20ef88768c9e0ede3736b94425c39990567b4c778a1b',
    'sheaf sections --n 2 --u-kind uminus --point -1 --window -2:0':
        '0 0f2fb30a75a4aa0cf58d15e5b53c59279a9c6945b21f7647d733b2f2237667cb',
    'sheaf delta --n 3 --i 1,2 --m 0,0':
        '0 c0d60a18a39af8d19678046207f15e5be2abb42f3397855d4c0794cf9b6298f0',
    'sheaf delta --n 3 --z 1 --m -3,-3 --i 1':
        '0 1e75e2e7b751b14d1040e16ff5590db35fb0c7a6dfb8760544745081afb9e1ec',
    'pipeline crosscheck --n 2 --z all':
        '0 ff26caaf00af272effbde7df98928c54e23a69634693dcf9816f369207dfcae0',
    'pipeline crosscheck --n 3 --z all':
        '0 2d42862a2d3787e2ca72ffb692868ef4214faeba9c167a6fbbdac59ad1d3e924',
    'pipeline crosscheck --n 4 --z all':
        '0 b845a8ad92a99d5270e88e08c7b5b0be42fda8ba85057e9f2c0dc529a5b962d0',
    'pipeline crosscheck --n 3 --z 2 --samples 25 --seed 9 --window -3:0 --format pretty':
        '0 3b009fb0900971ac46e6b6d990a7dae831fb8c6a05d9a344f437054bf9df5bea',
    'pipeline certificate --n 3 --d-grid -1,0':
        '1 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'sheaf stalk --n 2 --point -5/2 --window -1:0':
        '3 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'pipeline crosscheck --n 3 --window 0:0':
        '1 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
}

STDERR = {
    'pipeline certificate --n 3 --d-grid -1,0':
        'configuration error: the structure maps exist for d >= 0 only\n',
    'sheaf stalk --n 2 --point -5/2 --window -1:0':
        'margin violation: window ((-1, 0),) does not contain the required box ((-3, 0),) for stalk at (-5/2)\n',
    'pipeline crosscheck --n 3 --window 0:0':
        'configuration error: window ((0, 0), (0, 0)) excludes all 100 sample points\n',
}


def _run(command: str) -> tuple[int, bytes, bytes]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(shlex.split(command))
    return code, out.getvalue().encode(), err.getvalue().encode()


def _digest(command: str) -> tuple[str, str]:
    """'<exit code> <sha256 of stdout>', and the text of stderr."""
    code, out, err = _run(command)
    return f"{code} {hashlib.sha256(out).hexdigest()}", err.decode()


def test_corpus_is_recorded():
    assert list(GOLDEN) == CORPUS
    assert set(STDERR) <= set(CORPUS)


@pytest.mark.parametrize("command", CORPUS)
def test_golden_bytes(command):
    assert _digest(command) == (GOLDEN[command], STDERR.get(command, ""))


EQUIVALENT = [
    ("pipeline certificate --n 3 --lambda 2/4",
     "pipeline certificate --n 3 --lambda 1/2"),
    ("pipeline certificate --n 3 --lambda 1.5",
     "pipeline certificate --n 3 --lambda 3/2"),
    ("pipeline certificate --n 3 --d-grid 1,0,1",
     "pipeline certificate --n 3 --d-grid 0,1"),
    ("pipeline hom --n 3 --i 2,1 --d 2/4",
     "pipeline hom --n 3 --i 1,2 --d 1/2"),
    ("sheaf stalk --n 3 --z 5 --point -2/4,-1/3",
     "sheaf stalk --n 3 --z 2 --point -1/2,-1/3"),
    ("sheaf delta --n 3 --i 2,1 --m 0,0",
     "sheaf delta --n 3 --i 1,2 --m 0,0"),
    ("pipeline spectrum --n 3 --action-window 0/2:6/2",
     "pipeline spectrum --n 3 --action-window 0:3"),
    ("sheaf sections --n 3 --point -1/2,-1/2 --window -3:0",
     "sheaf sections --n 3 --point -1/2,-1/2 --window -3:0,-3:0"),
    ("pipeline crosscheck --n 3 --z 4",
     "pipeline crosscheck --n 3 --z 1"),
    ("pipeline crosscheck --n 3 --window -5:0",
     "pipeline crosscheck --n 3 --window -5:0,-5:0"),
]


@pytest.mark.parametrize("left, right", EQUIVALENT)
def test_equivalent_argv_print_equal_bytes(left, right):
    got = _run(left)
    assert got[0] == 0 and got[1]
    assert got == _run(right)


_WITHOUT_NUMPY = """
import json, sys
sys.modules["numpy"] = None  # so that any import of numpy fails
from test_golden_bytes import CORPUS, _digest
print(json.dumps({command: _digest(command) for command in CORPUS}))
"""


def test_golden_bytes_without_numpy():
    # every command of the corpus prints its bytes, stderr and exit code
    # in a process that cannot import numpy
    tests = Path(__file__).resolve().parent
    src = tests.parent / "src"
    probe = subprocess.run(
        [sys.executable, "-c", _WITHOUT_NUMPY],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": f"{src}{os.pathsep}{tests}"},
    )
    assert json.loads(probe.stdout) == {
        command: [GOLDEN[command], STDERR.get(command, "")]
        for command in CORPUS
    }


if __name__ == "__main__":
    digests = {command: _digest(command) for command in CORPUS}
    print("GOLDEN = {")
    for command, (digest, _) in digests.items():
        print(f"    {command!r}:\n        {digest!r},")
    print("}")
    print("STDERR = {")
    for command, (_, err) in digests.items():
        if err:
            print(f"    {command!r}:\n        {err!r},")
    print("}")
