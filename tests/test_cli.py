import argparse
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path
from string import Template

import numpy as np
import pytest

from flagsheaf import cli
from flagsheaf.cli import main
from flagsheaf.lie_numerics import NonConvergenceError
from flagsheaf.root_system import IntegrityError


def run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *args):
    code, out = run(capsys, *args)
    return code, json.loads(out) if out.strip().startswith("{") else out


def test_flags_betti(capsys):
    code, payload = run_json(capsys, "flags", "betti", "--n", "3")
    assert code == 0
    assert payload["betti"]["1,2"] == {"0": 1, "2": 2, "4": 2, "6": 1}


def test_flags_verify_ok(capsys):
    code, payload = run_json(capsys, "flags", "verify", "--n", "5")
    assert code == 0 and payload["ok"] is True


def test_flags_gtable(capsys):
    code, payload = run_json(capsys, "flags", "gtable", "--n", "3")
    assert code == 0
    assert payload["g"]["1,2"] == {"6": 1}
    assert payload["g"][""] == {"0": 1}


def test_flags_invalid_rank(capsys):
    code = main(["flags", "betti", "--n", "1"])
    capsys.readouterr()
    assert code == 1


def test_sheaf_stalk_example(capsys):
    code, payload = run_json(
        capsys, "sheaf", "stalk", "--n", "2", "--z", "0", "--point", "-5/2"
    )
    assert code == 0
    assert payload["stalk"] == {"-4": 1, "-2": 1, "0": 1}
    assert payload["margin_certified"] is True


def test_sheaf_stalk_margin_violation(capsys):
    code = main(
        ["sheaf", "stalk", "--n", "2", "--z", "0", "--point", "-5/2",
         "--window", "-1:0"]
    )
    assert code == 3
    assert capsys.readouterr().err == (
        "margin violation: window ((-1, 0),) does not contain the required "
        "box ((-3, 0),) for stalk at (-5/2)\n"
    )


def test_sheaf_delta_margin_violation(capsys):
    code = main(
        ["sheaf", "delta", "--n", "3", "--i", "1", "--m", "-1/2,0",
         "--window", "0:0"]
    )
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("margin violation:")
    assert err.endswith(" for jump at (-1/2, 0)\n")


def test_sheaf_delta_flag_cohomology(capsys):
    code, payload = run_json(
        capsys, "sheaf", "delta", "--n", "3", "--i", "1,2", "--m", "0,0"
    )
    assert code == 0
    assert payload["delta"] == {"0": 1, "2": 2, "4": 2, "6": 1}


def test_sheaf_delta_cross_class_apex(capsys):
    # exp(m) is not in class z = 1: the corners' limit keeps no line
    code, payload = run_json(
        capsys, "sheaf", "delta", "--n", "3", "--z", "1", "--m", "-3,-3",
        "--i", "1",
    )
    assert code == 0
    assert payload["delta"] == {}


def test_sheaf_sections_over_chamber_region(capsys):
    code, payload = run_json(
        capsys, "sheaf", "sections", "--n", "2", "--z", "0", "--point",
        "0", "--u-kind", "uminus", "--window", "-2:0",
    )
    assert code == 0
    assert payload["sections"] == {"0": 1}


def test_sheaf_sections_requires_window(capsys):
    code = main(
        ["sheaf", "sections", "--n", "2", "--z", "0", "--point", "-1"]
    )
    capsys.readouterr()
    assert code == 1


def test_pipeline_hom_example(capsys):
    code, payload = run_json(
        capsys, "pipeline", "hom", "--n", "2", "--i", "", "--d", "0",
        "--degree-window", "0:8",
    )
    assert code == 0
    assert payload["h_graded"] == {"0": 1, "4": 1, "8": 1}


def test_pipeline_certificate_exit_and_reproducibility(capsys):
    args = ["pipeline", "certificate", "--n", "2", "--lambda", "1"]
    code1, out1 = run(capsys, *args)
    code2, out2 = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["verdict"] is True


def test_pipeline_crosscheck(capsys):
    code, payload = run_json(
        capsys, "pipeline", "crosscheck", "--n", "2", "--samples", "10",
        "--seed", "7",
    )
    assert code == 0 and payload["ok"] is True
    code2, out2 = run(
        capsys, "pipeline", "crosscheck", "--n", "2", "--samples", "10",
        "--seed", "7",
    )
    assert json.dumps(payload, sort_keys=True, indent=2) + "\n" == out2


def test_pipeline_spectrum(capsys):
    code, payload = run_json(
        capsys, "pipeline", "spectrum", "--n", "2", "--i", "",
        "--action-window", "0:3",
    )
    assert code == 0
    assert payload["spectrum"] == ["0", "1", "2"]


_EQUAL_INPUTS = (
    ("pipeline pair --n 2 --d 2/4", "pipeline pair --n 2 --d 1/2"),
    ("pipeline spectrum --n 3 --i 2,1", "pipeline spectrum --n 3 --i 1,2"),
    ("sheaf stalk --n 2 --point -5/2", "sheaf stalk --n 2 --point -10/4"),
    ("sheaf delta --n 3 --m 0,0 --i 2,1",
     "sheaf delta --n 3 --m 0/1,0 --i 1,2"),
    ("pipeline hom --n 2 --lambda 2/4", "pipeline hom --n 2 --lambda 1/2"),
    ("pipeline crosscheck --n 2 --z 3 --samples 5",
     "pipeline crosscheck --n 2 --z 1 --samples 5"),
    ("flags betti --n 3 --i 2,1", "flags betti --n 3 --i 1,2"),
    ("pipeline spectrum --n 2 --action-window 0:3",
     "pipeline spectrum --n 2 --action-window 0/1:6/2"),
    ("pipeline certificate --n 2 --d-grid 1/2,0",
     "pipeline certificate --n 2 --d-grid 0,2/4"),
    ("sheaf stalk --n 3 --point -1/2,-1/2 --window -3:0",
     "sheaf stalk --n 3 --point -1/2,-1/2 --window -3:0,-3:0"),
)


def test_pipeline_echoes_normalized_inputs(capsys):
    code, payload = run_json(capsys, "pipeline", "pair", "--n", "2",
                             "--d", "2/4")
    assert code == 0 and payload["d"] == "1/2"
    code, payload = run_json(capsys, "pipeline", "spectrum", "--n", "3",
                             "--i", "2,1")
    assert code == 0 and payload["i"] == "1,2"
    # equal inputs, equal bytes
    for first, second in _EQUAL_INPUTS:
        code, out = run(capsys, *first.split())
        assert code == 0
        assert run(capsys, *second.split()) == (code, out), second


def test_pipeline_pair_char_guard(capsys):
    code = main(
        ["pipeline", "pair", "--n", "2", "--side-a", "real_projective",
         "--side-b", "diagonal"]
    )
    capsys.readouterr()
    assert code == 1


def test_numerics_paths(capsys):
    code, payload = run_json(
        capsys, "numerics", "--n", "3", "--trials", "10", "--seed", "1"
    )
    assert code == 0 and payload["failures"] == 0
    code2 = main(["numerics", "--n", "3", "--trials", "0", "--seed", "1"])
    assert code2 == 1 and capsys.readouterr().out == ""
    code3 = main(["numerics", "--n", "3", "--trials", "5", "--seed", "1",
                  "--corrupt"])
    capsys.readouterr()
    assert code3 == 2


# bad values, each on a leaf that reads the option
_REJECTED_VALUES = {
    "certificate-lambda-0": ["certificate", "--lambda", "0"],
    "certificate-lambda-neg": ["certificate", "--lambda", "-1"],
    "certificate-degree-window": ["certificate", "--degree-window", "5:1"],
    "certificate-action-window": ["certificate", "--action-window", "3:0"],
    "certificate-action-window-zero-denominator": [
        "certificate", "--action-window", "0:1/0"
    ],
    "certificate-d-grid": ["certificate", "--d-grid", "x"],
    "crosscheck-jobs-0": ["crosscheck", "--jobs", "0"],
    "crosscheck-samples-0": ["crosscheck", "--samples", "0"],
}

_REJECTED_INPUTS = {
    **{
        name: ["pipeline", action, "--n", "2", *opts]
        for name, (action, *opts) in _REJECTED_VALUES.items()
    },
    "numerics-trials-0": ["numerics", "--n", "2", "--trials", "0"],
    "stalk-no-point": ["sheaf", "stalk", "--n", "2"],
    "sections-no-point": ["sheaf", "sections", "--n", "2", "--window", "-2:0"],
    "delta-no-m": ["sheaf", "delta", "--n", "2"],
    "out-missing-dir": [
        "flags", "betti", "--n", "2", "--out", "/nonexistent/x.json"
    ],
    "crosscheck-negative-samples": [
        "pipeline", "crosscheck", "--n", "2", "--samples", "-1"
    ],
    "stalk-empty-window": [
        "sheaf", "stalk", "--n", "2", "--window", "0:-1", "--point", "-1/2"
    ],
    "crosscheck-empty-window": [
        "pipeline", "crosscheck", "--n", "3", "--window", "-2:0,1:0"
    ],
    # a window that excludes every sample would check nothing
    "crosscheck-window-excludes-all": [
        "pipeline", "crosscheck", "--n", "2", "--samples", "3",
        "--window", "-1:0"
    ],
    # crosscheck does not read --lambda, whatever its value
    "crosscheck-lambda-0": [
        "pipeline", "crosscheck", "--n", "2", "--lambda", "0"
    ],
    "crosscheck-lambda-neg": [
        "pipeline", "crosscheck", "--n", "2", "--lambda", "-1"
    ],
}


@pytest.mark.parametrize(
    "argv", _REJECTED_INPUTS.values(), ids=_REJECTED_INPUTS.keys()
)
def test_rejected_inputs_exit_1(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("configuration error:")
    assert len(captured.err.strip().splitlines()) == 1


# a bad seed or z is refused while parsing, with its option named, before
# any work runs
_PARSE_TIME_REJECTS = {
    "numerics-seed-neg": (["numerics", "--seed", "-1"], "--seed"),
    "numerics-seed-text": (["numerics", "--seed", "x"], "--seed"),
    "crosscheck-seed-neg": (["pipeline", "crosscheck", "--seed", "-1"],
                            "--seed"),
    "crosscheck-z-fraction": (["pipeline", "crosscheck", "--z", "1.5"],
                              "--z"),
    "crosscheck-z-text": (["pipeline", "crosscheck", "--z", "al"], "--z"),
}


@pytest.mark.parametrize(
    "argv, option", _PARSE_TIME_REJECTS.values(),
    ids=_PARSE_TIME_REJECTS.keys(),
)
def test_bad_seed_and_z_name_their_option(capsys, monkeypatch, argv, option):
    def no_work(*args, **kwargs):
        raise AssertionError("work ran on a rejected value")

    monkeypatch.setattr(cli, "run_trials", no_work)
    monkeypatch.setattr(cli, "crosscheck_stalks", no_work)
    code = main([*argv, "--n", "3"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith(f"configuration error: argument {option}: ")


def test_crosscheck_jobs_keep_output(capsys):
    args = ["pipeline", "crosscheck", "--n", "2", "--samples", "5"]
    serial = run(capsys, *args, "--jobs", "1")
    assert serial[0] == 0
    assert run(capsys, *args, "--jobs", "2") == serial


def test_csv_format(capsys):
    code, out = run(
        capsys, "pipeline", "hom", "--n", "2", "--i", "", "--d", "0",
        "--degree-window", "0:8", "--format", "csv",
    )
    assert code == 0
    assert out.splitlines()[0] == "key,degree,dim"
    assert any("h_graded" in line for line in out.splitlines()[1:])


def test_csv_refuses_reports_without_graded_rows(capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work ran before the format was refused")

    monkeypatch.setattr(cli, "run_trials", no_work)
    monkeypatch.setattr(cli, "crosscheck_stalks", no_work)
    for argv in (
        ["numerics", "--n", "3", "--trials", "5", "--format", "csv"],
        ["pipeline", "crosscheck", "--n", "2", "--format", "csv"],
        ["pipeline", "spectrum", "--n", "2", "--format", "csv"],
        ["flags", "verify", "--n", "3", "--format", "csv"],
    ):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("configuration error:")
        assert len(captured.err.strip().splitlines()) == 1


def test_pretty_format(capsys):
    code, out = run(
        capsys, "sheaf", "stalk", "--n", "2", "--z", "0", "--point",
        "-5/2", "--format", "pretty",
    )
    assert code == 0 and "stalk" in out


def test_out_file(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("FLAGSHEAF_OUTDIR", str(tmp_path))
    code = main(["flags", "betti", "--n", "2", "--out", "betti.json"])
    capsys.readouterr()
    assert code == 0
    data = json.loads((tmp_path / "betti.json").read_text())
    assert data["betti"]["1"] == {"0": 1, "2": 1}


def test_out_file_holds_the_stdout_bytes_of_the_golden_corpus(tmp_path):
    # with --out, each golden command writes its stdout bytes to the file
    # (no file where it fails before the report), prints nothing, exits
    # and warns as it does on stdout, and leaves no temporary file behind
    from test_golden_bytes import CORPUS, GOLDEN, STDERR, _run

    written = []
    for k, command in enumerate(CORPUS):
        out = tmp_path / f"{k}.out"
        code, stdout, stderr = _run(f"{command} --out "
                                    f"{shlex.quote(str(out))}")
        data = out.read_bytes() if out.exists() else b""
        written += [out.name] if out.exists() else []
        assert (f"{code} {hashlib.sha256(data).hexdigest()}", stdout,
                stderr.decode()) == (GOLDEN[command], b"",
                                     STDERR.get(command, ""))
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(written)
    assert len(written) == sum(g.startswith("0 ") for g in GOLDEN.values())


_SIZE_LIMITED = """
import resource, signal, sys
from flagsheaf.cli import main
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)  # writes past it fail: EFBIG
hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]
resource.setrlimit(resource.RLIMIT_FSIZE, (int(sys.argv[1]), hard))
sys.exit(main(sys.argv[2:]))
"""


@pytest.mark.parametrize("existing", [None, "old report\n"])
def test_out_write_failing_partway_leaves_no_report(tmp_path, existing):
    # a file size limit of 256 KiB stops the 1.17 MB N = 4 certificate
    # after a few writes: the exit code and error are those of any path
    # that cannot be written, and neither a partial report nor the
    # temporary file is left; a file already there keeps its bytes
    out = tmp_path / "cert.json"
    if existing is not None:
        out.write_text(existing)
    argv = ["pipeline", "certificate", "--n", "4", "--lambda", "5/2",
            "--out", str(out)]
    proc = subprocess.run(
        [sys.executable, "-c", _SIZE_LIMITED, str(1 << 18), *argv],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        1, "", f"configuration error: cannot write {str(out)!r}: "
        "File too large\n")
    assert [p.name for p in tmp_path.iterdir()] == (
        [] if existing is None else ["cert.json"])
    assert existing is None or out.read_text() == existing


@pytest.mark.parametrize("error", (IntegrityError, NonConvergenceError))
def test_verification_failures_exit_2(capsys, monkeypatch, error):
    def fail(*args, **kwargs):
        raise error("injected")

    monkeypatch.setattr(cli, "model_jump", fail)
    code = main(["sheaf", "delta", "--n", "3", "--i", "1,2", "--m", "0,0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.strip() == "verification failure: injected"
    assert "Traceback" not in captured.out + captured.err


def test_eigensolver_failure_exits_2(capsys, monkeypatch):
    # LinAlgError is a ValueError: unless the solver maps it, a solver
    # failure would exit 1 as a configuration error
    def fail(h):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    code = main(["numerics", "--n", "3", "--trials", "5", "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("verification failure: ")
    assert "did not converge" in line


# -- the grammar ---------------------------------------------------------------

_COMMON = {"--n", "--format", "--out"}
_GRAMMAR = {
    ("flags", "betti"): {"--i"},
    ("flags", "gtable"): set(),
    ("flags", "verify"): set(),
    ("sheaf", "stalk"): {"--z", "--point", "--window"},
    ("sheaf", "sections"): {"--z", "--point", "--u-kind", "--window"},
    ("sheaf", "delta"): {"--z", "--i", "--m", "--window"},
    ("pipeline", "crosscheck"): {
        "--z", "--seed", "--samples", "--window", "--jobs"
    },
    ("pipeline", "hom"): {
        "--lambda", "--i", "--d", "--degree-window", "--action-window"
    },
    ("pipeline", "certificate"): {
        "--lambda", "--d-grid", "--degree-window", "--action-window"
    },
    ("pipeline", "pair"): {
        "--lambda", "--d", "--side-a", "--side-b", "--char2",
        "--degree-window", "--action-window",
    },
    ("pipeline", "spectrum"): {
        "--lambda", "--i", "--degree-window", "--action-window"
    },
    ("numerics", None): {"--trials", "--seed", "--corrupt"},
}
# reports without a graded table, which csv could not carry
_NO_CSV = {
    ("flags", "verify"), ("pipeline", "crosscheck"),
    ("pipeline", "spectrum"), ("numerics", None),
}


def _children(parser):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return None


def _leaves():
    leaves = {}
    for command, parser in _children(cli._build_parser()).items():
        for action, leaf in (_children(parser) or {None: parser}).items():
            leaves[(command, action)] = leaf
    return leaves


def test_each_leaf_accepts_exactly_its_options():
    accepted = {
        key: {
            option
            for action in leaf._actions
            for option in action.option_strings
            if option not in ("-h", "--help")
        }
        for key, leaf in _leaves().items()
    }
    assert accepted == {key: _COMMON | opts for key, opts in _GRAMMAR.items()}
    assert sum(map(len, accepted.values())) == 76
    for key, leaf in _leaves().items():
        (fmt,) = [a for a in leaf._actions if "--format" in a.option_strings]
        csv = () if key in _NO_CSV else ("csv",)
        assert set(fmt.choices) == {"json", "pretty", *csv}, key


# one seeded invocation per leaf, and the certificate across N and lambda
_CORPUS = {
    ("flags", "betti"): ["--n", "4", "--i", "1,3"],
    ("flags", "gtable"): ["--n", "3"],
    ("flags", "verify"): ["--n", "4"],
    ("sheaf", "stalk"): ["--n", "3", "--z", "1", "--point", "-3/2,-2"],
    ("sheaf", "sections"): [
        "--n", "3", "--point", "-1,-1", "--window", "-3:1",
        "--u-kind", "uminus",
    ],
    ("sheaf", "delta"): ["--n", "4", "--i", "2", "--m", "-1,0,-1"],
    ("pipeline", "crosscheck"): [
        "--n", "3", "--samples", "4", "--seed", "5",
    ],
    ("pipeline", "hom"): [
        "--n", "3", "--lambda", "3/2", "--i", "1", "--d", "1/2",
    ],
    ("pipeline", "certificate"): ["--n", "3", "--d-grid", "0,1/3,7"],
    ("pipeline", "pair"): [
        "--n", "3", "--lambda", "5/2", "--side-a", "clifford_torus",
        "--side-b", "real_projective", "--char2",
    ],
    ("pipeline", "spectrum"): ["--n", "3", "--lambda", "2", "--i", "1"],
    ("numerics", None): ["--n", "3", "--trials", "7", "--seed", "1"],
}
_CORPUS_ARGV = [
    [c for c in key if c] + argv for key, argv in _CORPUS.items()
] + [
    ["pipeline", "certificate", "--n", n, "--lambda", lam]
    for n in ("2", "3", "4")
    for lam in ("1", "3/2", "5/2")
]


def test_corpus_covers_every_leaf():
    assert set(_CORPUS) == set(_GRAMMAR)


@pytest.mark.parametrize("argv", _CORPUS_ARGV, ids=" ".join)
def test_json_reports_are_json_dumps_bytes(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 0
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


class _WorkRan(Exception):
    pass


_WORK = (
    "betti", "g_space", "verify_free_decomposition", "walk_cohomology",
    "model_jump", "crosscheck_stalks", "h_graded",
    "certificate", "pair_hom", "jump_spectrum", "run_trials",
)
_REQUIRED = {
    ("sheaf", "stalk"): ["--point", "-1/2"],
    ("sheaf", "sections"): ["--point", "0", "--window", "-2:0"],
    ("sheaf", "delta"): ["--m", "0"],
}
_NO_VALUE = {"--char2", "--corrupt"}
# options that no leaf reads: --eps set the corner width of sheaf
# delta, which takes the width's limit
_REMOVED = {"--eps"}
_UNREAD = [
    (key, option)
    for key, opts in _GRAMMAR.items()
    for option in sorted(set().union(_REMOVED, *_GRAMMAR.values()) - opts)
]


@pytest.mark.parametrize(
    "key, option", _UNREAD,
    ids=[f"{'-'.join(filter(None, k))}:{o}" for k, o in _UNREAD],
)
def test_unread_option_exits_1_before_work(capsys, monkeypatch, key, option):
    def work(*args, **kwargs):
        raise _WorkRan

    for name in _WORK:
        monkeypatch.setattr(cli, name, work)
    argv = [c for c in key if c] + ["--n", "2", *_REQUIRED.get(key, [])]
    with pytest.raises(_WorkRan):
        main(argv)  # the leaf's own options reach its work
    value = [] if option in _NO_VALUE else ["1"]
    assert main(argv + [option, *value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"configuration error: unrecognized arguments: "
        f"{' '.join([option, *value])}\n"
    )


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    assert main(["flags", "betti", "--n", "2"]) == 0
    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    assert main(["flags", "betti", "--n", "2"]) == 0
    capsys.readouterr()
    assert built == []
    # and not at import
    probe = subprocess.run(
        [sys.executable, "-c", "import flagsheaf.cli as c; "
         "print(c._build_parser.cache_info().currsize)"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
    )
    assert probe.stdout == "0\n"


_NUMPY_PROBE = """
import contextlib, io, json, shlex, sys
from flagsheaf.cli import main
for command in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        with contextlib.redirect_stderr(io.StringIO()):
            main(shlex.split(command))
print("numpy" in sys.modules)
"""


def _loads_numpy(commands) -> bool:
    probe = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE, json.dumps(commands)],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
    )
    return {"True\n": True, "False\n": False}[probe.stdout]


def test_only_numerics_and_crosscheck_load_numpy():
    # numpy is most of a cold start, and only numerics and crosscheck's
    # sampler use it: the golden corpus, every other command in every
    # format and exit code, runs without importing it
    from test_golden_bytes import CORPUS

    assert not _loads_numpy(CORPUS)
    assert _loads_numpy(["numerics --n 2 --trials 1"])
    assert _loads_numpy(["pipeline crosscheck --n 2 --samples 1"])


README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_commands() -> list[list[str]]:
    """Every ``flagsheaf`` line of the README's sh blocks, as argv; a
    shell loop variable takes its first value."""
    loops, commands = {}, []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        for line in block.splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["for"]:
                loops[words[1]] = words[3]
            elif words[:1] == ["flagsheaf"]:
                line = Template(line).substitute(loops)
                commands.append(shlex.split(line, comments=True)[1:])
    return commands


def test_readme_examples_parse():
    commands = _readme_commands()
    assert len(commands) >= 10
    for argv in commands:
        try:
            cli._build_parser().parse_args(cli._merge_negative_values(argv))
        except cli.ConfigError as exc:
            pytest.fail(f"README example {argv}: {exc}")
