import json

import pytest

from flagsheaf import cli
from flagsheaf.cli import main
from flagsheaf.lie_numerics import NonConvergenceError
from flagsheaf.pipeline import MarginError, stalk_flag_sum
from flagsheaf.root_system import CenterClass, IntegrityError, cartan


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


def test_stalk_flag_sum_margin_message():
    with pytest.raises(MarginError, match=r"for stalk at \(-5/2\)$"):
        stalk_flag_sum(
            2, CenterClass(2, 0), cartan(2, ("-5/2",)), window=((-1, 0),)
        )


def test_sheaf_delta_flag_cohomology(capsys):
    code, payload = run_json(
        capsys, "sheaf", "delta", "--n", "3", "--i", "1,2", "--m", "0,0"
    )
    assert code == 0
    assert payload["delta"] == {"0": 1, "2": 2, "4": 2, "6": 1}


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


def test_pipeline_echoes_normalized_inputs(capsys):
    code, payload = run_json(capsys, "pipeline", "pair", "--n", "2",
                             "--d", "2/4")
    assert code == 0 and payload["d"] == "1/2"
    code, payload = run_json(capsys, "pipeline", "spectrum", "--n", "3",
                             "--i", "2,1")
    assert code == 0 and payload["i"] == "1,2"
    # equal inputs, equal bytes
    assert run(capsys, "pipeline", "pair", "--n", "2", "--d", "2/4") == run(
        capsys, "pipeline", "pair", "--n", "2", "--d", "1/2"
    )
    assert run(capsys, "pipeline", "spectrum", "--n", "3", "--i", "2,1") == (
        run(capsys, "pipeline", "spectrum", "--n", "3", "--i", "1,2")
    )


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
    code2, payload2 = run_json(
        capsys, "numerics", "--n", "3", "--trials", "0", "--seed", "1"
    )
    assert code2 == 0 and "warning" in payload2
    code3 = main(["numerics", "--n", "3", "--trials", "5", "--seed", "1",
                  "--corrupt"])
    capsys.readouterr()
    assert code3 == 2


_REJECTED_PIPELINE_OPTIONS = {
    "lambda-0": ["--lambda", "0"],
    "lambda-neg": ["--lambda", "-1"],
    "degree-window": ["--degree-window", "5:1"],
    "action-window": ["--action-window", "3:0"],
    "jobs-0": ["--jobs", "0"],
    "d-grid": ["--d-grid", "x"],
}

_REJECTED_INPUTS = {
    **{
        f"{action}-{name}": ["pipeline", action, "--n", "2", *opts]
        for action in ("certificate", "crosscheck")
        for name, opts in _REJECTED_PIPELINE_OPTIONS.items()
    },
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
