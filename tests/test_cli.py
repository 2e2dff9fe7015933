import json
import os
import resource
import subprocess
import sys

import pytest

from kirbyfront.cli import main
from kirbyfront.diagram import COEFF_PLUS, serialize_front
from kirbyfront.families import cieliebak_diagram, mazur_diagram, unknot
from kirbyfront.scenarios import SCENARIOS, verify_scenario
from kirbyfront.scripts import MOVES


@pytest.fixture
def mazur_file(tmp_path):
    path = tmp_path / "mazur.front"
    path.write_text(serialize_front(mazur_diagram()))
    return str(path)


def test_parse_round_trip(tmp_path, capsys, mazur_file):
    assert main(["parse", mazur_file]) == 0
    out = capsys.readouterr().out
    assert out == serialize_front(mazur_diagram())


UNKNOT_WORD = "diagram u\nspin 0\nleft 0\nevents\n L1\n R1\nend\n"


def test_parse_bad_file_exit_code(tmp_path):
    bad = tmp_path / "bad.front"
    bad.write_text("diagram x\nspin 0\nleft 0\nevents\n X1\nend\n")
    assert main(["parse", str(bad)]) == 4


@pytest.mark.parametrize("command", ["parse", "invariants"])
def test_plus_component_with_one_node_exit_code(tmp_path, capsys, command):
    bad = tmp_path / "bad.front"
    bad.write_text(UNKNOT_WORD + "component u coeff +1 node+\n")
    assert main([command, str(bad)]) == 4
    assert "only one node decoration (convention (2))" in capsys.readouterr().err


def test_invariants_json(capsys, mazur_file):
    assert main(["invariants", mazur_file, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["chi"] == 1
    assert data["h1"] == []
    assert data["linking"] == [[-4]]
    assert data["components"]["2"]["tb"] == -3


def test_apply_move(tmp_path, capsys):
    src = tmp_path / "u.front"
    src.write_text(serialize_front(unknot(coefficient=-1)))
    out = tmp_path / "out.front"
    code = main(
        [
            "apply",
            str(src),
            "--move",
            "stabilize",
            "--site",
            "1..1/1..1",
            "--arg",
            "comp=1",
            "-o",
            str(out),
        ]
    )
    assert code == 0
    assert "L2" in out.read_text()


def test_apply_bad_site_exit_code(tmp_path):
    src = tmp_path / "u.front"
    src.write_text(serialize_front(unknot()))
    code = main(
        ["apply", str(src), "--move", "unclasp", "--site", "0..2/1..1", "-o", "-"]
    )
    assert code == 2


def test_apply_missing_argument_exit_code(tmp_path, capsys):
    src = tmp_path / "u.front"
    src.write_text(serialize_front(unknot(coefficient=-1)))
    code = main(
        ["apply", str(src), "--move", "stabilize", "--site", "1..1/1..1", "-o", "-"]
    )
    assert code == 2
    assert "missing argument comp=" in capsys.readouterr().err


@pytest.mark.parametrize(
    "where, message",
    [
        (["--site", "1..x/1..1"], "site=1..x/1..1: 'x' is not an integer"),
        (["--site", "1..1/1..1", "--components", "1,x"], "components=1,x: 'x'"),
        (["--components", "1,x"], "components=1,x: 'x' is not an integer"),
    ],
)
def test_apply_malformed_site_exit_code(tmp_path, capsys, where, message):
    src = tmp_path / "u.front"
    src.write_text(serialize_front(unknot(coefficient=-1)))
    code = main(["apply", str(src), "--move", "stabilize", *where, "--arg", "comp=1"])
    assert code == 2
    assert message in capsys.readouterr().err


def test_apply_missing_site_exit_code(tmp_path, capsys):
    src = tmp_path / "u.front"
    src.write_text(serialize_front(unknot()))
    assert main(["apply", str(src), "--move", "clasp"]) == 2
    assert "clasp: needs a site" in capsys.readouterr().err


def test_apply_crossing_change_is_primitive(tmp_path, capsys):
    src = tmp_path / "t.front"
    src.write_text("diagram t\nspin 0\nleft 0\nevents\n  L1 L1 X1 X1 R1 R1\nend\n")
    site = ["--move", "crossing_change", "--site", "2..3/1..1"]
    assert main(["apply", str(src), *site]) == 0
    assert "L3" in capsys.readouterr().out
    assert main(["apply", str(src), *site, "--arg", "mode=macro"]) == 2
    assert "unknown argument mode= (takes no arguments)" in capsys.readouterr().err


@pytest.mark.parametrize("comp", ["5", "0"])
def test_apply_component_out_of_range_exit_code(tmp_path, capsys, comp):
    # unchecked, comp=0 would read the decorations of the last component
    src = tmp_path / "u.front"
    src.write_text(serialize_front(unknot(coefficient=COEFF_PLUS)))
    assert main(["apply", str(src), "--move", "witness", "--arg", "comp=1"]) == 0
    capsys.readouterr()
    code = main(["apply", str(src), "--move", "witness", "--arg", f"comp={comp}"])
    assert code == 2
    assert f"no component {comp}" in capsys.readouterr().err


@pytest.mark.parametrize("move", sorted(MOVES))
def test_apply_every_move_rejects_bad_input_cleanly(capsys, mazur_file, move):
    for extra in ([], ["--site", "1..2/1..1"], ["--site", "1..2/1..1", "--arg", "zz=1"]):
        code = main(["apply", mazur_file, "--move", move, *extra, "-o", "-"])
        err = capsys.readouterr().err
        assert code in ((2,) if "--arg" in extra else (0, 2)), extra
        assert "Traceback" not in err


def test_normalize_command(tmp_path, capsys):
    src = tmp_path / "u.front"
    src.write_text(serialize_front(unknot()))
    assert main(["normalize", src.as_posix()]) == 0
    assert "L1" in capsys.readouterr().out


def test_render_command(tmp_path, mazur_file):
    out = tmp_path / "m.svg"
    assert main(["render", mazur_file, "-o", str(out)]) == 0
    svg = out.read_text()
    assert svg.startswith("<svg")
    assert 'class="gap"' in svg


def test_ribbon_commands(tmp_path, capsys):
    rib = tmp_path / "t.ribbon"
    rib.write_text("disk d\nband a d.0 d.2\nband b d.1 d.3\n")
    assert main(["ribbon", "invariants", str(rib)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["genus"] == 1
    assert main(["ribbon", "normalize", str(rib), "--target", "planar"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["steps"]) == 1


@pytest.mark.parametrize(
    "text",
    ["disk d\nband a d.x d.1\n", "disk d\nband a d.0 d.1 twists q\n"],
)
def test_ribbon_malformed_number_exit_code(tmp_path, capsys, text):
    rib = tmp_path / "bad.ribbon"
    rib.write_text(text)
    assert main(["ribbon", "invariants", str(rib)]) == 4
    assert "is not an integer" in capsys.readouterr().err


def test_verify_all(capsys):
    assert main(["verify", "--all"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 6


def test_verify_unknown_scenario(capsys):
    assert main(["verify", "nope"]) == 2
    err = capsys.readouterr().err
    assert "unknown scenario 'nope'" in err and "cieliebak" in err


def test_verify_missing_scenario(capsys):
    assert main(["verify"]) == 2
    err = capsys.readouterr().err
    assert "verify needs a scenario id or --all" in err
    assert all(i in err for i in SCENARIOS)


def test_verify_reports_an_engine_bug_as_an_error(monkeypatch):
    """A failing scenario check is a FAIL; an exception that is no diagram
    error is a bug in the engine and propagates (exit 1, with a traceback)."""

    def broken():
        raise RuntimeError("engine bug")

    monkeypatch.setitem(SCENARIOS, "cieliebak", broken)
    with pytest.raises(RuntimeError, match="engine bug"):
        verify_scenario("cieliebak")
    with pytest.raises(RuntimeError, match="engine bug"):
        main(["verify", "cieliebak"])


def test_verify_json_deterministic(capsys):
    assert main(["verify", "cieliebak", "--json"]) == 0
    a = json.loads(capsys.readouterr().out)
    assert main(["verify", "cieliebak", "--json"]) == 0
    b = json.loads(capsys.readouterr().out)
    for r in a + b:
        r.pop("wall_time")
    assert a == b


def test_framing_check_command(capsys):
    assert (
        main(
            [
                "framing-check",
                "--n",
                "3",
                "--samples",
                "50",
                "--tol",
                "1e-9",
                "--seed",
                "5",
                "--json",
            ]
        )
        == 0
    )
    data = json.loads(capsys.readouterr().out)
    assert data["passed"] is True


@pytest.mark.parametrize(
    "bad, message",
    [
        (["--n", "0"], "n must be between 2 and 8"),
        (["--n", "9"], "n must be between 2 and 8"),
        (["--samples", "-5"], "samples must be >= 1"),
        (["--tol", "0"], "tol must be positive"),
    ],
)
def test_framing_check_bad_argument_exit_code(capsys, bad, message):
    argv = ["framing-check", "--n", "3", "--samples", "5"]
    assert main(argv + bad) == 2
    assert f"error: {message}" in capsys.readouterr().err


def test_cli_import_leaves_numpy_out():
    code = "import sys, kirbyfront.cli; print('numpy' in sys.modules)"
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=60, check=True,
    )
    assert out.stdout.strip() == "False"


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def _run_limited(tmp_path, command, left, events):
    """Exit code and standard error of one CLI child given 1 GiB of address
    space, on a word with ``left`` wall strands and the ``events`` block."""
    path = tmp_path / "big.front"
    path.write_text(f"diagram big\nspin 0\nleft {left}\nevents\n{events}\nend\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run(
        [sys.executable, "-m", "kirbyfront.cli", command, str(path)],
        env=env, capture_output=True, text=True, timeout=120,
        preexec_fn=_limit_address_space,
    )
    assert "Traceback" not in out.stderr, out.stderr
    return out.returncode, out.stderr


@pytest.mark.parametrize(
    "left, events",
    [("99999999999", ""), ("0", "L1 " * 1000)],
    ids=["huge-left-wall", "long-events-block"],
)
@pytest.mark.parametrize("command", ["parse", "invariants", "render"])
def test_oversized_word_exit_code(tmp_path, command, left, events):
    """A word with more strand segments than a parse may hold is refused
    before it is traced."""
    code, err = _run_limited(tmp_path, command, left, events)
    assert code == 4 and "strand segments" in err


def test_overlong_events_block_exit_code(tmp_path):
    """An events block too long for any word is refused while it is read:
    five million events would not fit in 1 GiB."""
    code, err = _run_limited(tmp_path, "parse", "2", "X1\n" * 5_000_000)
    assert code == 4 and "more than 1000000 events" in err


@pytest.mark.parametrize(
    "text, message",
    [
        ("disk d\nband a d.0 d.1\nband b d.2 d.3\norder e: a.0 b.0 a.1 b.1\n",
         "line 4: order for undeclared disk e"),
        ("disk d\nband a d.0 d.1\norder d: a.0 a.1\norder d: a.1 a.0\n",
         "line 4: second order line for disk d"),
        ("disk d\ndisk d\nband a d.0 d.1\n", "line 2: disk d declared twice"),
        ("disk d\nband a d.0 e.1\n", "line 2: foot a.1 on undeclared disk e"),
        ("disk d\nband a d.0 d.1\nband b d.1 d.2\n",
         "line 3: slot d.1 is already taken by band a on line 2"),
    ],
)
def test_ribbon_misread_file_exit_code(tmp_path, capsys, text, message):
    rib = tmp_path / "bad.ribbon"
    rib.write_text(text)
    assert main(["ribbon", "invariants", str(rib)]) == 4
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["parse"], ["apply", "--move", "normalize"], ["invariants"], ["render"],
        ["normalize"], ["ribbon", "invariants"], ["ribbon", "normalize", "--target", "planar"],
    ],
    ids=lambda argv: "-".join(a for a in argv if not a.startswith("-")),
)
def test_file_not_utf8_exit_code(tmp_path, capsys, argv):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"disk d\xff\n")
    at = 2 if argv[0] == "ribbon" else 1
    with pytest.raises(SystemExit) as exc:
        main(argv[:at] + [str(bad)] + argv[at:])
    assert exc.value.code == 4
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["missing/out.txt", "."], ids=["missing-dir", "dir"])
@pytest.mark.parametrize("argv", [["render"], ["normalize"], ["apply", "--move", "normalize"]],
                         ids=lambda argv: argv[0])
def test_unwritable_output_exit_code(tmp_path, capsys, mazur_file, argv, where):
    with pytest.raises(SystemExit) as exc:
        main(argv[:1] + [mazur_file] + argv[1:] + ["-o", str(tmp_path / where)])
    assert exc.value.code == 4
    assert "cannot write" in capsys.readouterr().err
