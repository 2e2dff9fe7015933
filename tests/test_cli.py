import json

import pytest

from kirbyfront.cli import main
from kirbyfront.diagram import serialize_front
from kirbyfront.families import cieliebak_diagram, mazur_diagram, unknot


@pytest.fixture
def mazur_file(tmp_path):
    path = tmp_path / "mazur.front"
    path.write_text(serialize_front(mazur_diagram()))
    return str(path)


def test_parse_round_trip(tmp_path, capsys, mazur_file):
    assert main(["parse", mazur_file]) == 0
    out = capsys.readouterr().out
    assert out == serialize_front(mazur_diagram())


def test_parse_bad_file_exit_code(tmp_path):
    bad = tmp_path / "bad.front"
    bad.write_text("diagram x\nspin 0\nleft 0\nevents\n X1\nend\n")
    assert main(["parse", str(bad)]) == 4


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
    assert main(["verify", "--all", "--jobs", "2"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 6


def test_verify_unknown_scenario(capsys):
    assert main(["verify", "nope"]) == 3


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
