import hashlib
import json

import pytest

from cmreg import __version__, cli, geometry, groebner, sessions
from cmreg.cli import main
from cmreg.fields import MAX_EXTENSION_DEGREE, PrimeField

CONIC_SESSION = """\
ring p=7 vars=x,y,z order=grevlex
ideal conic = x*z - y^2
ideal fat = x^2, x*y, y^2, z^2
forms axes = x, z
forms bad = x, y
projection down = conic : axes
projection stuck = conic : bad
"""

BINARY_SESSION = """\
ring p=101 vars=x,y
ideal squares = x^2, y^2
forms msquared = x^2, x*y, y^2
forms cuspish = x^3, x^2*y, y^3
"""


@pytest.fixture
def conic_file(tmp_path):
    path = tmp_path / "conic.reg"
    path.write_text(CONIC_SESSION)
    return str(path)


@pytest.fixture
def binary_file(tmp_path):
    path = tmp_path / "binary.reg"
    path.write_text(BINARY_SESSION)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv + ["--json"])
    assert code == 0, err
    return json.loads(out)


def test_gb_text_and_json(conic_file, capsys):
    code, out, err = run(capsys, ["gb", conic_file, "-i", "conic"])
    assert code == 0
    assert "1 element" in out
    doc = run_json(capsys, ["gb", conic_file, "-i", "conic"])
    assert doc["command"] == "gb"
    assert doc["version"] == __version__
    assert doc["result"]["basis"] == ["y^2 + 6*x*z"]
    assert doc["result"]["ring"]["p"] == 7


def test_reg_command(conic_file, capsys):
    doc = run_json(capsys, ["reg", conic_file, "-i", "conic"])
    assert doc["result"]["ideal_regularity"] == 2
    assert doc["result"]["quotient_regularity"] == 1


def test_res_command_and_betti_alias(conic_file, capsys):
    doc = run_json(capsys, ["res", conic_file, "-i", "fat"])
    betti = doc["result"]["betti"]
    assert betti["0,0"] == 1
    assert doc["result"]["of"] == "quotient"
    code, out, _ = run(capsys, ["betti", conic_file, "-i", "fat"])
    assert code == 0
    assert "total:" in out
    ideal_doc = run_json(
        capsys, ["res", conic_file, "-i", "fat", "--of", "ideal"]
    )
    assert ideal_doc["result"]["of"] == "ideal"


RES_SESSION = """\
ring p=7 vars=x0,x1,x2,x3 order=grevlex
ideal zero = 0
ideal unit = 1
ideal tc = x0*x2 - x1^2, x0*x3 - x1*x2, x1*x3 - x2^2
"""

# (ideal, of) -> (betti, length, twists, sha256 of the --json bytes, text
# report).  Captured from the route that minimized the whole resolution.
RES_GOLDEN = {
    ("zero", "quotient"): (
        {"0,0": 1}, 0, [[0]],
        "902861e3817a23fb5be024ee7d06de5f4c9473ef30a1e7e7cb26fa3ec5a4135e",
        "minimal free resolution of S/zero: length 0\n\n       0\n"
        "total: 1\n    0: 1\n\nregularity: 0\nprojective dimension: 0\n"),
    ("zero", "ideal"): (
        {}, 0, [[]],
        "5d822143e8345068c94d126f1825a94600f806285f3d487816467adb3609ad2c",
        "minimal free resolution of zero: length 0\n\n(zero module)\n"),
    ("unit", "quotient"): (
        {}, -1, [],
        "827bcf2b41e4ee97556c10d0b69123bcc8c03de407de3e57e0d6a9d768b27334",
        "minimal free resolution of S/unit: length -1\n\n(zero module)\n"),
    ("unit", "ideal"): (
        {}, 0, [[]],
        "69f3897f36230834838a84a72e7e161f65502534c297f85c140f6701f46f6101",
        "minimal free resolution of unit: length 0\n\n(zero module)\n"),
    ("tc", "quotient"): (
        {"0,0": 1, "1,2": 3, "2,3": 2}, 2, [[0], [2, 2, 2], [3, 3]],
        "2faa7a9063196dee76e787f55fdbf0277b0001ac1d723d682e042969c4a324d1",
        "minimal free resolution of S/tc: length 2\n\n       0 1 2\n"
        "total: 1 3 2\n    0: 1 . .\n    1: . 3 2\n\nregularity: 1\n"
        "projective dimension: 2\n"),
    ("tc", "ideal"): (
        {"0,2": 3, "1,3": 2}, 1, [[2, 2, 2], [3, 3]],
        "f5e703dbf300d1e327f96cf19153c6a5bc7b06f8088607a1ac302ade2efca561",
        "minimal free resolution of tc: length 1\n\n       0 1\n"
        "total: 3 2\n    2: 3 2\n\nregularity: 2\nprojective dimension: 1\n"),
}


def test_res_report_golden_bytes(tmp_path, capsys):
    path = tmp_path / "res.reg"
    path.write_text(RES_SESSION)
    for (name, of), (betti, length, twists, digest, text) in RES_GOLDEN.items():
        argv = ["res", str(path), "-i", name, "--of", of]
        code, out, err = run(capsys, argv + ["--json"])
        assert code == 0, err
        result = json.loads(out)["result"]
        assert (result["betti"], result["length"], result["twists"]) == (
            betti, length, twists), (name, of)
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (name, of)
        code, out, err = run(capsys, argv)
        assert code == 0, err
        assert out == "ring: GF(7)[x0,x1,x2,x3] order=grevlex\n" + text


def test_powers_command(binary_file, capsys):
    doc = run_json(
        capsys,
        ["powers", binary_file, "-i", "squares", "--route", "both"],
    )
    rows = doc["result"]["rows"]
    assert [r["t"] for r in rows] == [1, 2, 3, 4]
    assert [r["reg_power"] for r in rows] == [3, 5, 7, 9]
    assert doc["result"]["epsilon_estimate"] == 1
    assert doc["result"]["d"] == 2
    assert any("heuristic" in w for w in doc["warnings"])


def test_powers_route_hilbert_needs_finite_length(conic_file, capsys):
    code, out, err = run(
        capsys,
        ["powers", conic_file, "-i", "conic", "--route", "hilbert"],
    )
    assert code == 1
    assert "finite length" in err
    assert out == ""


def test_epsilon_command(conic_file, capsys):
    doc = run_json(capsys, ["epsilon", conic_file, "-s", "down"])
    assert doc["result"]["epsilon"] == 1
    assert doc["result"]["d"] == 1


def test_epsilon_center_meets_x(conic_file, capsys):
    code, out, err = run(capsys, ["epsilon", conic_file, "-s", "stuck"])
    assert code == 1
    assert "center meets X" in err
    assert "z" in err


def test_bounds_command(conic_file, capsys):
    doc = run_json(capsys, ["bounds", conic_file, "-s", "down"])
    res = doc["result"]
    assert res["epsilon"] == 1
    assert res["reg_R"] == 2
    assert res["bound_easy"] == 1
    assert res["easy_tight"] is True
    assert res["bound_degcodim"] == 1


def test_fibers_command(conic_file, capsys):
    doc = run_json(
        capsys, ["fibers", conic_file, "-s", "down", "--ext-bound", "1"]
    )
    summary = doc["result"]["summary"]
    assert summary["max_regularity"] == 2
    assert summary["epsilon"] == 1
    assert summary["equals_epsilon_plus_1"] is True
    assert summary["fiber_count"] == 8
    assert summary["empty_fibers"] == 0
    fibers = doc["result"]["fibers"]
    assert len(fibers) == 8
    for fib in fibers:
        assert fib["degree"] == 2
        assert fib["regularity"] == 2
        assert fib["k"] == 1
        assert isinstance(fib["ideal"], list)


def test_fibers_computes_the_center_basis_once(conic_file, monkeypatch,
                                              capsys):
    # epsilon_containment and check_finite both ask the conic for its sum
    # with the axes, which the conic keeps: one basis of the center per job
    session = sessions.parse_session(CONIC_SESSION)
    center = sorted(str(f.monic()) for f in (list(session.ideals["conic"])
                                             + list(session.forms["axes"])))
    inputs = []
    engine = groebner._engine

    def recorded(polys, *args):
        inputs.append(sorted(str(f.monic()) for f in polys))
        return engine(polys, *args)

    monkeypatch.setattr(groebner, "_engine", recorded)
    code, _, err = run(capsys, ["fibers", conic_file, "-s", "down",
                                "--ext-bound", "1"])
    assert code == 0, err
    assert inputs.count(center) == 1


CUBIC_SESSION = """\
ring p=7 vars=x0,x1,x2,x3 order=grevlex
ideal X = x1^2 - x0*x2, x1*x2 - x0*x3, x2^2 - x1*x3
forms V = x0 + 2*x1, x2 + 3*x3
projection P = X : V
"""


def test_a_certified_fibers_job_builds_no_basis_of_a_higher_power(
        tmp_path, monkeypatch, capsys):
    # two linear forms whose center misses the twisted cubic are a regular
    # sequence on its coordinate ring: the rows t >= 2 follow from row 1
    path = tmp_path / "cubic.reg"
    path.write_text(CUBIC_SESSION)
    session = sessions.parse_session(CUBIC_SESSION)
    I_X = groebner.Ideal(session.ring, session.ideals["X"])
    V = groebner.Ideal(session.ring, session.forms["V"])
    powers = [sorted(str(f.monic()) for f in V.power(t).gens + I_X.gens)
              for t in (2, 3)]
    inputs = []
    engine = groebner._engine

    def recorded(polys, *args):
        inputs.append(sorted(str(f.monic()) for f in polys))
        return engine(polys, *args)

    monkeypatch.setattr(groebner, "_engine", recorded)
    code, out, err = run(capsys, ["fibers", str(path), "-s", "P",
                                  "--ext-bound", "1", "--tmax", "3"])
    assert code == 0, err
    assert "equals epsilon + 1: true" in out
    assert inputs and not any(gens in inputs for gens in powers)


def test_fibers_budget_exhaustion(conic_file, capsys):
    code, out, err = run(
        capsys,
        ["fibers", conic_file, "-s", "down", "--budget", "3"],
    )
    assert code == 3
    assert "budget" in err
    assert "max fiber regularity >= 2" in err


def test_fibers_budget_spent_on_empty_fibers_exits_3(tmp_path, capsys):
    # the point (0:1:0) lies over the last of the four points of P^1(GF(3))
    path = tmp_path / "point.reg"
    path.write_text("ring p=3 vars=x,y,z\nideal pt = x, z\n"
                    "forms V = x, y\nprojection P = pt : V\n")
    code, out, err = run(capsys, ["fibers", str(path), "-s", "P",
                                  "--ext-bound", "1", "--budget", "2"])
    assert code == 3
    assert "budget 2 exhausted" in err
    assert "partial lower bound" not in err
    assert out == ""


def test_budgets_below_one_exit_2(conic_file, binary_file, capsys):
    for budget in ("0", "-1"):
        for argv in (["fibers", conic_file, "-s", "down"],
                     ["twovars", binary_file, "-f", "cuspish"]):
            code, out, err = run(capsys, argv + ["--budget", budget])
            assert code == 2, (argv, budget)
            assert "budget must be at least 1" in err
            assert out == ""


def test_fibers_rejects_its_search_arguments_before_any_work(
        conic_file, monkeypatch, capsys):
    # the point search's arguments are checked before epsilon and the
    # finiteness certificate, which are the expensive part of the set-up
    def refused(*args, **kwargs):
        raise AssertionError("work done before the argument checks")

    monkeypatch.setattr(cli, "epsilon_containment", refused)
    monkeypatch.setattr(geometry, "check_finite", refused)
    for flags, message in (
            (["--ext-bound", "0"], "extension bound K must be at least 1"),
            (["--ext-bound", str(MAX_EXTENSION_DEGREE + 1)],
             f"extension bound K = {MAX_EXTENSION_DEGREE + 1} exceeds"),
            (["--budget", "0"], "fiber budget must be at least 1")):
        code, out, err = run(capsys, ["fibers", conic_file, "-s", "down"]
                             + flags)
        assert code == 2, flags
        assert message in err
        assert out == ""


def test_twovars_rejects_an_invalid_extension_bound(tmp_path, binary_file,
                                                   capsys):
    # two forms take the r = d path, which enumerates nothing; three forms
    # enumerate dual points; both reject K outside 1..MAX_EXTENSION_DEGREE
    # before any work
    two = tmp_path / "two.reg"
    two.write_text("ring p=101 vars=x,y\nforms pair = x^2, y^2\n")
    for path, name in ((str(two), "pair"), (binary_file, "cuspish")):
        for K, message in (
                (0, "extension bound K must be at least 1"),
                (MAX_EXTENSION_DEGREE + 1,
                 f"extension bound K = {MAX_EXTENSION_DEGREE + 1} exceeds")):
            code, out, err = run(capsys, ["twovars", path, "-f", name,
                                          "--ext-bound", str(K)])
            assert code == 2, (name, K)
            assert message in err
            assert out == ""


def test_twovars_command(binary_file, capsys):
    doc = run_json(capsys, ["twovars", binary_file, "-f", "msquared"])
    res = doc["result"]
    assert res["r"] == 1
    assert res["d"] == 2
    assert res["dim_V"] == 3
    assert res["equality_on_stable_rows"] is True
    assert all(row["equal"] for row in res["rows"])


def test_twovars_budget_flows_through(binary_file, capsys):
    code, out, err = run(
        capsys,
        ["twovars", binary_file, "-f", "cuspish", "--budget", "1"],
    )
    assert code == 3
    assert "partial lower bound: r >= 1" in err


TWOVARS_SESSIONS = {
    101: """\
ring p=101 vars=x,y
forms cuspish = x^3, x^2*y, y^3
forms quartics = 17*x^4 + 3*x^3*y + 58*x^2*y^2 + 90*x*y^3 + 41*y^4, \
5*x^4 + 77*x^3*y + 12*x*y^3 + 64*y^4, 33*x^3*y + 2*x^2*y^2 + 71*x*y^3 + 9*y^4
""",
    3: """\
ring p=3 vars=x,y
forms quartics = x^4 + x^3*y + 2*x^2*y^2 + 2*x*y^3 + y^4, \
x^3*y + x^2*y^2 + x*y^3, 2*x^3*y + x^2*y^2 + 2*x*y^3 + y^4
""",
}

# (p, forms, --ext-bound) -> (r, witness gcd, sha256 of the --json bytes,
# sha256 of the text report).  Captured from the scan that built every
# hyperplane basis as Polynomials and called binary_gcd at each dual point.
TWOVARS_GOLDEN = {
    (101, "cuspish", 1): (
        2, "x^2",
        "998fd7387c2c7b13dfd1c74d27194d56548c5a21b067df84a93847d14f8a563f",
        "8d200b3f1192b3759d36ba0c21d8615ffe3300ab829b1edf3d41278c7f6ecdea"),
    (101, "quartics", 1): (
        2, "x^2 + 15*x*y + 18*y^2",
        "92e788e6fb6a02d87633224c68a8bc87bb1bcaa46c7716175c90805b43db081c",
        "786076a1f5bdd70ab3d488c0cfe2245c66956253e200f111ed9f7e548a24c6fa"),
    (3, "quartics", 2): (
        2, "x*y + 2*y^2",
        "cc21669c74cb72617f672d59fe9787051ed384c7071ba4320a043e1126ae191a",
        "017edd0e0c94b0318e102fd90ef7b5534c2d8f10b9b5f3f70422ab8c9177b154"),
}


def test_twovars_report_golden_bytes(tmp_path, capsys):
    for (p, name, K), (r, gcd, digest, text_digest) in TWOVARS_GOLDEN.items():
        path = tmp_path / f"binary{p}.reg"
        path.write_text(TWOVARS_SESSIONS[p])
        argv = ["twovars", str(path), "-f", name, "--ext-bound", str(K)]
        code, out, err = run(capsys, argv + ["--json"])
        assert code == 0, err
        result = json.loads(out)["result"]
        assert (result["r"], result["witness_gcd"]) == (r, gcd), (p, name)
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (p, name)
        code, out, err = run(capsys, argv)
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == text_digest, (p, name)


GOLDEN_SESSIONS = {
    "quads.reg": """\
ring p=32003 vars=x,y,z order=grevlex
ideal quads = x^2 + 3*y*z - 7*z^2, x*y - 11*y^2 + 5*x*z, \
2*x*z + y*z - 13*z^2, y^2 - 17*x*y + 19*z^2
""",
    "tc5.reg": """\
ring p=5 vars=x0,x1,x2,x3 order=grevlex
ideal tc = x0*x2 - x1^2, x0*x3 - x1*x2, x1*x3 - x2^2
forms V = x0 + 2*x3, x1 + x2 + 3*x3
forms W = x0, x1 + x2, x3
projection P = tc : V
projection Q = tc : W
""",
}

# argv -> (sha256 of the --json bytes, sha256 of the text report).  Captured
# from the ideal reducer that preceded the (pos, Monomial) one.
GB_FIBERS_GOLDEN = {
    ("gb", "conic.reg", "-i", "fat"): (
        "19fa4f99b974a74d404219eddfef1b9513a4efd5a15029f4a9c11ca3571e3d96",
        "6fb9c656a673bc9ea517970bfb0ca9d8f996361eda32761b9540230b7aefb173"),
    ("gb", "quads.reg", "-i", "quads"): (
        "70201a81a0aa12edde94adb8a1aa807ea9ebdc927bc20fac4b1c111b6ac9236f",
        "54a51146e3d33e88a83e591b3f7f65f67d61d67f53a04b3b668b77ee41440b2a"),
    ("fibers", "conic.reg", "-s", "down", "--ext-bound", "2"): (
        "d5a9ffe48b2b04daec2c2bbc76a306141daa7c7f9070476ee53e79e77d8c3974",
        "a6a0d878ab9d80d09a55faca713695cf173d997fc8964e1c7ec5a3a45cb1ab05"),
    ("fibers", "tc5.reg", "-s", "P", "--ext-bound", "2"): (
        "d0a7b59f58ac663ef004deae595995b0200a3ca6e8ba3c028263ab77fcb075fa",
        "d81af20eca83593d9824860ae1a95c8b9c2755deb8eb1a7524dcdea51070b436"),
    ("fibers", "tc5.reg", "-s", "Q", "--ext-bound", "1"): (
        "609201a4ac41c9a85055dabb9422a4dda37f6b3f15acd5510ebe08d6f6b8bb55",
        "b9f795414c322afc4df310d6aeab130f8cb0c61d26b07a9d619bfc3576dbb979"),
}


def test_gb_and_fibers_report_golden_bytes(tmp_path, capsys):
    (tmp_path / "conic.reg").write_text(CONIC_SESSION)
    for name, text in GOLDEN_SESSIONS.items():
        (tmp_path / name).write_text(text)
    for (cmd, session, *rest), (digest, text_digest) in GB_FIBERS_GOLDEN.items():
        argv = [cmd, str(tmp_path / session)] + rest
        code, out, err = run(capsys, argv + ["--json"])
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv
        code, out, err = run(capsys, argv)
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == text_digest, argv


def test_fibers_to_the_plane_count_points_outside_the_image(tmp_path,
                                                            capsys):
    # the twisted cubic projected to P^2 from the point (0:1:-1:0) off the
    # curve: 7 of the 31 points of P^2(GF(5)) have a fiber, one of them
    # (1:4:1) of degree 2, the node of the image
    path = tmp_path / "tc5.reg"
    path.write_text(GOLDEN_SESSIONS["tc5.reg"])
    argv = ["fibers", str(path), "-s", "Q", "--ext-bound", "1"]
    summary = run_json(capsys, argv)["result"]["summary"]
    assert summary["empty_fibers"] == 24
    assert summary["fiber_count"] == 7
    assert summary["max_regularity"] == 2
    assert summary["argmax"] == ["(1:4:1)"]
    assert summary["epsilon"] == 1
    code, out, err = run(capsys, argv)
    assert code == 0, err
    assert "points outside the image: 24" in out.splitlines()


def test_empty_fibers_take_no_variable_saturation(tmp_path, capsys,
                                                 monkeypatch):
    # an empty fiber's ideal has finite length, so saturate returns the unit
    # ideal from its numerator; the report bytes stay the golden ones
    calls = []  # [is the result the unit ideal, saturate_variable calls]
    saturate, by_variable = groebner.saturate, groebner.saturate_variable

    def counted_saturate(I):
        calls.append([False, 0])
        J = saturate(I)
        calls[-1][0] = J.gens[0].degree() == 0
        return J

    def counted_variable(I, i):
        calls[-1][1] += 1
        return by_variable(I, i)

    monkeypatch.setattr(geometry, "saturate", counted_saturate)
    monkeypatch.setattr(groebner, "saturate_variable", counted_variable)
    path = tmp_path / "tc5.reg"
    path.write_text(GOLDEN_SESSIONS["tc5.reg"])
    argv = ["fibers", str(path), "-s", "Q", "--ext-bound", "1"]
    digest, text_digest = GB_FIBERS_GOLDEN[
        ("fibers", "tc5.reg", "-s", "Q", "--ext-bound", "1")]
    code, out, err = run(capsys, argv + ["--json"])
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert [n for unit, n in calls if unit] == [0] * 24
    code, out, err = run(capsys, argv)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == text_digest


# argv -> (exit code, sha256 of the --json bytes, sha256 of the text
# report).  Captured from the tower that converted every syzygy into
# Polynomial differentials.  quads is m-primary in 3 variables; tc has no
# finite length, so `powers` suppresses its monotonicity checks and
# `--route both` exits 1 with no report.
REG_POWERS_GOLDEN = {
    ("reg", "quads.reg", "-i", "quads"): (
        0, "aab334535370d937466896df57f083c81042cfb680cc9d0ef928fe0b684a3774",
        "6908bbb81f51c8622c897d38f4e33073041a12a7ef09f113bc5896f3f377e512"),
    ("reg", "tc5.reg", "-i", "tc"): (
        0, "424eb61a60b53556b7c1f7cc3416e5cd19d55ca694765d44cca3cbcd50f987c8",
        "8fd66bec4a39bdcd0f67dca9efd5955ce7d851211f96b26c07f165469dc6c936"),
    ("powers", "quads.reg", "-i", "quads", "--route", "resolution"): (
        0, "f86082a09ca8146dbcf6d323136503db871e9d014115e9c2ecf5d9af835f631f",
        "1655f8630ff3c3c398beab9d98482485549db8b65e46cb0142bbed8918891386"),
    ("powers", "quads.reg", "-i", "quads", "--route", "both"): (
        0, "f1acc064d2164b97460e7e88acdf20ad213f8ac0651352b2499461ddd298e04c",
        "3a5db2cfb250c6d2856562eae66972657e6d61fec109cdbd11927f1fa9969c18"),
    ("powers", "tc5.reg", "-i", "tc", "--route", "resolution"): (
        0, "9e42daa993131d58922965d07193134afde0d504fdd7b51263c5f0425542fd1e",
        "37d49170545b48638abf17cbeac4affbed5d464b40c57d8ba8e3a04c040ba755"),
    ("powers", "tc5.reg", "-i", "tc", "--route", "both"): (
        1, hashlib.sha256(b"").hexdigest(), hashlib.sha256(b"").hexdigest()),
}


def test_reg_and_powers_report_golden_bytes(tmp_path, capsys):
    for name, text in GOLDEN_SESSIONS.items():
        (tmp_path / name).write_text(text)
    for (cmd, session, *rest), (status, digest, text_digest) in (
            REG_POWERS_GOLDEN.items()):
        argv = [cmd, str(tmp_path / session)] + rest
        for extra, expected in ((["--json"], digest), ([], text_digest)):
            code, out, err = run(capsys, argv + extra)
            assert code == status, (argv, err)
            assert hashlib.sha256(out.encode()).hexdigest() == expected, argv
            if status:
                assert "route 'both' needs finite length" in err
            else:
                assert err == ""


def test_sample_command(conic_file, capsys):
    argv = [
        "sample", conic_file, "-i", "conic",
        "-c", "1", "--trials", "4", "--seed", "11",
    ]
    doc = run_json(capsys, argv)
    assert doc["seed"] == 11
    assert doc["result"]["bound"] == 1
    assert doc["result"]["all_within"] is True
    assert "empirical, not a proof" in doc["warnings"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert "empirical, not a proof" in out
    for trials in ("0", "2"):
        code, out, err = run(capsys, ["sample", conic_file, "-i", "conic",
                                      "--tmax", "0", "--trials", trials])
        assert code == 2, trials
        assert out == ""
        assert "t_max must be at least 1" in err


def test_reports_are_byte_deterministic(conic_file, capsys):
    argv = ["fibers", conic_file, "-s", "down", "--ext-bound", "1", "--json"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2
    argv_text = ["powers", conic_file, "-i", "fat"]
    _, t1, _ = run(capsys, argv_text)
    _, t2, _ = run(capsys, argv_text)
    assert t1 == t2


def test_one_parser_serves_successive_calls(conic_file, binary_file, capsys,
                                            monkeypatch):
    # main parses with one parser, built on its first call; over a run of
    # different subcommands, argparse usage errors (exit 2) among them, it
    # gives the bytes and exit codes of a parser built afresh for each call
    argvs = [
        ["gb", conic_file, "-i", "conic"],
        ["twovars", binary_file, "-f", "cuspish", "--json"],
        ["fibers", conic_file, "-s", "down", "--tmax", "x"],
        ["powers", binary_file, "-i", "squares", "--tmax", "3"],
        ["gb", conic_file],
        ["res", conic_file, "-i", "fat", "--of", "ideal", "--json"],
        ["fibers", conic_file, "-s", "down", "--ext-bound", "1"],
    ]
    shared = cli._build_parser()
    assert cli._build_parser() is shared
    build = cli._build_parser.__wrapped__

    def outcomes(fresh):
        out = []
        for argv in argvs:
            parser = build() if fresh else shared
            monkeypatch.setattr(cli, "_build_parser", lambda: parser)
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            out.append((code, captured.out, captured.err))
        return out

    once = outcomes(fresh=False)
    assert once == outcomes(fresh=True)
    assert [code for code, _, _ in once] == [0, 0, 2, 0, 2, 0, 0]
    assert "usage: cmreg fibers" in once[2][2]


def test_json_envelope_shape(conic_file, capsys):
    doc = run_json(capsys, ["reg", conic_file, "-i", "conic"])
    assert set(doc) == {"command", "version", "warnings", "result"}
    sample = run_json(
        capsys,
        ["sample", conic_file, "-i", "conic", "--trials", "1", "--seed", "3"],
    )
    assert set(sample) == {"command", "version", "warnings", "result", "seed"}


def test_usage_errors_exit_2(conic_file, binary_file, tmp_path, capsys):
    code, _, err = run(capsys, ["gb", conic_file, "-i", "nosuch"])
    assert code == 2
    assert "unknown ideal" in err and "conic" in err
    code, _, err = run(capsys, ["gb", str(tmp_path / "absent.reg"), "-i", "x"])
    assert code == 2
    assert "cannot read session file" in err
    bad = tmp_path / "bad.reg"
    bad.write_text("ring p=7 vars=x\nideal I = 2x\n")
    code, _, err = run(capsys, ["gb", str(bad), "-i", "I"])
    assert code == 2
    assert "implicit multiplication" in err
    assert "line 2" in err
    code, _, err = run(capsys, ["gb", conic_file, "-i", "conic",
                                "--degree-ceiling", "0"])
    assert code == 2
    for argv in (["epsilon", conic_file, "-s", "down"],
                 ["bounds", conic_file, "-s", "down"],
                 ["fibers", conic_file, "-s", "down"],
                 ["sample", conic_file, "-i", "conic"],
                 # a scan that would exhaust its budget (exit 3) first
                 ["twovars", binary_file, "-f", "cuspish", "--budget", "1"]):
        for window in ("0", "-1"):
            code, out, err = run(capsys, argv + ["--window", window])
            assert code == 2, (argv, window)
            assert "window must be at least 1" in err
            assert out == ""


# the least prime above the 65,536-element cap of a twovars scan
BIG_BINARY_SESSION = """\
ring p=65537 vars=x,y
forms pair = x^2, y^2
forms cuspish = x^3, x^2*y, y^3
"""

USAGE_SESSIONS = {
    "plane.reg": """\
ring p=7 vars=x,y,z
ideal conic = x*z - y^2
ideal mixed = x, y^2
forms axes = x, z
forms squares = x^2, z^2
forms twice = x, 2*x
forms uneven = x, z^2
projection down = conic : axes
projection curved = conic : squares
projection doubled = conic : twice
projection lopsided = conic : uneven
""",
    "binary.reg": BINARY_SESSION + """\
forms dependent = x^2, x*y, x^2 + x*y
forms uneven = x^2, x*y, y^3
forms shared = x^2, x*y
""",
    "ext.reg": """\
ring p=5 ext=2 vars=x,y,z
ideal conic = x*z - y^2
forms axes = x, z
projection down = conic : axes
""",
    "extbinary.reg": """\
ring p=5 ext=2 vars=x,y
forms cuspish = x^3, x^2*y, y^3
""",
    "bigbinary.reg": BIG_BINARY_SESSION,
}

# every usage error a command can raise from its flags or its session:
# (command, session, arguments, a fragment of the message)
USAGE_CASES = (
    [(cmd, "plane.reg", ["-i", "conic", "--degree-ceiling", "0"],
      "degree ceiling must be positive")
     for cmd in ("gb", "reg", "res", "powers", "sample")]
    + [(cmd, "plane.reg", ["-s", "down", "--degree-ceiling", "0"],
        "degree ceiling must be positive")
       for cmd in ("epsilon", "bounds", "fibers")]
    + [("twovars", "binary.reg", ["-f", "cuspish", "--degree-ceiling", "0"],
        "degree ceiling must be positive")]
    + [(cmd, session, args + [flag, value], f"{what} must be at least 1")
       for cmd, session, args in (
           ("powers", "plane.reg", ["-i", "conic"]),
           ("epsilon", "plane.reg", ["-s", "down"]),
           ("bounds", "plane.reg", ["-s", "down"]),
           ("fibers", "plane.reg", ["-s", "down"]),
           ("sample", "plane.reg", ["-i", "conic"]),
           # a scan that would exhaust its budget (exit 3) first
           ("twovars", "binary.reg", ["-f", "cuspish", "--budget", "1"]))
       for flag, what in (("--tmax", "t_max"), ("--window", "window"))
       for value in ("0", "-1")]
    + [(cmd, session, args + [flag, value], message)
       for cmd, session, args in (
           ("fibers", "plane.reg", ["-s", "down"]),
           ("twovars", "binary.reg", ["-f", "cuspish"]))
       for flag, value, message in (
           ("--ext-bound", "0", "extension bound K must be at least 1"),
           ("--ext-bound", str(MAX_EXTENSION_DEGREE + 1),
            f"extension bound K = {MAX_EXTENSION_DEGREE + 1} exceeds"),
           ("--budget", "0", "budget must be at least 1"))]
    + [("sample", "plane.reg", ["-i", "conic", "-c", "0"],
        "c must be at least 1"),
       ("sample", "plane.reg", ["-i", "conic", "--trials", "-1"],
        "trials must be nonnegative"),
       ("powers", "plane.reg", ["-i", "mixed"], "mixed degrees"),
       # forms that are not linear, are dependent or have mixed degrees
       ("bounds", "plane.reg", ["-s", "curved"], "linear"),
       ("fibers", "plane.reg", ["-s", "curved"], "linear"),
       ("fibers", "plane.reg", ["-s", "doubled"], "linearly dependent"),
       ("epsilon", "plane.reg", ["-s", "lopsided"], "single degree"),
       ("bounds", "plane.reg", ["-s", "lopsided"], "linear"),
       ("fibers", "plane.reg", ["-s", "lopsided"], "single degree"),
       ("twovars", "binary.reg", ["-f", "dependent"], "linearly dependent"),
       ("twovars", "binary.reg", ["-f", "uneven"], "single degree"),
       ("twovars", "binary.reg", ["-f", "shared"], "gcd of V is not 1"),
       # points are enumerated over the prime field only
       ("fibers", "ext.reg", ["-s", "down"], "over the prime field"),
       ("twovars", "extbinary.reg", ["-f", "cuspish"],
        "over the prime field"),
       # a twovars scan takes prime fields of at most 65,536 elements
       ("twovars", "bigbinary.reg", ["-f", "cuspish"],
        "limited to 65536 elements")]
)


def test_every_usage_error_exits_2_before_any_work(tmp_path, monkeypatch,
                                                    capsys):
    # no basis is computed and no point is scanned before a usage error
    def refused(*args, **kwargs):
        raise AssertionError("work done before the argument checks")

    monkeypatch.setattr(groebner, "_engine", refused)
    monkeypatch.setattr(geometry, "_point_blocks", refused)
    for name, text in USAGE_SESSIONS.items():
        (tmp_path / name).write_text(text)
    for cmd, session, args, message in USAGE_CASES:
        argv = [cmd, str(tmp_path / session)] + args
        code, out, err = run(capsys, argv)
        assert code == 2, argv
        assert out == "", argv
        assert message in err, (argv, err)


def test_twovars_scans_prime_fields_up_to_the_order_cap(tmp_path,
                                                        monkeypatch, capsys):
    # GF(65537) with three forms exits 2 before any zero pass; two forms
    # scan nothing and still give r = d; GF(65521), the largest prime
    # under the cap, is scanned until its budget of one point runs out
    def refused(*args, **kwargs):
        raise AssertionError("zero pass over a field above the cap")

    big = tmp_path / "big.reg"
    big.write_text(BIG_BINARY_SESSION)
    with monkeypatch.context() as patch:
        patch.setattr(PrimeField, "zero_scan", refused)
        assert run(capsys, ["twovars", str(big), "-f", "cuspish"])[0] == 2
        doc = run_json(capsys, ["twovars", str(big), "-f", "pair"])
        assert (doc["result"]["d"], doc["result"]["r"]) == (2, 2)
    largest = tmp_path / "largest.reg"
    largest.write_text(BIG_BINARY_SESSION.replace("65537", "65521"))
    code, out, err = run(capsys, ["twovars", str(largest), "-f", "cuspish",
                                  "--budget", "1"])
    assert code == 3
    assert "subspace budget 1 exhausted" in err


def test_argparse_failures_exit_2(conic_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gb", conic_file])  # missing -i
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", conic_file])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["gb", conic_file, "-i", "conic", "--threads", "0"])
    assert exc.value.code == 2


def test_degree_ceiling_exit_3(tmp_path, capsys):
    session = tmp_path / "hard.reg"
    session.write_text(
        "ring p=7 vars=x,y\nideal I = x^3 - y^2*x, x^2*y + y^3\n"
    )
    code, _, err = run(
        capsys, ["gb", str(session), "-i", "I", "--degree-ceiling", "2"]
    )
    assert code == 3
    assert "degree ceiling" in err


def test_degree_ceiling_ignores_pairs_after_the_basis_is_done(tmp_path, capsys):
    # the basis is done in degree 3; the pairs of degree 4 left on the heap
    # reduce to zero and are never taken
    session = tmp_path / "artinian.reg"
    session.write_text("ring p=7 vars=x,y\nideal I = x^2 + y^2, x*y\n")
    doc = run_json(capsys, ["gb", str(session), "-i", "I",
                            "--degree-ceiling", "3"])
    assert doc["result"]["basis"] == ["y^3", "x^2 + y^2", "x*y"]


def test_exponent_overflow_exits_3(tmp_path, capsys):
    path = tmp_path / "big.reg"
    path.write_text("ring p=7 vars=x,y\nideal I = x^40000, y^40000\n")
    code, out, err = run(capsys, ["powers", str(path), "-i", "I", "--tmax",
                                  "2", "--route", "hilbert"])
    assert code == 3
    assert out == ""
    assert err == "error: exponent 80000 exceeds the 16-bit limit\n"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out
