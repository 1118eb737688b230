import hashlib
import json
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twistorlat import scanning, twistor
from twistorlat.cli import main


U3_GRAM = [[0, 1, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0],
           [0, 0, 1, 0, 0, 0], [0, 0, 0, 0, 0, 1], [0, 0, 0, 0, 1, 0]]
U3_TRIPLE = [[1, 1, 0, 0, 0, 0], [0, 0, 1, 1, 0, 0], [0, 0, 0, 0, 1, 1]]


def invoke(*args):
    return CliRunner().invoke(main, list(args))


class TestValidate:
    def test_u3(self):
        res = invoke("validate", "--lattice", "U3")
        assert res.exit_code == 0
        assert "signature: (3, 3, 0)" in res.output
        assert "triple: OK" in res.output

    def test_k3(self):
        res = invoke("validate", "--lattice", "K3")
        assert res.exit_code == 0
        assert "signature: (3, 19, 0)" in res.output

    def test_asymmetric_gram(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "rank": 2, "gram": [[0, 1], [2, 0]],
            "triple": [[1, 0], [0, 1], [1, 1]]}))
        res = invoke("validate", "--lattice", str(bad))
        assert res.exit_code == 1
        assert "symmetric" in res.output.lower()

    @pytest.mark.parametrize("entry", [1.5, "a", True])
    def test_non_integer_gram_entry(self, tmp_path, entry):
        # a float used to be truncated, and validate passed another lattice
        f = tmp_path / "u3.json"
        gram = [[0, 1, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0], [0, 0, 0, entry, 0, 0],
                [0, 0, entry, 0, 0, 0], [0, 0, 0, 0, 0, 1], [0, 0, 0, 0, 1, 0]]
        f.write_text(json.dumps({"rank": 6, "gram": gram, "triple": U3_TRIPLE}))
        res = invoke("validate", "--lattice", str(f))
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)  # no traceback
        assert f"gram entry (2, 3) = {entry!r} is not an integer" in res.output

    @pytest.mark.parametrize("entry", ["x", "1/0"])
    def test_unparsable_triple_entry(self, tmp_path, entry):
        f = tmp_path / "u3.json"
        triple = [[entry] + w[1:] for w in U3_TRIPLE[:1]] + U3_TRIPLE[1:]
        f.write_text(json.dumps({"rank": 6, "gram": U3_GRAM, "triple": triple}))
        res = invoke("validate", "--lattice", str(f))
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert f"cannot parse rational entry {entry!r}" in res.output

    @pytest.mark.parametrize("rank", ["x", 6.5])
    def test_bad_declared_rank(self, tmp_path, rank):
        f = tmp_path / "u3.json"
        f.write_text(json.dumps({"rank": rank, "gram": U3_GRAM, "triple": U3_TRIPLE}))
        res = invoke("validate", "--lattice", str(f))
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert "does not match gram size 6" in res.output

    @pytest.mark.parametrize("data", [
        5, {"gram": 5}, {"gram": [1, 2]}, {"gram": U3_GRAM, "triple": 5},
        {"gram": U3_GRAM, "triple": [1, 2, 3]}])
    def test_bad_json_shape(self, tmp_path, data):
        # each used to end in a TypeError traceback
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(data))
        res = invoke("validate", "--lattice", str(f))
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert "Traceback" not in res.output
        assert "must hold an object with 'gram' a list of lists" in res.output

    def test_missing_file(self):
        res = invoke("validate", "--lattice", "nosuch.json")
        assert res.exit_code == 1

    def test_rational_triple_file(self, tmp_path):
        # U3 with a rational rescaling of the triple
        f = tmp_path / "u3r.json"
        gram = [[0, 1, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0],
                [0, 0, 0, 1, 0, 0], [0, 0, 1, 0, 0, 0],
                [0, 0, 0, 0, 0, 1], [0, 0, 0, 0, 1, 0]]
        triple = [["1/2", "1/2", 0, 0, 0, 0],
                  [0, 0, "1/2", "1/2", 0, 0],
                  [0, 0, 0, 0, "1/2", "1/2"]]
        f.write_text(json.dumps({"rank": 6, "gram": gram, "triple": triple}))
        res = invoke("validate", "--lattice", str(f))
        assert res.exit_code == 0
        assert "1/2" in res.output  # common norm


@pytest.mark.parametrize("args", [
    ("project", "--omega", "1,0,0,0"), ("project", "--omega", "0,0,0,1"),
    ("general-type", "--point", "1,0,0"), ("general-type", "--point", "1.0,0.5,0.0"),
    ("scan-ngt", "--bound", "1")])
def test_wrong_signature_is_a_domain_error(tmp_path, args):
    # signature (4, 0, 0) with a valid triple: every command rejects it,
    # including at e4, the positive class q-orthogonal to the triple
    f = tmp_path / "diag4.json"
    f.write_text(json.dumps({
        "rank": 4, "gram": [[1 if i == j else 0 for j in range(4)] for i in range(4)],
        "triple": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]}))
    res = invoke(args[0], "--lattice", str(f), *args[1:])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)  # no traceback
    assert "got (4, 0, 0)" in res.output


class TestProject:
    def test_mixed_class(self):
        res = invoke("project", "--lattice", "U3", "--omega", "1,1,1,0,0,0")
        assert res.exit_code == 0
        assert "ray: 2,1,0" in res.output

    def test_north_pole_cp1(self):
        res = invoke("project", "--lattice", "U3", "--omega", "1,1,0,0,0,0")
        assert res.exit_code == 0
        assert "cp1: inf" in res.output

    def test_non_positive_class(self):
        res = invoke("project", "--lattice", "U3", "--omega", "1,-1,0,0,0,0")
        assert res.exit_code == 1
        assert "positive" in res.output.lower() or "q(" in res.output

    def test_bad_omega_usage(self):
        res = invoke("project", "--lattice", "U3", "--omega", "a,b,c")
        assert res.exit_code == 2


class TestScans:
    def test_deterministic_output(self):
        out1 = invoke("scan-algebraic", "--lattice", "U3", "--bound", "3")
        out2 = invoke("scan-algebraic", "--lattice", "U3", "--bound", "3")
        assert out1.exit_code == 0
        assert out1.output == out2.output

    def test_u3_bound3_sha256(self):
        # stdout of the per-vector implementation this scan replaced
        res = invoke("scan-algebraic", "--lattice", "U3", "--bound", "3")
        assert res.exit_code == 0
        assert hashlib.sha256(res.output.encode()).hexdigest() == (
            "cf34dbf4d3fbbf63df3341ee8eecc16fd4fe1f2eb52636d07bb9a82fbc20fe4a")

    def test_csv_to_file_and_svg(self, tmp_path):
        csv_path = tmp_path / "cloud.csv"
        svg_path = tmp_path / "cloud.svg"
        res = invoke("scan-algebraic", "--lattice", "U3", "--bound", "1",
                     "--out", str(csv_path), "--svg", str(svg_path))
        assert res.exit_code == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0].startswith("a,b,c,")
        assert len(lines) == 99  # header + 98 points at B=1
        assert svg_path.read_text().startswith("<svg")

    @pytest.mark.parametrize("option", ["--out", "--svg"])
    def test_unwritable_output_path(self, tmp_path, option):
        path = tmp_path / "missing" / "cloud.out"
        res = invoke("scan-algebraic", "--lattice", "U3", "--bound", "1", option, str(path))
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)  # no traceback
        assert f"Could not open file '{path}'" in res.output

    def test_failing_scan_leaves_no_file(self, tmp_path):
        path = tmp_path / "cloud.csv"
        res = invoke("scan-algebraic", "--lattice", "K3", "--bound", "1", "--out", str(path))
        assert res.exit_code == 1
        assert "(2B+1)^k = 31381059609" in res.output
        assert not path.exists()

    def test_ngt_scan(self):
        # for U3 at B=1 every achievable signed ray also comes from a
        # positive vector, so the ngt cloud matches the algebraic one
        res = invoke("scan-ngt", "--lattice", "U3", "--bound", "1")
        assert res.exit_code == 0
        assert len(res.output.splitlines()) == 99

    def test_masked_k3(self):
        res = invoke("scan-algebraic", "--lattice", "K3", "--bound", "1",
                     "--mask", "0,1,2,3,4,5")
        assert res.exit_code == 0
        assert len(res.output.splitlines()) == 99

    def test_unmasked_k3_box_too_large(self):
        res = invoke("scan-algebraic", "--lattice", "K3", "--bound", "1")
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)  # no traceback
        assert "(2B+1)^k = 31381059609" in res.output

    def test_int64_bound_is_a_domain_error(self, tmp_path):
        # U3 + <-10^19>: q(v, v) over the box would not fit in int64
        gram = [[0, 1, 0, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0, 0],
                [0, 0, 0, 1, 0, 0, 0], [0, 0, 1, 0, 0, 0, 0],
                [0, 0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 1, 0, 0],
                [0, 0, 0, 0, 0, 0, -10 ** 19]]
        triple = [[1, 1, 0, 0, 0, 0, 0], [0, 0, 1, 1, 0, 0, 0],
                  [0, 0, 0, 0, 1, 1, 0]]
        f = tmp_path / "u3_big.json"
        f.write_text(json.dumps({"rank": 7, "gram": gram, "triple": triple}))
        res = invoke("scan-algebraic", "--lattice", str(f), "--bound", "1")
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)  # no traceback
        assert "error: int64 bound max|G|*B^2*k^2" in res.output


class TestGeneralType:
    def test_rational_point(self):
        res = invoke("general-type", "--lattice", "U3", "--point", "1,1,0")
        assert res.exit_code == 0
        assert "not of general type" in res.output
        assert "witness:" in res.output

    def test_irrational_point(self):
        res = invoke("general-type", "--lattice", "U3",
                     "--point", "1.0,1.41421356237309515,0.0", "--bound", "3")
        assert res.exit_code == 0
        assert "general type up to bound 3" in res.output

    def test_unparseable_point(self):
        res = invoke("general-type", "--lattice", "U3", "--point", "x,y,z")
        assert res.exit_code == 2

    def test_zero_denominator_is_usage_error(self):
        res = invoke("general-type", "--lattice", "U3", "--point", "1/0,1,0")
        assert res.exit_code == 2
        assert "cannot parse --point '1/0,1,0'" in res.output

    @pytest.mark.parametrize("point", ["nan,0,0", "1.0,inf,0"])
    def test_non_finite_point_is_a_domain_error(self, point):
        res = invoke("general-type", "--lattice", "U3", "--point", point)
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert "is not a direction" in res.output


class TestDensity:
    def test_monotone_report(self):
        res = invoke("density", "--lattice", "U3", "--bound", "2",
                     "--grid", "60")
        assert res.exit_code == 0
        lines = res.output.strip().splitlines()
        assert lines[0] == "bound,cloud_size,covering_radius"
        rows = [line.split(",") for line in lines[1:]]
        assert [int(r[0]) for r in rows] == [1, 2]
        assert [int(r[1]) for r in rows] == [98, 578]
        assert float(rows[1][2]) <= float(rows[0][2])


    @pytest.mark.parametrize("args,message", [
        (("--bound", "0"), "box_bound must be >= 1"),
        (("--bound", "2", "--grid", "1"), "grid_resolution must be >= 2"),
        # used to ask numpy for the whole 1.6e9-point grid
        (("--bound", "2", "--grid", "40000"),
         "grid_resolution 40000 gives 1600000000 grid points, more than 1000000000"),
        (("--bound", "2", "--mask", "0,6"), "mask index 6 out of range for rank 6")])
    def test_invalid_arguments_before_header(self, args, message):
        res = invoke("density", "--lattice", "U3", *args)
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert res.output == f"error: {message}\n"

    def test_largest_box_fails_before_header(self, monkeypatch):
        # B=3 gives 7^6 vectors, over a limit of 1000; B=1 and B=2 would
        # pass, and used to print the header and their rows first
        monkeypatch.setattr(twistor, "_MAX_BOX_VECTORS", 1000)
        res = invoke("density", "--lattice", "U3", "--bound", "3", "--grid", "20")
        assert res.exit_code == 1
        assert res.output == ("error: box bound B=3 over k=6 coordinates gives "
                              "(2B+1)^k = 117649 vectors, more than 1000\n")

    @pytest.mark.parametrize("grid", ["1", "40000"])
    def test_bad_grid_runs_no_scan(self, monkeypatch, grid):
        calls = []
        monkeypatch.setattr(scanning, "scan_algebraic",
                            lambda *args: calls.append(args))
        res = invoke("density", "--lattice", "U3", "--bound", "2", "--grid", grid)
        assert res.exit_code == 1
        assert calls == []


class TestDemoQuaternion:
    def test_all_identities_pass(self):
        res = invoke("demo-quaternion")
        assert res.exit_code == 0
        assert "FAIL" not in res.output
        assert res.output.count("PASS") >= 10


class TestUsage:
    def test_unknown_command(self):
        assert invoke("frobnicate").exit_code == 2

    def test_missing_lattice(self):
        assert invoke("validate").exit_code == 2


# Fuzz inputs: lattice files of any JSON (or none), and arguments that are
# malformed, out of range, or valid but small enough to run in well under
# a second. "{lattice}" and "{dir}" stand for the file and its directory.
JSON_LEAVES = (st.none() | st.booleans() | st.integers(-3, 3)
               | st.sampled_from([10 ** 19, -2 ** 63, 1.5, float("nan"), "1/2", "1/0", "x"]))
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.sampled_from(["gram", "triple", "rank"]),
                                     inner, max_size=3)),
    max_leaves=24)


@st.composite
def lattice_objects(draw):
    """Gram and triple of matching size, often symmetric, sometimes U3."""
    if draw(st.booleans()):
        k = draw(st.integers(1, 3))
        gram = [[k * e for e in row] for row in U3_GRAM]
        entries = st.integers(-1, 1)
    else:
        r = draw(st.integers(1, 7))
        entries = st.integers(-2, 2) | JSON_LEAVES
        gram = draw(st.lists(st.lists(entries, min_size=r, max_size=r),
                             min_size=r, max_size=r))
        if draw(st.booleans()):
            gram = [[gram[min(i, j)][max(i, j)] for j in range(r)] for i in range(r)]
    r = len(gram)
    data = {"gram": gram}
    if draw(st.booleans()):
        data["triple"] = U3_TRIPLE if r == 6 and draw(st.booleans()) else draw(
            st.lists(st.lists(entries, min_size=r, max_size=r), min_size=3, max_size=3))
    if draw(st.booleans()):
        data["rank"] = draw(st.integers(0, 8) | JSON_LEAVES)
    return data


LATTICE_FILES = st.one_of(JSON_VALUES.map(json.dumps), lattice_objects().map(json.dumps),
                          st.text(st.characters(codec="utf-8"), max_size=12))


def csv_of(values):
    return st.lists(values, max_size=5).map(lambda v: ",".join(map(str, v)))


def option(name, values):
    return st.just([]) | values.map(lambda v: [name, v])


def command(name, *options):
    return st.tuples(*options).map(lambda opts: [name] + [a for o in opts for a in o])


LATTICE = option("--lattice", st.sampled_from(["{lattice}"] * 4 + ["U3", "K3", "diag222", "x"]))
BOUNDS = st.sampled_from(["-1", "0", "1", "2", "x", "1.5", str(2 ** 70)])
MASKS = csv_of(st.integers(-2, 24)) | st.sampled_from(["a", ",", "0,,1"])
OUTS = st.sampled_from(["-", "{dir}/out.csv", "{dir}", "{dir}/missing/out.csv"])
ARGVS = st.one_of(
    command("validate", LATTICE),
    command("project", LATTICE, option("--omega", csv_of(st.integers(-3, 3))
                                       | st.sampled_from(["a,b", str(10 ** 20)]))),
    *(command(name, LATTICE, option("--bound", BOUNDS), option("--mask", MASKS),
              option("--out", OUTS), option("--svg", OUTS))
      for name in ("scan-algebraic", "scan-ngt")),
    command("general-type", LATTICE, option("--bound", BOUNDS), option(
        "--point", csv_of(st.sampled_from(
            ["0", "1", "-2", "3/2", "1/0", "0.5", "nan", "inf", "1e308", "x", ""])))),
    # density scans every bound up to --bound: only small ones stay fast
    command("density", LATTICE, option("--bound", st.sampled_from(["-1", "0", "1", "2", "x"])),
            option("--grid", st.sampled_from(["-3", "0", "1", "2", "7", "x", "40000",
                                              str(10 ** 30)])),
            option("--mask", MASKS)),
    command("demo-quaternion"))

U3_FILE = json.dumps({"gram": U3_GRAM, "triple": U3_TRIPLE})


@settings(max_examples=80)
@given(lattice=LATTICE_FILES, argv=ARGVS)
# inputs that once ended in a traceback or ran out of memory
@example(lattice="5", argv=["validate", "--lattice", "{lattice}"])
@example(lattice='{"gram": 5}', argv=["validate", "--lattice", "{lattice}"])
@example(lattice='{"gram": [1, 2]}', argv=["validate", "--lattice", "{lattice}"])
@example(lattice=json.dumps({"gram": U3_GRAM, "triple": [1, 2, 3]}),
         argv=["scan-ngt", "--lattice", "{lattice}", "--bound", "1"])
@example(lattice=json.dumps({"gram": [[1.5]], "rank": "x"}),
         argv=["validate", "--lattice", "{lattice}"])
@example(lattice=json.dumps({"gram": U3_GRAM, "triple": [["1/0"] * 6] * 3}),
         argv=["project", "--lattice", "{lattice}", "--omega", "1,1,0,0,0,0"])
@example(lattice=json.dumps({"gram": U3_GRAM, "triple": U3_TRIPLE, "rank": 6.5}),
         argv=["validate", "--lattice", "{lattice}"])
@example(lattice=U3_FILE, argv=["scan-algebraic", "--lattice", "{lattice}", "--bound",
                                "1", "--out", "{dir}/missing/out.csv"])
@example(lattice=U3_FILE, argv=["scan-ngt", "--lattice", "{lattice}", "--bound", "1",
                                "--svg", "{dir}/missing/out.svg"])
@example(lattice=U3_FILE, argv=["scan-algebraic", "--lattice", "{lattice}",
                                "--bound", str(2 ** 70)])
@example(lattice=U3_FILE, argv=["general-type", "--lattice", "{lattice}", "--point", "1/0,1,0"])
@example(lattice=U3_FILE, argv=["general-type", "--lattice", "{lattice}", "--point", "nan,0,0"])
@example(lattice=U3_FILE, argv=["density", "--lattice", "{lattice}", "--bound", "2",
                                "--grid", "40000"])
@example(lattice=U3_FILE, argv=["scan-algebraic", "--lattice", "K3", "--bound", "1"])
def test_no_traceback_for_any_input(lattice, argv):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "lattice.json")
        path.write_text(lattice)
        argv = [a.replace("{lattice}", str(path)).replace("{dir}", tmp) for a in argv]
        res = invoke(*argv)
    assert res.exit_code in (0, 1, 2), argv
    # CliRunner turns an uncaught exception into exit code 1: only
    # SystemExit (sys.exit or a click usage error) is a handled exit
    assert res.exception is None or isinstance(res.exception, SystemExit), argv
    assert "Traceback" not in res.output
