import json
import os

import pytest

from srsg.catalog import build
from srsg.cli import main
from srsg.sgio import emit_sg, read_graph6_file, write_graph6_file


def run(capsys, argv):
    rc = main(argv)
    out, err = capsys.readouterr()
    return rc, out, err


def write_sg(tmp_path, name, graph):
    path = tmp_path / name
    path.write_text(emit_sg(graph))
    return str(path)


def test_check_s9(tmp_path, capsys):
    path = write_sg(tmp_path, "s9.sg", build("S_9").graph)
    rc, out, _ = run(capsys, ["check", path])
    assert rc == 0
    rep = json.loads(out)
    assert rep["n"] == 9 and rep["r"] == 6 and rep["rho"] == 2
    assert rep["class"] == "C5"
    assert rep["params"] == {"n": 9, "r": 6, "a": -1, "b": 3, "c": -2}
    assert rep["balanced"] is False
    assert len(rep["triangle_census"]) == 4
    assert isinstance(rep["canonical_form"], str)


def test_check_irregular_reports_degree_lists(tmp_path, capsys):
    path = tmp_path / "p.sg"
    path.write_text("sg 3 2\n0 1 +\n1 2 -\n")
    rc, out, _ = run(capsys, ["check", str(path)])
    rep = json.loads(out)
    assert rc == 0
    assert rep["degrees"] == [1, 2, 1]
    assert rep["net_degrees"] == [1, 0, -1]
    assert rep["params"] is None and rep["class"] == "not-srsg"


def test_params_cli(capsys):
    rc, out, _ = run(capsys, ["params", "--r", "6", "--rho", "0", "--fix-b", "0",
                              "--a-min", "0", "--a-max", "0"])
    assert rc == 0
    rows = json.loads(out)
    concrete = {(r["n"], r["c"]) for r in rows if not r["n_free"] and not r["complete"]}
    assert concrete == {(13, -1), (10, -2), (9, -3), (8, -6)}


def test_params_cli_usage_error(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["params", "--r", "6"])
    assert ei.value.code == 2
    capsys.readouterr()


def test_params_cli_vacuous_is_data_error(capsys):
    rc, _, err = run(capsys, ["params", "--r", "6", "--rho", "3"])
    assert rc == 1
    assert json.loads(err.splitlines()[-1])["error"]["type"] == "VacuousQuery"


def test_search_cli(capsys, fixtures_dir):
    g8 = os.path.join(fixtures_dir, "targets", "g8.g6")
    rc, out, _ = run(capsys, ["search", "--underlying", g8, "--rho", "0"])
    assert rc == 0
    rep = json.loads(out)
    assert rep["hit_count"] == 2 and rep["exhaustive"] is True
    assert {h["class"] for h in rep["hits"]} == {"C1"}
    # empty result is still exit code 0
    rc, out, _ = run(capsys, ["search", "--underlying", g8, "--rho", "4"])
    assert rc == 0
    assert json.loads(out)["hit_count"] == 0


def test_search_cli_with_filter(capsys, fixtures_dir):
    p13 = os.path.join(fixtures_dir, "targets", "paley13.g6")
    rc, out, _ = run(
        capsys,
        ["search", "--underlying", p13, "--rho", "2", "--params", "13,6,2,-2,-1"],
    )
    assert rc == 0
    assert json.loads(out)["hit_count"] == 0


def test_search_cli_missing_file(capsys):
    rc, _, err = run(capsys, ["search", "--underlying", "no-such.g6", "--rho", "0"])
    assert rc == 1
    assert "error" in json.loads(err.splitlines()[-1])


def test_search_cli_malformed_graph6(tmp_path, capsys):
    bad = tmp_path / "bad.g6"
    bad.write_text("C~\nC\n")  # second record is truncated
    rc, _, err = run(capsys, ["search", "--underlying", str(bad), "--rho", "0"])
    assert rc == 1
    obj = json.loads(err.splitlines()[-1])["error"]
    assert obj["type"] == "TruncatedPayload" and "line 2" in obj["message"]


def test_search_cli_malformed_params(capsys, fixtures_dir):
    g8 = os.path.join(fixtures_dir, "targets", "g8.g6")
    rc, _, err = run(capsys, ["search", "--underlying", g8, "--rho", "2", "--params", "8,6,x,1,2"])
    assert rc == 1
    obj = json.loads(err.splitlines()[-1])["error"]
    assert obj["type"] == "ParseError" and "8,6,x,1,2" in obj["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ["search", "--rho", "0", "--budget", "-1"],
        ["search", "--rho", "0", "--jobs", "0"],
        ["verify-classification", "--degree", "6", "--jobs", "0"],
        ["verify-classification", "--degree", "6", "--jobs", "-2"],
        ["params", "--r", "6", "--rho", "2", "--div-n", "0"],
        ["params", "--r", "6", "--rho", "2", "--div-n", "-3"],
    ],
)
def test_cli_rejects_out_of_range_counts(capsys, fixtures_dir, argv):
    if argv[0] == "search":
        argv = argv + ["--underlying", os.path.join(fixtures_dir, "targets", "g8.g6")]
    elif argv[0] == "verify-classification":
        argv = argv + ["--fixtures", fixtures_dir]
    with pytest.raises(SystemExit) as ei:
        main(argv)
    assert ei.value.code == 2
    assert "expected an integer >=" in capsys.readouterr().err


def test_search_cli_budget_same_output_any_jobs(tmp_path, capsys, fixtures_dir):
    # order-10 host #5 has a 10,732-node tree at rho=0, within the budget
    host = str(tmp_path / "host5.g6")
    write_graph6_file(host, [read_graph6_file(os.path.join(fixtures_dir, "6reg_order10.g6"))[5]])
    outs = []
    for jobs in ("1", "2"):
        rc, out, _ = run(capsys, ["search", "--underlying", host, "--rho", "0",
                                  "--budget", "10737", "--jobs", jobs])
        assert rc == 0
        outs.append(out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["exhaustive"] is True


def test_search_cli_deterministic_output(capsys, fixtures_dir):
    g9 = os.path.join(fixtures_dir, "targets", "g9.g6")
    rc1, out1, _ = run(capsys, ["search", "--underlying", g9, "--rho", "2"])
    rc2, out2, _ = run(capsys, ["search", "--underlying", g9, "--rho", "2"])
    assert rc1 == rc2 == 0 and out1 == out2


def test_catalog_cli_list(capsys):
    rc, out, _ = run(capsys, ["catalog"])
    assert rc == 0
    rows = json.loads(out)
    assert len(rows) == 11
    assert {r["name"] for r in rows} >= {"S1_12", "S_16"}


def test_catalog_cli_emit(capsys):
    rc, out, _ = run(capsys, ["catalog", "--name", "S2_8"])
    assert rc == 0 and out.startswith("sg 8 24")
    rc, out, _ = run(capsys, ["catalog", "--name", "S1_12", "--emit", "dot"])
    assert rc == 0 and out.count("style=dashed") == 6
    rc, _, err = run(capsys, ["catalog", "--name", "NOPE"])
    assert rc == 1 and json.loads(err.splitlines()[-1])["error"]["type"] == "UnknownName"


def test_iso_cli(tmp_path, capsys):
    a = write_sg(tmp_path, "a.sg", build("S2_8").graph)
    from srsg.core import from_signed_edges

    g = build("S2_8").graph
    perm = [3, 1, 4, 0, 2, 6, 5, 7]
    h = from_signed_edges(8, [(perm[u], perm[v], s) for u, v, s in g.edges()])
    b = write_sg(tmp_path, "b.sg", h)
    rc, out, _ = run(capsys, ["iso", a, b])
    assert rc == 0
    rep = json.loads(out)
    assert rep["isomorphic"] is True and len(rep["witness"]) == 8
    c = write_sg(tmp_path, "c.sg", build("S3_8").graph)
    rc, out, _ = run(capsys, ["iso", a, c])
    assert json.loads(out) == {"isomorphic": False, "witness": None}


def test_spectrum_cli(tmp_path, capsys):
    path = tmp_path / "e.sg"
    path.write_text("sg 2 1\n0 1 +\n")
    rc, out, _ = run(capsys, ["spectrum", str(path)])
    assert rc == 0
    assert json.loads(out) == {"n": 2, "char_poly": [1, 0, -1]}


def test_verify_rejects_other_degrees(capsys, fixtures_dir):
    rc, _, err = run(capsys, ["verify-classification", "--degree", "5",
                              "--fixtures", fixtures_dir])
    assert rc == 1
    assert "degree 6" in json.loads(err.splitlines()[-1])["error"]["message"]


def test_verify_classification_cli(capsys, fixtures_dir):
    rc, out, err = run(capsys, ["verify-classification", "--degree", "6",
                                "--fixtures", fixtures_dir])
    rep = json.loads(out)
    # every row of the expectation tables is met by an exhaustive search
    assert rc == 0 and rep["pass"] is True
    assert '"pass": true' in out
    assert rep["summary"] == {"rho4": 3, "rho2": 7, "rho0": 3}
    assert "rho4: PASS" in err and "rho2: PASS" in err and "rho0: PASS" in err
    # one line per check under its net-degree line
    lines = err.splitlines()
    assert lines.index("  order10: PASS (expected ['T5_C2'], found ['T5_C2'])") > lines.index(
        "rho2: PASS (7 classes, expected 7)")
    assert len(lines) == 3 + sum(len(t["checks"]) for t in rep["theorems"].values())
