import hashlib
import json
import os
import shutil

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


@pytest.mark.parametrize("argv,message", [
    (["--r", "6", "--rho", "3"], "no signing has degree 6 and net-degree 3: "
                                 "the negative subgraph would need degree 3/2, which is not an integer"),
    (["--r", "-3", "--rho", "1"], "no signing has degree -3: the degree must be non-negative"),
])
def test_params_cli_vacuous_message_is_exact(capsys, argv, message):
    rc, _, err = run(capsys, ["params", *argv])
    assert rc == 1
    error = json.loads(err.splitlines()[-1])["error"]
    assert error == {"type": "VacuousQuery", "message": message}


# sha256 of the `srsg params` stdout bytes
PARAMS_STDOUT_PINS = [
    ("--r 6 --rho 4", "8363438fe43168785a58039dd483081dd305e2f62539773e380a56fdfd309f49"),
    ("--r 6 --rho 2", "bf47c04f09d8f3f5c832d412c5328dad24575cbe2ddfda5159a1780a243f9584"),
    ("--r 6 --rho 0", "2873d5f4b8365ccf4c0aa33bbcf159a7c708d6b6d5c31b245ed3dc303e336efc"),
    ("--r 6 --rho 4 --fix-b 0 --even-n", "248d1b72027d7783129b6b7be9e482173e5ee6366c5f5c328293c0725b0a054f"),
    ("--r 6 --rho 2 --div-n 15", "0f935dce4b0d7dd680940f606ac47bf63a2b31096536b72b01b839ff777e5257"),
]


@pytest.mark.parametrize("args,digest", PARAMS_STDOUT_PINS)
def test_params_cli_stdout_pinned(capsys, args, digest):
    rc, out, _ = run(capsys, ["params", *args.split()])
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_search_cli_params_question_mark_is_vacuous(capsys, fixtures_dir):
    # '?' asks for an empty entry class, not for any value: the all-positive
    # GQ(2,2) has no negative edge, so b is vacuous and 0 is no match
    gq22 = os.path.join(fixtures_dir, "targets", "gq22.g6")
    for spec, hits in (("15,6,1,?,3", 1), ("15,6,1,0,3", 0)):
        rc, out, _ = run(capsys, ["search", "--underlying", gq22, "--rho", "6", "--params", spec])
        rep = json.loads(out)
        assert rc == 0 and rep["exhaustive"] is True
        assert rep["hit_count"] == hits


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


@pytest.mark.parametrize("text", ["", "\n\n  \n"])
def test_search_cli_no_graph_is_data_error(tmp_path, capsys, text):
    """A file with no graph6 record searches nothing; that is no exhaustive
    search, but a data error."""
    empty = tmp_path / "empty.g6"
    empty.write_text(text)
    rc, out, err = run(capsys, ["search", "--underlying", str(empty), "--rho", "0"])
    assert rc == 1 and out == ""
    obj = json.loads(err.splitlines()[-1])["error"]
    assert obj["type"] == "EmptyInput" and str(empty) in obj["message"]


def test_search_cli_malformed_graph6(tmp_path, capsys):
    bad = tmp_path / "bad.g6"
    bad.write_text("C~\nC\n")  # second record is truncated
    rc, _, err = run(capsys, ["search", "--underlying", str(bad), "--rho", "0"])
    assert rc == 1
    obj = json.loads(err.splitlines()[-1])["error"]
    assert obj["type"] == "TruncatedPayload" and "line 2" in obj["message"]
    # a byte outside ASCII is a typed parse error naming the file and line
    bad.write_bytes(b"C~\n\xffC~\n")
    rc, _, err = run(capsys, ["search", "--underlying", str(bad), "--rho", "0"])
    assert rc == 1 and "Traceback" not in err
    obj = json.loads(err.splitlines()[-1])["error"]
    assert obj["type"] == "BadCharacter"
    assert str(bad) in obj["message"] and "line 2" in obj["message"] and "0xff" in obj["message"]


def test_check_cli_non_ascii_sg(tmp_path, capsys):
    bad = tmp_path / "bad.sg"
    bad.write_bytes(b"sg 2 1\n0 1 + # \xff\n")
    for cmd in ("check", "spectrum"):
        rc, _, err = run(capsys, [cmd, str(bad)])
        assert rc == 1 and "Traceback" not in err
        obj = json.loads(err.splitlines()[-1])["error"]
        assert obj["type"] == "BadCharacter"
        assert str(bad) in obj["message"] and "line 2" in obj["message"]


@pytest.mark.parametrize(
    "text,error,line",
    [
        ("sg 3 2\n0 1 +\n1 0 -\n", "DuplicateEdge", 3),
        ("sg 3 1\n0 5 +\n", "VertexOutOfRange", 2),
        ("sg 3 1\n1 1 +\n", "SelfLoop", 2),
        ("sg 100 0\n", "SizeExceeded", 1),
        ("sg x 1\n", "BadHeader", 1),
        ("sg 0 0\n", "BadHeader", 1),
        ("sg 2 1\n0 1\n", "BadEdgeLine", 2),
    ],
)
def test_check_cli_sg_data_errors_name_file_and_line(tmp_path, capsys, text, error, line):
    bad = tmp_path / "bad.sg"
    bad.write_text(text)
    rc, _, err = run(capsys, ["check", str(bad)])
    assert rc == 1 and "Traceback" not in err
    obj = json.loads(err.splitlines()[-1])["error"]
    assert obj["type"] == error
    assert obj["message"].startswith(f"{bad}:line {line}: ")


def test_search_cli_malformed_params(capsys, fixtures_dir):
    g8 = os.path.join(fixtures_dir, "targets", "g8.g6")
    rc, _, err = run(capsys, ["search", "--underlying", g8, "--rho", "2", "--params", "8,6,x,1,2"])
    assert rc == 1
    obj = json.loads(err.splitlines()[-1])["error"]
    assert obj["type"] == "ParseError" and "8,6,x,1,2" in obj["message"]


@pytest.mark.parametrize(
    "params,message",
    [
        ("1,2,3", "--params expects 'n,r,a,b,c', got '1,2,3'"),
        ("?,6,0,0,0", "--params requires concrete n and r"),
    ],
)
def test_search_cli_params_rows_need_five_entries_and_concrete_n_r(capsys, fixtures_dir, params, message):
    g8 = os.path.join(fixtures_dir, "targets", "g8.g6")
    rc, out, err = run(capsys, ["search", "--underlying", g8, "--rho", "0", "--params", params])
    assert rc == 1 and out == "" and "Traceback" not in err
    assert json.loads(err.splitlines()[-1])["error"] == {"message": message, "type": "SignedGraphError"}


def test_search_cli_non_integer_jobs_is_usage_error(capsys, fixtures_dir):
    g8 = os.path.join(fixtures_dir, "targets", "g8.g6")
    with pytest.raises(SystemExit) as ei:
        main(["search", "--underlying", g8, "--rho", "0", "--jobs", "x"])
    assert ei.value.code == 2
    assert "argument --jobs: expected an integer, got 'x'" in capsys.readouterr().err


def test_search_cli_empty_params_is_usage_error(capsys, fixtures_dir):
    # an empty --params would name no row to keep, not a search without a filter
    g8 = os.path.join(fixtures_dir, "targets", "g8.g6")
    with pytest.raises(SystemExit) as ei:
        main(["search", "--underlying", g8, "--rho", "0", "--params"])
    assert ei.value.code == 2
    assert "--params" in capsys.readouterr().err


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
    # order-10 host #5 has a 14-node twin-reduced tree at rho=0 (20 nodes
    # under --dedupe none): one node short of it, all of it, and far above it
    host = str(tmp_path / "host5.g6")
    write_graph6_file(host, [read_graph6_file(os.path.join(fixtures_dir, "6reg_order10.g6"))[5]])
    for budget, exhaustive in (("13", False), ("14", True), ("855", True), ("856", True)):
        outs = []
        for jobs in ("1", "2"):
            rc, out, _ = run(capsys, ["search", "--underlying", host, "--rho", "0",
                                      "--budget", budget, "--jobs", jobs])
            assert rc == 0
            outs.append(out)
        assert outs[0] == outs[1]
        assert json.loads(outs[0])["exhaustive"] is exhaustive


@pytest.mark.parametrize("host", ["targets/g8.g6", "6reg_order9.g6"])
@pytest.mark.parametrize("rho", ["0", "2", "4"])
def test_search_cli_hits_have_reported_net_degree(capsys, fixtures_dir, host, rho):
    """Every hit's edges give the net degree the report names, in every
    dedupe mode; away from rho = 0 no class meets its negation, so iso-neg
    shows the iso hits."""
    path = os.path.join(fixtures_dir, host)
    reports = {}
    for mode in ("none", "iso", "iso-neg"):
        rc, out, _ = run(capsys, ["search", "--underlying", path, "--rho", rho, "--dedupe", mode])
        assert rc == 0
        rep = reports[mode] = json.loads(out)
        assert rep["rho"] == int(rho)
        for h in rep["hits"]:
            net = [0] * h["n"]
            for u, v, s in h["edges"]:
                net[u] += s
                net[v] += s
            assert net == [rep["rho"]] * h["n"], (mode, h["canonical_form"])
    if rho != "0":
        assert reports["iso-neg"]["hits"] == reports["iso"]["hits"]
    if rho == "2":
        assert reports["iso"]["hits"]  # both hosts have rho=2 classes


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


def test_verify_rejects_fixture_catalogs_of_the_wrong_sizes(tmp_path, capsys, fixtures_dir):
    fixtures = tmp_path / "fixtures"
    shutil.copytree(fixtures_dir, fixtures)
    order9 = fixtures / "6reg_order9.g6"
    order9.write_text("".join(order9.read_text().splitlines(keepends=True)[:3]))
    rc, out, err = run(capsys, ["verify-classification", "--degree", "6", "--fixtures", str(fixtures)])
    assert (rc, out) == (1, "")
    assert json.loads(err) == {"error": {"message": "fixture catalogs must hold 1/4/21 graphs, got 1/3/21",
                                         "type": "SignedGraphError"}}


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
