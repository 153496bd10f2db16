"""Document round-trips, golden reports, determinism, exit codes."""

import json
import os
import subprocess
import sys
import threading

import pytest

import satmon
from satmon import cli, documents as D
from satmon import homs as H
from satmon import monoid as M
from satmon import valuative as V
from satmon.errors import SchemaError

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden")


def _golden(name):
    with open(os.path.join(GOLDEN, name), "r", encoding="utf-8") as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# round trips


def test_monoid_roundtrip(nat2):
    doc = D.monoid_out(nat2)
    again = D.parse_monoid(doc)
    assert again == nat2
    assert D.monoid_out(again) == doc


def test_hom_roundtrip(half_inclusion):
    doc = D.hom_out(half_inclusion)
    f = D.parse_hom(doc)
    assert D.hom_out(f) == doc


def test_lattice_roundtrip(lex2):
    doc = D.lattice_out(lex2)
    lat = D.parse_lattice(doc)
    assert lat == lex2
    assert D.lattice_out(lat) == doc


def test_typev_roundtrip(half_v_presentation):
    doc = D.typev_out(half_v_presentation)
    tv = D.parse_typev(doc)
    assert D.typev_out(tv) == doc


def test_fp_monoid_roundtrip():
    p = M.FpMonoid(3, (((1, 1, 1), (2, 0, 0)),))
    doc = D.fp_monoid_out(p)
    assert D.parse_fp_monoid(doc) == p


def test_ideal_roundtrip(nat2):
    ideal = V.MonoidIdeal(nat2, ((1, 0), (0, 1)))
    doc = D.ideal_out(ideal)
    again = D.parse_ideal(doc)
    assert D.ideal_out(again) == doc


def test_large_integers_roundtrip():
    big = 10 ** 40 + 7
    m = M.monoid_from_vectors([(big,)])
    doc = D.monoid_out(m)
    assert D.parse_monoid(doc).gens[0][0] == big
    assert json.loads(json.dumps(doc))["gens"][0][0] == str(big)


# ---------------------------------------------------------------------------
# schema diagnostics


def test_schema_unknown_field(nat):
    doc = D.monoid_out(nat)
    doc["extra"] = 1
    with pytest.raises(SchemaError) as e:
        D.parse_monoid(doc)
    assert "extra" in str(e.value)


def test_schema_bad_relation_image():
    # a hom whose image violates a source relation names the offending field
    mono, _, _ = M.from_presentation(M.FpMonoid(2, (((2, 0), (0, 3)),)))
    doc = {
        "format": "satmon/1",
        "kind": "hom",
        "source": D.monoid_out(mono),
        "target": D.monoid_out(M.free_monoid(1)),
        "gen_images": [["1"], ["1"]],
    }
    with pytest.raises(SchemaError) as e:
        D.parse_hom(doc)
    assert e.value.path == "$.gen_images"


def test_version_mismatch():
    with pytest.raises(SchemaError):
        D.check_format({"format": "satmon/0", "kind": "monoid"})


# ---------------------------------------------------------------------------
# goldens (byte-exact)


@pytest.mark.parametrize(
    "name",
    [
        "saturate_numsg",
        "classify_half_s3",
        "covers_n2",
        "covers_square_n3",
        "ogus_pushout",
        "spec_units_torsion",
        "rft_lex_ramified",
        "vidal_square_n2",
        "classify_not_integral",
        "saturate_rank_deficient_torsion",
    ],
)
def test_golden_reports(name):
    request = json.loads(_golden(f"{name}.request.json"))
    report, code = cli.run_request(request)
    text = json.dumps(report, indent=2, ensure_ascii=True) + "\n"
    assert text == _golden(f"{name}.report.json")


def test_golden_repeat_run_is_byte_identical():
    request = json.loads(_golden("covers_n2.request.json"))
    r1, _ = cli.run_request(request)
    r2, _ = cli.run_request(request)
    assert json.dumps(r1) == json.dumps(r2)


def test_batch_jobs_1_vs_4_byte_identical():
    batch = json.loads(_golden("batch.request.json"))
    r1, c1 = cli.run_batch(batch, jobs=1)
    r4, c4 = cli.run_batch(batch, jobs=4)
    assert json.dumps(r1) == json.dumps(r4)
    assert c1 == c4 == 0
    assert json.dumps(r1, indent=2, ensure_ascii=True) + "\n" == _golden(
        "batch.report.json"
    )
    # more jobs than requests, and no requests at all
    many, code = cli.run_batch(batch, jobs=len(batch["requests"]) + 3)
    assert json.dumps(many) == json.dumps(r1) and code == 0
    empty = {**batch, "requests": []}
    e1, e4 = cli.run_batch(empty, jobs=1), cli.run_batch(empty, jobs=4)
    assert json.dumps(e1) == json.dumps(e4)
    assert e1[0]["reports"] == [] and e1[1] == 0
    # a failing request's error report stays at its own index, between
    # the golden reports, however many threads run the batch
    bad = {"format": "satmon/1", "kind": "request", "op": "no-such-op", "args": {}}
    mixed = {**batch, "requests": [*batch["requests"][:2], bad, *batch["requests"][2:]]}
    runs = [cli.run_batch(mixed, jobs=k) for k in (1, 2, 4, 9)]
    for rep, code in runs:
        assert json.dumps(rep) == json.dumps(runs[0][0]) and code == 2
        assert [r["status"] for r in rep["reports"]] == ["ok", "ok", "error", "ok"]
        assert rep["reports"][2]["request"] == bad
        assert [r for i, r in enumerate(rep["reports"]) if i != 2] == r1["reports"]


def test_batch_threads_take_each_request_once():
    # more threads than cores and a short switch interval: a request run
    # twice, skipped or written to another index shows in the echoed budgets
    reqs = [
        {"format": "satmon/1", "kind": "request", "op": "saturate", "budget": str(1000 + k),
         "args": {"monoid": D.monoid_out(M.monoid_from_vectors([(2,), (3 + k % 4,)]))}}
        for k in range(160)
    ]
    batch = {"format": "satmon/1", "kind": "batch", "requests": reqs}
    out = []
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        t = threading.Thread(target=lambda: out.append(cli.run_batch(batch, jobs=8)))
        t.start()
        t.join(120)
        assert not t.is_alive()
    finally:
        sys.setswitchinterval(old)
    (rep, code), = out
    assert [r["request"]["budget"] for r in rep["reports"]] == [q["budget"] for q in reqs]
    assert json.dumps(rep) == json.dumps(cli.run_batch(batch, jobs=1)[0]) and code == 0


def test_import_generates_no_code_and_starts_no_pool():
    # dataclass code generation (with inspect) and the thread pool (with
    # logging) are start-up costs every CLI process would pay
    probe = (
        "import sys; before = set(sys.modules); import satmon.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, cwd=HERE, env=_child_env()
    )
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "satmon.cli" in added
    heavy = {"dataclasses", "inspect", "concurrent.futures", "logging"}
    assert not heavy & added, sorted(heavy & added)


# ---------------------------------------------------------------------------
# exit codes and the console entry point


def _child_env(**extra):
    """The environment for a ``python -m satmon.cli`` child process.

    The directory this suite imported satmon from goes first on
    PYTHONPATH, so the child runs the satmon under test (from ``src/`` or
    from an install); the inherited entries are made absolute, since the
    child runs in another working directory.
    """
    root = os.path.dirname(os.path.dirname(os.path.abspath(satmon.__file__)))
    path = [root] + [
        os.path.abspath(p)
        for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
        if p
    ]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(path), **extra}


def _run_cli(args, stdin_text, **env):
    return subprocess.run(
        [sys.executable, "-m", "satmon.cli", *args],
        input=stdin_text,
        capture_output=True,
        text=True,
        cwd=HERE,
        env=_child_env(**env),
    )


def test_cli_subcommand_saturate():
    doc = {"monoid": D.monoid_out(M.monoid_from_vectors([(2,), (3,)]))}
    proc = _run_cli(["saturate"], json.dumps(doc))
    assert proc.returncode == 0
    rep = json.loads(proc.stdout)
    assert rep["result"]["saturation"]["gens"] == [["1"]]


def test_cli_exit_one_on_negative_verdict(half_inclusion):
    doc = {"hom": D.hom_out(half_inclusion)}
    proc = _run_cli(["classify", "--sigma", "2"], json.dumps(doc))
    assert proc.returncode == 1
    rep = json.loads(proc.stdout)
    assert rep["status"] == "verdict-false"
    assert rep["result"]["verdicts"]["smooth"]["holds"] is False


def test_cli_exit_two_on_error():
    proc = _run_cli(["saturate"], json.dumps({"monoid": {"bad": True}}))
    assert proc.returncode == 2
    rep = json.loads(proc.stdout)
    assert rep["status"] == "error"


def test_cli_run_golden_file():
    path = os.path.join(GOLDEN, "classify_half_s3.request.json")
    proc = _run_cli(["run", path], "")
    assert proc.returncode == 0
    assert proc.stdout == _golden("classify_half_s3.report.json")


def test_cli_batch_jobs_flag():
    path = os.path.join(GOLDEN, "batch.request.json")
    p1 = _run_cli(["run", path, "--jobs", "1"], "")
    p4 = _run_cli(["run", path, "--jobs", "4"], "")
    assert p1.returncode == p4.returncode == 0
    assert p1.stdout == p4.stdout == _golden("batch.report.json")


def test_cli_no_deterministic_fills_timing():
    doc = {"monoid": D.monoid_out(M.free_monoid(1))}
    proc = _run_cli(["spec", "--no-deterministic"], json.dumps(doc))
    rep = json.loads(proc.stdout)
    assert rep["timing_ms"] is not None


def test_cli_out_file(tmp_path):
    doc = {"monoid": D.monoid_out(M.free_monoid(1))}
    out = tmp_path / "report.json"
    proc = _run_cli(["spec", "--out", str(out)], json.dumps(doc))
    assert proc.returncode == 0
    rep = json.loads(out.read_text())
    assert rep["status"] == "ok"


def test_cli_budget_env():
    doc = {"monoid": D.monoid_out(M.monoid_from_vectors([(2,), (3,)]))}
    proc = _run_cli(["saturate"], json.dumps(doc), SATMON_BUDGET="250000")
    assert proc.returncode == 0
    rep = json.loads(proc.stdout)
    assert rep["request"]["budget"] == "250000"


def test_cli_budget_env_malformed_is_a_schema_violation():
    doc = {"monoid": D.monoid_out(M.monoid_from_vectors([(2,), (3,)]))}
    proc = _run_cli(["saturate"], json.dumps(doc), SATMON_BUDGET="abc")
    assert proc.returncode == 2 and "Traceback" not in proc.stderr
    rep = json.loads(proc.stdout)
    assert rep["result"]["error"] == "schema-violation"
    assert rep["result"]["path"] == "$.budget"


def test_cli_run_budget_env_fills_requests_without_their_own(tmp_path, monkeypatch):
    mon = {"monoid": D.monoid_out(M.monoid_from_vectors([(2,), (3,)]))}
    item = {"format": "satmon/1", "kind": "request", "op": "saturate", "args": mon}
    batch = {"format": "satmon/1", "kind": "batch",
             "requests": [dict(item, budget="1000"), item]}
    src, out = tmp_path / "batch.json", tmp_path / "report.json"
    src.write_text(json.dumps(batch))
    monkeypatch.setenv("SATMON_BUDGET", "abc")
    assert cli.main(["run", str(src), "--out", str(out)]) == 2
    own, filled = json.loads(out.read_text())["reports"]
    assert own["status"] == "ok" and own["request"]["budget"] == "1000"
    assert filled["request"]["budget"] == "abc"
    assert filled["result"]["error"] == "schema-violation"
    single = tmp_path / "single.json"
    single.write_text(json.dumps(item))
    monkeypatch.setenv("SATMON_BUDGET", "5000")
    assert cli.main(["run", str(single), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["request"]["budget"] == "5000"


@pytest.mark.parametrize("argv", [
    ["run", "--budget", "5"],
    ["run", "--sigma", "2"],
    ["run", "--sigma-complement", "2"],
    ["run", "--category", "sat"],
    ["saturate", "--jobs", "2"],
    ["saturate", "--category", "sat"],
    ["classify", "--category", "sat"],
])
def test_cli_flags_only_on_the_subcommands_that_read_them(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_flags_accepted_where_read():
    parse = cli.build_parser().parse_args
    assert parse(["run", "--jobs", "2"]).jobs == 2
    assert parse(["pushout", "--category", "sat"]).category == "sat"
    ns = parse(["classify", "--budget", "5", "--sigma", "2"])
    assert (ns.budget, ns.sigma) == (5, "2")
