import hashlib
import json
import os
import stat
import subprocess
import sys
import threading

import pytest

from pcgraph.cli import main
from pcgraph.core import dumps_instance, loads_instance
from pcgraph.errors import PreconditionViolated
from pcgraph.sweep import SweepConfig, run_sweep


def test_sweep_exhaustive_k4_clean():
    report = run_sweep(SweepConfig(family="exhaustive", n=4, oracle="full"))
    assert report.processed == 203
    assert report.clean
    assert report.tags["c"] == 0
    assert sum(report.tags.values()) == report.mono_triangle_free


def test_sweep_random_families_clean():
    report = run_sweep(
        SweepConfig(family="randomDegenerate", n=8, count=40, seed=1, oracle="partial")
    )
    assert report.clean and report.processed == 40
    report2 = run_sweep(
        SweepConfig(family="randomNoMono", n=7, k=4, count=30, seed=2, oracle="full")
    )
    assert report2.clean and report2.mono_triangle_free == 30


def test_sweep_reports_are_reproducible():
    cfg = SweepConfig(family="randomNoMono", n=6, k=3, count=20, seed=9, oracle="full")
    a = run_sweep(cfg).to_json()
    b = run_sweep(cfg).to_json()
    assert a == b


def test_sweep_workers_match_single():
    base = SweepConfig(family="exhaustive", n=4, oracle="partial")
    solo = run_sweep(base).to_json()
    duo = run_sweep(SweepConfig(**{**base.__dict__, "workers": 2})).to_json()
    # worker count is part of the config; compare everything else
    a, b = json.loads(solo), json.loads(duo)
    a.pop("config")
    b.pop("config")
    assert a == b


def test_cli_gen_golden_double_pentagon(tmp_path, capsys):
    out = tmp_path / "dp.json"
    assert main(["gen", "--family", "doublePentagon", "--out", str(out)]) == 0
    text = out.read_text().strip()
    from pcgraph.families import example_k5_double_pentagon

    assert text == dumps_instance(example_k5_double_pentagon())


def test_cli_gen_exhaustive_count(tmp_path):
    out = tmp_path / "k4.jsonl"
    assert main(["gen", "--family", "exhaustive", "--n", "4", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 203
    assert all(loads_instance(line).n == 4 for line in lines[:5])


def test_cli_gen_error_exit():
    assert main(["gen", "--family", "randomNoMono", "--n", "6", "--k", "2"]) == 1


def test_cli_gen_failure_keeps_existing_out(tmp_path, capsys):
    out = tmp_path / "e.jsonl"
    out.write_text("keep\n")
    argv = ["gen", "--family", "randomNoMono", "--n", "6", "--k", "2", "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: BudgetExhausted: ")
    assert out.read_text() == "keep\n"
    assert os.listdir(tmp_path) == ["e.jsonl"]
    # a successful run replaces the file and leaves nothing beside it
    assert main(["gen", "--family", "doublePentagon", "--out", str(out)]) == 0
    assert loads_instance(out.read_text()).n == 5
    assert os.listdir(tmp_path) == ["e.jsonl"]


def test_cli_gen_writes_through_links_and_pipes(tmp_path):
    # only a regular file is replaced: a symlink keeps pointing at its file,
    # and a pipe (as /dev/stdout may be) is written in place
    real = tmp_path / "real.json"
    real.write_text("old\n")
    link = tmp_path / "link.json"
    link.symlink_to(real)
    assert main(["gen", "--family", "doublePentagon", "--out", str(link)]) == 0
    assert link.is_symlink() and loads_instance(real.read_text()).n == 5
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
    reader.start()
    assert main(["gen", "--family", "doublePentagon", "--out", str(fifo)]) == 0
    reader.join(timeout=10)
    assert not reader.is_alive() and loads_instance(got[0]).n == 5
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert sorted(os.listdir(tmp_path)) == ["link.json", "pipe", "real.json"]


@pytest.mark.parametrize("command, n", [("gen", "-3"), ("sweep", "-2")])
def test_cli_negative_n_is_too_small(capsys, command, n):
    assert main([command, "--family", "randomDegenerate", "--n", n]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: TooSmall: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, which",
    [
        (["gen", "--family", "exhaustive", "--n", "6", "--count", "-1"], "count"),
        (["sweep", "--family", "exhaustive", "--n", "6", "--count", "-1"], "count"),
        (["sweep", "--family", "exhaustive", "--n", "6", "--count", "3", "--workers", "0"], "workers"),
    ],
)
def test_cli_rejects_negative_count_and_no_workers(tmp_path, capsys, argv, which):
    # these used to write nothing or run single-process and exit 0
    out = tmp_path / "out.json"
    assert main(argv + ["--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: PreconditionViolated: {which}: ")
    assert captured.err.count("\n") == 1
    assert not out.exists()


def test_run_sweep_rejects_workers_below_one():
    with pytest.raises(PreconditionViolated, match="workers"):
        run_sweep(SweepConfig(family="exhaustive", n=4, workers=0))


def test_run_sweep_rejects_bool_workers():
    # a bool is an int to isinstance, but no worker count
    for workers in (True, False):
        with pytest.raises(PreconditionViolated, match="^workers: must be an int") as err:
            run_sweep(SweepConfig(family="exhaustive", n=4, workers=workers))
        assert err.value.which == "workers"


@pytest.mark.parametrize(
    "field, value", [("oracle", "bogus"), ("oracle", None), ("workers", "2"), ("workers", 2.5)]
)
def test_run_sweep_names_a_bad_oracle_or_workers(field, value):
    # the field is named, as for every other ill-formed sweep input
    with pytest.raises(PreconditionViolated) as err:
        run_sweep(SweepConfig(family="exhaustive", n=4, **{field: value}))
    assert err.value.which == field


@pytest.mark.parametrize(
    "flags",
    [
        ["--family", "randomDegenerate", "--n", "8", "--count", "5", "--cert-out"],
        ["--family", "gallai", "--n", "8", "--count", "5", "--parts-out"],
        ["--family", "randomNoMono", "--n", "8", "--k", "3", "--cert-out"],
        ["--family", "randomDegenerate", "--n", "8", "--parts-out"],
    ],
)
def test_cli_gen_rejects_unusable_witness_flags(tmp_path, capsys, flags):
    # a witness describes one instance of its own family; anything else used
    # to drop instances or the witness without a word
    witness = tmp_path / "witness.json"
    out = tmp_path / "out.jsonl"
    assert main(["gen", "--out", str(out)] + flags + [str(witness)]) == 1
    assert capsys.readouterr().err.startswith("error: PreconditionViolated: ")
    assert not witness.exists() and not out.exists()


def test_cli_classify_exit_codes(tmp_path, capsys):
    dp = tmp_path / "dp.json"
    main(["gen", "--family", "doublePentagon", "--out", str(dp)])
    capsys.readouterr()
    assert main(["classify", str(dp)]) == 11
    doc = json.loads(capsys.readouterr().out)
    assert doc["tag"] == "c"

    ex = tmp_path / "dir.json"
    main(["gen", "--family", "directedExample", "--n", "6", "--out", str(ex)])
    capsys.readouterr()
    assert main(["classify", str(ex)]) == 10
    doc = json.loads(capsys.readouterr().out)
    assert doc["certificates"]["degenerate_set"]["S"] == [0, 1, 2]

    import itertools

    from pcgraph import build

    rk4 = tmp_path / "rk4.json"
    g = build(4, [(u, v, i) for i, (u, v) in enumerate(itertools.combinations(range(4), 2))])
    rk4.write_text(dumps_instance(g))
    assert main(["classify", str(rk4)]) == 0

    mono = tmp_path / "mono.json"
    g = build(4, [(u, v, 1) for u, v in itertools.combinations(range(4), 2)])
    mono.write_text(dumps_instance(g))
    assert main(["classify", str(mono)]) == 2

    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert main(["classify", str(bad)]) == 2
    assert main(["classify", str(tmp_path / "missing.json")]) == 2

    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"n": 4, "edges": "\u00e9"}'.encode("latin-1"))
    capsys.readouterr()
    assert main(["classify", str(latin1)]) == 2
    assert capsys.readouterr().err.startswith("error: InvalidInstance: ")


def test_cli_classify_exits_1_and_echoes_the_instance_on_internal_error(
    tmp_path, monkeypatch, capsys
):
    import pcgraph.cli as cli_mod
    from pcgraph import build
    from pcgraph.errors import InternalError

    def failing(g):
        raise InternalError("synthetic failure", instance=g)

    monkeypatch.setattr(cli_mod, "classify", failing)
    g = build(4, [(u, v, u + v) for u in range(4) for v in range(u + 1, 4)])
    path = tmp_path / "g.json"
    path.write_text(dumps_instance(g))
    assert main(["classify", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    first, echoed = captured.err.splitlines()
    assert first == "error: InternalError: synthetic failure"
    assert loads_instance(echoed) == g


def test_cli_sweep_report_and_exit(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(
        ["sweep", "--family", "exhaustive", "--n", "4", "--oracle", "full", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["processed"] == 203
    assert doc["internal_errors"] == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out) == doc
    assert "clean" in captured.err


def test_cli_sweep_report_matches_golden(tmp_path, capsys):
    # the report schema and its serialization are part of the contract:
    # byte for byte, not only stable from run to run
    golden = os.path.join(os.path.dirname(__file__), "data", "sweep_exhaustive_n4_full.json")
    out = tmp_path / "report.json"
    argv = ["sweep", "--family", "exhaustive", "--n", "4", "--oracle", "full", "--out", str(out)]
    assert main(argv) == 0
    with open(golden, "rb") as fh:
        assert out.read_bytes() == fh.read()


def test_cli_gen_random_degenerate_stream_is_pinned(monkeypatch, capsys):
    # seeds 0..39 at n=10 cover every fiber-pair shape (1-1, 1-2, 2-1, 2-2);
    # the n=64 digest, the one CI checks with sha256sum -c, pins the stream
    # the benchmark's degenerate workload draws
    monkeypatch.delenv("PCG_SEED", raising=False)
    golden = os.path.join(os.path.dirname(__file__), "data", "gen_random_degenerate_n10.jsonl")
    argv = ["gen", "--family", "randomDegenerate", "--n", "10", "--seed", "0", "--count", "40"]
    assert main(argv) == 0
    with open(golden) as fh:
        assert capsys.readouterr().out == fh.read()
    pinned = os.path.join(os.path.dirname(__file__), "data", "gen_random_degenerate_n64.sha256")
    with open(pinned) as fh:
        want, name = fh.read().split()
    assert name == "rd64g.jsonl"
    argv = ["gen", "--family", "randomDegenerate", "--n", "64", "--seed", "0", "--count", "20"]
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == want


def test_cli_seed_env_override(tmp_path, monkeypatch):
    out1 = tmp_path / "a.jsonl"
    out2 = tmp_path / "b.jsonl"
    main(["gen", "--family", "randomNoMono", "--n", "6", "--k", "3", "--seed", "4", "--out", str(out1)])
    monkeypatch.setenv("PCG_SEED", "4")
    main(["gen", "--family", "randomNoMono", "--n", "6", "--k", "3", "--seed", "999", "--out", str(out2)])
    assert out1.read_text() == out2.read_text()


def test_cli_rejects_non_integer_seed_env(monkeypatch, capsys):
    monkeypatch.setenv("PCG_SEED", "abc")
    for argv in (
        ["gen", "--family", "doublePentagon"],
        ["sweep", "--family", "exhaustive", "--n", "4"],
    ):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "PCG_SEED" in captured.err


def test_cli_gen_unwritable_out(tmp_path, capsys):
    out = tmp_path / "missing" / "x.json"
    assert main(["gen", "--family", "doublePentagon", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: FileNotFoundError: ")
    assert not out.exists()


def test_cli_sweep_unwritable_out(tmp_path, capsys):
    out = tmp_path / "missing" / "report.json"
    code = main(["sweep", "--family", "exhaustive", "--n", "4", "--out", str(out)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: FileNotFoundError: ")
    # the report still reaches stdout
    assert json.loads(captured.out)["processed"] == 203


def test_cli_sweep_unwritable_dump_dir(tmp_path, monkeypatch, capsys):
    import pcgraph.sweep as sweep_mod
    from pcgraph.errors import InternalError

    def failing(g, counters=None):
        raise InternalError("synthetic failure", instance=g)

    monkeypatch.setattr(sweep_mod, "classify", failing)
    blocker = tmp_path / "file"
    blocker.write_text("")
    argv = ["sweep", "--family", "randomNoMono", "--n", "6", "--k", "3"]
    assert main(argv + ["--dump-dir", str(blocker / "dumps")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_cert_sidecar(tmp_path):
    cert = tmp_path / "cert.json"
    out = tmp_path / "inst.json"
    code = main(
        [
            "gen", "--family", "randomDegenerate", "--n", "6", "--seed", "5",
            "--out", str(out), "--cert-out", str(cert),
        ]
    )
    assert code == 0
    from pcgraph.detect import DegeneracyCertificate

    g = loads_instance(out.read_text().strip())
    doc = json.loads(cert.read_text())
    witness = DegeneracyCertificate(
        frozenset(doc["S"]), {int(v): c for v, c in doc["f"].items()}
    )
    assert witness.check(g)


def test_sweep_dumps_falsification_instances(tmp_path, monkeypatch):
    # force one InternalError to exercise the counterexample dump path
    import pcgraph.sweep as sweep_mod
    from pcgraph.errors import InternalError

    real = sweep_mod.classify
    state = {"calls": 0}

    def flaky(g, counters=None):
        state["calls"] += 1
        if state["calls"] == 1:
            raise InternalError("synthetic failure", instance=g)
        return real(g, counters)

    monkeypatch.setattr(sweep_mod, "classify", flaky)
    report = run_sweep(
        SweepConfig(
            family="randomNoMono", n=6, k=3, count=3, seed=5,
            oracle="off", dump_dir=str(tmp_path),
        )
    )
    assert report.internal_errors == 1
    assert not report.clean
    assert len(report.dumps) == 1
    with open(report.dumps[0]) as fh:
        doc = json.load(fh)
    assert doc["error"] == "synthetic failure"
    dumped = loads_instance(json.dumps(doc["instance"]))
    assert dumped.n == 6
    name = hashlib.sha256(dumps_instance(dumped).encode()).hexdigest()
    assert os.path.basename(report.dumps[0]) == f"{name}.json"


def test_sweep_survives_unexpected_exceptions(tmp_path, monkeypatch):
    # a non-InternalError from classify is counted and dumped, not raised
    import pcgraph.sweep as sweep_mod

    real = sweep_mod.classify
    state = {"calls": 0}

    def broken(g, counters=None):
        state["calls"] += 1
        if state["calls"] == 2:
            raise ValueError("synthetic defect")
        return real(g, counters)

    monkeypatch.setattr(sweep_mod, "classify", broken)
    report = run_sweep(
        SweepConfig(
            family="randomNoMono", n=6, k=3, count=3, seed=5,
            oracle="off", dump_dir=str(tmp_path),
        )
    )
    assert state["calls"] == 3
    assert report.internal_errors == 1
    assert not report.clean
    assert report.flagged == [{"index": 1, "reason": "ValueError: synthetic defect"}]
    assert len(report.dumps) == 1
    with open(report.dumps[0]) as fh:
        doc = json.load(fh)
    assert doc["error"] == "ValueError: synthetic defect"
    assert loads_instance(json.dumps(doc["instance"])).n == 6


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "pcgraph.cli", "gen", "--family", "doublePentagon"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["n"] == 5
