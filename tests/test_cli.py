import json

import pytest

from symsubmax.cli import main


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def k3_file(tmp_path):
    return write_json(
        tmp_path / "k3.json",
        {"type": "graph-cut", "n": 3, "edges": [[0, 1, 1.0], [1, 2, 1.0], [0, 2, 1.0]]},
    )


@pytest.fixture
def card2_file(tmp_path):
    return write_json(tmp_path / "card2.json", {"type": "cardinality", "k": 2})


def test_solve_greedy_card(k3_file, card2_file, tmp_path):
    out = tmp_path / "report.json"
    code = main(
        [
            "solve",
            "--instance",
            k3_file,
            "--constraint",
            card2_file,
            "--algorithm",
            "greedy-card",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["final_value"] == 2.0
    assert rep["feasible"] is True
    assert rep["total_queries"] <= 2 * (3 + 2 + 2)
    assert "rounds" not in rep  # trace is flag-gated
    assert "duration_ms" not in rep  # timing is flag-gated


def test_solve_with_exact_and_trace(k3_file, tmp_path):
    card1 = write_json(tmp_path / "card1.json", {"type": "cardinality", "k": 1})
    out = tmp_path / "report.json"
    code = main(
        [
            "solve",
            "--instance",
            k3_file,
            "--constraint",
            card1,
            "--algorithm",
            "greedy-card",
            "--exact",
            "--trace",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["opt_value"] == 2.0
    assert rep["ratio"] == 1.0
    assert len(rep["rounds"]) == 1


def test_solve_deterministic_reruns(k3_file, card2_file, tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        code = main(
            [
                "solve",
                "--instance",
                k3_file,
                "--constraint",
                card2_file,
                "--algorithm",
                "sample-greedy-card",
                "--epsilon",
                "0.1",
                "--seed",
                "7",
                "--trace",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_solve_mw_packing_on_knapsack(k3_file, tmp_path):
    knap = write_json(
        tmp_path / "knap.json", {"type": "knapsack", "weights": [1, 1, 1], "budget": 2.0}
    )
    out = tmp_path / "mw.json"
    code = main(
        [
            "solve",
            "--instance",
            k3_file,
            "--constraint",
            knap,
            "--algorithm",
            "mw-packing",
            "--epsilon",
            "0.5",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["final_value"] == 2.0
    assert rep["feasible"] is True


def test_mw_packing_repairs_by_the_knapsacks_own_load(tmp_path):
    # before the repair, the set is {1, 2, 5, 7}: its load in ascending id
    # rounds to 1.05, over the budget, while the rescaled packing load fits
    edges = [
        [0, 8, 0.7168907332779808], [1, 2, 0.056791230038824914], [1, 4, 1.4649375605538406],
        [1, 8, 0.6702692175672156], [2, 3, 0.6710675348157122], [2, 4, 0.5413959814489258],
        [2, 6, 0.7582365235184252], [3, 5, 1.7047460765821756], [3, 7, 1.678609850438478],
        [4, 7, 1.8946496137302304], [7, 8, 1.7939080795024742],
    ]
    inst = write_json(tmp_path / "g.json", {"type": "graph-cut", "n": 9, "edges": edges})
    weights = [1 / 3, 0.1, 0.15, 0.45, 0.45, 0.35, 0.3, 0.45, 0.35]
    knap = write_json(
        tmp_path / "knap.json",
        {"type": "knapsack", "weights": weights, "budget": 1.0499999999999998},
    )
    out = tmp_path / "mw.json"
    argv = ["solve", "--instance", inst, "--constraint", knap, "--algorithm", "mw-packing"]
    assert main(argv + ["--epsilon", "0.2", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["feasible"] is True
    assert rep["final_set"] == [1, 2, 7]
    assert "dropped last added element 5 to restore feasibility" in rep["warnings"]


def test_solve_incompatible_pair(k3_file, card2_file, capsys):
    code = main(
        [
            "solve",
            "--instance",
            k3_file,
            "--constraint",
            card2_file,
            "--algorithm",
            "greedy-matroid",
            "--epsilon",
            "0.1",
        ]
    )
    assert code == 1
    assert "matroid" in capsys.readouterr().err


def test_exact_command(k3_file, tmp_path):
    card1 = write_json(tmp_path / "card1.json", {"type": "cardinality", "k": 1})
    out = tmp_path / "exact.json"
    code = main(["exact", "--instance", k3_file, "--constraint", card1, "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["opt_value"] == 2.0
    assert rep["witness"] == [0]


def test_exact_too_large(tmp_path, card2_file):
    big = write_json(tmp_path / "big.json", {"type": "graph-cut", "n": 25, "edges": []})
    code = main(["exact", "--instance", big, "--constraint", card2_file])
    assert code == 1


def test_verify_valid_and_invalid(tmp_path, k3_file):
    code = main(["verify", "--instance", k3_file, "--exhaustive", "--out", str(tmp_path / "v.json")])
    assert code == 0
    bad = write_json(tmp_path / "bad.json", {"type": "table", "n": 2, "values": [0, 5, 4, 0]})
    out = tmp_path / "bad-report.json"
    code = main(["verify", "--instance", bad, "--exhaustive", "--out", str(out)])
    assert code == 3
    rep = json.loads(out.read_text())
    assert any(v["kind"] == "symmetry" for v in rep["violations"])


def test_verify_sampled_mode(k3_file, tmp_path):
    code = main(
        ["verify", "--instance", k3_file, "--trials", "200", "--seed", "3", "--out", str(tmp_path / "s.json")]
    )
    assert code == 0


def test_tight_example_command(tmp_path):
    out = tmp_path / "tight3.json"
    code = main(["tight-example", "--k", "3", "--out", str(out)])
    assert code == 0
    inst = json.loads(out.read_text())
    assert inst["n"] == 21
    side = json.loads((tmp_path / "tight3.json.opt.json").read_text())
    assert side["optimal_value"] == 3.0
    assert side["certified_by"] == "brute-force"
    assert main(["tight-example", "--k", "2", "--out", str(tmp_path / "x.json")]) == 1
    code = main(["tight-example", "--k", "4", "--out", str(tmp_path / "tight4.json")])
    assert code == 0
    side4 = json.loads((tmp_path / "tight4.json.opt.json").read_text())
    assert side4["certified_by"] == "analytic"


def test_bench_command(tmp_path, k3_file, card2_file):
    card1 = write_json(tmp_path / "card1.json", {"type": "cardinality", "k": 1})
    manifest = write_json(
        tmp_path / "manifest.json",
        [
            {"instance": k3_file, "constraint": card1, "algorithm": "greedy-card", "exact": True},
            {"instance": k3_file, "constraint": card2_file, "algorithm": "greedy-card", "exact": True},
            {
                "instance": k3_file,
                "constraint": card2_file,
                "algorithm": "sample-greedy-card",
                "epsilon": 0.5,
                "seed": 1,
            },
        ],
    )
    out = tmp_path / "bench.csv"
    code = main(["bench", "--manifest", manifest, "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 4  # header + 3 rows
    header = lines[0].split(",")
    assert header == ["instance", "algorithm", "n", "k", "value", "opt", "ratio", "queries", "millis"]
    row1 = lines[1].split(",")
    assert float(row1[4]) == 2.0 and float(row1[6]) == 1.0
    assert int(row1[7]) <= 1 * (3 + 1 + 2)


def test_bench_bad_manifest(tmp_path, capsys, k3_file, card2_file):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["bench", "--manifest", str(bad)]) == 1
    capsys.readouterr()
    run = {"instance": k3_file, "constraint": card2_file, "algorithm": "sample-greedy-card"}
    # entries that are not objects, that lack a required field, or whose
    # fields have the wrong type
    for entry in (
        5,
        None,
        ["i.json", "c.json", "greedy-card"],
        {"instance": "i.json"},
        {**run, "epsilon": "0.1"},
        {**run, "epsilon": 0.1, "seed": "abc"},
        {**run, "epsilon": 0.1, "exact": "no"},
        {**run, "epsilon": 0.1, "lambda_override": float("nan")},
        {**run, "epsilon": 0.1, "instance": [k3_file]},
        {**run, "epsilon": 0.1, "algorithm": ["greedy-card"]},
    ):
        manifest = write_json(tmp_path / "manifest.json", [entry])
        assert main(["bench", "--manifest", manifest]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1


C4 = {"type": "graph-cut", "n": 4, "edges": [[0, 1, 1.0], [1, 2, 1.0], [2, 3, 1.0], [0, 3, 1.0]]}
NAN_EDGE = {"type": "graph-cut", "n": 2, "edges": [[0, 1, float("nan")]]}
NO_WEIGHT = {"type": "graph-cut", "n": 2, "edges": [[0, 1]]}
CARD1 = {"type": "cardinality", "k": 1}
K3 = {"type": "graph-cut", "n": 3, "edges": [[0, 1, 1.0], [1, 2, 1.0], [0, 2, 1.0]]}
KNAP3 = {"type": "knapsack", "weights": [1, 1, 1], "budget": 2}
MW = "solve --algorithm mw-packing --epsilon 0.5"


@pytest.mark.parametrize(
    "command, instance, constraint",
    [
        # hypergraph spelled {"vertices", "weight"} instead of {"members", "w"}
        (
            "verify",
            {"type": "hypergraph-cut", "n": 3, "edges": [{"vertices": [0, 1, 2], "weight": 5.0}]},
            None,
        ),
        ("verify", NO_WEIGHT, None),
        ("solve", NO_WEIGHT, CARD1),
        ("verify", NAN_EDGE, None),
        ("solve", NAN_EDGE, CARD1),
        # constraints over a different ground set than the instance's n = 4
        ("exact", C4, {"type": "knapsack", "weights": [1, 1], "budget": 1}),
        ("exact", C4, {"type": "partition-matroid", "parts": [[0], [1]], "limits": [1, 1]}),
        ("exact", C4, {"type": "packing", "A": [[1.0, 1.0]], "b": [1.0]}),
        # a non-finite lambda would write NaN or Infinity into the JSON report
        (f"{MW} --lambda-override nan", K3, KNAP3),
        (f"{MW} --lambda-override inf", K3, KNAP3),
    ],
)
def test_bad_input_exits_1(tmp_path, capsys, command, instance, constraint):
    command, *options = command.split()
    argv = [command, "--instance", write_json(tmp_path / "i.json", instance)]
    if constraint is not None:
        argv += ["--constraint", write_json(tmp_path / "c.json", constraint)]
    if command == "solve":
        argv += options or ["--algorithm", "greedy-card"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_solve_missing_instance(card2_file):
    code = main(
        [
            "solve",
            "--instance",
            "/nonexistent/path.json",
            "--constraint",
            card2_file,
            "--algorithm",
            "greedy-card",
        ]
    )
    assert code == 1


def test_one_parser_serves_every_call(monkeypatch, capsys, k3_file, card2_file):
    from symsubmax import cli

    solve = ["solve", "--instance", k3_file, "--constraint", card2_file,
             "--algorithm", "greedy-card", "--trace"]
    calls = [
        solve,
        ["solve", "--instance", k3_file, "--algorithm", "greedy-card"],  # exit 2
        ["verify", "--instance", k3_file, "--exhaustive"],
        solve,
    ]

    def run_all():
        results = []
        for argv in calls:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            results.append((code, *capsys.readouterr()))
        return results

    reused = run_all()
    assert cli._parser() is cli._parser()
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert reused == run_all()
    assert [r[0] for r in reused] == [0, 2, 0, 0]
