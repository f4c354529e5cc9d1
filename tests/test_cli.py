import argparse
import hashlib
import json
import math
import re
from pathlib import Path

import pytest

from symsubmax.cli import MANIFEST_FIELDS, UsageError, build_parser, cmd_bench, main
from symsubmax.generators import random_graph
from symsubmax.oracle import graph_cut_oracle, save_instance


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
            "--timing",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["opt_value"] == 2.0
    assert rep["ratio"] == 1.0
    assert len(rep["rounds"]) == 1
    assert rep["duration_ms"] >= 0


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
    argv = ["solve", "--instance", k3_file, "--constraint", knap, "--algorithm", "mw-packing"]
    argv += ["--epsilon", "0.5", "--out", str(out)]
    assert main(argv) == 0
    rep = json.loads(out.read_text())
    assert rep["final_value"] == 2.0
    assert rep["feasible"] is True
    assert rep["params"]["lambda"] == math.exp(0.5 * 2.0)


N9_EDGES = [
    [0, 8, 0.7168907332779808], [1, 2, 0.056791230038824914], [1, 4, 1.4649375605538406],
    [1, 8, 0.6702692175672156], [2, 3, 0.6710675348157122], [2, 4, 0.5413959814489258],
    [2, 6, 0.7582365235184252], [3, 5, 1.7047460765821756], [3, 7, 1.678609850438478],
    [4, 7, 1.8946496137302304], [7, 8, 1.7939080795024742],
]


def test_mw_packing_repairs_by_the_knapsacks_own_load(tmp_path):
    cases = [
        # before the repair, the set is {1, 2, 5, 7}: its load in ascending
        # id rounds to 1.05, over the budget, while the rescaled packing load
        # fits
        (N9_EDGES, [1 / 3, 0.1, 0.15, 0.45, 0.45, 0.35, 0.3, 0.45, 0.35],
         1.0499999999999998, "0.2", [1, 2, 7], [5]),
        # the run adds 4, 2, 0, 6, 7: {0, 2, 4, 6} already rounds to 0.8,
        # over the budget, before 7 is added, so dropping 7 alone is not enough
        ([list(e) for e in random_graph(9, 0.5, (0.0, 2.0), seed=1).edges],
         [0.3, 0.15, 0.2, 0.3, 0.15, 0.2, 0.15, 0.35, 0.7],
         0.7999999999999999, "0.3", [0, 2, 4], [7, 6]),
    ]
    out = tmp_path / "mw.json"
    for edges, weights, budget, epsilon, final_set, dropped in cases:
        inst = write_json(tmp_path / "g.json", {"type": "graph-cut", "n": 9, "edges": edges})
        knap = write_json(
            tmp_path / "knap.json", {"type": "knapsack", "weights": weights, "budget": budget}
        )
        argv = ["solve", "--instance", inst, "--constraint", knap, "--algorithm", "mw-packing"]
        assert main(argv + ["--epsilon", epsilon, "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["feasible"] is True
        assert rep["final_set"] == final_set
        assert [w for w in rep["warnings"] if w.startswith("dropped")] == [
            f"dropped last added element {j} to restore feasibility" for j in dropped
        ]


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
    # not JSON, and a JSON object where a list of entries belongs
    for text in ("{not json", json.dumps({"runs": []})):
        bad.write_text(text)
        assert main(["bench", "--manifest", str(bad)]) == 1
        assert capsys.readouterr().err.startswith("error: bad manifest:")
        # main prints the error line; the command only raises
        with pytest.raises(UsageError, match="^bad manifest:"):
            cmd_bench(argparse.Namespace(manifest=str(bad), out=None))
        assert capsys.readouterr() == ("", "")
    run = {"instance": k3_file, "constraint": card2_file, "algorithm": "sample-greedy-card"}
    # entries that are not objects, that lack a required field, whose
    # fields have the wrong type, or that have a field no entry takes
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
        {**run, "algorithm": "no-such-solver"},
        {**run, "epsilon": 0.1, "sead": 5},
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
UNIFORM1 = {"type": "uniform-matroid", "k": 1}
KNAP3_WIDE = {"type": "knapsack", "weights": [1, 1, 1], "budget": 1e4}  # width 1e4
KNAP3_FREE = {"type": "knapsack", "weights": [0, 0, 0], "budget": 1}
TABLE_HUGE_N = {"type": "table", "n": 1e300, "values": [0.0]}
MW = "solve --algorithm mw-packing --epsilon 0.5"
# every cut is at most the total weight, which overflows here
K3_HUGE = {"type": "graph-cut", "n": 3, "edges": [[0, 1, 1e308], [1, 2, 1e308], [0, 2, 1e308]]}


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
        # lambda is always e^(eps W): there is no option to set it
        (f"{MW} --lambda-override nan", K3, KNAP3),
        (f"{MW} --lambda-override inf", K3, KNAP3),
        ("solve --algorithm sample-greedy-card", K3, CARD1),  # needs --epsilon
        ("solve", K3_HUGE, CARD1),
        ("verify --exhaustive", K3_HUGE, None),
        # lambda = e^(eps W) is not a finite float: eps W overflows exp, or a
        # subnormal entry makes W infinite
        (MW, K3, {"type": "packing", "A": [[1, 0.5, 0.2]], "b": [5000]}),
        (MW, K3, {"type": "packing", "A": [[5e-324, 1e-320, 0]], "b": [1]}),
        ("solve --algorithm knapsack-enum", K3, KNAP3_WIDE),
        ("verify --trials 0", K3, None),
        ("verify --trials -5", K3, None),
        # usage errors: a missing required option, an option value of the wrong type
        ("solve", K3, None),
        ("solve --algorithm sample-greedy-card --epsilon abc", K3, CARD1),
        # 1/eps overflows to inf, so ln(1/eps) and the round count are not finite
        ("solve --algorithm sample-greedy-card --epsilon 5e-324", K3, CARD1),
        ("solve --algorithm greedy-matroid --epsilon 5e-324", K3, UNIFORM1),
        # eps W rounds to 0, so lambda = e^(eps W) is 1
        ("solve --algorithm mw-packing --epsilon 5e-324", K3, KNAP3),
        # knapsack-enum checks eps itself: zero weights never reach mw-packing
        ("solve --algorithm knapsack-enum --epsilon nan", K3, KNAP3_FREE),
        # a table of 2^n entries for an n too large to shift by
        ("verify", TABLE_HUGE_N, None),
        ("solve", TABLE_HUGE_N, CARD1),
        ("exact", TABLE_HUGE_N, CARD1),
        # a JSON integer too large for a float, as a weight or a table value
        ("verify", {"type": "graph-cut", "n": 2, "edges": [[0, 1, 10**400]]}, None),
        ("solve", {"type": "graph-cut", "n": 2, "edges": [[0, 1, 10**400]]}, CARD1),
        ("exact", {"type": "graph-cut", "n": 2, "edges": [[0, 1, 10**400]]}, CARD1),
        ("verify", {"type": "hypergraph-cut", "n": 2, "edges": [{"members": [0, 1], "w": 10**400}]}, None),
        ("verify", {"type": "table", "n": 1, "values": [0, 10**400]}, None),
    ],
)
def test_bad_input_exits_1(tmp_path, capsys, command, instance, constraint):
    command, *options = command.split()
    argv = [command, "--instance", write_json(tmp_path / "i.json", instance)]
    if constraint is not None:
        argv += ["--constraint", write_json(tmp_path / "c.json", constraint)]
    if command == "solve" and not options:
        options = ["--algorithm", "greedy-card"]
    argv += options
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "command, bad", [("solve", "instance"), ("verify", "instance"), ("solve", "constraint")]
)
def test_non_utf8_file_exits_1(tmp_path, capsys, k3_file, card2_file, command, bad):
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"type": "cardinality", "k": 2, "note": "\u00e9"}'.encode("latin-1"))
    files = {"instance": k3_file, "constraint": card2_file, bad: str(latin1)}
    argv = [command, "--instance", files["instance"]]
    if command == "solve":
        argv += ["--constraint", files["constraint"], "--algorithm", "greedy-card"]
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
        ["solve", "--instance", k3_file, "--algorithm", "greedy-card"],  # exit 1
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
    assert [r[0] for r in reused] == [0, 1, 0, 0]


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--help"])
    assert exc.value.code == 0
    assert "--epsilon" in capsys.readouterr().out


def test_readme_names_the_parser_options_and_manifest_fields():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    cli_section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    (subcommands,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    options = {
        option
        for sub in subcommands.choices.values()
        for action in sub._actions
        for option in action.option_strings
    } - {"-h", "--help"}
    assert set(re.findall(r"--[a-z][a-z-]*", cli_section)) == options

    manifest = cli_section.split("Bench manifests", 1)[1].split("\n\n", 1)[0]
    named = set(re.findall(r'"(\w+)":', manifest)) | set(re.findall(r"`(\w+)`", manifest))
    assert named == MANIFEST_FIELDS.keys()


# SHA-256 of the files below, computed with the writers of commit 3deaea5
OUTPUT_DIGESTS = {
    "tight-example": "ce3e88a1c18ea65f5a1652cde2c54ed8992d5fc742d391fe2941e6b39052a283",
    "bench": "322ca101140b81da8ca3ab4c3a613ca51c618028ed82dc0f12680a3bab4bfaad",
}


def sha256_of(*blobs):
    h = hashlib.sha256()
    for blob in blobs:
        h.update(blob)
    return h.hexdigest()


def test_tight_example_files_are_pinned(tmp_path):
    out = tmp_path / "tight5.json"
    assert main(["tight-example", "--k", "5", "--out", str(out)]) == 0
    files = out.read_bytes(), Path(f"{out}.opt.json").read_bytes()
    assert sha256_of(*files) == OUTPUT_DIGESTS["tight-example"]


def test_bench_csv_is_pinned(tmp_path, monkeypatch):
    """Every column but millis, with the CSV's \\r\\n row ends, on relative
    paths so that the instance column does not depend on tmp_path."""
    monkeypatch.chdir(tmp_path)
    save_instance(graph_cut_oracle(random_graph(8, 0.5, (0.0, 2.0), seed=3)), "g8.json")
    write_json(tmp_path / "empty.json", {"type": "graph-cut", "n": 8, "edges": []})
    write_json(tmp_path / "card2.json", {"type": "cardinality", "k": 2})
    write_json(
        tmp_path / "parts.json",
        {"type": "partition-matroid", "parts": [[0, 1, 2, 3], [4, 5, 6, 7]], "limits": [1, 2]},
    )
    write_json(
        tmp_path / "knap.json",
        {"type": "knapsack", "weights": [0.3, 0.15, 0.2, 0.3, 0.15, 0.2, 0.35, 0.7], "budget": 0.8},
    )
    runs = [
        {"instance": "g8.json", "constraint": "card2.json", "algorithm": "greedy-card", "exact": True},
        {"instance": "g8.json", "constraint": "card2.json", "algorithm": "sample-greedy-card",
         "epsilon": 0.3, "seed": 4},
        {"instance": "g8.json", "constraint": "parts.json", "algorithm": "greedy-matroid",
         "epsilon": 0.2, "exact": True},
        {"instance": "g8.json", "constraint": "knap.json", "algorithm": "mw-packing",
         "epsilon": 0.3, "exact": True},
        {"instance": "g8.json", "constraint": "knap.json", "algorithm": "knapsack-enum"},
        {"instance": "empty.json", "constraint": "card2.json", "algorithm": "greedy-card",
         "exact": True},
    ]
    write_json(tmp_path / "runs.json", runs)
    assert main(["bench", "--manifest", "runs.json", "--out", "bench.csv"]) == 0
    data = (tmp_path / "bench.csv").read_bytes()
    assert data.count(b"\r\n") == len(runs) + 1 and b"vacuous" in data
    without_millis = re.sub(rb",[0-9.]+\r\n", b",\r\n", data)
    assert sha256_of(without_millis) == OUTPUT_DIGESTS["bench"]
