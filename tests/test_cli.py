import csv
import io
import itertools
import json
import subprocess
import sys
import tracemalloc

import pytest

from submatch import PartitionConfig, SchedulerState, fixtures, load_graph, run_job, save_graph
from submatch import cli
from submatch.cli import main

import helpers


@pytest.fixture(scope="module")
def worked_paths():
    return str(fixtures.data_path("worked_data")), str(fixtures.data_path("worked_query"))


@pytest.fixture(scope="module")
def bench_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("bench") / "bench.graph"
    save_graph(helpers.benchmark_graph(), path)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_run_reports_two_embeddings(capsys, worked_paths):
    data, query = worked_paths
    code, out = run_cli(capsys, "run", "--data", data, "--query", query)
    assert code == 0
    report = json.loads(out)
    assert report["embeddings"] == 2
    assert list(report) == [
        "embeddings", "partitions", "w_c", "w_f",
        "cycles_basic", "cycles_task", "cycles_sep", "wall_ms",
    ]
    assert all(isinstance(v, (int, float)) for v in report.values())


def test_run_empty_result_exits_zero(capsys, worked_paths, tmp_path):
    data, _ = worked_paths
    query = tmp_path / "impossible.graph"
    query.write_text("t 2 1\nv 0 9 1\nv 1 8 1\ne 0 1\n")
    code, out = run_cli(capsys, "run", "--data", data, "--query", str(query))
    assert code == 0
    assert json.loads(out)["embeddings"] == 0


def test_run_absent_label_query_reports_no_partitions(capsys, worked_paths, tmp_path):
    # a tree with an empty candidate set holds no embedding and is dropped before its budget check
    data, _ = worked_paths
    query = tmp_path / "impossible.graph"
    query.write_text("t 2 1\nv 0 9 1\nv 1 8 1\ne 0 1\n")
    code, out = run_cli(capsys, "run", "--data", data, "--query", str(query))
    assert code == 0
    report = json.loads(out)
    assert (report["partitions"], report["embeddings"]) == (0, 0)


def test_run_parse_error_is_machine_readable(capsys, tmp_path, worked_paths):
    bad = tmp_path / "bad.graph"
    bad.write_text("t 2 1\nv 0 0 1\nv 1 0 1\ne 1 1\n")
    code, out = run_cli(capsys, "run", "--data", str(bad), "--query", worked_paths[1])
    assert code == 1
    err = json.loads(out)["error"]
    assert err["type"] == "format" and err["line"] == 4


def test_run_non_ascii_digit_in_query_is_typed_format_error(capsys, tmp_path, worked_paths):
    query = tmp_path / "digit.graph"
    query.write_text("t 2 1\nv 0 0 1\nv 1 \u0661 1\ne 0 1\n", encoding="utf-8")
    code, out = run_cli(capsys, "run", "--data", worked_paths[0], "--query", str(query), "--json")
    assert code == 1
    err = json.loads(out)["error"]
    assert err["type"] == "format" and err["line"] == 3 and "must be integers" in err["message"]


@pytest.mark.parametrize("count", [5_000_000, 99_999_999_999])
def test_run_header_count_alone_is_typed_error_without_sizing_arrays(capsys, worked_paths, tmp_path, count):
    """A header whose vertex count no line bears out is a format error, found without allocating per declared vertex."""
    query = tmp_path / "header_only.graph"
    query.write_text(f"t {count} 0\n")
    tracemalloc.start()
    try:
        code, out = run_cli(capsys, "run", "--data", worked_paths[0], "--query", str(query), "--json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    err = json.loads(out)["error"]
    assert err["type"] == "format" and "vertex 0 never declared" in err["message"]
    assert peak < 8 * 2**20


def test_run_isolated_query_vertex_is_typed_error(capsys, worked_paths, tmp_path):
    query = tmp_path / "isolated.graph"
    query.write_text("t 3 1\nv 0 0 1\nv 1 1 1\nv 2 2 0\ne 0 1\n")
    code, out = run_cli(capsys, "run", "--data", worked_paths[0], "--query", str(query))
    assert code == 1
    err = json.loads(out)["error"]
    assert err["type"] == "run" and "disconnected" in err["message"]


def test_run_empty_query_is_typed_error(capsys, worked_paths, tmp_path):
    query = tmp_path / "empty.graph"
    query.write_text("t 0 0\n")
    code, out = run_cli(capsys, "run", "--data", worked_paths[0], "--query", str(query))
    assert code == 1
    assert json.loads(out)["error"] == {"type": "run", "message": "query graph has no vertices"}


def test_run_and_compare_reject_seed(capsys, worked_paths):
    data, query = worked_paths
    for command in ("run", "compare"):
        with pytest.raises(SystemExit):
            main([command, "--data", data, "--query", query, "--seed", "1"])
    capsys.readouterr()


def test_compare_rejects_trace_as_a_usage_error(capsys, worked_paths, tmp_path):
    data, query = worked_paths
    trace_path = tmp_path / "trace.csv"
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--data", data, "--query", query, "--trace", str(trace_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --trace" in capsys.readouterr().err
    assert not trace_path.exists()


def test_run_rejects_variant_as_a_usage_error(capsys, worked_paths):
    # run reports all three variants' cycles, so it takes no variant
    data, query = worked_paths
    with pytest.raises(SystemExit) as exc:
        main(["run", "--data", data, "--query", query, "--variant", "basic"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --variant" in capsys.readouterr().err


def test_compare_rejects_variant_as_a_usage_error(capsys, worked_paths):
    # a compare row is one job priced under all three variants, as run reports it
    data, query = worked_paths
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--data", data, "--query", query, "--variant", "basic"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "unrecognized arguments: --variant" in captured.err and captured.out == ""


@pytest.mark.parametrize(
    "flags",
    [
        ["--delta", "abc"],
        ["--delta", "0.1,nan"],
        ["--k", "x"],
        ["--k", "auto,1"],
        ["--delta", "2"],
        ["--delta", "0,inf"],
    ],
)
def test_compare_rejects_bad_list_values(capsys, worked_paths, flags):
    data, query = worked_paths
    code, out = run_cli(capsys, "compare", "--data", data, "--query", query, "--json", *flags)
    assert code == 1
    assert json.loads(out)["error"]["type"] == "config"


@pytest.mark.parametrize("flag", ["--delta", "--k"])
def test_compare_empty_sweep_is_config_error_before_any_output(capsys, worked_paths, flag):
    data, query = worked_paths
    code, out = run_cli(capsys, "compare", "--data", data, "--query", query, "--json", flag, "")
    assert code == 1
    err = json.loads(out)["error"]  # the whole output: no CSV header
    assert err["type"] == "config" and flag in err["message"]


def test_run_writes_trace_csv(capsys, worked_paths, tmp_path):
    data, query = worked_paths
    trace_path = tmp_path / "trace.csv"
    code, _ = run_cli(capsys, "run", "--data", data, "--query", query, "--trace", str(trace_path))
    assert code == 0
    rows = list(csv.reader(trace_path.read_text().splitlines()))
    assert rows[0] == ["round", "depth", "p_o", "t_v", "t_n", "accepted"]
    assert len(rows) > 1
    assert [r[0] for r in rows[1:]] == [str(i) for i in range(len(rows) - 1)]


def test_bare_compare_prices_one_job_under_every_variant(capsys, worked_paths):
    data, query = worked_paths
    code, out = run_cli(capsys, "compare", "--data", data, "--query", query)
    assert code == 0
    (row,) = csv.DictReader(io.StringIO(out))
    assert (row["delta"], row["k"], row["embeddings"]) == ("0.0", "auto", "2")
    # the worked pair's three prices, as run reports them
    assert [int(row[f"cycles_{v}"]) for v in ("basic", "task", "sep")] == [34, 21, 14]


def test_compare_rows_are_run_reports(capsys, bench_path, monkeypatch):
    """Each row is one job, in delta then k order, equal to `run --delta d --k k` apart from wall_ms.

    A value listed twice runs twice.
    """
    calls = []

    def counting_run_job(*args, **kwargs):
        calls.append((args[3].delta, args[2].fixed_k))
        return run_job(*args, **kwargs)

    monkeypatch.setattr(cli, "run_job", counting_run_job)
    deltas, ks = ("0", "0.1", "0"), ("auto", "2")
    inputs = ("--data", bench_path, "--query", str(fixtures.data_path("q1")), "--delta-s", "3000")
    code, out = run_cli(capsys, "compare", *inputs, "--delta", ",".join(deltas), "--k", ",".join(ks))
    assert code == 0
    assert calls == [(0.0, None), (0.0, 2), (0.1, None), (0.1, 2), (0.0, None), (0.0, 2)]
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [(r["delta"], r["k"]) for r in rows] == [(str(float(d)), k) for d, k in itertools.product(deltas, ks)]
    for row, (delta, k) in zip(rows, itertools.product(deltas, ks)):
        _, text = run_cli(capsys, "run", *inputs, "--delta", delta, *(() if k == "auto" else ("--k", k)))
        report = json.loads(text)
        assert list(row) == ["delta", "k", *report]
        fields = [field for field in report if field != "wall_ms"]
        assert [row[field] for field in fields] == [str(report[field]) for field in fields]


def test_compare_delta_sweep_keeps_embeddings_constant(capsys, bench_path):
    query = str(fixtures.data_path("q1"))
    code, out = run_cli(
        capsys, "compare", "--data", bench_path, "--query", query,
        "--delta", "0,0.05,0.1,0.15,0.2",
        "--delta-s", "3000",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 5
    assert len({r["embeddings"] for r in rows}) == 1
    assert int(rows[0]["embeddings"]) == 52


def test_compare_k_sweep_automatic_is_no_worse(capsys, bench_path):
    query = str(fixtures.data_path("q8"))
    code, out = run_cli(
        capsys, "compare", "--data", bench_path, "--query", query,
        "--k", "auto,2,4,6,8,10", "--delta-s", "3294",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    by_k = {r["k"]: int(r["partitions"]) for r in rows}
    assert all(by_k["auto"] <= by_k[k] for k in by_k if k != "auto")


def test_gen_round_trips_and_is_deterministic(capsys, tmp_path):
    out1 = tmp_path / "a.graph"
    out2 = tmp_path / "b.graph"
    for out in (out1, out2):
        code, _ = run_cli(capsys, "gen", "--out", str(out), "--n", "10", "--p", "0.3", "--labels", "3", "--seed", "7")
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    g = load_graph(out1)
    assert g.num_vertices == 10
    assert g.num_edges == round(0.3 * 45)


def test_gen_single_vertex(capsys, tmp_path):
    out = tmp_path / "one.graph"
    code, _ = run_cli(capsys, "gen", "--out", str(out), "--n", "1", "--p", "0.5", "--labels", "2", "--seed", "1")
    assert code == 0
    assert load_graph(out).num_vertices == 1


def test_gen_power_law(capsys, tmp_path):
    out = tmp_path / "pl.graph"
    code, _ = run_cli(
        capsys, "gen", "--out", str(out), "--n", "200", "--power-law", "2.5", "--labels", "4", "--seed", "3"
    )
    assert code == 0
    g = load_graph(out)
    assert g.num_vertices == 200 and g.num_edges > 100


def test_gen_nan_power_law_is_typed_error(capsys, tmp_path):
    out = tmp_path / "nan.graph"
    code, text = run_cli(capsys, "gen", "--out", str(out), "--n", "20", "--power-law", "nan", "--json")
    assert code == 1
    err = json.loads(text)["error"]
    assert err["type"] == "gen" and "exponent > 1" in err["message"]
    assert not out.exists()


def test_gen_rejects_both_models(capsys, tmp_path):
    code, _ = run_cli(
        capsys, "gen", "--out", str(tmp_path / "x.graph"), "--n", "5", "--p", "0.2", "--power-law", "2.0", "--json"
    )
    assert code == 1


def test_oracle_is_a_usage_error(capsys, worked_paths):
    data, query = worked_paths
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--data", data, "--query", query])
    assert exc.value.code == 2
    assert "invalid choice: 'oracle'" in capsys.readouterr().err


def test_l_consts_of_other_than_six_values_is_a_usage_error(capsys, worked_paths):
    data, query = worked_paths
    with pytest.raises(SystemExit) as exc:
        main(["run", "--data", data, "--query", query, "--l-consts", "1,2,3"])
    assert exc.value.code == 2
    assert "expected six comma-separated values" in capsys.readouterr().err


def test_bare_command_prints_help_and_exits_two(capsys):
    assert main([]) == 2
    assert capsys.readouterr().out == cli.build_parser().format_help()


@pytest.mark.parametrize("command", ["run", "compare"])
def test_budget_and_share_defaults_are_the_library_defaults(command):
    args = cli.build_parser().parse_args([command, "--data", "d", "--query", "q"])
    config = PartitionConfig()
    assert (args.delta_s, args.delta_d, args.port_max) == (config.size_budget, config.degree_budget, config.port_limit)
    if command == "run":
        assert args.delta == SchedulerState().delta


def test_oracle_hidden_from_help():
    import submatch.cli as cli

    help_text = cli.build_parser().format_help()
    assert "{run,compare,gen}" in help_text


def test_entry_point_runs_as_module(worked_paths):
    data, query = worked_paths
    proc = subprocess.run(
        [sys.executable, "-m", "submatch.cli", "run", "--data", data, "--query", query],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["embeddings"] == 2


def test_package_runs_as_module(worked_paths):
    data, query = worked_paths
    proc = subprocess.run(
        [sys.executable, "-m", "submatch", "run", "--data", data, "--query", query],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["embeddings"] == 2


@pytest.mark.parametrize(
    "command, flags, status",
    [
        ("run", ["--delta-d", "\u0661", "--port-max", "1_6"], 2),
        ("run", ["--no", "\uff12"], 2),
        ("run", ["--delta", "\uff10.\uff15"], 2),
        ("run", ["--k", "\u0663"], 2),
        ("run", ["--delta-s", "262_144"], 2),
        ("run", ["--dram-ratio", "\u0667"], 2),
        ("compare", ["--l-consts", "\u0661,1,1,1,1,1"], 2),
        ("compare", ["--k", "\uff12", "--delta", "\uff10.1"], 1),
        ("compare", ["--delta", "0.1,0.0_5"], 1),
        ("gen", ["--n", "\uff15"], 2),
        ("gen", ["--n", "5", "--labels", "1_0"], 2),
        ("gen", ["--n", "5", "--seed", "\u0667"], 2),
        ("gen", ["--n", "5", "--p", "\uff10.5"], 2),
        ("gen", ["--n", "5", "--power-law", "\uff12.5"], 2),
    ],
)
def test_numeric_options_read_ascii_digits_only(capsys, worked_paths, tmp_path, command, flags, status):
    """A non-ASCII digit or '_' is a usage error in a flag and a config error in a list item, as in load_graph."""
    data, query = worked_paths
    out_path = tmp_path / "gen.graph"
    inputs = ["--out", str(out_path)] if command == "gen" else ["--data", data, "--query", query]
    argv = [command, *inputs, "--json", *flags]
    if status == 2:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "invalid" in capsys.readouterr().err
    else:
        code, out = run_cli(capsys, *argv)
        assert code == 1
        assert json.loads(out)["error"]["type"] == "config"  # the whole output: no CSV header
    assert not out_path.exists()


def test_dram_ratio_scales_basic_cycles(capsys, worked_paths):
    data, query = worked_paths
    _, out1 = run_cli(capsys, "run", "--data", data, "--query", query, "--no", "4")
    _, out7 = run_cli(capsys, "run", "--data", data, "--query", query, "--no", "4", "--dram-ratio", "7")
    assert json.loads(out7)["cycles_basic"] > json.loads(out1)["cycles_basic"]


@pytest.mark.parametrize("command", ["run", "compare"])
@pytest.mark.parametrize(
    "flags, names",
    [
        (["--l-consts", "nan,2,1,1,1,1"], "latencies"),
        (["--l-consts", "2,2,1,1,1,inf"], "latencies"),
        (["--dram-ratio", "nan"], "dram-ratio"),
        (["--dram-ratio", "inf"], "dram-ratio"),
    ],
)
def test_non_finite_cycle_constants_are_config_errors(capsys, worked_paths, command, flags, names):
    data, query = worked_paths
    code, out = run_cli(capsys, command, "--data", data, "--query", query, "--json", *flags)
    assert code == 1
    err = json.loads(out)["error"]  # the whole output: no report or CSV header
    assert err["type"] == "config" and names in err["message"]


@pytest.mark.parametrize("command", ["run", "compare"])
@pytest.mark.parametrize(
    "flags",
    [
        ["--l-consts", "1e308,1e308,1e308,1e308,1,1"],
        ["--l-consts", "1e300,1,1,1,1,1", "--dram-ratio", "1e8"],
    ],
)
def test_overflowing_cycle_estimate_is_config_error(capsys, worked_paths, command, flags):
    """Every latency is finite, but their products with the job's task counts overflow."""
    data, query = worked_paths
    code, out = run_cli(capsys, command, "--data", data, "--query", query, "--json", *flags)
    assert code == 1
    err = json.loads(out.splitlines()[-1])["error"]  # compare has printed its CSV header first
    assert err["type"] == "config" and "overflows" in err["message"]


@pytest.mark.parametrize(
    "command, flags",
    [
        ("compare", ["--delta-d", "0"]),
        ("run", ["--no", "0"]),
        ("compare", ["--no", "0"]),
        ("run", ["--no", "-3"]),
        ("compare", ["--no", "-3"]),
    ],
)
def test_bad_budget_or_capacity_is_config_error_before_any_output(capsys, worked_paths, command, flags):
    data, query = worked_paths
    code, out = run_cli(capsys, command, "--data", data, "--query", query, "--json", *flags)
    assert code == 1
    assert json.loads(out)["error"]["type"] == "config"  # the whole output: no report or CSV header


@pytest.mark.parametrize(
    "command, flags, message",
    [
        ("run", ["--k", "1"], "fixed_k must be >= 2 when set"),
        ("compare", ["--k", "auto,1"], "fixed_k must be >= 2 when set"),
        ("run", ["--delta", "2"], "delta must lie in [0, 1]"),
        ("compare", ["--dram-ratio", "0.5"], "dram-ratio must be finite and >= 1"),
        ("run", ["--no", "0"], "capacity must be >= 1"),
    ],
)
def test_option_values_are_checked_by_the_objects_they_build(capsys, worked_paths, command, flags, message):
    """PartitionConfig, SchedulerState and CycleModel check the values; the CLI reports their message."""
    data, query = worked_paths
    code, out = run_cli(capsys, command, "--data", data, "--query", query, "--json", *flags)
    assert code == 1
    assert json.loads(out) == {"error": {"type": "config", "message": message}}  # the whole output


def test_run_writes_the_trace_of_a_job_whose_price_overflows(capsys, worked_paths, tmp_path):
    """The job's rounds reach the trace file before the cycle check fails the run."""
    data, query = worked_paths
    priced, overflowed = tmp_path / "priced.csv", tmp_path / "overflowed.csv"
    code, _ = run_cli(capsys, "run", "--data", data, "--query", query, "--trace", str(priced))
    assert code == 0
    code, out = run_cli(
        capsys, "run", "--data", data, "--query", query, "--trace", str(overflowed),
        "--l-consts", "1e308,1e308,1e308,1e308,1,1",
    )
    assert code == 1
    assert json.loads(out)["error"]["type"] == "config"
    assert len(priced.read_text().splitlines()) == 1 + 3  # the header and the job's three rounds
    assert overflowed.read_bytes() == priced.read_bytes()


def test_run_unwritable_trace_path_is_io_error(capsys, worked_paths, tmp_path):
    data, query = worked_paths
    trace_path = tmp_path / "missing" / "trace.csv"
    code, out = run_cli(capsys, "run", "--data", data, "--query", query, "--trace", str(trace_path))
    assert code == 1
    err = json.loads(out)["error"]
    assert err["type"] == "io" and "trace" in err["message"]


def test_run_unwritable_trace_path_fails_before_the_job(capsys, worked_paths, tmp_path, monkeypatch):
    def no_job(*args, **kwargs):
        raise AssertionError("run_job called despite an unwritable trace path")

    monkeypatch.setattr("submatch.cli.run_job", no_job)
    data, query = worked_paths
    trace_path = tmp_path / "missing" / "trace.csv"
    code, out = run_cli(capsys, "run", "--data", data, "--query", query, "--trace", str(trace_path))
    assert code == 1
    assert json.loads(out)["error"]["type"] == "io"


def test_run_empty_trace_path_fails_before_the_job(capsys, worked_paths, monkeypatch):
    def no_job(*args, **kwargs):
        raise AssertionError("run_job called despite an empty trace path")

    monkeypatch.setattr("submatch.cli.run_job", no_job)
    data, query = worked_paths
    code, out = run_cli(capsys, "run", "--data", data, "--query", query, "--trace", "")
    assert code == 1
    err = json.loads(out)["error"]
    assert err["type"] == "io" and "trace" in err["message"]


@pytest.mark.parametrize("command", ["run", "compare"])
@pytest.mark.parametrize("role", ["data", "query"])
@pytest.mark.parametrize("kind", ["io", "format"])
def test_unreadable_input_is_typed_error(capsys, worked_paths, tmp_path, command, role, kind):
    """A directory is an io error, a non-UTF-8 file a format error; neither a traceback."""
    path = tmp_path
    if kind == "format":
        path = tmp_path / "binary.graph"
        path.write_bytes(b"t 2 1\nv 0 0 1\xff\xfe\n")
    paths = dict(zip(("data", "query"), worked_paths), **{role: str(path)})
    code, out = run_cli(capsys, command, "--data", paths["data"], "--query", paths["query"], "--json")
    assert code == 1
    err = json.loads(out)["error"]
    assert err["type"] == kind and role in err["message"]


@pytest.mark.parametrize("command, flags", [("run", ()), ("compare", ("--json",)), ("compare", ())])
def test_out_of_memory_in_a_job_is_typed_error(capsys, worked_paths, monkeypatch, command, flags):
    """A MemoryError is one typed error under the CliError rule: JSON for run or --json, stderr otherwise."""

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("submatch.cli.run_job", exhausted)
    data, query = worked_paths
    code = main([command, "--data", data, "--query", query, *flags])
    captured = capsys.readouterr()
    assert code == 1
    if command == "run" or flags:
        err = json.loads(captured.out.splitlines()[-1])["error"]
        assert err["type"] == "memory" and "out of memory; a job holds all its answers" in err["message"]
        assert captured.err == ""
    else:
        assert captured.err.startswith("submatch: out of memory; a job holds all its answers")
        assert captured.out.splitlines() == [",".join(cli.COMPARE_FIELDS)]  # the header only


@pytest.mark.parametrize("model, flags", [("powerlaw_graph", ("--power-law", "2.5")), ("random_graph", ("--json",))])
def test_out_of_memory_in_gen_names_the_graph(capsys, tmp_path, monkeypatch, model, flags):
    """gen runs no job: its MemoryError names the graph it builds, as JSON under --json and on stderr otherwise."""

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(f"submatch.cli.{model}", exhausted)
    out = tmp_path / "g.graph"
    code = main(["gen", "--out", str(out), "--n", "10", *flags])
    captured = capsys.readouterr()
    assert code == 1 and not out.exists()
    message = "out of memory; the graph is built whole before it is written, so allow the process more memory"
    if "--json" in flags:
        assert json.loads(captured.out.splitlines()[-1])["error"] == {"type": "memory", "message": message}
        assert captured.err == ""
    else:
        assert captured.out == "" and captured.err == f"submatch: {message}\n"
