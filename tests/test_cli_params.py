"""CLI parameter parsing and the serve subcommand surface."""

import pytest

from repro.cli import _parse_param, build_parser, main


# -- coercion -------------------------------------------------------------------


def test_parse_param_coerces_ints():
    assert _parse_param(["batch_size=256"]) == {"batch_size": 256}
    assert isinstance(_parse_param(["x=7"])["x"], int)


def test_parse_param_coerces_floats():
    overrides = _parse_param(["rate=2.5", "tiny=1e-3"])
    assert overrides["rate"] == pytest.approx(2.5)
    assert overrides["tiny"] == pytest.approx(1e-3)
    assert isinstance(overrides["rate"], float)


def test_parse_param_coerces_bools_case_insensitively():
    overrides = _parse_param(["a=true", "b=False", "c=TRUE"])
    assert overrides == {"a": True, "b": False, "c": True}


def test_parse_param_keeps_strings_and_empty_values():
    overrides = _parse_param(["name=wikipedia", "empty=", "tricky=1.2.3"])
    assert overrides == {"name": "wikipedia", "empty": "", "tricky": "1.2.3"}


def test_parse_param_later_duplicates_win():
    assert _parse_param(["k=1", "k=2"]) == {"k": 2}


def test_parse_param_rejects_malformed_overrides():
    with pytest.raises(ValueError, match="must be key=value"):
        _parse_param(["oops"])
    with pytest.raises(ValueError, match="must be key=value"):
        _parse_param(["=5"])


# -- argparse integration -----------------------------------------------------------


def test_malformed_param_exits_cleanly_with_one_error_line(capsys):
    parser = build_parser()
    with pytest.raises(SystemExit) as excinfo:
        parser.parse_args(["profile", "tgat", "--param", "oops"])
    assert excinfo.value.code == 2
    stderr = capsys.readouterr().err
    assert stderr == "error: argument --param: parameter override 'oops' must be key=value\n"


def test_malformed_param_on_serve_exits_cleanly(capsys):
    parser = build_parser()
    with pytest.raises(SystemExit) as excinfo:
        parser.parse_args(["serve", "tgat", "--param", "=broken"])
    assert excinfo.value.code == 2
    assert "must be key=value" in capsys.readouterr().err


def test_wellformed_params_parse_into_coerced_pairs():
    parser = build_parser()
    args = parser.parse_args(
        ["profile", "tgat", "--param", "num_neighbors=5", "--param", "uniform_sampling=false"]
    )
    assert _parse_param(args.param) == {"num_neighbors": 5, "uniform_sampling": False}


def test_serve_subcommand_defaults():
    parser = build_parser()
    args = parser.parse_args(["serve", "tgat"])
    assert args.command == "serve"
    assert args.arrival == "poisson"
    assert args.policy == "timeout"
    assert args.slo_ms == 50.0
    assert args.overlap is False
    assert args.seed == 0


# -- end-to-end CLI ------------------------------------------------------------------


def test_cli_serve_runs_end_to_end(capsys):
    code = main(
        ["serve", "tgat", "--scale", "tiny", "--rate", "300", "--duration", "100",
         "--policy", "slo", "--seed", "1", "--param", "num_neighbors=5"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "serving report" in out
    assert "p99" in out


def test_cli_serve_rejects_an_arrival_param_trace_replay_would_ignore(capsys):
    code = main(
        ["serve", "tgat", "--scale", "tiny", "--arrival", "trace",
         "--arrival-param", "flash_multiplier=8"]
    )
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (
        "error: trace replay takes no arrival parameters; got flash_multiplier\n")


def test_cli_serve_rejects_unservable_models(capsys):
    code = main(["serve", "jodie", "--scale", "tiny", "--rate", "100", "--duration", "50"])
    captured = capsys.readouterr()
    assert code == 2
    assert "error:" in captured.err


# -- scale-out serve flags -----------------------------------------------------------


def test_serve_scaleout_defaults():
    parser = build_parser()
    args = parser.parse_args(["serve", "tgat"])
    assert args.topology == "1xA6000"
    assert args.placement == "single"
    assert args.router == "round-robin"
    assert args.partitioner is None
    assert args.gpus is None


def test_cli_serve_replicated_end_to_end(capsys):
    code = main(
        ["serve", "tgat", "--scale", "tiny", "--rate", "500", "--duration", "100",
         "--topology", "2xA100-pcie", "--placement", "replicate", "--router", "jsq",
         "--param", "num_neighbors=5"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "placement: replicate x2" in out
    assert "jsq" in out


def test_cli_serve_sharded_end_to_end(capsys):
    code = main(
        ["serve", "tgat", "--scale", "tiny", "--rate", "200", "--duration", "80",
         "--topology", "2xA100-nvlink", "--placement", "shard",
         "--param", "num_neighbors=5"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "placement: shard x2" in out


def test_cli_serve_rejects_too_many_gpus(capsys):
    code = main(
        ["serve", "tgat", "--scale", "tiny", "--topology", "2xA100-pcie",
         "--gpus", "3", "--placement", "replicate"]
    )
    assert code == 2
    assert "--gpus on '2xA100-pcie' must be an integer >= 1 and <= 2" in capsys.readouterr().err


def test_cli_serve_rejects_overlap_with_scaleout_placement(capsys):
    code = main(
        ["serve", "tgat", "--scale", "tiny", "--topology", "2xA100-pcie",
         "--placement", "replicate", "--overlap"]
    )
    assert code == 2
    assert "overlap" in capsys.readouterr().err


def test_cli_serve_rejects_gpus_flag_on_single_placement(capsys):
    code = main(["serve", "tgat", "--scale", "tiny", "--topology", "4xA100-pcie", "--gpus", "4"])
    assert code == 2
    assert "--gpus only applies" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value, feature",
    [
        ("--cache-policy", "lru", "--cache"),
        ("--cache-mb", "64", "--cache"),
        ("--staleness-ms", "0", "--cache"),
        ("--min-replicas", "3", "--autoscale"),
        ("--max-replicas", "2", "--autoscale"),
        ("--partitioner", "degree", "--placement shard"),
    ],
)
def test_cli_serve_refuses_a_flag_its_feature_would_not_read(flag, value, feature, capsys):
    """Even a flag's default value is refused while the feature that reads it is off."""
    code = main(["serve", "tgat", "--scale", "tiny", "--backend", "shape", flag, value])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: argument {flag}: only read with {feature}\n"


def test_cli_serve_rejects_scaleout_on_cpu_only_topology(capsys):
    code = main(
        ["serve", "tgat", "--scale", "tiny", "--topology", "cpu-only",
         "--placement", "replicate"]
    )
    assert code == 2
    assert "needs a GPU topology" in capsys.readouterr().err


@pytest.mark.parametrize("iterations", ["0", "-2"])
def test_cli_profile_rejects_a_non_positive_iteration_count(iterations, capsys):
    code = main(
        ["profile", "tgat", "--scale", "tiny", "--backend", "shape", "--iterations", iterations]
    )
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (
        f"error: argument --iterations: must be an integer >= 1, got '{iterations}'\n"
    )


@pytest.mark.parametrize("overlap", [[], ["--overlap"]])
@pytest.mark.parametrize(
    "param, message",
    [
        ("nosuch=1", "unexpected keyword argument 'nosuch'"),
        ("batch_size=0", "batch_size must be an integer >= 1"),
    ],
)
def test_cli_profile_reports_a_bad_param_like_serve(param, message, overlap, capsys):
    code = main(
        ["profile", "tgat", "--scale", "tiny", "--backend", "shape", "--iterations", "1",
         "--param", param, *overlap]
    )
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


@pytest.mark.parametrize("slo_ms", ["0", "-5", "nan", "inf"])
def test_cli_serve_refuses_an_slo_every_request_would_miss(slo_ms, capsys):
    code = main(
        ["serve", "tgat", "--scale", "tiny", "--backend", "shape", "--rate", "100",
         "--duration", "50", f"--slo-ms={slo_ms}"]
    )
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: argument --slo-ms: must be a finite number > 0")


def test_cli_experiment_refuses_a_negative_row_limit(capsys):
    code = main(["experiment", "table1", "--scale", "tiny", "--max-rows", "-1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: argument --max-rows: must be an integer >= 0, got '-1'\n"


def test_cli_profile_overlap_reports_the_prefetch_stream(capsys):
    code = main(
        ["profile", "tgat", "--overlap", "--scale", "tiny", "--backend", "shape",
         "--iterations", "3"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[-1] == "prefetch stream 'sampling': busy 79.281 ms (66.6% of window)"
