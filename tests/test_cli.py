"""Command-line interface."""

import os

import pytest

from repro.cli import build_parser, main


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_design_command(capsys):
    code = main(
        [
            "design",
            "--substrate",
            "100",
            "--wsi",
            "Si-IF",
            "--external-io",
            "Optical I/O",
            "--hetero",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "1024 x 200G" in out
    assert "heterogeneous" in out


def test_design_show_mapping(capsys):
    code = main(
        [
            "design",
            "--substrate",
            "100",
            "--wsi",
            "Si-IF",
            "--external-io",
            "Optical I/O",
            "--show-mapping",
        ]
    )
    assert code == 0
    assert "placement" in capsys.readouterr().out


def test_experiments_command(capsys):
    code = main(["experiments", "tab06"])
    assert code == 0
    assert "Clos 3(N/k)" in capsys.readouterr().out


def test_usecases_command(capsys):
    code = main(["usecases"])
    assert code == 0
    out = capsys.readouterr().out
    assert "tab03" in out and "tab09" in out


def test_simulate_command(capsys):
    code = main(
        [
            "simulate",
            "--terminals",
            "32",
            "--radix",
            "8",
            "--vcs",
            "2",
            "--buffer",
            "8",
            "--loads",
            "0.1",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "waferscale" in out and "switch-network" in out


def _exit_code(argv):
    """``main(argv)``'s exit code, whether it returns or argparse exits."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--pattern", "nope"],
        ["simulate", "--loads", "0.1,lots"],
        ["dcn", "--hosts", "17"],
        ["dcn", "--fidelity", "hybrid", "--cycle-wafers", "99"],
        ["dcn", "--cycle-wafers", "1,x"],
    ],
)
def test_malformed_input_is_a_usage_error_not_a_traceback(argv, capsys):
    assert _exit_code(argv) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert "Traceback" not in err


def test_experiments_rejects_unknown_id(capsys):
    assert _exit_code(["experiments", "fig99"]) == 2
    err = capsys.readouterr().err
    assert "unknown experiment id(s): fig99" in err
    assert "fig01" in err  # the known ids are listed


def test_experiments_rejects_bad_flags(capsys):
    assert _exit_code(["experiments", "--jobs"]) == 2
    assert _exit_code(["experiments", "--jobs", "lots"]) == 2
    assert _exit_code(["experiments", "--frobnicate"]) == 2
    assert "error" in capsys.readouterr().err


def test_experiments_runs_parallel_with_cache_flags(capsys):
    code = main(["experiments", "--jobs", "2", "--no-cache", "tab06"])
    assert code == 0
    out = capsys.readouterr().out
    assert "tab06" in out
    assert "jobs=2" in out


def test_experiments_cache_clear_without_ids_exits(capsys):
    assert main(["experiments", "--cache-clear"]) == 0
    assert "cleared" in capsys.readouterr().out


def test_experiments_telemetry_does_not_leak_env(tmp_path, monkeypatch):
    from repro.experiments.telemetry_io import TELEMETRY_DIR_ENV

    monkeypatch.delenv(TELEMETRY_DIR_ENV, raising=False)
    assert main(["experiments", "tab06", f"--telemetry={tmp_path}"]) == 0
    assert TELEMETRY_DIR_ENV not in os.environ
    monkeypatch.setenv(TELEMETRY_DIR_ENV, "elsewhere")
    assert main(["experiments", "tab06", f"--telemetry={tmp_path}"]) == 0
    assert os.environ[TELEMETRY_DIR_ENV] == "elsewhere"


def test_parser_defaults_match_the_facade():
    from repro.api import DesignQuery, SimQuery

    design = build_parser().parse_args(["design"])
    assert (design.wsi, design.external_io) == (
        DesignQuery.wsi, DesignQuery.external_io
    )
    simulate = build_parser().parse_args(["simulate"])
    assert (simulate.terminals, simulate.radix, simulate.vcs,
            simulate.buffer, simulate.pattern) == (
        SimQuery.terminals, SimQuery.radix, SimQuery.vcs,
        SimQuery.buffer_flits, SimQuery.pattern,
    )


def test_simulate_prints_what_the_facade_computes(capsys):
    """CLI/API parity: the printed latencies are execute()'s points."""
    from repro.api import SimQuery, execute

    argv = ["--terminals", "32", "--radix", "8", "--vcs", "2",
            "--buffer", "8", "--loads", "0.1,0.3"]
    assert main(["simulate", *argv]) == 0
    printed = [
        float(line.split(":")[1].split("cycles")[0])
        for line in capsys.readouterr().out.splitlines()
        if line.strip().startswith("load ")
    ]
    expected = []
    for network in ("waferscale", "switch-network"):
        query = SimQuery(network=network, terminals=32, radix=8, vcs=2,
                         buffer_flits=8, loads=(0.1, 0.3))
        for point in execute(query)["result"]["points"]:
            expected.append(round(point["avg_latency_cycles"], 1))
    assert printed == expected
