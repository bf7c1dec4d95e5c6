"""Tests for the CLI and smoke tests for every example script."""

import pathlib
import subprocess
import sys

import pytest

from repro.cli import SCENARIOS, build_parser, main
from repro.perf.bench import bench_spec

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_list_is_default(capsys):
    assert main([]) == 0
    out = capsys.readouterr().out
    for name in SCENARIOS:
        assert name in out


def test_list_command(capsys):
    assert main(["list"]) == 0
    assert "quickstart" in capsys.readouterr().out


def test_unknown_scenario_rejected():
    with pytest.raises(SystemExit):
        main(["run", "nonsense"])


def test_parser_defaults():
    args = build_parser().parse_args(["run", "tiers"])
    assert args.scenario == "tiers"
    assert args.years == 2_000


@pytest.mark.parametrize("verb", ["bench", "serve"])
def test_no_plant_choice(verb):
    """There is one plant, so there is no ``--backend`` flag."""
    with pytest.raises(SystemExit):
        build_parser().parse_args([verb, "--backend", "vector"])


def test_bench_spec_keeps_only_the_vector_name():
    assert bench_spec(40, "vector") == bench_spec(40)
    with pytest.raises(ValueError, match="only plant"):
        bench_spec(40, "object")


def test_run_tiers_scenario(capsys):
    assert main(["run", "tiers", "--years", "300"]) == 0
    out = capsys.readouterr().out
    assert "II" in out and "downtime" in out


def test_run_flashcrowd_scenario(capsys):
    assert main(["run", "flashcrowd"]) == 0
    out = capsys.readouterr().out
    assert "elastic" in out


def test_run_quickstart_scenario(capsys):
    assert main(["run", "quickstart", "--hours", "2",
                 "--racks", "2", "--servers-per-rack", "4"]) == 0
    out = capsys.readouterr().out
    assert "managed" in out and "static" in out


def test_run_pathology_scenario(capsys):
    assert main(["run", "pathology", "--hours", "2"]) == 0
    out = capsys.readouterr().out
    assert "oblivious" in out and "coordinated" in out


# ----------------------------------------------------------------------
# Examples (subprocess smoke tests — they are user-facing entry points)
# ----------------------------------------------------------------------
FAST_EXAMPLES = [
    "quickstart.py",
    "flash_crowd.py",
    "thermal_aware_migration.py",
    "telemetry_pipeline.py",
    "coordinated_power.py",
    "geo_federation.py",
    "tail_latency_study.py",
]


@pytest.mark.parametrize("script", FAST_EXAMPLES)
def test_example_runs_clean(script):
    path = EXAMPLES_DIR / script
    result = subprocess.run([sys.executable, str(path)],
                            capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip(), "examples must produce output"


def test_all_examples_are_covered():
    """Every example on disk is either smoke-tested here or listed as
    slow (so new examples cannot silently rot)."""
    slow = {"messenger_provisioning.py"}  # ~1 min; exercised manually
    on_disk = {p.name for p in EXAMPLES_DIR.glob("*.py")}
    assert on_disk == set(FAST_EXAMPLES) | slow
