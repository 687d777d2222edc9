"""One declaration per parameter: ``repro`` and ``POST /v1/jobs`` agree.

The DSE search and conformance parameters are declared once, in
``repro.params``: the CLI builds its flags from them and the service its
job schemas.  Each case runs the same value through both surfaces.
"""

import os
import subprocess
import sys

import pytest

import repro
from repro.cli import build_parser, main
from repro.service import (
    ServiceApiError,
    ServiceClient,
    ServiceConfig,
    Tenant,
    TenantRegistry,
    start_in_thread,
)


@pytest.fixture(scope="module")
def client(tmp_path_factory):
    handle = start_in_thread(ServiceConfig(
        port=0, cache=str(tmp_path_factory.mktemp("svc-cache")),
        tenants=TenantRegistry([Tenant(name="t", key="k", rate=1000.0,
                                       burst=1000, max_active=4)]),
    ))
    yield ServiceClient(handle.base_url, "k", timeout=120)
    handle.stop()


def _cli_error(capsys, argv):
    """The one stderr line of a command that must exit 2."""
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1, err
    return err.rstrip("\n")


COMMANDS = {"dse_search": ["dse", "search"],
            "conformance": ["conform", "run"]}
INVALID = [
    ("dse_search", "budget", 0),
    ("dse_search", "seed", -1),
    ("dse_search", "objectives", ["beauty"]),
    ("dse_search", "population", 1),
    ("dse_search", "features", ["nope"]),
    ("dse_search", "microarchs", ["XX"]),
    ("dse_search", "models", ["nope"]),
    ("dse_search", "bus", [-1]),
    ("conformance", "seed", -1),
    ("conformance", "budget", 0),
    ("conformance", "oracles", ["nope"]),
]


@pytest.mark.parametrize("jobtype, name, value", INVALID,
                         ids=[f"{jobtype}-{name}"
                              for jobtype, name, _ in INVALID])
def test_invalid_value_same_message_on_both_surfaces(
        capsys, client, jobtype, name, value):
    text = ",".join(map(str, value)) if isinstance(value, list) \
        else str(value)
    line = _cli_error(capsys, COMMANDS[jobtype] + [f"--{name}", text])
    with pytest.raises(ServiceApiError) as http:
        client.submit(jobtype, {name: value})
    assert http.value.status == 400
    assert http.value.message.startswith(f"{name}: ")
    assert line.endswith(f"argument --{name}: {http.value.message}")


def test_budget_one_and_lowercase_microarch_run_on_both_surfaces(
        capsys, client):
    assert main(["dse", "search", "--budget", "1", "--seed", "7",
                 "--features", "adc", "--microarchs", "sc", "--bus", "0",
                 "--no-cache"]) == 0
    printed = capsys.readouterr().out.splitlines()
    doc = client.run("dse_search", {
        "budget": 1, "seed": 7, "features": ["adc"],
        "microarchs": ["sc"], "bus": [0],
    })
    assert doc["status"] == "completed", doc
    assert doc["result"]["evaluations"] == 1
    table = next(artifact for artifact in doc["artifacts"]
                 if artifact["name"] == "dse_search.txt")
    # The CLI prints a title line, then the service's frontier table.
    assert client.artifact(table["digest"]).decode().splitlines() == \
        printed[1:]


@pytest.mark.parametrize("jobtype, name, cap", [
    ("dse_search", "budget", 1024),
    ("dse_search", "population", 128),
    ("conformance", "budget", 2000),
], ids=["dse_search-budget", "dse_search-population",
        "conformance-budget"])
def test_cap_binds_only_at_admission(client, jobtype, name, cap):
    args = build_parser().parse_args(
        COMMANDS[jobtype] + [f"--{name}", str(cap + 1)])
    assert getattr(args, name) == cap + 1
    with pytest.raises(ServiceApiError) as http:
        client.submit(jobtype, {name: cap + 1})
    assert http.value.status == 400
    assert http.value.message == f"{name}: {cap + 1} > {cap}"
    assert client.types()[jobtype]["params"][name]["max"] == cap


def test_conformance_budget_defaults_to_200_on_both_surfaces(client):
    assert build_parser().parse_args(["conform", "run"]).budget == 200
    assert client.types()["conformance"]["params"]["budget"]["default"] \
        == 200


@pytest.mark.parametrize("argv, message", [
    (["yield", "--seed", "-1"], "argument --seed: seed: -1 < 0"),
    (["conform", "run", "--seed", "-1"], "argument --seed: seed: -1 < 0"),
    (["serve", "--port", "70000"],
     "argument --port: port: 70000 > 65535"),
    (["run", "{program}", "--max-cycles", "-5"],
     "argument --max-cycles: max_cycles: -5 < 1"),
    (["trace", "{program}", "--limit", "-3"],
     "argument --limit: limit: -3 < 1"),
], ids=["yield-seed", "conform-seed", "serve-port", "run-max-cycles",
        "trace-limit"])
def test_out_of_bounds_flag_exits_2_with_one_line(
        capsys, tmp_path, argv, message):
    program = tmp_path / "prog.asm"
    program.write_text("load 0\nhalt\n")
    argv = [arg.format(program=program) for arg in argv]
    assert _cli_error(capsys, argv).endswith(message)


def test_importing_the_cli_loads_no_service_module():
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    completed = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.cli; print(sorted(name for name in "
         "sys.modules if name.startswith('repro.service')))"],
        capture_output=True, text=True, timeout=60, env=env, check=True,
    )
    assert completed.stdout.strip() == "[]"
