"""The README's command block runs as written, against its own config and graph."""

import json
import re
import shlex
from pathlib import Path

from nqkd.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def json_block_after(heading: str) -> dict:
    section = README[README.index(heading):]
    return json.loads(re.search(r"```json\n(.*?)```", section, re.S).group(1))


def readme_commands() -> list[list[str]]:
    section = README[README.index("## Command line"):]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("nqkd ")]


def test_readme_commands_run(tmp_path, monkeypatch):
    config = json_block_after("### Simulation config")
    config["n_rounds"] = 10**4  # keeps the test fast; the README runs 1e6 rounds
    (tmp_path / "examples.json").write_text(json.dumps(config))
    (tmp_path / "mynet.json").write_text(json.dumps(json_block_after("### Network graph format")))
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert {args[0] for args in commands} == {"rates", "thresholds", "simulate", "network"}
    for i, args in enumerate(commands):
        if "--out" not in args:
            args = args + ["--out", f"out{i}.txt"]
        assert main(args) == 0, args
        assert (tmp_path / args[args.index("--out") + 1]).stat().st_size > 0
