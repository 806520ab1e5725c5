"""The README's examples run, and its list of key pieces is the package's
public names."""
import re
import shlex
import types
from pathlib import Path

import copsep
from copsep import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def fenced_blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README, flags=re.M | re.S)


def shell_commands(block):
    """The commands of a shell block: lines ending in a backslash joined
    to the next, blank and comment lines dropped."""
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line) for line in lines if line.strip() and not line.lstrip().startswith("#")]


def test_command_line_example_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (block,) = [b for b in fenced_blocks("sh") if "copsep synth" in b]
    commands = shell_commands(block)
    assert [cmd[:2] for cmd in commands] == [["copsep", "synth"], ["copsep", "separate"], ["copsep", "evaluate"]]
    for cmd in commands:
        assert cli.main(cmd[1:]) == cli.EXIT_OK, cmd
    for name in ("data.csv", "truth.json", "sources.csv", "report.json", "metrics.json"):
        assert (tmp_path / name).stat().st_size > 0


def test_library_quick_start_runs():
    (block,) = fenced_blocks("python")
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    report = namespace["report"]
    assert report.divergence == report.mutual_information + report.copula_entropy


def test_key_pieces_are_the_public_names():
    section = README.split("Key pieces", 1)[1].split("\n## ", 1)[0]
    bullets = re.split(r"^- ", section, flags=re.M)[1:]
    listed = [name for bullet in bullets for name in re.findall(r"`(\w+)`", re.split(r"\s—\s", bullet, 1)[0])]
    public = {
        name for name, value in vars(copsep).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(listed) == len(set(listed))
    assert set(listed) == public
