"""The README's documented API: its Library example runs as written, its
CLI walkthrough runs with shorter training, and every name the package
__init__ imports resolves on the package."""

import ast
import re
import shlex
from pathlib import Path

import kcdistill
from kcdistill import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_example"})


def test_every_package_import_resolves():
    tree = ast.parse(Path(kcdistill.__file__).read_text())
    names = [alias.asname or alias.name for node in tree.body
             if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert "run" in names
    assert [name for name in names if not hasattr(kcdistill, name)] == []


# appended to each walkthrough command to make it short; argparse keeps the
# last value of a repeated option
SHORTER = {
    "gen-data": [],
    "train-teacher": ["--epochs", "5"],
    "distill": ["--epochs", "4", "--stage-len", "2"],
    "reuse": ["--epochs", "4", "--stage-len", "2"],
    "sweep": ["--epochs", "4", "--stage-len", "2", "--seeds", "1", "--rho-grid", "0.7"],
    "report": [],
}


def test_cli_walkthrough_runs(tmp_path, monkeypatch, capsys):
    """The README's CLI walkthrough, shortened, runs command by command
    through cli.main in an empty directory, and its report summarizes the
    two run records the walkthrough writes."""
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.S | re.M)
    [walkthrough] = [b for b in blocks if "kcdistill " in b]
    words = shlex.split(walkthrough.replace("\\\n", " "), comments=True)
    assert words[0] == "kcdistill"
    commands, argv = [], []
    for word in words[1:] + ["kcdistill"]:
        if word == "kcdistill":
            commands.append(argv)
            argv = []
        else:
            argv.append(word)
    assert [argv[0] for argv in commands] == list(SHORTER)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path))
    for argv in commands:
        assert cli.main(argv + SHORTER[argv[0]]) == 0, (argv, capsys.readouterr().err)
    summary = (tmp_path / "summary.csv").read_text().splitlines()
    assert [line.split(",")[1] for line in summary[1:]] == ["kcd", "reuse-with-vaks"]
