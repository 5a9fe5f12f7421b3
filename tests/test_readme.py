import re
from pathlib import Path

from mspc.cli import PREFIX_COMMANDS

REPO = Path(__file__).resolve().parents[1]


def test_readme_names_only_existing_scripts_and_subcommands():
    text = (REPO / "README.md").read_text()
    scripts = set(re.findall(r"\bscripts/(\w+\.py)\b", text))
    commands = set(re.findall(r"(?<![\w/.-])mspc +([a-z_]+)", text))
    assert scripts and commands
    assert sorted(name for name in scripts if not (REPO / "scripts" / name).is_file()) == []
    assert sorted(commands - set(PREFIX_COMMANDS)) == []
