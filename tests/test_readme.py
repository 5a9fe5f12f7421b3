import importlib
import inspect
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


def _mspc_modules() -> dict:
    """Every mspc module by its short name (``__main__`` would run the CLI)."""
    names = sorted(p.stem for p in (REPO / "src" / "mspc").glob("*.py")
                   if not p.stem.startswith("__"))
    return {name: importlib.import_module(f"mspc.{name}") for name in names}


def test_readme_code_names_resolve():
    # `Class.attr` with a CamelCase head names a class attribute (or dataclass
    # field); `module._helper` and `module.call(...)` name a module attribute.
    # Other dotted spans are file names or config/report key paths.
    modules = _mspc_modules()
    classes = {name: obj for module in modules.values() for name, obj in vars(module).items()
               if inspect.isclass(obj) and obj.__module__.startswith("mspc.")}
    checked, stale = [], []
    text = (REPO / "README.md").read_text()
    for head, attr, call in re.findall(r"`([A-Za-z_]\w*)\.(\w+)(\(.*?\))?`", text):
        if head[0].isupper():
            owner = classes.get(head)
            ok = hasattr(owner, attr) or attr in getattr(owner, "__dataclass_fields__", {})
        elif head in modules and (attr.startswith("_") or call):
            ok = hasattr(modules[head], attr)
        else:
            continue
        checked.append(f"{head}.{attr}")
        if not ok:
            stale.append(f"{head}.{attr}")
    assert any(name[0].isupper() for name in checked)
    assert any(name[0].islower() for name in checked)
    assert stale == []
