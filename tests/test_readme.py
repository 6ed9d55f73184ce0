import re
import shlex
from pathlib import Path

from gpq.cli import build_parser

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def code_block(section: str, lang: str) -> str:
    """The first ```lang block under the README's `## section` heading."""
    body = README.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{lang}\n(.*?)```", body, re.S).group(1)


def test_library_example_runs():
    exec(code_block("Library", "python"), {})


def test_cli_examples_parse():
    commands = code_block("CLI", "sh").replace("\\\n", " ").splitlines()
    argvs = [shlex.split(line)[1:] for line in commands if line.startswith("gpq ")]
    assert {argv[0] for argv in argvs} == {"compress", "decompress", "info", "rwe", "compare",
                                          "sweep"}
    for argv in argvs:
        args = build_parser().parse_args(argv)
        assert args.command == argv[0]
