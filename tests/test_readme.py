"""The README's shell and Python examples run as written."""
import json
import re
import shlex
from pathlib import Path

from nof.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def code_blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, re.S | re.M)


def nof_commands(block, out):
    """The `nof` commands of a shell block as argv lists, with --out set to `out`."""
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        argv = shlex.split(line)
        if argv[:1] == ["nof"]:
            argv = argv[1:]
            argv[argv.index("--out") + 1] = str(out)
            commands.append(argv)
    return commands


def test_quick_start_and_stage_by_stage_write_the_same_report(tmp_path, monkeypatch):
    # the examples name docs/expert.example.json relative to the repository root
    monkeypatch.chdir(ROOT)
    outs = []
    for block in code_blocks("sh"):
        out = tmp_path / f"run{len(outs)}"
        commands = nof_commands(block, out)
        if commands:
            for argv in commands:
                assert main(argv) == 0, argv
            outs.append(out)
    assert len(outs) == 2, "expected the quick-start and the stage-by-stage examples"
    quick, staged = ((out / "report.json").read_bytes() for out in outs)
    assert quick == staged
    report = json.loads(quick)
    assert report["alignment"]
    assert any(r["matched_expert"] == "p300_frontal_late"
               for r in report["known_high_strength"])


def test_library_example_runs():
    (block,) = code_blocks("python")
    namespace = {}
    exec(block, namespace)
    assert namespace["rows"]
