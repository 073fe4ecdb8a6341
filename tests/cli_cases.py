"""Golden-file cases for the command line.

Each case runs `semihyp.cli.main` in-process from a scratch directory with
the fixture files available under `fixtures/`.  Expected stdout lives in
`golden/<name>.out` with the timing value normalized; written structure
files are compared byte-for-byte against `golden/<name>.file.json`.

Regenerate after an intentional output change with:

    python tests/cli_cases.py --regen
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).parent
FIXTURES = HERE / "fixtures"
GOLDEN = HERE / "golden"

_TIMING = re.compile(r"(\"elapsed_ms\": |elapsed_ms: )[0-9.]+")


def normalize(text: str) -> str:
    return _TIMING.sub(lambda m: m.group(1) + "?", text)


@dataclass(frozen=True)
class CliCase:
    name: str
    argv: tuple[str, ...]
    exit_code: int
    writes: str = ""  # relative out-path whose bytes are golden-checked
    identical_to_fixture: str = ""  # written file must equal this fixture


CASES = [
    CliCase("check-t3", ("check", "fixtures/t3.json"), 0),
    CliCase("check-t3-json", ("check", "fixtures/t3.json", "--json"), 0),
    CliCase("check-corrupted", ("check", "fixtures/t3-corrupted.json"), 1),
    CliCase("check-lz2", ("check", "fixtures/lz2.json"), 0),
    CliCase("check-rps", ("check", "fixtures/rps.json"), 1),
    CliCase("check-rps-json", ("check", "fixtures/rps.json", "--json"), 1),
    CliCase("lim-z2-both", ("lim", "fixtures/z2.json", "--method", "both"), 0),
    CliCase("lim-lz2", ("lim", "fixtures/lz2.json"), 1),
    CliCase(
        "lim-t3-dual-json",
        ("lim", "fixtures/t3.json", "--method", "dual", "--json"),
        0,
    ),
    CliCase(
        "fixpoint-z2",
        ("fixpoint", "fixtures/z2.json", "fixtures/z2-canonical-action.json"),
        0,
    ),
    CliCase(
        "fixpoint-lz2",
        (
            "fixpoint",
            "fixtures/lz2.json",
            "fixtures/lz2-canonical-action.json",
            "--exact",
        ),
        1,
    ),
    CliCase(
        "fixpoint-z2-hull",
        ("fixpoint", "fixtures/z2.json", "fixtures/z2-hull-action.json"),
        0,
    ),
    CliCase(
        "fixpoint-z2-iterate",
        (
            "fixpoint",
            "fixtures/z2.json",
            "fixtures/z2-canonical-action.json",
            "--iterate",
            "1e-9",
            "10000",
        ),
        0,
    ),
    CliCase(
        "fixpoint-lz2-iterate",
        (
            "fixpoint",
            "fixtures/lz2.json",
            "fixtures/lz2-canonical-action.json",
            "--iterate",
            "1e-9",
            "1000",
        ),
        1,
    ),
    CliCase(
        "fixpoint-bad-action",
        ("fixpoint", "fixtures/z2.json", "fixtures/z2-bad-action.json"),
        1,
    ),
    CliCase(
        "fixpoint-noninvariant",
        ("fixpoint", "fixtures/z2.json", "fixtures/z2-doubling-action.json"),
        1,
    ),
    CliCase(
        "construct-triple",
        (
            "construct", "triple",
            "1/4", "1/4", "1/2", "1/4", "1/2", "1/4", "1/2", "1/2",
            "--name", "t3", "--out", "out.json",
        ),
        0,
        writes="out.json",
        identical_to_fixture="t3.json",
    ),
    CliCase(
        "construct-triple-rejected",
        (
            "construct", "triple",
            "1/2", "1/4", "1/4", "1/4", "1/4", "1/2", "1/2", "1/2",
            "--out", "out.json",
        ),
        1,
    ),
    CliCase(
        "construct-triple-nonassociative",
        (
            "construct", "triple",
            "1/4", "1/4", "1/2", "1/4", "1/4", "1/2", "1/2", "1/2",
            "--out", "out.json",
        ),
        1,
    ),
    CliCase(
        "construct-semigroup-z4",
        (
            "construct", "semigroup",
            "--group", "fixtures/z4-group.json",
            "--name", "z4", "--out", "out.json",
        ),
        0,
        writes="out.json",
        identical_to_fixture="z4.json",
    ),
    CliCase(
        "construct-coset",
        (
            "construct", "coset",
            "--group", "fixtures/s3.json", "--subgroup", "e,(12)",
            "--name", "s3-cosets", "--out", "out.json",
        ),
        0,
        writes="out.json",
    ),
    CliCase(
        "construct-doublecoset",
        (
            "construct", "doublecoset",
            "--group", "fixtures/s3.json", "--subgroup", "e,(12)",
            "--name", "s3-double-cosets", "--out", "out.json",
        ),
        0,
        writes="out.json",
    ),
    CliCase(
        "construct-coset-not-subgroup",
        (
            "construct", "coset",
            "--group", "fixtures/s3.json", "--subgroup", "e,(123)",
            "--out", "out.json",
        ),
        1,
    ),
    CliCase(
        "construct-orbit",
        (
            "construct", "orbit",
            "--action", "fixtures/z3-inversion.json",
            "--name", "orbit-z3", "--out", "out.json",
        ),
        0,
        writes="out.json",
    ),
]


def run_case(case: CliCase, workdir: Path) -> tuple[str, int, bytes]:
    """Run one case from a scratch directory; returns (stdout, code, bytes)."""
    from semihyp.cli import main

    fixtures_link = workdir / "fixtures"
    if not fixtures_link.exists():
        shutil.copytree(FIXTURES, fixtures_link)
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out):
            code = main(list(case.argv))
        written = b""
        if case.writes:
            written = (workdir / case.writes).read_bytes()
    finally:
        os.chdir(cwd)
    return out.getvalue(), code, written


def regenerate() -> None:
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            stdout, code, written = run_case(case, Path(tmp))
            assert code == case.exit_code, (case.name, code)
            (GOLDEN / f"{case.name}.out").write_text(normalize(stdout))
            if case.writes:
                (GOLDEN / f"{case.name}.file.json").write_bytes(written)
            print(f"regenerated {case.name} (exit {code})")


if __name__ == "__main__":
    if "--regen" in sys.argv:
        sys.path.insert(0, str(HERE))
        regenerate()
    else:
        print(__doc__)
