"""The campaign commands' bytes.

Each command runs in-process through :func:`repro.cli.main`; its exit
code and the md5 of its stdout, less the lines that say how long the
run took (``wall clock``), are held to the values the commands printed
before they became the front ends of scenario families.  A
``sweep --report`` also holds both files it writes.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.cli import main

#: argv -> md5 of stdout without its ``wall clock`` lines (exit code 0)
GOLDEN = {
    "sweep --stack mtp --pods 2 --digests --no-cache":
        "91a5aacaa3a912721a05b46b0b5151c8",
    "chaos --pods 2 --stack mtp --stack bgp-bfd --rate 0 --rate 0.1 "
    "--window-ms 2000 --count 300 --json --no-cache":
        "585ec275bdcc822117d8436f98db7d14",
    "chaos --pods 2 --stack mtp --rate 0 --rate 0.1 --digests --no-cache":
        "f5e95013f166f04bdd11e8997236896d",
    "load --pods 2 --digests --no-cache -W flows=2000":
        "ec960ede2c6b5369bd62243ce941b862",
    "fail --stack mtp --case TC1 --runs 3 --pods 2 --no-cache":
        "c949e68dda629c46530d68391327bbf3",
    "fail --stack mtp --case TC2 --pods 2 --no-cache":
        "e7eb0d49251b25099cf5cefaf605d8b1",
    "scenario run tc1 gray-uplink --stack mtp --stack bgp-bfd --pods 2 "
    "--digests --no-cache": "114799bca553ac178b391cad4a8b8547",
}


def _md5(text: str) -> str:
    return hashlib.md5(text.encode()).hexdigest()


def _stdout(capsys, argv: list[str]) -> str:
    assert main(argv) == 0
    return "".join(line for line in capsys.readouterr().out.splitlines(True)
                   if "wall clock" not in line)


@pytest.mark.parametrize("command", GOLDEN)
def test_campaign_command_bytes(capsys, command):
    assert _md5(_stdout(capsys, command.split())) == GOLDEN[command]


def test_sweep_report_bytes(capsys, tmp_path):
    prefix = tmp_path / "P"
    out = _stdout(capsys, ["sweep", "--stack", "mtp", "--pods", "2",
                           "--no-cache", "--report", str(prefix)])
    assert _md5(out.replace(str(tmp_path), "TMP")) == \
        "8c1404b6fa49be6a89153c5b257ec020"
    assert _md5(prefix.with_suffix(".txt").read_text()) == \
        "1f05ca573cdf0eda2d5f6bf846e0943a"
    assert _md5(prefix.with_suffix(".html").read_text()) == \
        "fc70303a226b3682909d57ee42da542d"
