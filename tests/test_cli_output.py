"""CLI output pinned by sha256: stdout and the exit code of each command
below, run in process.  A change to the text of a check line, to the order
of a JSON key or to a `compute` rendering fails the command's case.  A
change that alters output on purpose updates its row."""

import hashlib
import io
import re
import sys

import pytest

from stylic.cli import main

JDT = '{"outer":[2],"inner":[1],"labels":[[[2,1],"b"]]}'

# (arguments, exit code, first 16 hex digits of the sha256 of stdout,
# stderr with the peak RSS masked)
PINNED = [
    ("verify all -n 5 --seed 1", 0, "bed6448456305400", ""),
    ("verify all -n 7 --force", 0, "a1a7b8e01066c7e1", ""),
    (
        "enumerate monoid -n 7 --force --json", 0, "95593837b93473b4",
        "note: n = 7: 4140 elements, 4140 x 4140 table written, peak RSS * MiB\n",
    ),
    (
        "enumerate jorder -n 7 --force", 0, "055097c6d3220fd7",
        "note: n = 7: 4140 elements, peak RSS * MiB\n",
    ),
    ("compute evac 13/28/457/6 -n 8", 0, "32723484f0be9e2a", ""),
    ("verify evacuation -n 6", 0, "79eee7249480f32f", ""),
    ("compute P dbbaac -n 4", 0, "49a7bed713e4d597", ""),
    ("compute P dbbaac -n 4 --json", 0, "3ebf7987b6420e8d", ""),
    ("compute N cabd -n 4", 0, "a63a06e6a399e8a1", ""),
    ("compute N cabd -n 4 --json", 0, "051aaf90d30d8211", ""),
    ("compute pi cabd -n 4", 0, "c4a28d307a8c207d", ""),
    ("compute pi cabd -n 4 --json", 0, "35c0214c6a39f018", ""),
    ("compute theta acdaadc -n 4", 0, "7f2de2b0889a59ab", ""),
    ("compute theta acdaadc -n 4 --json", 0, "0df657a7f3766fd9", ""),
    ("compute delta 13/28/457/6 -n 8", 0, "789ac8d6ff794b22", ""),
    ("compute delta 13/28/457/6 -n 8 --json", 0, "81dcd672f131cec7", ""),
    (f"compute jdt {JDT} -n 2", 0, "0263829989b6fd95", ""),
    (f"compute jdt {JDT} -n 2 --json", 0, "e84a766ded01d671", ""),
    ("verify graded -n 7 --force", 0, "1934b69bc4deb337", ""),
    ("enumerate jorder -n 4 --json", 0, "06243006c1aa83a5", ""),
    ("enumerate jorder -n 3 --dot", 0, "244b69037831b567", ""),
]


class HashingSink(io.TextIOBase):
    """A stdout that keeps only the sha256 of what is written to it, so that
    the 100 MB of the n = 7 table are never held."""

    def __init__(self):
        self.digest = hashlib.sha256()

    def writable(self):
        return True

    def write(self, text):
        self.digest.update(text.encode())
        return len(text)


@pytest.mark.parametrize("command, code, digest, err", PINNED, ids=[row[0] for row in PINNED])
def test_cli_output_is_pinned(monkeypatch, command, code, digest, err):
    sink, stderr = HashingSink(), io.StringIO()
    monkeypatch.setattr(sys, "stdout", sink)
    monkeypatch.setattr(sys, "stderr", stderr)
    assert main(command.split()) == code
    assert sink.digest.hexdigest()[:16] == digest
    assert re.sub(r"peak RSS \d+ MiB", "peak RSS * MiB", stderr.getvalue()) == err
