"""The regression fingerprint (`tests/fingerprint.py`) still runs on this
checkout: every corpus model gets its rows, group construction under
S1-S3 included, and the only rows that raise are tpcounter's, whose
unbounded counter exceeds the script's bound."""

import re
import subprocess
import sys
from pathlib import Path

from recomp import parse
from recomp.corpus import ALL

TESTS = Path(__file__).parent


def test_fingerprint_covers_the_corpus_at_size_2():
    out = subprocess.run(
        [sys.executable, str(TESTS / "fingerprint.py"),
         str(TESTS.parent / "src"), "2"],
        capture_output=True, text=True, check=True, timeout=600).stdout
    rows = [line.split(" | ", 1) for line in out.splitlines()]
    keys = {key for key, _ in rows}
    assert {"%s(2) to_lts" % name for name in ALL} <= keys
    assert {"%s(2) %s %s groups" % (name, prop.name, kind)
            for name in ALL for prop in parse(ALL[name](2)).properties
            for kind in ("S1", "S2", "S3")} <= keys
    raised = {(key.split("(")[0], value.split(":")[0])
              for key, value in rows if re.match(r"\w+: ", value)}
    assert raised == {("tpcounter", "StateBoundExceeded")}
