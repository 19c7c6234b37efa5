"""tools/loc.py gives the source-line figure every change reports."""
import os
import subprocess
import sys

LOC = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "loc.py")


def test_loc_prints_src_and_tests_rows():
    run = subprocess.run([sys.executable, LOC], capture_output=True, text=True,
                         timeout=120)
    assert run.returncode == 0, run.stderr
    rows = {line.split()[0]: [int(n) for n in line.split()[1:]]
            for line in run.stdout.splitlines()[1:]}
    assert rows.keys() == {"src", "tests"}
    for files, lines, code in rows.values():
        assert files > 0 and 0 < code <= lines
