"""Every function in src/ciqc is entered by a ciqc command, or allowlisted."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).with_name("reachability.py")

# the functions no command enters on purpose, each with its reason
ALLOWLIST = {
    "exact.QPoly.__repr__": "debugging aid; output goes through to_json",
    "exact.TruncSeries.__repr__": "debugging aid; output goes through to_json",
    "fano_lines.SchubertVector.__repr__": "debugging aid; nothing prints a SchubertVector",
    "exact.QPoly.__hash__": "keeps QPoly hashable, which defining __eq__ would undo",
    "smallqh.AmbientOrigin._pair_contract":
        "entered only by jets of degree >= 5, which tests and the stored "
        "potentials' generator build and no command asks for",
}


def test_unreached_functions_are_the_allowlist():
    # a fresh interpreter: the acceptance ring cache must start empty
    done = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert set(json.loads(done.stdout)) == set(ALLOWLIST)
