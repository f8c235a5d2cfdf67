"""The import graph of every command stays free of `dataclasses` and `inspect`,
and `import ciqc.cli` loads only the modules every command needs.

`dataclasses` pulls in `inspect`, `ast`, `dis` and `tokenize`, which every
`ciqc` process would pay for at start-up; the records are NamedTuples or
`__slots__` classes instead.  The CLI imports the other package modules
inside the commands that use them, so a command pays only for its own.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# the CLI and every module it imports lazily inside a command
MODULES = ("cli", "acceptance", "reconstruct", "reduction", "genus_one",
           "fano_lines", "smallqh")


def test_no_command_imports_dataclasses_or_inspect():
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); "
            + "; ".join(f"import ciqc.{m}" for m in MODULES)
            + "; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_cli_start_up_loads_only_the_core_modules():
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import ciqc.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'ciqc'))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == str(["ciqc", "ciqc.cli", "ciqc.errors",
                                       "ciqc.exact", "ciqc.geometry"])
