"""The import graph of every command stays free of `dataclasses` and `inspect`.

`dataclasses` pulls in `inspect`, `ast`, `dis` and `tokenize`, which every
`ciqc` process would pay for at start-up; the records are NamedTuples or
`__slots__` classes instead.
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
