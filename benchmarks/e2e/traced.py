"""Run one ``repro`` command with per-layer timing wrappers installed.

    E2E_SPAN_DIR=out python benchmarks/e2e/traced.py figure4 ialu --jobs 2

Takes the same arguments as ``python -m repro``.  Every ``repro``
module is imported first, so each target in ``layers.py`` is replaced
under every name it is bound to.  Spans go to ``spans.<pid>.jsonl`` in
``E2E_SPAN_DIR``, one file per process (forked pool children inherit
the wrappers), and a target that no longer exists is listed in
``missing.json`` there instead of reading as zero.
"""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import sys
from pathlib import Path

from layers import targets
from spans import ITER_ENV, SPAN_DIR_ENV, Recorder, install


def main(argv) -> int:
    import repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name != "repro.__main__":  # importing it runs the CLI
            importlib.import_module(info.name)
    span_dir = os.environ[SPAN_DIR_ENV]
    recorder = Recorder(span_dir, os.environ.get(ITER_ENV, ""))
    os.register_at_fork(after_in_child=recorder.after_fork_in_child)
    modules = {name: module for name, module in sys.modules.items()
               if name == "repro" or name.startswith("repro.")}
    installation = install(targets(recorder), modules)
    if installation.missing:
        (Path(span_dir) / "missing.json").write_text(
            json.dumps(installation.missing), encoding="utf-8")
    from repro import cli
    span = recorder.open("cli.main")
    try:
        return cli.main(argv)
    finally:
        recorder.close(span)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
