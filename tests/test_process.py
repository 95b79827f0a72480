"""What importing diffusim does to the process: see the end of __init__.py."""
import ast
import json
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import diffusim

from conftest import src_env


def _run(code: str) -> str:
    proc = subprocess.run([sys.executable, "-c", code], env=src_env(), capture_output=True, text=True,
                          timeout=60, check=True)
    return proc.stdout.splitlines()[-1]


@pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                    reason="counts glibc malloc's page faults")
def test_verify_does_not_fault_its_heap_in():
    # the mmap and trim thresholds raised at import keep verify's temporaries on
    # the heap: ~2,900 minor faults after the import, 17,000-52,000 without.
    # verify prints to /dev/null: with its output kept in an io.StringIO, a
    # process without the raised thresholds read only ~4,800 faults
    proc = subprocess.run([sys.executable, "-c",
                           "import resource, sys\n"
                           "import diffusim.cli\n"
                           "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
                           "code = diffusim.cli.main(['verify', '--seed', '0'])\n"
                           "faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before\n"
                           "print(code, faults, file=sys.stderr)\n"],
                          env=src_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                          timeout=120, check=True)
    code, faults = map(int, proc.stderr.split())
    assert code == 0 and faults < 8000


@pytest.mark.parametrize("enabled", [True, False])
def test_import_leaves_gc_enabled_as_it_found_it(enabled):
    # gc.freeze at import moves objects to the permanent generation; collection stays as it was
    switch = "gc.enable()" if enabled else "gc.disable()"
    assert _run(f"import gc\n{switch}\nimport diffusim\nprint(gc.isenabled())") == str(enabled)


def test_import_adds_no_public_name():
    # the public names are the package's own imports and its loaded submodules
    public, submodules = json.loads(_run(
        "import json, sys\nimport diffusim\n"
        "print(json.dumps([sorted(n for n in dir(diffusim) if not n.startswith('_')),\n"
        "                  sorted(m.split('.')[1] for m in sys.modules if m.startswith('diffusim.'))]))"))
    tree = ast.parse(Path(diffusim.__file__).read_text())
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names}
    assert public == sorted(imported | set(submodules))
