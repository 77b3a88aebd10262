"""perfbench/spans.py wraps tokaudit's functions by attribute for traced runs;
every name it wraps must still exist."""
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_span_hooks_install_against_src():
    # install monkeypatches tokaudit's modules, so it runs in its own process
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    code = "import spans, tokaudit; spans.install(spans.Tracer()); print(tokaudit.__file__)"
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert pathlib.Path(proc.stdout.strip()).resolve().is_relative_to(ROOT / "src")
