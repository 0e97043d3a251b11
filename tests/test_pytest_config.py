"""The suite's pytest config turns an unclosed file into a failing test."""

import pathlib
import subprocess
import sys

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"

LEAKY_TESTS = '''
def test_leaks_a_file():
    open(__file__)


def test_closes_its_file():
    with open(__file__):
        pass
'''


def test_unclosed_file_fails_its_test(tmp_path):
    # the ResourceWarning is raised in the file's __del__, so without the
    # config's filterwarnings both tests pass, with one warning
    path = tmp_path / "test_leaky.py"
    path.write_text(LEAKY_TESTS)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         str(path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
    assert "unclosed file" in proc.stdout
