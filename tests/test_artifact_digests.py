"""The digest script's check that no CLI step leaves a process running."""
import importlib.util
import os
import sys
import time
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "artifact_digests.py"


@pytest.fixture(scope="module")
def digests():
    spec = importlib.util.spec_from_file_location("artifact_digests", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _running(pid: int) -> bool:
    """Whether pid is a live process: a killed one is gone, or a zombie
    until whoever adopted it reaps it."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def _run(digests, tmp_path, code):
    (tmp_path / "stdout").mkdir(exist_ok=True)
    digests.run_step("step", [sys.executable, "-c", code], tmp_path, dict(os.environ))


def test_a_step_that_reaps_its_children_passes(digests, tmp_path):
    _run(digests, tmp_path, "import subprocess; subprocess.run(['sleep', '0.1']); print('done')")
    assert (tmp_path / "stdout" / "step").read_text() == "done\n"


def test_a_step_that_leaves_a_process_running_fails_and_its_session_is_killed(digests, tmp_path):
    # the leftover inherits the step's stdout and keeps it open
    code = (
        "import subprocess; "
        "p = subprocess.Popen(['sleep', '30']); "
        "open('left.pid', 'w').write(str(p.pid))"
    )
    with pytest.raises(SystemExit, match="^step left a process of its session running"):
        _run(digests, tmp_path, code)
    # SIGKILL is delivered asynchronously: on a busy host the leftover may
    # still run for a moment after the script sent it
    pid = int((tmp_path / "left.pid").read_text())
    deadline = time.monotonic() + 5.0
    while _running(pid) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not _running(pid)


def test_a_failing_step_exits_with_its_stderr(digests, tmp_path):
    with pytest.raises(SystemExit, match="^step exited 3: boom"):
        _run(digests, tmp_path, "import sys; sys.stderr.write('boom'); sys.exit(3)")
