"""``examples/`` run: the scripts are the only callers of some public
entry points outside tests and benchmarks, so they execute in tier-1."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_offline_client_refreshes_answers_through_the_view_set(tmp_path):
    """``examples/offline_client.py`` — select, save, reopen in a second
    process, then keep the views current through ``MaterializedViewSet``
    — exits 0 and prints the refreshed answers."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    done = subprocess.run(
        [sys.executable, str(ROOT / "examples" / "offline_client.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    start = lines.index("server: refreshed answers after incremental maintenance:")
    refreshed = []
    for line in lines[start + 1 :]:
        if not line.startswith("    "):
            break
        refreshed.append(line.strip())
    # The acquisition arrived, the ended loan is gone.
    assert "vermeer, mauritshuis" in refreshed
    assert "rembrandt, gardnerMuseum" not in refreshed
    assert len(refreshed) == 3
