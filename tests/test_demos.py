"""Every demo script runs to completion and prints exactly its pinned output."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# SHA-256 of each demo's stdout; the demos print exact values, so a change
# in any result they show changes the digest
STDOUT_SHA256 = {
    "equations_tour": "54ca2fbe4b06baec8d84f787fad2f7f596037917ea0e13d4c80dac3b0eaa3255",
    "frame_change": "2d8207995f8b50e76a91daaad98a480fab1be128f9b78f5d9544a72a0a3b2599",
    "grading_tour": "e99c170631514a2875c070dd35fbbf3c9e36f34ed11267448aad901dbb29eab2",
    "kernel_walk": "a5b234e1598654c8371adadaf7bd32a96c29c903e94ab4a9e52b7c274ebf3c18",
    "torsion_span": "93f818b34900675e19715c68b1121e8ddf0d3f18b9b2cab49eeb23fe20137cf9",
    "tube_model": "cf9911ae53d20b79e36a47721d603bd2fb55b9157004fcb032a2609fbe59ef6b",
}


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo, digest", [(d, STDOUT_SHA256.get(d.stem)) for d in DEMOS],
                         ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, digest):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == digest
