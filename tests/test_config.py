"""Run configuration: derived seeds agree with hashlib's sha256, and
importing the CLI loads neither OpenSSL nor the process-pool stack."""

import hashlib
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from zqadd.config import RunConfig

VERIFY = Path(__file__).resolve().parent.parent / "src" / "zqadd" / "verify.py"
LABELS = sorted(set(re.findall(r'(?:\.rng|\.derived_seed)\("([^"]+)"\)', VERIFY.read_text())))


def test_every_suite_label_is_found():
    assert LABELS == ["boundary", "digital_impact_bound", "identities", "inequalities", "subgroup_lemma"]


@pytest.mark.parametrize("seed", [0, 1, 42, -7, 2**70])
def test_derived_seed_is_hashlib_sha256(seed):
    for label in LABELS:
        digest = hashlib.sha256(f"{seed}/{label}/0".encode()).digest()
        assert RunConfig(seed=seed).derived_seed(label) == int.from_bytes(digest[:8], "big")


def test_importing_the_cli_loads_no_openssl_or_process_pool():
    heavy = ["_hashlib", "hashlib", "multiprocessing", "concurrent.futures.process"]
    code = f"import sys, json, zqadd.cli; print(json.dumps([m for m in {heavy!r} if m in sys.modules]))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr.decode()[-500:]
    assert json.loads(proc.stdout) == []
