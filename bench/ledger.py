"""Determinism records: output digests and exact counts across runs.

The CLI promises byte-identical outputs for identical inputs.  The
ledger keeps, per key (source-tree digest + inputs + command line), the
values an earlier run produced, and reports every later run of the same
key whose values differ.  Keys include the source digest, so runs of
different code are never compared.
"""

from __future__ import annotations

import hashlib
import json
import os


def _file_sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def digests(root: str) -> dict[str, str]:
    """sha256 of every file under root, by relative path."""
    result = {}
    for dirpath, dirnames, files in os.walk(root):
        dirnames[:] = [d for d in dirnames if d != "__pycache__"]
        for name in files:
            path = os.path.join(dirpath, name)
            result[os.path.relpath(path, root)] = _file_sha256(path)
    return dict(sorted(result.items()))


def tree_digest(root: str) -> str:
    """One digest for a whole source tree (paths and contents)."""
    return key(digests(root))


def key(*parts) -> str:
    return hashlib.sha256(json.dumps(parts, sort_keys=True).encode()).hexdigest()


class Ledger:
    def __init__(self, path: str):
        self.path = path
        try:
            with open(path) as fh:
                self.entries = json.load(fh)
        except (OSError, ValueError):
            self.entries = {}
        self.compared = 0
        self.mismatches: list[str] = []

    def compare(self, entry_key: str, label: str, values: dict) -> None:
        """Record values under the key, or compare them with the recorded ones."""
        seen = self.entries.setdefault(entry_key, values)
        if seen is values:
            return
        self.compared += 1
        diff = sorted(k for k in set(seen) | set(values) if seen.get(k) != values.get(k))
        if diff:
            self.mismatches.append(f"{label}: {', '.join(diff)} differ from an earlier run")

    def save(self) -> None:
        with open(self.path, "w") as fh:
            json.dump(self.entries, fh, indent=1, sort_keys=True)
