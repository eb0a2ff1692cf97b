"""Checkpoint and manifest hygiene shared by the resumable streaming jobs.

Checkpoints live in ``ckpt-{next_fragment:05d}`` directories.  The newest is
chosen by the parsed cursor: the zero padding stops sorting lexically past
99,999 fragments (``ckpt-100000`` < ``ckpt-99999`` as strings).  Only the
two newest are kept.
"""

from __future__ import annotations

import json
import os
import shutil

_KEEP = 2  # the newest, plus one spare should the newest be unreadable


def _checkpoints(checkpoint_dir: str) -> list[str]:
    """``ckpt-*`` directory names, oldest cursor first."""
    ckpts = [
        d for d in os.listdir(checkpoint_dir)
        if d.startswith("ckpt-") and d[5:].isdigit()
    ]
    return sorted(ckpts, key=lambda d: int(d[5:]))


def latest_checkpoint(checkpoint_dir: str) -> str | None:
    """Path of the checkpoint with the highest fragment cursor, or None."""
    ckpts = _checkpoints(checkpoint_dir)
    return os.path.join(checkpoint_dir, ckpts[-1]) if ckpts else None


def prune_checkpoints(checkpoint_dir: str) -> None:
    """Delete all but the two newest checkpoints (by parsed cursor), so a
    long stream's checkpoint directory stays bounded."""
    for d in _checkpoints(checkpoint_dir)[:-_KEEP]:
        shutil.rmtree(os.path.join(checkpoint_dir, d), ignore_errors=True)


def truncate_manifest(out_dir: str, next_fragment: int) -> None:
    """Cut ``manifest.jsonl`` back to a restored cursor: keep only the
    fragment lines below ``next_fragment``, so the replayed fragments are
    recorded once.  Summary lines of the superseded run are dropped too.
    The rewrite is atomic (temp file + rename)."""
    path = os.path.join(out_dir, "manifest.jsonl")
    if not os.path.exists(path):
        return
    keep = []
    with open(path) as f:
        for line in f:
            try:
                rec = json.loads(line)
            except ValueError:  # a line torn by the crash
                continue
            if rec.get("fragment", next_fragment) < next_fragment:
                keep.append(line.rstrip("\n") + "\n")
    tmp = path + f".tmp-{os.getpid()}"
    with open(tmp, "w") as f:
        f.writelines(keep)
    os.replace(tmp, path)
