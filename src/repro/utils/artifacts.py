"""Provenance stamp of resumable on-disk artefacts.

Every resumable artefact in the repository — corpus manifests, evaluation
reports, sweep manifests, golden baselines, observability run reports —
stamps the git revision of the generating code (:func:`git_revision`).
Their atomic writes go through :mod:`repro.io.atomic`.
"""

from __future__ import annotations

import subprocess
from pathlib import Path
from typing import Union

__all__ = ["git_revision"]


def git_revision(repo_root: Union[str, Path, None] = None) -> str:
    """Best-effort git revision of the generating code.

    Parameters
    ----------
    repo_root:
        Directory to resolve the revision in; defaults to this file's
        repository checkout.

    Returns
    -------
    The full commit hash, or ``"unknown"`` when git (or the checkout) is
    unavailable — artefact generation never fails for provenance reasons.
    """
    if repo_root is None:
        repo_root = Path(__file__).resolve().parent
    try:
        completed = subprocess.run(
            ["git", "-C", str(repo_root), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10.0,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    revision = completed.stdout.strip()
    return revision if completed.returncode == 0 and revision else "unknown"
