"""Disk tier of the per-content table store: one ``.npz`` file per table.

A ``PreparedContent`` with a ``store_dir`` (the CLI sets it to ``--out``)
keeps each frame's tables that read the cloud (ray-cast gaze targets, exact
overlap matrix, geodesic gaze distance matrix) in
``<store_dir>/.viewsim-store/<content>/<kind>-<frame>.npz``.
Each file holds exactly its kind's arrays and a sha256 key over everything
the table was computed from: the frame's inputs, viewsim's own sources and
the numpy and scipy versions.  A file that is missing, unreadable,
malformed, keyed differently or holding other members is a miss, never an
error, and the next write replaces it.  Files are written whole under a
temporary name, then renamed into place.
"""

from __future__ import annotations

import functools
import hashlib
import importlib.util
import os
import re
import zipfile

import numpy as np

_DIRNAME = ".viewsim-store"
_KEY = "key"

_F8, _BOOL = np.dtype(np.float64), np.dtype(bool)
_FIELDS = {
    "overlap": {"values": _F8},
    "geodesic": {"gaze_geo": _F8},
    "pr": {"p": _F8, "r": _F8, "off": _BOOL},
}
# each array is n_users x the trailing shape named here, else n_users x n_users
_TRAILING = {"p": (3,), "r": (), "off": ()}
# what np.load and reading an npz member raise on a missing, truncated or foreign file
_MISS = (OSError, ValueError, EOFError, zipfile.BadZipFile)


def safe_name(name: str) -> str:
    """``name`` with every run of characters unsafe in a file name, and every dot of a dots-only name, made '-'."""
    safe = re.sub(r"[^A-Za-z0-9._-]+", "-", name)
    return safe if safe.strip(".") else "-" * len(safe)


def digest(*parts) -> str:
    """sha256 hex over ``parts``: arrays by dtype, shape and bytes, anything else by repr."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            body = np.ascontiguousarray(part)
            h.update(f"array {body.dtype.str} {body.shape}\n".encode())
        else:
            body = repr(part).encode()
            h.update(f"repr {len(body)}\n".encode())
        h.update(body)
    return h.hexdigest()


@functools.cache
def environment_digest() -> str:
    """Digest of viewsim's ``.py`` sources and the numpy and scipy versions.

    scipy's version is read from its ``version.py`` (version and git
    revision) without importing scipy.
    """
    package = os.path.dirname(os.path.abspath(__file__))
    sources = []
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                sources.append((name, fh.read()))
    scipy_version = b""
    spec = importlib.util.find_spec("scipy")
    if spec is not None and spec.origin:
        try:
            with open(os.path.join(os.path.dirname(spec.origin), "version.py"), "rb") as fh:
                scipy_version = fh.read()
        except OSError:
            pass
    return digest(tuple(sources), np.__version__, scipy_version)


def table_key(kind: str, *inputs) -> str:
    """Key of one table: its kind, what its frame function reads, and the environment."""
    return digest(environment_digest(), kind, *inputs)


def table_path(store_dir, content_id: str, kind: str, frame: int) -> str:
    return os.path.join(store_dir, _DIRNAME, safe_name(content_id), f"{kind}-{frame:06d}.npz")


def load(path: str, key: str, kind: str, n: int):
    """The ``kind`` table of ``n`` users at ``path`` under ``key``, its arrays in ``_FIELDS`` order; None on a miss."""
    fields = _FIELDS[kind]
    try:
        npz = np.load(path, allow_pickle=False)
        if not isinstance(npz, np.lib.npyio.NpzFile):  # a bare .npy array
            return None
        with npz:
            if set(npz.files) != {_KEY, *fields}:
                return None
            stored = npz[_KEY]
            if stored.dtype.kind != "U" or stored.shape != () or str(stored) != key:
                return None
            arrays = {name: npz[name] for name in fields}
    except _MISS:
        return None
    if any(a.shape != (n, *_TRAILING.get(name, (n,))) or a.dtype != fields[name] for name, a in arrays.items()):
        return None
    return tuple(arrays.values())


def save(path: str, key: str, kind: str, table: tuple) -> None:
    """Write ``table``'s arrays with its key to a temporary file, then rename it to ``path``."""
    arrays = dict(zip(_FIELDS[kind], table))
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"  # one writer per name: each process writes on one thread
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, **{_KEY: np.array(key)}, **arrays)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
