"""File-backed spill arrays: the out-of-core destination machinery.

Everything at com-LiveJournal scale that used to live in anonymous heap
memory — the generator's stub stream, CSR targets/probabilities, the
hyper-graph member stream — can instead land in a ``np.memmap`` over a
file in a *spill directory*.  File-backed pages are reclaimable page
cache rather than anonymous RSS, so the coordinator's peak memory stops
tracking graph and hyper-graph size (see ``docs/performance.md``,
"Out-of-core assembly").

Three concerns live here:

* **Placement.**  Whether an array lives on the heap or in a spill file
  is decided once, by :class:`repro.rrset.storage.Placement` (the only
  reader of ``REPRO_SPILL_DIR``).  Derived arrays follow their source:
  :func:`spill_like` allocates next to a spill-backed source and on the
  heap otherwise.  Placement never changes array *contents*.
* **Spill lifetime.**  Spill files are created under a per-process
  session directory (removed at interpreter exit) and additionally
  unlinked by a ``weakref`` finalizer as soon as the last array view
  dies, so long-running processes do not accumulate dead spill files.
  The default root (:func:`default_spill_root`) is the system temp dir
  but never ``/dev/shm`` (the slab-store default): slabs exist for
  zero-copy transport and want tmpfs, spills exist to relieve memory and
  want a disk.
* **Zero-copy pickling.**  A spill-backed array crossing the worker-pool
  boundary must not be rehydrated into a multi-GB pickle byte stream
  (numpy pickles ``np.memmap`` by value).  :func:`pack_array` turns a
  live file-backed memmap into a tiny ``(path, dtype, shape, offset)``
  receipt and :func:`unpack_array` reopens it read-only in the worker,
  so pool initializer payloads stay O(bytes) regardless of graph size.
"""

from __future__ import annotations

import atexit
import os
import shutil
import tempfile
import weakref
from pathlib import Path
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import StorageError

__all__ = [
    "default_spill_root",
    "spill_array",
    "spill_like",
    "release_pages",
    "is_spill_backed",
    "pack_array",
    "unpack_array",
    "peak_rss_mb",
]

_SHM = Path("/dev/shm")


def default_spill_root() -> Path:
    """The system temp dir, or ``/var/tmp`` when that lies on ``/dev/shm``.

    A spill that lands on tmpfs would consume the exact memory it exists
    to save, so the default never resolves under ``/dev/shm``.
    """
    root = Path(tempfile.gettempdir())
    if root == _SHM or _SHM in root.parents:
        return Path("/var/tmp")
    return root


# Per-(process, root) spill session directories, removed at interpreter
# exit.  Individual files are also unlinked early by array finalizers;
# the directory sweep catches anything a hard kill left behind in *this*
# process's lifetime (a SIGKILL leaks the directory — it is prefixed
# ``repro-spill-`` so stale ones are recognizable).
_SESSION_DIRS: dict = {}
_SPILL_COUNTER = [0]


def _session_dir(root: Path) -> Path:
    key = os.path.abspath(root)
    session = _SESSION_DIRS.get(key)
    if session is None or not os.path.isdir(session):
        root.mkdir(parents=True, exist_ok=True)
        session = tempfile.mkdtemp(prefix=f"repro-spill-{os.getpid()}-", dir=root)
        _SESSION_DIRS[key] = session
        atexit.register(shutil.rmtree, session, ignore_errors=True)
    return Path(session)


def _unlink_quietly(path: str) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


def spill_array(
    shape: Union[int, Sequence[int]],
    dtype: Union[str, np.dtype],
    spill_dir: Union[str, Path, None] = None,
    name_hint: str = "a",
) -> np.ndarray:
    """Allocate a writable file-backed array under ``spill_dir``.

    ``None`` means :func:`default_spill_root`.  The backing file is
    sized with ``ftruncate`` (sparse — blocks materialize only as pages
    are written) and unlinked automatically when the array is garbage
    collected.  Contents start zeroed, like ``np.zeros`` — callers that
    relied on ``np.empty``'s garbage must still overwrite every element,
    which they do by contract.
    """
    dtype = np.dtype(dtype)
    shape_tuple: Tuple[int, ...] = (
        (int(shape),) if np.isscalar(shape) else tuple(int(s) for s in shape)
    )
    nbytes = int(np.prod(shape_tuple, dtype=np.int64)) * dtype.itemsize
    if nbytes == 0:
        # mmap cannot map zero bytes; a 0-length heap array is free anyway.
        return np.empty(shape_tuple, dtype=dtype)
    session = _session_dir(
        default_spill_root() if spill_dir is None else Path(spill_dir)
    )
    _SPILL_COUNTER[0] += 1
    path = session / f"{_SPILL_COUNTER[0]:06d}-{name_hint}.bin"
    try:
        with open(path, "wb") as handle:
            if nbytes:
                os.ftruncate(handle.fileno(), nbytes)
        array = np.memmap(path, dtype=dtype, mode="r+", shape=shape_tuple)
    except OSError as exc:
        raise StorageError(f"cannot create spill file {path}: {exc}") from exc
    weakref.finalize(array, _unlink_quietly, str(path))
    from repro.obs.context import get_metrics

    get_metrics().inc("storage.spill_bytes_total", nbytes)
    get_metrics().inc("storage.spill_arrays_total")
    return array


def spill_like(
    source: np.ndarray,
    shape: Union[int, Sequence[int]],
    dtype: Union[str, np.dtype],
    name_hint: str = "a",
) -> np.ndarray:
    """A destination on ``source``'s backing: heap, or a spill file.

    A spill-backed ``source`` places the new array under the same spill
    root, so derived arrays (transpose adjacency, inverted index,
    objective state) follow the placement their input was given.
    """
    mapped = _memmap_of(source)
    if mapped is None:
        return np.empty(shape, dtype=np.dtype(dtype))
    # A file inside a spill session names its root; any other mapped file
    # (e.g. a graph loaded with ``load_csr(mmap=True)``) uses the default.
    session = Path(mapped.filename or "").parent
    root = session.parent if session.name.startswith("repro-spill-") else None
    return spill_array(shape, dtype, spill_dir=root, name_hint=name_hint)


def release_pages(array: np.ndarray) -> None:
    """Best-effort: drop a spill array's resident pages from this process.

    For a shared file-backed mapping ``MADV_DONTNEED`` only zaps the page
    table entries — the page cache (dirty pages included) still belongs
    to the file, so contents survive and later accesses fault the pages
    back in.  Calling this after a sequential pass keeps peak RSS at the
    pass's working set instead of the whole array.  No-op for heap
    arrays and on platforms without ``madvise``.
    """
    base = getattr(array, "base", None)
    import mmap as _mmap

    target = base if isinstance(base, _mmap.mmap) else None
    if target is None or not hasattr(target, "madvise"):
        return
    try:
        target.madvise(_mmap.MADV_DONTNEED)
    except (OSError, ValueError):  # pragma: no cover - platform-specific
        pass


def _memmap_of(array: np.ndarray) -> Optional[np.memmap]:
    """The ``np.memmap`` behind ``array``, if it is (a view of) one."""
    while isinstance(array, np.ndarray):
        if isinstance(array, np.memmap):
            return array
        array = array.base
    return None


def is_spill_backed(array: np.ndarray) -> bool:
    """True when ``array`` is (a view of) a file-backed ``np.memmap``."""
    return _memmap_of(array) is not None


def _mapped_base(array: np.ndarray) -> Optional[np.memmap]:
    """The original (non-view) memmap behind ``array``, if it is one."""
    if not isinstance(array, np.memmap):
        return None
    if isinstance(array.base, np.ndarray):
        # A view: np.memmap does not maintain .offset/.filename for
        # views, so a by-reference pickle of one would be wrong.
        return None
    return array


def pack_array(array):
    """Pickle-friendly form of an array: by reference when file-backed.

    A live, whole-file, C-contiguous memmap becomes a
    ``("spill-mmap", path, dtype, shape, offset)`` receipt; everything
    else (heap arrays, views, scalars) passes through untouched and
    pickles by value as usual.
    """
    if not isinstance(array, np.ndarray):
        return array
    base = _mapped_base(array)
    if (
        base is None
        or not base.flags["C_CONTIGUOUS"]
        or not base.filename
        or not os.path.exists(base.filename)
    ):
        return array
    return (
        "spill-mmap",
        str(base.filename),
        base.dtype.str,
        tuple(int(s) for s in base.shape),
        int(base.offset),
    )


def unpack_array(packed):
    """Inverse of :func:`pack_array`; reopens receipts read-only."""
    if (
        isinstance(packed, tuple)
        and len(packed) == 5
        and packed[0] == "spill-mmap"
    ):
        _tag, path, dtype, shape, offset = packed
        try:
            return np.memmap(
                path, dtype=np.dtype(dtype), mode="r", shape=shape, offset=offset
            )
        except (OSError, ValueError) as exc:
            raise StorageError(
                f"cannot reopen spill-backed array {path}: {exc}"
            ) from exc
    return packed


def peak_rss_mb() -> Optional[float]:
    """Peak RSS of this process and its pool workers, in MiB."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    import sys

    peak = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    if sys.platform == "darwin":  # pragma: no cover - ru_maxrss is bytes there
        return peak / (1024.0 * 1024.0)
    return peak / 1024.0
