"""Content-addressed on-disk compile cache, shared across processes.

The in-memory :class:`~repro.perf.cache.CompileCache` dies with its
process, so before this layer existed every CLI invocation -- and every
cold pool worker -- recompiled the 94-case suite from scratch
(``BENCH_engine.json`` recorded a 0.0 warm hit rate for exactly that
reason).  :class:`DiskCache` persists the *elaborated Core layer*: the
:class:`~repro.core.coreir.CoreProgram` is the last representation that
both pickles cleanly and is expensive to rebuild (the direct-threaded
closure tables above it are process-local by design and cheap to
re-thread from Core).

Addressing is by content, not by name: the entry for a compile is
``sha256(format version + every compile axis + source)``, i.e. exactly
the key that defines compile identity in :meth:`CompileCache.key_for`
(both follow ``COMPILE_AXES``) plus the on-disk format version.
Changing any axis -- or bumping :data:`DISK_FORMAT_VERSION` when the
compiler's internals change shape -- lands on a different address, so
stale entries are never *wrongly* served; they are simply never looked up
again (and an old entry that is somehow looked up fails the in-payload
version/digest check and reads as a miss).

Concurrency contract: any number of processes may share one directory.

* **Writers** never write in place: an entry is pickled to a temp file
  in the same shard directory and published with :func:`os.replace`,
  which is atomic on POSIX and on NTFS -- a reader sees either the
  whole entry or no entry, never a torn one.  Two processes racing to
  publish the same key both write identical content; last rename wins.
* **Readers** treat *every* failure -- missing file, truncated pickle,
  corrupt bytes, version mismatch, digest mismatch, unpicklable class
  -- as a miss.  The caller then recompiles and rewrites the entry, so
  a damaged cache heals itself instead of crashing a run.

The default directory is ``~/.cache/repro`` (respecting
``$XDG_CACHE_HOME`` and the ``$REPRO_CACHE_DIR`` override); the CLI's
``--cache-dir``/``--no-disk-cache`` select or disable it per run.
"""

from __future__ import annotations

import hashlib
import os
import pathlib
import pickle
import tempfile

#: Bump when the pickled payload shape -- or anything about how Core
#: programs are built -- changes incompatibly.  Part of both the
#: address digest (old entries become unreachable) and the payload
#: (an old file reached anyway reads as a miss).
DISK_FORMAT_VERSION = 3

#: Filename suffix for published entries (temp files use ``.tmp``).
_SUFFIX = ".pkl"


def default_cache_dir() -> pathlib.Path:
    """``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro``, else
    ``~/.cache/repro``."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return pathlib.Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = pathlib.Path(xdg) if xdg else pathlib.Path.home() / ".cache"
    return base / "repro"


def digest_for(key: tuple) -> str:
    """The content address of one compile-identity key.

    ``key`` is :meth:`CompileCache.key_for`'s tuple: the source, then
    one value per :data:`repro.impls.config.COMPILE_AXES` axis.  Each
    axis value enters the payload as its ``str`` -- for the semantics
    options a frozen dataclass of enums, stable across processes and
    growing new fields loudly (a new option axis changes every digest
    -- correct invalidation by construction).  Run-only axes (mode,
    address map, revocation, allocator policy) are deliberately
    absent: one on-disk entry serves every run configuration,
    including the whole allocator-policy grid.
    """
    from repro.impls.config import COMPILE_AXES
    source, *values = key
    if len(values) != len(COMPILE_AXES):
        raise ValueError(f"a compile key holds {len(COMPILE_AXES)} axes")
    payload = "\x00".join((f"v{DISK_FORMAT_VERSION}", *map(str, values),
                           source))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class DiskCache:
    """One on-disk cache directory of pickled Core programs.

    Stateless apart from its directory path: every operation re-reads
    the filesystem, so independent :class:`DiskCache` instances (and
    independent processes) sharing a directory see each other's
    entries immediately.
    """

    def __init__(self, directory: str | os.PathLike) -> None:
        self.directory = pathlib.Path(directory)

    def _path_for(self, digest: str) -> pathlib.Path:
        # Two-level sharding keeps any one directory small however many
        # programs a long-lived cache accumulates (fuzz candidates are
        # one-shot and never stored here; see repro.perf.cache).
        return self.directory / digest[:2] / (digest + _SUFFIX)

    def load(self, key: tuple):
        """The cached :class:`~repro.core.coreir.CoreProgram` for
        ``key``, or ``None`` on *any* failure (missing, truncated,
        corrupt, wrong version, wrong digest, unpicklable)."""
        digest = digest_for(key)
        path = self._path_for(digest)
        try:
            blob = path.read_bytes()
            entry = pickle.loads(blob)
            if (not isinstance(entry, dict)
                    or entry.get("version") != DISK_FORMAT_VERSION
                    or entry.get("digest") != digest):
                raise ValueError("entry failed validation")
            return entry["core"]
        except FileNotFoundError:
            return None
        except Exception:
            # Damaged entry: drop it (best-effort -- a concurrent
            # writer may already have replaced it) so the caller's
            # recompile-and-rewrite leaves the cache healthy.
            try:
                path.unlink()
            except OSError:
                pass
            return None

    def store(self, key: tuple, core) -> bool:
        """Publish ``core`` under ``key`` via write-to-temp + atomic
        rename.  Best-effort: a read-only or full filesystem makes this
        a no-op (the run still completes, just uncached)."""
        digest = digest_for(key)
        path = self._path_for(digest)
        try:
            payload = pickle.dumps({
                "version": DISK_FORMAT_VERSION,
                "digest": digest,
                "core": core,
            }, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            return False
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(dir=path.parent,
                                            suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(payload)
                os.replace(tmp_name, path)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
        except OSError:
            return False
        return True

    def __len__(self) -> int:
        """Published entry count (walks the directory; test/debug use)."""
        try:
            return sum(1 for _ in self.directory.glob("??/*" + _SUFFIX))
        except OSError:
            return 0
