"""The compilation cache and run memo behind :meth:`Implementation.run`.

Compilation -- lexing, parsing, the modelled optimisation passes,
elaboration to Core and direct threading -- is a pure function of
``(source, arch, opt_level, subobject_bounds, options)``.  Everything
else an :class:`~repro.impls.config.Implementation` carries (address
map, abstract-vs-hardware mode, revocation, allocator policy) only
affects *running* the compiled program, so e.g. all four ``-O0``
hardware implementations plus the reference can share one compile of
each test program.  The S5 comparison compiles each of the 94 programs
twice (once per distinct opt level) instead of seven times, and the
differential oracle compiles each generated program a handful of times
instead of once per target.

Two in-memory maps and one disk store:

* a *frontend record* per ``(source, arch)``: the AST (or the parse
  rejection) and, per opt level compiled so far, the elaborated
  :class:`~repro.core.coreir.CoreProgram` (or the rejection).  The
  Core program reads only those three axes -- ``subobject_bounds`` and
  ``options`` change how it runs, not what it is -- so compile keys
  that differ only there share one optimiser and one elaborator run
  (AST nodes are frozen and Core ops carry no per-run state);
* one *entry* per five-axis key (:meth:`CompileCache.key_for`), whose
  slots fill lazily: the Core program (from the frontend record), the
  direct-threaded :class:`~repro.core.compile.CompiledProgram` built
  from it, or the
  frontend or elaboration rejection -- stored once, so a program the
  frontend rejects is rejected once, not once per implementation.
  The entry also carries the *run memo* of the tiered ``compiled``
  evaluator (:meth:`CompileCache.tiered`): the Outcome of every
  deterministic run -- no bus, no fault plan, no deadline -- keyed by
  (:func:`~repro.impls.config.run_config_key`, ``main``, budget), so
  an identical repeat (a shrinker re-testing a candidate, a minimised
  program re-evaluated) neither compiles nor executes.  The key holds
  every run axis the run observed: a run that released no heap region
  never read the release-only axes (revocation, allocator policy), so
  it is keyed without them and serves every policy
  (:func:`~repro.impls.config.memo_keys`).  The memo is
  bounded per entry (:data:`MEMO_PER_ENTRY`) and evicted with it.
  Every run the memo does not serve takes the entry's Core program on
  the Core loop, so the default evaluator threads nothing and pays
  nothing for closures and their garbage-collector load; the threaded
  slot is filled only for the API-only ``threaded`` evaluator (the
  differential gate) and explicit :func:`compile_threaded` calls.
  Threaded programs are closures and so **process-local**: they never
  pickle across the worker pool -- a worker that needs one compiles it
  in-process from the task's source (tasks carry sources, not
  programs), and a ``CompiledProgram`` that is pickled anyway reduces
  to its Core program and recompiles on unpickle;
* the *disk* layer (:mod:`repro.perf.disk`): a content-addressed
  on-disk store of pickled Core programs, keyed by the SHA-256 of the
  same five axes, shared across worker processes **and across CLI
  invocations**.  An entry without a Core program consults it before
  the frontend record and publishes what it then gets under its own
  key, so a warm-started process (or a cold pool worker) performs zero
  frontend compiles for sources any previous run compiled.  Rejections
  are never written to disk -- they are cheap to rediscover and
  memory-cached per process.
  Only *persistent* requests touch this layer.  A request made with
  ``persist=False`` -- every fuzz candidate, shrink candidate,
  coverage probe and evidence trace, which are compiled once and
  thrown away -- shares the in-memory entry but neither looks up nor
  publishes on disk, so fuzzing writes nothing to the cache directory.
  The suite, ``repro run`` and corpus replay persist (the default).

``CompileCache.stats`` (a :class:`CacheStatsSet`) counts six layers:
``parse`` (a frontend record already held the AST or the parse
rejection), ``core`` and ``threaded`` (an entry's slot was already
filled, or held a rejection), ``disk``, ``compiled`` -- one miss per
optimiser run, so per ``(source, arch, opt_level)``, and a hit for
every entry that took its Core program (or rejection) from the record
instead -- and ``memo``: runs served from the run memo (hits) and runs
executed and stored in it (misses).  Pool workers report their counts
back with every task group, and :func:`add_worker_stats` adds them to
the global cache's.

Both maps are bounded LRU maps (entries evicted oldest-first), sized
for a long fuzz campaign without unbounded growth, and are per-process:
worker processes forked by :mod:`repro.perf.pool` inherit the parent's
entries at fork time and then populate their own copies.  The disk
layer is what makes that cheap to live with -- spawned or recycled
workers warm-start from it instead of recompiling.

``set_cache_enabled(False)`` (the CLI's ``--no-compile-cache``) gives
every compile a private, diskless cache instead of the global one;
``configure_disk_cache`` (the CLI's ``--cache-dir``/``--no-disk-cache``)
controls only the disk layer.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from repro.core.compile import compile_core as compile_threaded_ir
from repro.core.coreeval import default_evaluator, set_default_evaluator
from repro.core.cparser import parse_program
from repro.core.elaborate import elaborate_program
from repro.core.optimizer import optimize_program
from repro.errors import CSyntaxError, CTypeError
from repro.perf.disk import DiskCache, default_cache_dir

#: Default entry bound for the in-memory cache layers.
DEFAULT_MAXSIZE = 4096

#: Bound on the run-memo outcomes one compile entry keeps.
MEMO_PER_ENTRY = 64


@dataclass
class CacheStats:
    """Hit/miss accounting for one cache layer."""

    hits: int = 0
    misses: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def to_dict(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "hit_rate": round(self.hit_rate, 4)}


class CacheStatsSet:
    """Per-layer :class:`CacheStats` for one :class:`CompileCache`.

    One entry per layer (``parse``/``compiled``/``core``/``threaded``/
    ``disk``/``memo``) plus aggregates.  ``memo`` counts the run memo:
    a hit is a run served from it, a miss a run that executed and was
    stored; runs the memo does not cover count in neither.
    """

    LAYERS = ("parse", "compiled", "core", "threaded", "disk", "memo")

    def __init__(self) -> None:
        self.parse = CacheStats()
        self.compiled = CacheStats()
        self.core = CacheStats()
        self.threaded = CacheStats()
        self.disk = CacheStats()
        self.memo = CacheStats()

    def layer(self, name: str) -> CacheStats:
        return getattr(self, name)

    def merge(self, other: "CacheStatsSet") -> None:
        """Add ``other``'s counts (a pool worker's) to these."""
        for name in self.LAYERS:
            mine, theirs = self.layer(name), other.layer(name)
            mine.hits += theirs.hits
            mine.misses += theirs.misses

    @property
    def hits(self) -> int:
        return sum(self.layer(name).hits for name in self.LAYERS)

    @property
    def misses(self) -> int:
        return sum(self.layer(name).misses for name in self.LAYERS)

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    @property
    def compiles_performed(self) -> int:
        """Frontend compiles this cache actually executed: every parse
        that ran (a disk hit serves the elaborated Core program without
        parsing, so a fully warm-started run reads 0 here)."""
        return self.parse.misses

    def to_dict(self) -> dict:
        report = {name: self.layer(name).to_dict()
                  for name in self.LAYERS}
        report["total"] = {"hits": self.hits, "misses": self.misses,
                           "hit_rate": round(self.hit_rate, 4)}
        report["compiles_performed"] = self.compiles_performed
        return report

    def summary(self) -> str:
        """Human-readable per-layer table (the CLI's ``--metrics``)."""
        lines = ["compile cache (layer: hits/misses, hit-rate):"]
        for name in self.LAYERS:
            stats = self.layer(name)
            lines.append(f"  {name:<9s} {stats.hits:6d} /{stats.misses:6d}"
                         f"   {stats.hit_rate:5.2f}")
        lines.append(f"  compiles performed: {self.compiles_performed}")
        return "\n".join(lines) + "\n"


@dataclass
class _Entry:
    """The artefacts of one compile key, filled lazily: the Core
    program, its threaded form, or the rejection that stops both; plus
    the run memo of the tiered evaluator (see
    :meth:`CompileCache.tiered`)."""

    error: Exception | None = None
    core: object = None
    threaded: object = None
    #: The run memo: (run configuration, main, budget) -> Outcome,
    #: the configuration policy-blind for a run that freed nothing.
    outcomes: dict | None = None


@dataclass
class _Frontend:
    """What the frontend made of one ``(source, arch)``: the AST or the
    parse rejection, and for each opt level compiled so far the Core
    program or the rejection that stopped it."""

    #: The AST, or the CSyntaxError/CTypeError; None before parsing.
    ast: object = None
    #: opt_level -> CoreProgram, or the CSyntaxError/CTypeError.
    cores: dict = field(default_factory=dict)


class CompileCache:
    """LRU cache of compiled programs (and frontend rejections).

    ``disk`` selects the persistent backing layer: the default follows
    the process-wide configuration (``configure_disk_cache``); pass an
    explicit :class:`~repro.perf.disk.DiskCache` to pin a directory, or
    ``None`` for a purely in-memory cache.
    """

    #: Sentinel: resolve the disk layer from the process-wide
    #: configuration at lookup time (so CLI flags applied after
    #: construction still govern the import-time global cache).
    PROCESS_DISK = object()

    def __init__(self, maxsize: int = DEFAULT_MAXSIZE,
                 disk=PROCESS_DISK) -> None:
        self.maxsize = maxsize
        self.stats = CacheStatsSet()
        self._disk = disk
        self._frontend: OrderedDict[tuple, _Frontend] = OrderedDict()
        self._entries: OrderedDict[tuple, _Entry] = OrderedDict()

    @staticmethod
    def key_for(impl, source: str) -> tuple:
        """The compile identity of ``source`` under ``impl``: its
        value on every :data:`repro.impls.config.COMPILE_AXES` axis
        (an architecture by name), and none of the run-only axes
        (address map, mode, revocation, allocator policy) -- one
        compiled program serves every allocator policy, so the policy
        grid shares these cache layers."""
        import repro.impls.config as config     # imports this module
        return (source, *[impl.arch.name if axis == "arch"
                          else getattr(impl, axis)
                          for axis in config.COMPILE_AXES])

    def active_disk(self) -> DiskCache | None:
        if self._disk is CompileCache.PROCESS_DISK:
            return _process_disk()
        return self._disk

    def entry_counts(self) -> dict[str, int]:
        """In-memory frontend records, compile entries, the compile
        entries holding a Core or a threaded program, and the outcomes
        in their run memos."""
        entries = self._entries.values()
        return {"parse": len(self._frontend),
                "entries": len(self._entries),
                "core": sum(entry.core is not None for entry in entries),
                "threaded": sum(entry.threaded is not None
                                for entry in entries),
                "memo": sum(len(entry.outcomes) for entry in entries
                            if entry.outcomes)}

    def clear(self) -> None:
        """Drop the in-memory maps and reset stats.  The disk layer is
        shared across processes and deliberately survives -- remove its
        directory to clear it."""
        self._frontend.clear()
        self._entries.clear()
        self.stats = CacheStatsSet()

    def core(self, impl, source: str, persist: bool = True):
        """Compile + elaborate ``source`` for ``impl``, reusing any
        cached :class:`~repro.core.coreir.CoreProgram` -- from memory
        first, then from the shared disk layer.  Raises
        :class:`CSyntaxError`/:class:`CTypeError` (elaboration errors
        included) exactly like the uncached frontend, once per key.

        ``persist=False`` marks a one-shot request (a fuzz candidate):
        it shares the in-memory entry but neither looks the key up on
        disk nor publishes a fresh compile there."""
        key = self.key_for(impl, source)
        return self._core(impl, source, key, self._entry(key), persist)

    def threaded(self, impl, source: str, persist: bool = True):
        """Compile + elaborate + thread ``source`` for ``impl``,
        reusing any cached :class:`~repro.core.compile.CompiledProgram`
        and otherwise threading the entry's Core program.  ``persist``
        is as for :meth:`core`."""
        key = self.key_for(impl, source)
        return self._threaded(impl, source, key, self._entry(key), persist)

    def tiered(self, impl, source: str, memo_keys, persist: bool = True,
               key: tuple | None = None):
        """One run of ``source`` under ``impl`` by the tiered
        ``compiled`` evaluator (:meth:`Implementation.run
        <repro.impls.config.Implementation.run>`).

        Returns ``(outcome, None)`` when one of ``memo_keys`` -- the
        policy-blind and the full key of
        :func:`~repro.impls.config.memo_keys`, given only for a
        deterministic run -- is in the entry's run memo (a memo hit),
        and otherwise ``(None, program)`` with the entry's Core
        program, for the Core loop.  Frontend rejections raise as for
        :meth:`core`.  ``key`` is :meth:`key_for` of ``impl`` and
        ``source`` when the caller has it (and hands it on to
        :meth:`memoise`), so a run derives its key once.
        """
        if key is None:
            key = self.key_for(impl, source)
        entry = self._entry(key)
        if memo_keys is not None and entry.outcomes is not None:
            for memo_key in memo_keys:
                outcome = entry.outcomes.get(memo_key)
                if outcome is not None:
                    self.stats.memo.hits += 1
                    return outcome, None
        return None, self._core(impl, source, key, entry, persist)

    def memoise(self, impl, source: str, memo_keys, outcome,
                released: bool, key: tuple | None = None) -> None:
        """Store the outcome of a deterministic run that :meth:`tiered`
        could not serve (``memo_keys`` and ``key`` as for
        :meth:`tiered`): under the full key when the run ``released`` a
        heap region, and otherwise under the policy-blind key.  An
        outcome cut off by a host limit (``python-*``) depends on the
        host, so it is not kept."""
        if key is None:
            key = self.key_for(impl, source)
        entry = self._entries.get(key)
        if entry is None or outcome.limit.startswith("python-"):
            return
        if entry.outcomes is None:
            entry.outcomes = {}
        elif len(entry.outcomes) >= MEMO_PER_ENTRY:
            return
        self.stats.memo.misses += 1
        entry.outcomes[memo_keys[1] if released else memo_keys[0]] = outcome

    def _threaded(self, impl, source: str, key: tuple, entry: _Entry,
                  persist: bool):
        if entry.threaded is None and entry.error is None:
            self.stats.threaded.misses += 1
            core = self._core(impl, source, key, entry, persist)
            entry.threaded = compile_threaded_ir(core, impl)
            return entry.threaded
        self.stats.threaded.hits += 1
        if entry.error is not None:
            raise entry.error
        return entry.threaded

    def _entry(self, key: tuple) -> _Entry:
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            return entry
        entry = self._entries[key] = _Entry()
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
        return entry

    def _core(self, impl, source: str, key: tuple, entry: _Entry,
              persist: bool):
        if entry.core is not None or entry.error is not None:
            self.stats.core.hits += 1
            if entry.error is not None:
                raise entry.error
            return entry.core
        self.stats.core.misses += 1
        disk = self.active_disk() if persist else None
        if disk is not None:
            entry.core = disk.load(key)
            if entry.core is not None:
                self.stats.disk.hits += 1
                return entry.core
            self.stats.disk.misses += 1
        try:
            entry.core = self._compile(impl, source)
        except (CSyntaxError, CTypeError) as exc:
            entry.error = exc
            raise
        if disk is not None:
            disk.store(key, entry.core)
        return entry.core

    def _compile(self, impl, source: str):
        """The Core program of ``source`` at ``impl``'s (arch,
        opt_level), from its frontend record or optimised and
        elaborated into it -- the compile key's other axes do not
        change it.  Rejections are kept and raised like programs."""
        record = self._record(impl, source)
        core = record.cores.get(impl.opt_level)
        if core is not None:
            self.stats.compiled.hits += 1
        else:
            self.stats.compiled.misses += 1
            try:
                program = optimize_program(self._parse(record, impl, source),
                                           impl.layout, impl.opt_level)
                core = elaborate_program(program)
            except (CSyntaxError, CTypeError) as exc:
                core = exc
            record.cores[impl.opt_level] = core
        if isinstance(core, Exception):
            raise core
        return core

    def _record(self, impl, source: str) -> _Frontend:
        fkey = (source, impl.arch.name)
        record = self._frontend.get(fkey)
        if record is not None:
            self._frontend.move_to_end(fkey)
            return record
        record = self._frontend[fkey] = _Frontend()
        while len(self._frontend) > self.maxsize:
            self._frontend.popitem(last=False)
        return record

    def _parse(self, record: _Frontend, impl, source: str):
        if record.ast is None:
            self.stats.parse.misses += 1
            try:
                record.ast = parse_program(source, impl.layout)
            except (CSyntaxError, CTypeError) as exc:
                record.ast = exc
        else:
            self.stats.parse.hits += 1
        if isinstance(record.ast, Exception):
            raise record.ast
        return record.ast


_GLOBAL_CACHE = CompileCache()
_ENABLED = True

#: Process-wide disk-layer configuration (the CLI's ``--cache-dir`` /
#: ``--no-disk-cache``).  ``None`` directory = the default location.
_DISK_ENABLED = True
_DISK_DIR: str | None = None
_DISK_INSTANCE: DiskCache | None = None


def global_cache() -> CompileCache:
    """The process-wide cache used by :meth:`Implementation.run`."""
    return _GLOBAL_CACHE


def set_cache_enabled(enabled: bool) -> None:
    """Process-wide switch (the CLI's ``--no-compile-cache``)."""
    global _ENABLED
    _ENABLED = enabled


def cache_enabled() -> bool:
    return _ENABLED


def configure_disk_cache(enabled: bool | None = None,
                         directory: str | None = None) -> None:
    """Configure the process-wide disk layer.

    ``enabled=False`` turns it off entirely; ``directory=None`` keeps
    the default (``~/.cache/repro``-style, see
    :func:`repro.perf.disk.default_cache_dir`).  Worker processes
    receive this configuration through the pool initializer so parent
    and workers always share one directory.
    """
    global _DISK_ENABLED, _DISK_DIR, _DISK_INSTANCE
    if enabled is not None:
        _DISK_ENABLED = enabled
    _DISK_DIR = directory
    _DISK_INSTANCE = None


def disk_cache_config() -> tuple[bool, str | None]:
    """The disk layer's (enabled, directory) configuration."""
    return (_DISK_ENABLED, _DISK_DIR)


def engine_config() -> tuple:
    """What pool workers take from their parent through the initializer
    (the pool is rebuilt when it changes): the disk layer's settings,
    the compile-cache switch and the default evaluator."""
    return (_DISK_ENABLED, _DISK_DIR, _ENABLED, default_evaluator())


def apply_worker_config(config: tuple) -> None:
    """Install a parent's :func:`engine_config` in a pool worker."""
    disk_enabled, directory, use_cache, evaluator = config
    configure_disk_cache(enabled=disk_enabled, directory=directory)
    set_cache_enabled(use_cache)
    set_default_evaluator(evaluator)


def _process_disk() -> DiskCache | None:
    """The configured process-wide :class:`DiskCache` (lazy; ``None``
    when disabled)."""
    global _DISK_INSTANCE
    if not _DISK_ENABLED:
        return None
    if _DISK_INSTANCE is None:
        directory = _DISK_DIR if _DISK_DIR is not None \
            else default_cache_dir()
        _DISK_INSTANCE = DiskCache(directory)
    return _DISK_INSTANCE


def add_worker_stats(stats: CacheStatsSet) -> None:
    """Count one pool task group's compile-cache stats in the global
    cache's, so they cover the work of this process's pool workers too
    (the CLI's ``--metrics`` under ``--jobs N``)."""
    _GLOBAL_CACHE.stats.merge(stats)


def clear_cache() -> None:
    _GLOBAL_CACHE.clear()


def cache_for(use_cache: bool | None) -> CompileCache:
    """The global cache, or -- when ``use_cache`` (``None`` = the
    process-wide switch) is off -- a private diskless one, so an
    uncached compile makes no global lookups and returns a program of
    its own (and its runs share no memo)."""
    if use_cache is None:
        use_cache = _ENABLED
    return _GLOBAL_CACHE if use_cache else CompileCache(disk=None)


def compile_core(impl, source: str, use_cache: bool | None = None,
                 persist: bool = True):
    """Compile + elaborate ``source`` for ``impl`` into a
    :class:`~repro.core.coreir.CoreProgram`; ``use_cache=None`` defers
    to the process-wide switch, ``persist=False`` keeps the compile
    off disk (see :meth:`CompileCache.core`)."""
    return cache_for(use_cache).core(impl, source, persist)


def compile_threaded(impl, source: str, use_cache: bool | None = None,
                     persist: bool = True):
    """Compile + elaborate + direct-thread ``source`` for ``impl`` into
    a :class:`~repro.core.compile.CompiledProgram`; ``use_cache`` and
    ``persist`` are as for :func:`compile_core`."""
    return cache_for(use_cache).threaded(impl, source, persist)
