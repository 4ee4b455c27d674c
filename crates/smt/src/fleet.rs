//! Durable fleet-level solver cache: a log-structured, checksummed
//! on-disk store of solver verdicts, shared across jobs and process
//! restarts.
//!
//! # Keys
//!
//! Entries are keyed by [`FleetKey`]: the sorted content digests of the
//! query's constraints (see [`crate::digest`]) plus a digest of the
//! domain environment *and* every verdict-relevant solver knob. Both
//! halves are computed from content — variable names, structural tags of
//! the `cpr_smt::wire` codec — never from `TermId`/`VarId` values, so a
//! key minted by one process matches the same query in any other process
//! regardless of interning order.
//!
//! # On-disk format
//!
//! One file, `cache.log`, in the cache directory:
//!
//! ```text
//! header:  magic "CPRF" · u32 version (currently 4)
//!          · u32 solver check-semantics version
//! record:  u32 payload_len · payload · u64 fnv1a(payload)
//! payload: u8 kind (0 = verdict/unsat, 1 = verdict/sat,
//!          3 = verdict/unknown)
//!          u64 n · n × (u64 lo, u64 hi) constraint digests (sorted)
//!          u64 domain digest
//!          kind 1 only: u64 count · count × (name, value) model entries
//! ```
//!
//! Version 1 logs also held kind-2 no-good records (subset-subsumption
//! entries); version 2 dropped that kind, and a version-1 log degrades to
//! a cold start like any other version drift. Version 3 added the check
//! semantics version to the header: every key already folds it in, so the
//! records of a log written under other semantics can never hit, and
//! loading them would only fill the store's capacity. Such a log degrades
//! to a cold start too. Version 4 has version 3's layout; it marks the
//! logs written since the solver consults the fleet only for queries its
//! local probe cannot decide. A version-3 log is full of verdicts for
//! cheap queries that are never looked up again, and at capacity it would
//! drop every new verdict, so it degrades to a cold start as well.
//!
//! Writers append framed records; a flush is one `write` + `fsync`.
//! Compaction — triggered when the log accumulates enough duplicate
//! records from other processes — rewrites the live set through the
//! atomic tmp + rename + directory-fsync swap (the `SnapshotStore`
//! pattern; see [`fsync_dir`]).
//!
//! # Failure policy
//!
//! Every load anomaly (bad magic, version drift, truncated tail,
//! checksum mismatch, undecodable payload) degrades to a *cold but
//! correct* start: nothing is loaded, the typed [`FleetError`] is kept
//! for surfacing (the solver counts it in `SolverStats::fleet_load_errors`),
//! and the store stays writable — the first flush after a load error
//! rewrites the file wholesale instead of appending after a corrupt
//! prefix. No anomaly panics, and none can produce a wrong verdict:
//! verdicts are only ever *absent*, never altered.
//!
//! # Concurrency
//!
//! Single writer, multiple readers within a process: one [`FleetCache`]
//! per directory (deduplicated by [`FleetCache::open_shared`]), interior
//! mutex, `Arc`-shared by every solver fork. Against concurrent
//! *processes* an advisory `cache.lock` file (holding the owner's pid) is
//! taken at open; losing it opens the store read-only — loaded entries
//! still serve hits, new verdicts stay in memory. A lock whose owner
//! pid is dead is stale and is taken over.

use std::collections::HashMap;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};

use crate::digest::CHECK_SEMANTICS_VERSION;
use crate::model::Value;
use crate::wire::{fnv1a, read_value, write_value, ByteReader, ByteWriter};

/// Content-addressed key of a fleet entry: the query's constraint content
/// digests in ascending order, plus the domain-environment digest
/// (domains by variable name + verdict-relevant solver knobs).
pub type FleetKey = (Vec<u128>, u64);

/// A persisted verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetVerdict {
    /// The query is unsatisfiable.
    Unsat,
    /// The query is satisfiable, with the witness model the search
    /// produced — variables identified by name so the model can be
    /// re-resolved (and re-validated) against any pool.
    Sat(Vec<(String, Value)>),
    /// The search exhausted its node budget. Sound to replay because the
    /// budget (and every other verdict-relevant knob) is folded into the
    /// key's domain digest and the answer order is content-canonical: a
    /// cold search under the same key would run out of the same budget at
    /// the same point. Only queries the solver's local probe cannot
    /// decide reach the fleet, so every stored verdict replaces a search
    /// longer than the probe.
    Unknown,
}

/// Typed load-time failure of the on-disk store. Any of these degrades
/// the store to a cold start; see the module docs for the policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetError {
    /// The file does not start with the `CPRF` magic (foreign file).
    BadMagic,
    /// The file's format version is not understood.
    UnsupportedVersion(u32),
    /// The file was written under another solver check-semantics version,
    /// so none of its keys can match a query of this binary.
    SemanticsDrift(u32),
    /// The file ends mid-record (torn append).
    Truncated,
    /// A record's checksum does not match its payload.
    ChecksumMismatch,
    /// A checksum-valid payload failed to decode.
    Corrupt(&'static str),
    /// The file could not be read (or the directory not prepared).
    Io(String),
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::BadMagic => write!(f, "not a fleet cache file (bad magic)"),
            FleetError::UnsupportedVersion(v) => {
                write!(f, "unsupported fleet cache version {v}")
            }
            FleetError::SemanticsDrift(v) => {
                write!(f, "fleet cache written under solver semantics {v}")
            }
            FleetError::Truncated => write!(f, "fleet cache log ends mid-record"),
            FleetError::ChecksumMismatch => write!(f, "fleet cache record checksum mismatch"),
            FleetError::Corrupt(what) => write!(f, "fleet cache record corrupt: {what}"),
            FleetError::Io(e) => write!(f, "fleet cache io error: {e}"),
        }
    }
}

impl std::error::Error for FleetError {}

/// What a [`FleetCache::flush`] did, for observability.
#[derive(Debug, Clone, Copy)]
pub struct FlushStats {
    /// Size of `cache.log` after the flush, in bytes.
    pub store_bytes: u64,
    /// Records written by this flush.
    pub appended: usize,
    /// Whether this flush compacted (rewrote) the log.
    pub compacted: bool,
}

const MAGIC: &[u8; 4] = b"CPRF";
const VERSION: u32 = 4;
const HEADER_LEN: usize = 12;
const KIND_UNSAT: u8 = 0;
const KIND_SAT: u8 = 1;
const KIND_UNKNOWN: u8 = 3;
/// Compaction trigger: rewrite once the log holds this many records more
/// than the live set (duplicates appended by other processes).
const COMPACT_SLACK: u64 = 1024;

/// The log header: magic, format version, check-semantics version.
fn header() -> Vec<u8> {
    let mut out = MAGIC.to_vec();
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&CHECK_SEMANTICS_VERSION.to_le_bytes());
    out
}

/// Fsyncs a directory, making a preceding `rename` within it durable.
///
/// POSIX only guarantees that a `rename` survives a crash once the
/// *directory* containing the entry has been fsynced — syncing the file
/// itself orders its data, not the directory entry pointing at it. Every
/// atomic tmp + rename swap must therefore end with this call on the
/// parent directory.
pub fn fsync_dir(dir: &Path) -> io::Result<()> {
    fs::File::open(dir)?.sync_all()
}

#[derive(Debug, Default)]
struct FleetInner {
    verdicts: HashMap<FleetKey, FleetVerdict>,
    /// Encoded record payloads accumulated since the last flush.
    pending: Vec<Vec<u8>>,
    load_error: Option<FleetError>,
    /// Set when the on-disk log must not be appended to (load error):
    /// the next flush rewrites the file wholesale.
    needs_rewrite: bool,
    /// Size and record count of `cache.log` as of the last load/flush.
    disk_bytes: u64,
    disk_records: u64,
    capacity: usize,
    /// We hold the advisory lock; without it the store never writes.
    owns_lock: bool,
    /// The directory could not be prepared at all; drop everything.
    disabled: bool,
}

/// The durable fleet cache. One instance per cache directory per process
/// (see [`FleetCache::open_shared`]); clone the `Arc` freely.
#[derive(Debug)]
pub struct FleetCache {
    dir: PathBuf,
    inner: Mutex<FleetInner>,
    hits: AtomicU64,
    misses: AtomicU64,
}

fn lock_inner(cache: &Mutex<FleetInner>) -> std::sync::MutexGuard<'_, FleetInner> {
    cache
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Process-wide registry deduplicating [`FleetCache`] instances per
/// canonical directory, so every job of a server process shares one
/// in-memory store (single writer) instead of racing appends.
static REGISTRY: OnceLock<Mutex<HashMap<PathBuf, Weak<FleetCache>>>> = OnceLock::new();

impl FleetCache {
    /// Opens (or joins) the fleet cache rooted at `dir`, holding at most
    /// `capacity` entries in memory. Within a process, two opens of the
    /// same directory return the same instance. Never fails: an
    /// unpreparable directory yields a disabled store (lookups miss,
    /// records are dropped) with the error surfaced via
    /// [`FleetCache::load_error`].
    pub fn open_shared(dir: &Path, capacity: usize) -> Arc<FleetCache> {
        let canon = fs::create_dir_all(dir).and_then(|()| dir.canonicalize());
        let key = match canon {
            Ok(k) => k,
            Err(e) => {
                let inner = FleetInner {
                    load_error: Some(FleetError::Io(e.to_string())),
                    disabled: true,
                    capacity,
                    ..FleetInner::default()
                };
                return Arc::new(FleetCache {
                    dir: dir.to_path_buf(),
                    inner: Mutex::new(inner),
                    hits: AtomicU64::new(0),
                    misses: AtomicU64::new(0),
                });
            }
        };
        let registry = REGISTRY.get_or_init(|| Mutex::new(HashMap::new()));
        let mut map = registry.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(existing) = map.get(&key).and_then(Weak::upgrade) {
            return existing;
        }
        let cache = Arc::new(FleetCache::open_at(key.clone(), capacity));
        map.insert(key, Arc::downgrade(&cache));
        cache
    }

    fn open_at(dir: PathBuf, capacity: usize) -> FleetCache {
        let owns_lock = acquire_lock(&dir);
        let mut inner = FleetInner {
            capacity,
            owns_lock,
            ..FleetInner::default()
        };
        match fs::read(dir.join("cache.log")) {
            Ok(bytes) => match parse_log(&bytes) {
                Ok(records) => {
                    inner.disk_bytes = bytes.len() as u64;
                    inner.disk_records = records.len() as u64;
                    for rec in records {
                        apply_record(&mut inner, rec);
                    }
                }
                Err(e) => {
                    // Degrade to cold: load nothing, never append after a
                    // corrupt prefix — the next flush rewrites the file.
                    inner.load_error = Some(e);
                    inner.needs_rewrite = true;
                }
            },
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => {
                inner.load_error = Some(FleetError::Io(e.to_string()));
                inner.needs_rewrite = true;
            }
        }
        FleetCache {
            dir,
            inner: Mutex::new(inner),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The typed error the last load hit, if any (a loaded-clean store
    /// returns `None`).
    pub fn load_error(&self) -> Option<FleetError> {
        lock_inner(&self.inner).load_error.clone()
    }

    /// Whether this process failed to take the advisory lock and the
    /// store will therefore never write to disk.
    pub fn read_only(&self) -> bool {
        let inner = lock_inner(&self.inner);
        !inner.owns_lock || inner.disabled
    }

    /// Verdicts currently held in memory.
    pub fn entries(&self) -> usize {
        lock_inner(&self.inner).verdicts.len()
    }

    /// Size of `cache.log` as of the last load or flush, in bytes.
    pub fn store_bytes(&self) -> u64 {
        lock_inner(&self.inner).disk_bytes
    }

    /// Process-wide `(hits, misses)` tally against this store, fed by
    /// [`FleetCache::tally_hit`]/[`FleetCache::tally_miss`].
    pub fn hit_counts(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Counts one lookup that was served from the store.
    pub fn tally_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one lookup the store could not serve.
    pub fn tally_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// The stored verdict for `key`, if any.
    pub fn lookup_verdict(&self, key: &FleetKey) -> Option<FleetVerdict> {
        lock_inner(&self.inner).verdicts.get(key).cloned()
    }

    /// Records the verdict `make` builds (new keys only; at capacity the
    /// insert is dropped — the store never evicts, see the design docs).
    /// `make` runs only when the insert happens, so a verdict the store
    /// drops costs nothing to build (a `Sat` model names every variable).
    /// Returns whether the store kept the verdict.
    pub fn record_verdict(&self, key: FleetKey, make: impl FnOnce() -> FleetVerdict) -> bool {
        let mut inner = lock_inner(&self.inner);
        if inner.disabled
            || inner.verdicts.contains_key(&key)
            || inner.verdicts.len() >= inner.capacity
        {
            return false;
        }
        let verdict = make();
        inner.pending.push(encode_verdict(&key, &verdict));
        inner.verdicts.insert(key, verdict);
        true
    }

    /// Writes every verdict recorded since the last flush to `cache.log`.
    ///
    /// Normally one append + fsync; after a load error (or when the log
    /// has accumulated enough duplicate records from other processes to
    /// warrant compaction) the whole live set is rewritten through the
    /// atomic tmp + rename + [`fsync_dir`] swap instead. Read-only and
    /// disabled stores flush nothing, successfully.
    pub fn flush(&self) -> io::Result<FlushStats> {
        let mut inner = lock_inner(&self.inner);
        if inner.disabled || !inner.owns_lock {
            return Ok(FlushStats {
                store_bytes: inner.disk_bytes,
                appended: 0,
                compacted: false,
            });
        }
        let live = inner.verdicts.len() as u64;
        let wants_compaction = inner.disk_records > live + COMPACT_SLACK;
        if inner.needs_rewrite || wants_compaction {
            return self.rewrite_locked(&mut inner);
        }
        if inner.pending.is_empty() {
            return Ok(FlushStats {
                store_bytes: inner.disk_bytes,
                appended: 0,
                compacted: false,
            });
        }
        let path = self.dir.join("cache.log");
        let fresh = inner.disk_bytes == 0;
        let mut out = if fresh { header() } else { Vec::new() };
        let appended = inner.pending.len();
        for payload in &inner.pending {
            frame_record(&mut out, payload);
        }
        let mut f = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?;
        f.write_all(&out)?;
        f.sync_all()?;
        if fresh {
            // The append created the file: the new directory entry needs
            // the same durability treatment as a rename (see fsync_dir).
            fsync_dir(&self.dir)?;
        }
        inner.disk_bytes += out.len() as u64;
        inner.disk_records += appended as u64;
        inner.pending.clear();
        Ok(FlushStats {
            store_bytes: inner.disk_bytes,
            appended,
            compacted: false,
        })
    }

    /// Compaction / recovery path: writes the entire live set to a temp
    /// file and atomically swaps it in (tmp + rename + directory fsync,
    /// the `SnapshotStore` pattern).
    fn rewrite_locked(&self, inner: &mut FleetInner) -> io::Result<FlushStats> {
        let mut out = header();
        let mut records = 0u64;
        for (key, verdict) in &inner.verdicts {
            frame_record(&mut out, &encode_verdict(key, verdict));
            records += 1;
        }
        let tmp = self.dir.join("cache.log.tmp");
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&out)?;
            f.sync_all()?;
        }
        fs::rename(&tmp, self.dir.join("cache.log"))?;
        fsync_dir(&self.dir)?;
        let appended = inner.pending.len();
        inner.pending.clear();
        inner.needs_rewrite = false;
        inner.disk_bytes = out.len() as u64;
        inner.disk_records = records;
        Ok(FlushStats {
            store_bytes: inner.disk_bytes,
            appended,
            compacted: true,
        })
    }
}

impl Drop for FleetCache {
    fn drop(&mut self) {
        // Best-effort: persist anything still pending and release the
        // advisory lock. Failures here must stay silent — drops run on
        // every exit path.
        let _ = self.flush();
        let inner = lock_inner(&self.inner);
        if inner.owns_lock {
            let _ = fs::remove_file(self.dir.join("cache.lock"));
        }
    }
}

/// Takes the advisory lock for `dir`, returning whether we own it. A
/// lock file naming a dead (or unparseable) pid is stale and is taken
/// over; one naming a live foreign pid demotes us to read-only.
fn acquire_lock(dir: &Path) -> bool {
    let path = dir.join("cache.lock");
    for _ in 0..2 {
        match fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&path)
        {
            Ok(mut f) => {
                let _ = write!(f, "{}", std::process::id());
                return true;
            }
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                if lock_is_stale(&path) {
                    let _ = fs::remove_file(&path);
                    continue;
                }
                return false;
            }
            Err(_) => return false,
        }
    }
    false
}

fn lock_is_stale(path: &Path) -> bool {
    let Ok(contents) = fs::read_to_string(path) else {
        return true;
    };
    let Ok(pid) = contents.trim().parse::<u32>() else {
        return true;
    };
    if pid == std::process::id() {
        // Our own pid: a previous instance in this process exited without
        // cleanup (or the registry entry expired); safe to retake.
        return true;
    }
    #[cfg(target_os = "linux")]
    {
        !Path::new(&format!("/proc/{pid}")).exists()
    }
    #[cfg(not(target_os = "linux"))]
    {
        // No portable liveness probe: err on the safe (read-only) side.
        false
    }
}

fn apply_record(inner: &mut FleetInner, (key, verdict): (FleetKey, FleetVerdict)) {
    if inner.verdicts.len() < inner.capacity {
        inner.verdicts.entry(key).or_insert(verdict);
    }
}

fn frame_record(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&fnv1a(payload).to_le_bytes());
}

fn write_key(w: &mut ByteWriter, key: &FleetKey) {
    w.usize(key.0.len());
    for &d in &key.0 {
        w.u64(d as u64);
        w.u64((d >> 64) as u64);
    }
    w.u64(key.1);
}

fn encode_verdict(key: &FleetKey, verdict: &FleetVerdict) -> Vec<u8> {
    let mut w = ByteWriter::new();
    match verdict {
        FleetVerdict::Unsat => {
            w.u8(KIND_UNSAT);
            write_key(&mut w, key);
        }
        FleetVerdict::Sat(model) => {
            w.u8(KIND_SAT);
            write_key(&mut w, key);
            w.usize(model.len());
            for (name, value) in model {
                w.str(name);
                write_value(&mut w, *value);
            }
        }
        FleetVerdict::Unknown => {
            w.u8(KIND_UNKNOWN);
            write_key(&mut w, key);
        }
    }
    w.into_bytes()
}

fn read_key(r: &mut ByteReader<'_>) -> Result<FleetKey, FleetError> {
    let n = r
        .seq_len("digest count", 16)
        .map_err(|_| FleetError::Corrupt("digest count"))?;
    let mut digests: Vec<u128> = Vec::with_capacity(n);
    for _ in 0..n {
        let lo = r
            .u64("digest lo")
            .map_err(|_| FleetError::Corrupt("digest"))?;
        let hi = r
            .u64("digest hi")
            .map_err(|_| FleetError::Corrupt("digest"))?;
        digests.push((hi as u128) << 64 | lo as u128);
    }
    let domain = r
        .u64("domain digest")
        .map_err(|_| FleetError::Corrupt("domain digest"))?;
    Ok((digests, domain))
}

fn parse_payload(payload: &[u8]) -> Result<(FleetKey, FleetVerdict), FleetError> {
    let mut r = ByteReader::new(payload);
    let kind = r
        .u8("record kind")
        .map_err(|_| FleetError::Corrupt("kind"))?;
    let rec = match kind {
        KIND_UNSAT => (read_key(&mut r)?, FleetVerdict::Unsat),
        KIND_SAT => {
            let key = read_key(&mut r)?;
            let count = r
                .seq_len("model entries", 1)
                .map_err(|_| FleetError::Corrupt("model count"))?;
            let mut model = Vec::with_capacity(count);
            for _ in 0..count {
                let name = r
                    .str("model variable")
                    .map_err(|_| FleetError::Corrupt("model variable"))?;
                let value = read_value(&mut r).map_err(|_| FleetError::Corrupt("model value"))?;
                model.push((name, value));
            }
            (key, FleetVerdict::Sat(model))
        }
        KIND_UNKNOWN => (read_key(&mut r)?, FleetVerdict::Unknown),
        _ => return Err(FleetError::Corrupt("unknown record kind")),
    };
    if !r.is_empty() {
        return Err(FleetError::Corrupt("trailing payload bytes"));
    }
    Ok(rec)
}

fn parse_log(bytes: &[u8]) -> Result<Vec<(FleetKey, FleetVerdict)>, FleetError> {
    if bytes.is_empty() {
        return Ok(Vec::new());
    }
    if bytes.len() < 8 {
        return Err(FleetError::Truncated);
    }
    if &bytes[..4] != MAGIC {
        return Err(FleetError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    if version != VERSION {
        return Err(FleetError::UnsupportedVersion(version));
    }
    if bytes.len() < HEADER_LEN {
        return Err(FleetError::Truncated);
    }
    let semantics = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if semantics != CHECK_SEMANTICS_VERSION {
        return Err(FleetError::SemanticsDrift(semantics));
    }
    let mut records = Vec::new();
    let mut at = HEADER_LEN;
    while at < bytes.len() {
        if bytes.len() - at < 4 {
            return Err(FleetError::Truncated);
        }
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes")) as usize;
        at += 4;
        if bytes.len() - at < len + 8 {
            return Err(FleetError::Truncated);
        }
        let payload = &bytes[at..at + len];
        at += len;
        let sum = u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
        at += 8;
        if fnv1a(payload) != sum {
            return Err(FleetError::ChecksumMismatch);
        }
        records.push(parse_payload(payload)?);
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "cpr-fleet-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id(),
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn key(ds: &[u128], dom: u64) -> FleetKey {
        (ds.to_vec(), dom)
    }

    #[test]
    fn roundtrips_verdicts_across_reopen() {
        let dir = temp_dir("roundtrip");
        {
            let cache = FleetCache::open_shared(&dir, 1024);
            assert!(cache.load_error().is_none());
            cache.record_verdict(key(&[1, 2, 3], 7), || FleetVerdict::Unsat);
            cache.record_verdict(key(&[4, 5], 7), || {
                FleetVerdict::Sat(vec![("x".into(), Value::Int(9))])
            });
            cache.flush().expect("flush");
            drop(cache); // release the registry entry and the lock
        }
        let cache = FleetCache::open_shared(&dir, 1024);
        assert!(cache.load_error().is_none());
        assert_eq!(cache.entries(), 2);
        assert_eq!(
            cache.lookup_verdict(&key(&[1, 2, 3], 7)),
            Some(FleetVerdict::Unsat)
        );
        assert_eq!(
            cache.lookup_verdict(&key(&[4, 5], 7)),
            Some(FleetVerdict::Sat(vec![("x".into(), Value::Int(9))]))
        );
        // Keys match exactly: a domain mismatch or a subset misses.
        assert_eq!(cache.lookup_verdict(&key(&[1, 2, 3], 8)), None);
        assert_eq!(cache.lookup_verdict(&key(&[1, 2], 7)), None);
        drop(cache);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_shared_dedups_per_directory() {
        let dir = temp_dir("dedup");
        let a = FleetCache::open_shared(&dir, 64);
        let b = FleetCache::open_shared(&dir, 64);
        assert!(Arc::ptr_eq(&a, &b));
        drop((a, b));
        let _ = fs::remove_dir_all(&dir);
    }

    fn corrupt_and_reopen(tag: &str, corrupt: impl FnOnce(&Path)) -> (Arc<FleetCache>, PathBuf) {
        let dir = temp_dir(tag);
        {
            let cache = FleetCache::open_shared(&dir, 1024);
            cache.record_verdict(key(&[10, 20], 1), || FleetVerdict::Unsat);
            cache.record_verdict(key(&[10], 1), || FleetVerdict::Unknown);
            cache.flush().expect("flush");
        }
        corrupt(&dir.join("cache.log"));
        (FleetCache::open_shared(&dir, 1024), dir)
    }

    #[test]
    fn truncated_tail_degrades_to_cold_start() {
        let (cache, dir) = corrupt_and_reopen("trunc", |log| {
            let bytes = fs::read(log).expect("read log");
            fs::write(log, &bytes[..bytes.len() - 3]).expect("truncate");
        });
        assert_eq!(cache.load_error(), Some(FleetError::Truncated));
        assert_eq!(cache.entries(), 0, "cold: nothing loaded");
        assert_eq!(cache.lookup_verdict(&key(&[10, 20], 1)), None);
        // Still writable: learning resumes and the next flush rewrites a
        // valid file (never appends after the corrupt prefix).
        cache.record_verdict(key(&[30], 2), || FleetVerdict::Unsat);
        cache.flush().expect("recovery flush");
        drop(cache);
        let reopened = FleetCache::open_shared(&dir, 1024);
        assert!(
            reopened.load_error().is_none(),
            "rewrite produced a clean log"
        );
        assert_eq!(
            reopened.lookup_verdict(&key(&[30], 2)),
            Some(FleetVerdict::Unsat)
        );
        drop(reopened);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checksum_flip_degrades_to_cold_start() {
        let (cache, dir) = corrupt_and_reopen("cksum", |log| {
            let mut bytes = fs::read(log).expect("read log");
            let at = HEADER_LEN + 4; // inside the first record's payload
            bytes[at] ^= 0x40;
            fs::write(log, bytes).expect("flip");
        });
        assert_eq!(cache.load_error(), Some(FleetError::ChecksumMismatch));
        assert_eq!(cache.entries(), 0);
        drop(cache);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_drift_degrades_to_cold_start() {
        let (cache, dir) = corrupt_and_reopen("version", |log| {
            let mut bytes = fs::read(log).expect("read log");
            bytes[4] = 99;
            fs::write(log, bytes).expect("bump version");
        });
        assert_eq!(cache.load_error(), Some(FleetError::UnsupportedVersion(99)));
        assert_eq!(cache.entries(), 0);
        drop(cache);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A full version-3 log (version 4's layout, written before the solver
    /// probed locally ahead of the fleet) loads nothing: cold start, room
    /// for new verdicts, and the first flush rewrites it as version 4.
    #[test]
    fn version_3_log_degrades_to_cold_start_and_is_rewritten() {
        let dir = temp_dir("v3");
        fs::create_dir_all(&dir).expect("mkdir");
        let mut log: Vec<u8> = MAGIC.to_vec();
        log.extend_from_slice(&3u32.to_le_bytes());
        log.extend_from_slice(&CHECK_SEMANTICS_VERSION.to_le_bytes());
        for d in 0..4u128 {
            frame_record(
                &mut log,
                &encode_verdict(&key(&[d], 1), &FleetVerdict::Unsat),
            );
        }
        fs::write(dir.join("cache.log"), &log).expect("write v3 log");

        let cache = FleetCache::open_shared(&dir, 4);
        assert_eq!(cache.load_error(), Some(FleetError::UnsupportedVersion(3)));
        assert_eq!(cache.entries(), 0, "cold: nothing loaded");
        assert_eq!(cache.lookup_verdict(&key(&[0], 1)), None);
        assert!(
            cache.record_verdict(key(&[9], 1), || FleetVerdict::Unknown),
            "a store filled by a version-3 log must accept new verdicts"
        );
        cache.flush().expect("recovery flush");
        drop(cache);
        let bytes = fs::read(dir.join("cache.log")).expect("read rewritten log");
        assert_eq!(&bytes[..HEADER_LEN], &header()[..]);
        assert_eq!(&bytes[4..8], &4u32.to_le_bytes());
        let reopened = FleetCache::open_shared(&dir, 4);
        assert!(reopened.load_error().is_none());
        assert_eq!(reopened.entries(), 1);
        assert_eq!(
            reopened.lookup_verdict(&key(&[9], 1)),
            Some(FleetVerdict::Unknown)
        );
        drop(reopened);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A version-1 log (the format that also held no-good records, kind 2)
    /// is refused by version before any record is decoded: cold start,
    /// and the first flush rewrites it as a current-version log.
    #[test]
    fn version_1_log_with_a_nogood_record_degrades_to_cold_start() {
        let dir = temp_dir("v1");
        fs::create_dir_all(&dir).expect("mkdir");
        let mut log: Vec<u8> = MAGIC.to_vec();
        log.extend_from_slice(&1u32.to_le_bytes());
        frame_record(
            &mut log,
            &encode_verdict(&key(&[10, 20], 1), &FleetVerdict::Unsat),
        );
        let mut nogood = ByteWriter::new();
        nogood.u8(2);
        write_key(&mut nogood, &key(&[10], 1));
        frame_record(&mut log, &nogood.into_bytes());
        fs::write(dir.join("cache.log"), &log).expect("write v1 log");

        let cache = FleetCache::open_shared(&dir, 1024);
        assert_eq!(cache.load_error(), Some(FleetError::UnsupportedVersion(1)));
        assert_eq!(cache.entries(), 0, "cold: nothing loaded");
        assert_eq!(cache.lookup_verdict(&key(&[10, 20], 1)), None);
        cache.record_verdict(key(&[30], 2), || FleetVerdict::Unsat);
        cache.flush().expect("recovery flush");
        drop(cache);
        let bytes = fs::read(dir.join("cache.log")).expect("read rewritten log");
        assert_eq!(&bytes[4..8], &VERSION.to_le_bytes());
        let reopened = FleetCache::open_shared(&dir, 1024);
        assert!(reopened.load_error().is_none());
        assert_eq!(reopened.entries(), 1);
        drop(reopened);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Kind 2 is not a record kind since version 2: a checksum-valid
    /// kind-2 payload inside a current log is corrupt, not a no-good.
    #[test]
    fn kind_2_record_in_a_current_log_is_corrupt() {
        let dir = temp_dir("kind2");
        fs::create_dir_all(&dir).expect("mkdir");
        let mut log = header();
        let mut nogood = ByteWriter::new();
        nogood.u8(2);
        write_key(&mut nogood, &key(&[10], 1));
        frame_record(&mut log, &nogood.into_bytes());
        fs::write(dir.join("cache.log"), &log).expect("write log");
        let cache = FleetCache::open_shared(&dir, 1024);
        assert_eq!(
            cache.load_error(),
            Some(FleetError::Corrupt("unknown record kind"))
        );
        assert_eq!(cache.entries(), 0);
        drop(cache);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A full log written under older check semantics loads nothing: its
    /// keys can never hit, so keeping them would leave no room for the new
    /// verdicts. The first flush rewrites it under the current semantics.
    #[test]
    fn older_semantics_log_frees_a_full_store_for_new_verdicts() {
        let dir = temp_dir("semantics");
        fs::create_dir_all(&dir).expect("mkdir");
        let old = CHECK_SEMANTICS_VERSION - 1;
        let mut log: Vec<u8> = MAGIC.to_vec();
        log.extend_from_slice(&VERSION.to_le_bytes());
        log.extend_from_slice(&old.to_le_bytes());
        for d in 0..4u128 {
            frame_record(
                &mut log,
                &encode_verdict(&key(&[d], 1), &FleetVerdict::Unsat),
            );
        }
        fs::write(dir.join("cache.log"), &log).expect("write old log");

        let cache = FleetCache::open_shared(&dir, 4);
        assert_eq!(cache.load_error(), Some(FleetError::SemanticsDrift(old)));
        assert_eq!(cache.entries(), 0, "cold: nothing loaded");
        assert!(
            cache.record_verdict(key(&[9], 1), || FleetVerdict::Unsat),
            "a store filled under older semantics must accept new verdicts"
        );
        cache.flush().expect("recovery flush");
        drop(cache);
        let bytes = fs::read(dir.join("cache.log")).expect("read rewritten log");
        assert_eq!(&bytes[..HEADER_LEN], &header()[..]);
        let reopened = FleetCache::open_shared(&dir, 4);
        assert!(reopened.load_error().is_none());
        assert_eq!(reopened.entries(), 1);
        assert_eq!(
            reopened.lookup_verdict(&key(&[9], 1)),
            Some(FleetVerdict::Unsat)
        );
        drop(reopened);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_file_degrades_to_cold_start() {
        let (cache, dir) = corrupt_and_reopen("foreign", |log| {
            fs::write(log, b"totally not a cache log").expect("replace");
        });
        assert_eq!(cache.load_error(), Some(FleetError::BadMagic));
        assert_eq!(cache.entries(), 0);
        drop(cache);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stray_files_in_the_cache_dir_are_ignored() {
        let dir = temp_dir("stray");
        {
            let cache = FleetCache::open_shared(&dir, 1024);
            cache.record_verdict(key(&[1], 1), || FleetVerdict::Unsat);
            cache.flush().expect("flush");
        }
        fs::write(dir.join("README.txt"), b"not ours").expect("stray");
        let cache = FleetCache::open_shared(&dir, 1024);
        assert!(cache.load_error().is_none());
        assert_eq!(
            cache.lookup_verdict(&key(&[1], 1)),
            Some(FleetVerdict::Unsat)
        );
        drop(cache);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_live_lock_demotes_to_read_only() {
        let dir = temp_dir("lock-live");
        fs::create_dir_all(&dir).expect("mkdir");
        // Pid 1 is always alive (init); the lock is genuinely foreign.
        fs::write(dir.join("cache.lock"), b"1").expect("lock");
        let cache = FleetCache::open_shared(&dir, 64);
        assert!(cache.read_only());
        cache.record_verdict(key(&[5], 5), || FleetVerdict::Unsat);
        // Hits still come from memory; flush writes nothing.
        assert_eq!(
            cache.lookup_verdict(&key(&[5], 5)),
            Some(FleetVerdict::Unsat)
        );
        let fs_stats = cache.flush().expect("noop flush");
        assert_eq!(fs_stats.appended, 0);
        assert!(!dir.join("cache.log").exists());
        drop(cache);
        assert!(
            dir.join("cache.lock").exists(),
            "foreign lock left in place"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_lock_is_taken_over() {
        let dir = temp_dir("lock-stale");
        fs::create_dir_all(&dir).expect("mkdir");
        // A pid that cannot be running (far above any real pid_max).
        fs::write(dir.join("cache.lock"), b"999999999").expect("lock");
        let cache = FleetCache::open_shared(&dir, 64);
        assert!(!cache.read_only(), "stale lock must be taken over");
        drop(cache);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn capacity_bounds_inserts() {
        let dir = temp_dir("capacity");
        let cache = FleetCache::open_shared(&dir, 2);
        assert!(cache.record_verdict(key(&[1], 0), || FleetVerdict::Unsat));
        assert!(cache.record_verdict(key(&[2], 0), || FleetVerdict::Unknown));
        let dropped = || -> FleetVerdict { panic!("a verdict the store drops must not be built") };
        assert!(
            !cache.record_verdict(key(&[3], 0), dropped),
            "an insert at capacity reports that it was dropped"
        );
        assert_eq!(cache.entries(), 2, "inserts beyond capacity are dropped");
        assert_eq!(cache.lookup_verdict(&key(&[3], 0)), None);
        // A key already present is not rebuilt either, nor counted as kept.
        assert!(!cache.record_verdict(key(&[1], 0), dropped));
        assert_eq!(
            cache.lookup_verdict(&key(&[1], 0)),
            Some(FleetVerdict::Unsat)
        );
        drop(cache);
        let _ = fs::remove_dir_all(&dir);
    }
}
