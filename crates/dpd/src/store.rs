//! Pluggable per-session journal stores, including a crash-simulating one.
//!
//! The daemon streams each session's journal — one or more recording
//! streams — through a [`SessionStore`], which hands out the writers for
//! each attempt and can later produce the bytes that would survive a
//! machine crash. Two implementations:
//!
//! * [`MemStore`] — in-memory buffers, optionally threaded onto a shared
//!   [`CrashClock`] that models a daemon-wide SIGKILL: one global byte
//!   clock advances with every write from every session, and only bytes
//!   written before the crash instant are durable (a write straddling the
//!   instant is torn). This is the engine of the N-journal crash property
//!   tests.
//! * [`DirStore`] — one `s{id}-{name}.dprj` file per 1-shard session
//!   (`.s{k}.dprs` siblings for more streams) in a directory, for
//!   `dp serve`; a killed daemon leaves files that
//!   `dp sessions` / `dp salvage` recover independently.

use crate::session::SessionId;
use dp_core::JournalReader;
use std::collections::{HashMap, HashSet};
use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Where per-session journals go. A session's journal is one or more
/// recording streams (its shard count, see
/// [`SessionSpec::journal_shards`](crate::SessionSpec::journal_shards));
/// stores address them by shard index. Implementations are shared across
/// runner threads.
pub trait SessionStore: Send + Sync {
    /// Opens (or truncates, on a retry) the `shards` streams of `id`'s
    /// journal for the given attempt and returns their writers in shard
    /// order. Attempts rewrite in place: the journal a session leaves
    /// behind is always its *latest* attempt's.
    ///
    /// # Errors
    ///
    /// Store I/O failures (these surface as the session's sink error).
    fn open(
        &self,
        id: SessionId,
        name: &str,
        attempt: u32,
        shards: u32,
    ) -> io::Result<Vec<Box<dyn Write + Send>>>;

    /// The bytes of stream `shard` of `id`'s journal that would survive a
    /// crash right now — what a post-mortem salvage scan would read.
    ///
    /// # Errors
    ///
    /// Unknown session or stream, or store I/O failures.
    fn durable_stream(&self, id: SessionId, shard: u32) -> io::Result<Vec<u8>>;

    /// The crash-surviving bytes of stream 0: for a 1-shard session, its
    /// whole journal (what attach streams).
    ///
    /// # Errors
    ///
    /// As [`durable_stream`](SessionStore::durable_stream).
    fn durable(&self, id: SessionId) -> io::Result<Vec<u8>> {
        self.durable_stream(id, 0)
    }

    /// Reopens `id`'s journal for crash-resume: truncates stream `k` to
    /// its `keeps[k]`-byte salvaged prefix (dropping the torn tail) and
    /// returns writers positioned to **append** after it — unlike
    /// [`open`](SessionStore::open), the prefix is preserved, not
    /// rewritten. The default refuses, so stores predating resume keep
    /// working (resume just reports the store can't).
    ///
    /// # Errors
    ///
    /// `Unsupported` by default; unknown session or store I/O failures
    /// otherwise.
    fn open_resume(&self, id: SessionId, keeps: &[u64]) -> io::Result<Vec<Box<dyn Write + Send>>> {
        let _ = (id, keeps);
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "store does not support crash-resume",
        ))
    }
}

/// A daemon-wide crash instant, measured on a global byte clock.
///
/// Every write from every session advances the clock by its length; bytes
/// ticked off before `crash_at` are durable, bytes after are lost, and
/// the write straddling the instant is torn (a prefix survives). Because
/// sessions interleave on the clock in whatever order the OS schedules
/// their commits, this reproduces the failure mode of one machine dying
/// under N concurrent recording sessions — each journal is cut at an
/// arbitrary, *different* point.
#[derive(Debug)]
pub struct CrashClock {
    now: AtomicU64,
    crash_at: u64,
}

impl CrashClock {
    /// A clock that crashes once `crash_at` total bytes have been written.
    pub fn new(crash_at: u64) -> Arc<Self> {
        Arc::new(CrashClock {
            now: AtomicU64::new(0),
            crash_at,
        })
    }

    /// Advances the clock by a write of `n` bytes and returns how many of
    /// them land before the crash instant (possibly 0, possibly a torn
    /// prefix).
    fn grant(&self, n: u64) -> u64 {
        let start = self.now.fetch_add(n, Ordering::Relaxed);
        self.crash_at.saturating_sub(start).min(n)
    }

    /// Total bytes written on this clock so far.
    pub fn elapsed(&self) -> u64 {
        self.now.load(Ordering::Relaxed)
    }
}

#[derive(Debug, Default)]
struct SessionBuf {
    /// Everything the session wrote (the process's own view — writes keep
    /// "succeeding" after the crash instant; the process just doesn't know
    /// the machine is dead).
    bytes: Vec<u8>,
    /// Prefix of `bytes` that landed before the crash instant.
    durable: usize,
}

/// [`MemStore`]'s buffer map: keyed by `(session id, shard)`.
type SessionBufs = HashMap<(u64, u32), Arc<Mutex<SessionBuf>>>;

/// An in-memory [`SessionStore`], optionally crash-simulating. Each
/// `(session, shard)` stream gets its own buffer on the same crash clock,
/// so one machine death cuts every stream of every session at a
/// different point.
#[derive(Default)]
pub struct MemStore {
    /// Keyed by `(session id, shard)`.
    sessions: Mutex<SessionBufs>,
    clock: Option<Arc<CrashClock>>,
}

impl MemStore {
    /// A store with no crash: `durable` returns everything written.
    pub fn new() -> Self {
        MemStore::default()
    }

    /// A store whose durability is cut by `clock`.
    pub fn crashing(clock: Arc<CrashClock>) -> Self {
        MemStore {
            sessions: Mutex::new(HashMap::new()),
            clock: Some(clock),
        }
    }

    fn buf(&self, id: SessionId, shard: u32) -> Arc<Mutex<SessionBuf>> {
        self.sessions
            .lock()
            .unwrap()
            .entry((id.0, shard))
            .or_default()
            .clone()
    }

    fn open_buf(&self, id: SessionId, shard: u32) -> Box<dyn Write + Send> {
        let buf = self.buf(id, shard);
        {
            let mut b = buf.lock().unwrap();
            // Truncating reopen. If the crash already happened, the
            // truncate itself never reaches the device: the old durable
            // prefix would in reality survive, but modelling that would
            // need per-attempt files — the crash tests use budget 0, so
            // a post-crash retry simply contributes nothing durable.
            b.bytes.clear();
            b.durable = 0;
        }
        Box::new(MemWriter {
            buf,
            clock: self.clock.clone(),
        })
    }

    /// Everything stream 0 of the session has written, durable or not
    /// (the live view).
    pub fn live(&self, id: SessionId) -> Vec<u8> {
        self.buf(id, 0).lock().unwrap().bytes.clone()
    }

    /// Seeds a `(session, shard)` stream with fully-durable `bytes` —
    /// models a daemon reboot: the new incarnation's store starts from
    /// whatever the dead one left durable.
    pub fn seed(&self, id: SessionId, shard: u32, bytes: Vec<u8>) {
        let buf = self.buf(id, shard);
        let mut b = buf.lock().unwrap();
        b.durable = bytes.len();
        b.bytes = bytes;
    }

    fn open_resume_buf(&self, id: SessionId, shard: u32, keep: u64) -> Box<dyn Write + Send> {
        let buf = self.buf(id, shard);
        {
            let mut b = buf.lock().unwrap();
            // Keep the salvaged prefix, drop the torn tail. The surviving
            // prefix is durable by definition — it was salvaged from the
            // device — so the appended continuation extends from there.
            b.bytes.truncate(keep as usize);
            let len = b.bytes.len();
            b.durable = b.durable.min(len);
        }
        Box::new(MemWriter {
            buf,
            clock: self.clock.clone(),
        })
    }
}

struct MemWriter {
    buf: Arc<Mutex<SessionBuf>>,
    clock: Option<Arc<CrashClock>>,
}

impl Write for MemWriter {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        let mut b = self.buf.lock().unwrap();
        let granted = match &self.clock {
            Some(c) => c.grant(data.len() as u64) as usize,
            None => data.len(),
        };
        // The durable prefix only grows while the journal tail is exactly
        // where the device left off; a crash freezes it forever.
        if b.durable == b.bytes.len() {
            b.durable += granted;
        }
        b.bytes.extend_from_slice(data);
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl SessionStore for MemStore {
    fn open(
        &self,
        id: SessionId,
        _name: &str,
        _attempt: u32,
        shards: u32,
    ) -> io::Result<Vec<Box<dyn Write + Send>>> {
        Ok((0..shards).map(|k| self.open_buf(id, k)).collect())
    }

    fn durable_stream(&self, id: SessionId, shard: u32) -> io::Result<Vec<u8>> {
        let buf = self.buf(id, shard);
        let b = buf.lock().unwrap();
        Ok(b.bytes[..b.durable].to_vec())
    }

    fn open_resume(&self, id: SessionId, keeps: &[u64]) -> io::Result<Vec<Box<dyn Write + Send>>> {
        Ok((0..)
            .zip(keeps)
            .map(|(k, &keep)| self.open_resume_buf(id, k, keep))
            .collect())
    }
}

/// How one orphaned journal left behind by a previous daemon incarnation
/// classifies on re-adoption.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OrphanClass {
    /// A clean, FINAL-marked journal: the session completed and nothing
    /// was lost. Adopted as [`Finalized`](crate::SessionState::Finalized).
    Finalized {
        /// Epochs the journal commits.
        epochs: u32,
    },
    /// The journal salvages to a committed epoch prefix but did not
    /// finalize — the previous daemon died mid-recording. Adopted as
    /// [`Salvaged`](crate::SessionState::Salvaged).
    Salvageable {
        /// Epochs in the committed prefix (possibly 0).
        epochs: u32,
        /// Why salvage stopped, for operator-facing reporting.
        detail: String,
    },
    /// Not a recoverable journal: a zero-length file, a `.tmp` leftover
    /// from an interrupted write, an unrecognized name, or bytes that no
    /// salvage scan accepts. Reported, never adopted — garbage must not
    /// wedge boot.
    Garbage {
        /// What disqualified the file.
        reason: String,
    },
}

/// One journal (or shard set) found in a [`DirStore`] directory that the
/// current incarnation did not write — a candidate for boot re-adoption.
#[derive(Debug)]
pub struct Orphan {
    /// The session id parsed from the file name; garbage entries whose
    /// names do not parse have none.
    pub id: Option<SessionId>,
    /// The session name parsed from the file name (for garbage, the raw
    /// file name).
    pub name: String,
    /// The backing streams as `(shard, path)` in shard order: a single
    /// `.dprj` as shard 0, or the `.s{k}.dprs` shard set.
    pub files: Vec<(u32, PathBuf)>,
    /// What the salvage scan concluded.
    pub class: OrphanClass,
}

/// Parses a journal file stem of the form `s{id:04}-{name}`.
fn parse_stem(stem: &str) -> Option<(u64, &str)> {
    let rest = stem.strip_prefix('s')?;
    let dash = rest.find('-')?;
    let (digits, name) = (&rest[..dash], &rest[dash + 1..]);
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    Some((digits.parse().ok()?, name))
}

/// Parses a shard-stream stem of the form `s{id:04}-{name}.s{shard}`.
fn parse_shard_stem(stem: &str) -> Option<(u64, &str, u32)> {
    let dot = stem.rfind('.')?;
    let shard = stem[dot + 1..].strip_prefix('s')?;
    if shard.is_empty() || !shard.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    let (id, name) = parse_stem(&stem[..dot])?;
    Some((id, name, shard.parse().ok()?))
}

/// A directory of `s{id:04}-{name}.dprj` files, one per 1-shard session;
/// a session recording `N >= 2` streams writes `s{id:04}-{name}.s{k}.dprs`
/// siblings instead.
pub struct DirStore {
    dir: PathBuf,
    paths: Mutex<HashMap<(u64, u32), PathBuf>>,
}

impl DirStore {
    /// Creates the directory (if needed) and the store.
    ///
    /// # Errors
    ///
    /// Directory creation failures.
    pub fn new(dir: impl AsRef<Path>) -> io::Result<Self> {
        std::fs::create_dir_all(dir.as_ref())?;
        Ok(DirStore {
            dir: dir.as_ref().to_path_buf(),
            paths: Mutex::new(HashMap::new()),
        })
    }

    /// The path of stream `shard` of `id`'s journal, if it opened one.
    pub fn path(&self, id: SessionId, shard: u32) -> Option<PathBuf> {
        self.paths.lock().unwrap().get(&(id.0, shard)).cloned()
    }

    /// Registers an existing file as stream `shard` of `id`'s journal, so
    /// [`durable_stream`](SessionStore::durable_stream) — and therefore
    /// the attach path — work for sessions adopted from a previous
    /// incarnation rather than opened by this one.
    pub fn adopt_path(&self, id: SessionId, shard: u32, path: PathBuf) {
        self.paths.lock().unwrap().insert((id.0, shard), path);
    }

    /// Scans the store directory for journal files this incarnation did
    /// not write and classifies each: clean journals are
    /// [`OrphanClass::Finalized`], crash-cut ones
    /// [`OrphanClass::Salvageable`] (with their committed epoch count),
    /// and everything unrecoverable — zero-length files, `.tmp` leftovers
    /// from interrupted writes, unrecognized names, unsalvageable bytes —
    /// is [`OrphanClass::Garbage`] with a reason, reported rather than
    /// wedging boot. Shard sets (`.s{k}.dprs` siblings) are grouped and
    /// classified by their cross-shard merge. Results are ordered by
    /// session id, then name.
    ///
    /// # Errors
    ///
    /// Directory or file I/O failures.
    pub fn scan_orphans(&self) -> io::Result<Vec<Orphan>> {
        let own: HashSet<PathBuf> = self.paths.lock().unwrap().values().cloned().collect();
        let garbage = |path: PathBuf, reason: String| {
            let name = path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_else(|| path.display().to_string());
            Orphan {
                id: None,
                name,
                files: vec![(0, path)],
                class: OrphanClass::Garbage { reason },
            }
        };
        let mut orphans: Vec<Orphan> = Vec::new();
        let mut sets: HashMap<(u64, String), Vec<(u32, PathBuf)>> = HashMap::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            let path = entry.path();
            if !entry.file_type()?.is_file() || own.contains(&path) {
                continue;
            }
            let Some(fname) = path.file_name().and_then(|n| n.to_str()).map(String::from) else {
                orphans.push(garbage(path, "non-UTF-8 file name".into()));
                continue;
            };
            let stream = if fname.ends_with(".tmp") {
                Err("temporary leftover from an interrupted write")
            } else if entry.metadata()?.len() == 0 {
                Err("zero-length file")
            } else if let Some(stem) = fname.strip_suffix(".dprj") {
                parse_stem(stem)
                    .map(|(id, name)| (id, name, 0))
                    .ok_or("unrecognized journal name")
            } else if let Some(stem) = fname.strip_suffix(".dprs") {
                parse_shard_stem(stem).ok_or("unrecognized shard-stream name")
            } else {
                Err("not a journal file")
            };
            match stream {
                Ok((id, name, shard)) => sets
                    .entry((id, name.to_string()))
                    .or_default()
                    .push((shard, path)),
                Err(reason) => orphans.push(garbage(path, reason.into())),
            }
        }
        for ((id, name), mut files) in sets {
            files.sort_by_key(|&(k, _)| k);
            let bufs = files
                .iter()
                .map(|(_, p)| std::fs::read(p))
                .collect::<io::Result<Vec<Vec<u8>>>>()?;
            let class = match JournalReader::salvage_shards(&bufs) {
                Ok(s) if s.clean => OrphanClass::Finalized {
                    epochs: s.committed() as u32,
                },
                Ok(s) => OrphanClass::Salvageable {
                    epochs: s.committed() as u32,
                    detail: s.detail,
                },
                Err(e) => OrphanClass::Garbage {
                    reason: e.to_string(),
                },
            };
            orphans.push(Orphan {
                id: Some(SessionId(id)),
                name,
                files,
                class,
            });
        }
        orphans.sort_by(|a, b| a.id.cmp(&b.id).then_with(|| a.name.cmp(&b.name)));
        Ok(orphans)
    }

    fn registered(&self, id: SessionId, shard: u32) -> io::Result<PathBuf> {
        self.path(id, shard).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::NotFound,
                format!("no journal stream {shard} for {id}"),
            )
        })
    }
}

impl SessionStore for DirStore {
    fn open(
        &self,
        id: SessionId,
        name: &str,
        _attempt: u32,
        shards: u32,
    ) -> io::Result<Vec<Box<dyn Write + Send>>> {
        // Session names come from workload names, but sanitize anyway so a
        // hostile name cannot escape the store directory.
        let safe: String = name
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect();
        (0..shards)
            .map(|k| {
                let file_name = if shards == 1 {
                    format!("{id}-{safe}.dprj")
                } else {
                    format!("{id}-{safe}.s{k}.dprs")
                };
                let path = self.dir.join(file_name);
                let file = File::create(&path)?;
                self.adopt_path(id, k, path);
                Ok(Box::new(file) as Box<dyn Write + Send>)
            })
            .collect()
    }

    fn durable_stream(&self, id: SessionId, shard: u32) -> io::Result<Vec<u8>> {
        std::fs::read(self.registered(id, shard)?)
    }

    fn open_resume(&self, id: SessionId, keeps: &[u64]) -> io::Result<Vec<Box<dyn Write + Send>>> {
        (0..)
            .zip(keeps)
            .map(|(k, &keep)| {
                let mut file = std::fs::OpenOptions::new()
                    .write(true)
                    .open(self.registered(id, k)?)?;
                // Make the truncation to the salvaged prefix durable before
                // any continuation byte can land after it — a crash between
                // the two must leave the prefix, never prefix + stale tail +
                // new tail.
                file.set_len(keep)?;
                file.sync_data()?;
                io::Seek::seek(&mut file, io::SeekFrom::End(0))?;
                Ok(Box::new(file) as Box<dyn Write + Send>)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Opens the single stream of a 1-shard session.
    fn open1(
        store: &dyn SessionStore,
        id: SessionId,
        name: &str,
        attempt: u32,
    ) -> Box<dyn Write + Send> {
        store.open(id, name, attempt, 1).unwrap().remove(0)
    }

    #[test]
    fn mem_store_without_clock_is_fully_durable() {
        let store = MemStore::new();
        let id = SessionId(1);
        let mut w = open1(&store, id, "a", 0);
        w.write_all(b"hello").unwrap();
        w.flush().unwrap();
        drop(w);
        assert_eq!(store.durable(id).unwrap(), b"hello");
        assert_eq!(store.live(id), b"hello");
        // A retry truncates in place.
        let mut w = open1(&store, id, "a", 1);
        w.write_all(b"x").unwrap();
        drop(w);
        assert_eq!(store.durable(id).unwrap(), b"x");
    }

    #[test]
    fn crash_clock_tears_the_straddling_write() {
        let clock = CrashClock::new(7);
        let store = MemStore::crashing(clock.clone());
        let id = SessionId(2);
        let mut w = open1(&store, id, "b", 0);
        w.write_all(b"abcde").unwrap(); // bytes 0..5: durable
        w.write_all(b"fghij").unwrap(); // bytes 5..10: 2 land, torn at 7
        w.write_all(b"klmno").unwrap(); // after the crash: lost
        drop(w);
        assert_eq!(store.durable(id).unwrap(), b"abcdefg");
        assert_eq!(store.live(id), b"abcdefghijklmno");
        assert_eq!(clock.elapsed(), 15);
    }

    #[test]
    fn crash_clock_interleaves_sessions() {
        let clock = CrashClock::new(4);
        let store = MemStore::crashing(clock);
        let a = SessionId(1);
        let b = SessionId(2);
        let mut wa = open1(&store, a, "a", 0);
        let mut wb = open1(&store, b, "b", 0);
        wa.write_all(b"111").unwrap(); // clock 0..3: durable
        wb.write_all(b"222").unwrap(); // clock 3..6: torn at 4
        wa.write_all(b"333").unwrap(); // clock 6..9: lost
        assert_eq!(store.durable(a).unwrap(), b"111");
        assert_eq!(store.durable(b).unwrap(), b"2");
    }

    #[test]
    fn mem_store_shards_share_the_crash_clock() {
        let clock = CrashClock::new(4);
        let store = MemStore::crashing(clock);
        let id = SessionId(7);
        let mut w = store.open(id, "s", 0, 2).unwrap();
        w[0].write_all(b"111").unwrap(); // clock 0..3: durable
        w[1].write_all(b"222").unwrap(); // clock 3..6: torn at 4
        w[0].write_all(b"333").unwrap(); // clock 6..9: lost
        assert_eq!(store.durable_stream(id, 0).unwrap(), b"111");
        assert_eq!(store.durable_stream(id, 1).unwrap(), b"2");
    }

    #[test]
    fn dir_store_writes_shard_siblings() {
        let tmp = crate::testdir::TempDir::new("dpd-shard-test");
        let store = DirStore::new(tmp.path()).unwrap();
        let id = SessionId(5);
        for (k, mut w) in store.open(id, "job", 0, 3).unwrap().into_iter().enumerate() {
            w.write_all(format!("shard{k}").as_bytes()).unwrap();
        }
        for k in 0..3u32 {
            assert_eq!(
                store.durable_stream(id, k).unwrap(),
                format!("shard{k}").as_bytes()
            );
            let path = store.path(id, k).unwrap();
            assert!(path.to_str().unwrap().ends_with(&format!(".s{k}.dprs")));
        }
        assert_eq!(store.durable(id).unwrap(), b"shard0", "durable is stream 0");
        assert!(store.durable_stream(id, 3).is_err(), "no fourth stream");
    }

    #[test]
    fn stem_parsers_accept_store_names_only() {
        assert_eq!(
            parse_stem("s0004-pfscan_2_small"),
            Some((4, "pfscan_2_small"))
        );
        assert_eq!(parse_stem("s0123-x"), Some((123, "x")));
        assert_eq!(parse_stem("0004-x"), None, "missing s prefix");
        assert_eq!(parse_stem("s-x"), None, "no digits");
        assert_eq!(parse_stem("s00x4-y"), None, "non-digit id");
        assert_eq!(parse_stem("s0004"), None, "no name separator");
        assert_eq!(
            parse_shard_stem("s0004-job.s2"),
            Some((4, "job", 2)),
            "shard stems nest the plain stem"
        );
        assert_eq!(parse_shard_stem("s0004-job.2"), None, "missing s on shard");
        assert_eq!(parse_shard_stem("s0004-job"), None, "no shard suffix");
    }

    #[test]
    fn scan_classifies_orphans_and_reports_garbage() {
        use dp_core::{record_to, DoublePlayConfig, JournalWriter};
        let tmp = crate::testdir::TempDir::new("dpd-orphan-test");
        let dir = tmp.path().to_path_buf();
        // A previous incarnation: one clean journal, one truncated one.
        let spec = crate::guests::atomic_counter(2, 300);
        let cfg = DoublePlayConfig::new(2).epoch_cycles(600);
        let mut w = JournalWriter::new(Vec::new()).unwrap();
        record_to(&spec, &cfg, &mut w).unwrap();
        let clean = w.into_inner();
        {
            let old = DirStore::new(&dir).unwrap();
            let mut f = open1(&old, SessionId(1), "done", 0);
            f.write_all(&clean).unwrap();
            let mut f = open1(&old, SessionId(2), "cut", 0);
            f.write_all(&clean[..clean.len() - 3]).unwrap();
        }
        // Crash leftovers that must be garbage, not wedge boot.
        std::fs::write(dir.join("s0003-empty.dprj"), b"").unwrap();
        std::fs::write(dir.join("s0004-half.dprj.tmp"), b"partial").unwrap();
        std::fs::write(dir.join("notes.txt"), b"hi").unwrap();
        std::fs::write(dir.join("weird.dprj"), b"DPRJ????").unwrap();

        let store = DirStore::new(&dir).unwrap();
        let orphans = store.scan_orphans().unwrap();
        assert_eq!(orphans.len(), 6, "{orphans:?}");
        let by_name = |n: &str| {
            orphans
                .iter()
                .find(|o| o.name == n)
                .unwrap_or_else(|| panic!("no orphan named {n}: {orphans:?}"))
        };
        let done = by_name("done");
        assert_eq!(done.id, Some(SessionId(1)));
        assert!(
            matches!(done.class, OrphanClass::Finalized { epochs } if epochs >= 1),
            "{:?}",
            done.class
        );
        let cut = by_name("cut");
        assert_eq!(cut.id, Some(SessionId(2)));
        assert!(
            matches!(cut.class, OrphanClass::Salvageable { .. }),
            "{:?}",
            cut.class
        );
        for n in [
            "s0003-empty.dprj",
            "s0004-half.dprj.tmp",
            "notes.txt",
            "weird.dprj",
        ] {
            assert!(
                matches!(by_name(n).class, OrphanClass::Garbage { .. }),
                "{n}: {:?}",
                by_name(n).class
            );
            assert_eq!(by_name(n).id, None);
        }
        // Files registered by this incarnation are not orphans.
        let mut f = open1(&store, SessionId(9), "mine", 0);
        f.write_all(&clean).unwrap();
        drop(f);
        assert_eq!(store.scan_orphans().unwrap().len(), 6);
        // Adoption registers the path so durable() works.
        store.adopt_path(SessionId(1), 0, done.files[0].1.clone());
        assert_eq!(store.durable(SessionId(1)).unwrap(), clean);
    }

    #[test]
    fn scan_groups_shard_sets() {
        use dp_core::{record_to, DoublePlayConfig, ShardedJournalWriter};
        let tmp = crate::testdir::TempDir::new("dpd-orphan-shards");
        let dir = tmp.path().to_path_buf();
        let spec = crate::guests::atomic_counter(2, 300);
        let cfg = DoublePlayConfig::new(2).epoch_cycles(600);
        {
            let old = DirStore::new(&dir).unwrap();
            let sinks = old.open(SessionId(5), "sharded", 0, 3).unwrap();
            let mut w = ShardedJournalWriter::new(sinks, dp_core::DEFAULT_SHARD_BATCH).unwrap();
            record_to(&spec, &cfg, &mut w).unwrap();
        }
        let store = DirStore::new(&dir).unwrap();
        let orphans = store.scan_orphans().unwrap();
        assert_eq!(orphans.len(), 1, "{orphans:?}");
        let o = &orphans[0];
        assert_eq!(o.id, Some(SessionId(5)));
        assert_eq!(o.name, "sharded");
        assert_eq!(
            o.files.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert!(
            matches!(o.class, OrphanClass::Finalized { epochs } if epochs >= 1),
            "{:?}",
            o.class
        );
    }

    #[test]
    fn dir_store_round_trips_and_sanitizes() {
        let tmp = crate::testdir::TempDir::new("dpd-store-test");
        let store = DirStore::new(tmp.path()).unwrap();
        let id = SessionId(3);
        let mut w = open1(&store, id, "we/ird name", 0);
        w.write_all(b"journal").unwrap();
        drop(w);
        assert_eq!(store.durable(id).unwrap(), b"journal");
        let path = store.path(id, 0).unwrap();
        assert!(path
            .file_name()
            .unwrap()
            .to_str()
            .unwrap()
            .contains("we_ird_name"));
        assert!(store.durable(SessionId(99)).is_err());
    }

    #[test]
    fn default_resume_methods_refuse() {
        struct Plain;
        impl SessionStore for Plain {
            fn open(
                &self,
                _id: SessionId,
                _name: &str,
                _attempt: u32,
                _shards: u32,
            ) -> io::Result<Vec<Box<dyn Write + Send>>> {
                Ok(vec![Box::new(Vec::new())])
            }
            fn durable_stream(&self, _id: SessionId, _shard: u32) -> io::Result<Vec<u8>> {
                Ok(Vec::new())
            }
        }
        let Err(err) = Plain.open_resume(SessionId(1), &[4]) else {
            panic!("default open_resume must refuse")
        };
        assert_eq!(err.kind(), io::ErrorKind::Unsupported);
    }

    #[test]
    fn mem_store_resume_appends_after_the_kept_prefix() {
        let store = MemStore::new();
        let id = SessionId(4);
        store.seed(id, 0, b"prefix+torn".to_vec());
        // Streams truncate and append independently.
        store.seed(id, 1, b"abcdef".to_vec());
        let mut w = store.open_resume(id, &[6, 3]).unwrap();
        w[0].write_all(b"-more").unwrap();
        w[1].write_all(b"XY").unwrap();
        drop(w);
        assert_eq!(store.durable(id).unwrap(), b"prefix-more");
        assert_eq!(store.durable_stream(id, 1).unwrap(), b"abcXY");
    }

    #[test]
    fn dir_store_resume_truncates_then_appends() {
        let tmp = crate::testdir::TempDir::new("dpd-resume-test");
        let store = DirStore::new(tmp.path()).unwrap();
        let id = SessionId(8);
        let mut w = open1(&store, id, "r", 0);
        w.write_all(b"prefix+torn-tail").unwrap();
        drop(w);
        let mut w = store.open_resume(id, &[6]).unwrap();
        w[0].write_all(b"-more").unwrap();
        drop(w);
        assert_eq!(store.durable(id).unwrap(), b"prefix-more");
        assert!(store.open_resume(SessionId(99), &[0]).is_err());
    }
}
