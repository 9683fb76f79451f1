//! # dp-dpd — the multi-session recording service
//!
//! DoublePlay's recorder logs one guest cheaply on spare cores. A fleet
//! deployment needs the next layer up: many concurrent recording sessions
//! sharing one machine, where any single tenant's divergence storm, sink
//! failure, or worker panic must not take down its neighbors. `dpd` is
//! that layer — a long-lived daemon that multiplexes sessions over a
//! bounded pool of runner threads and one shared global verify-core pool,
//! turning sessions into *data* (rows in a registry) instead of processes.
//!
//! ## The contract
//!
//! Following the partially-constrained-logging insight, the service
//! relaxes *admission* freely — shed load, reorder lanes, degrade — but
//! never relaxes *recoverability*: every admitted session is, at every
//! instant, salvageable to exactly its committed epoch prefix, because
//! each session streams its own journal through a
//! [`dp_core::ShardedJournalWriter`] and the journal's commit rule makes
//! the flush of each commit marker (per epoch for a 1-shard journal, per
//! group-commit batch for more shards) the durability point.
//!
//! * **Session state machine** — `Admitted → Recording → Draining →
//!   {Finalized, Salvaged, Failed}` ([`SessionState`]); retries within a
//!   restart budget loop back to `Admitted`.
//! * **Admission control** — a bounded queue with three priority lanes;
//!   oversubscription yields a typed [`AdmitError::Rejected`] with a
//!   `retry_after` hint, never a hang ([`admission`]).
//! * **Graceful degradation** — when the shared verify-core pool is
//!   exhausted, low-priority sessions record *serialized* (sequential
//!   driver, same bytes — the pipelined flag is not wire-encoded) instead
//!   of being refused ([`daemon`]).
//! * **Fault isolation** — each session attempt runs under
//!   `catch_unwind`; a `RecordError`, an injected panic, or a sink fault
//!   is contained, retried within budget, and reported in the session's
//!   own registry row without disturbing siblings.
//! * **Crash story** — SIGKILL the whole daemon mid-run and every
//!   admitted session salvages independently (`dp salvage` per journal);
//!   [`store::MemStore`] plus [`store::CrashClock`] simulate exactly this
//!   for the property tests.
//!
//! ## Quick start
//!
//! ```
//! use dp_dpd::{guests, Daemon, DaemonConfig, MemStore, SessionSpec};
//! use dp_core::DoublePlayConfig;
//! use std::sync::Arc;
//!
//! let store = Arc::new(MemStore::new());
//! let daemon = Daemon::start(DaemonConfig::default(), store.clone());
//! let spec = SessionSpec::new(
//!     "demo",
//!     guests::atomic_counter(2, 400),
//!     DoublePlayConfig::new(2).epoch_cycles(800),
//! );
//! let id = daemon.submit(spec)?;
//! daemon.drain();
//! let report = daemon.report(id).unwrap();
//! assert!(report.state.is_terminal());
//! daemon.shutdown();
//! # Ok::<(), dp_dpd::AdmitError>(())
//! ```

#![warn(missing_docs)]

pub mod admission;
pub mod client;
pub mod daemon;
pub mod guests;
pub mod proto;
pub mod session;
pub mod store;

pub use admission::AdmitError;
pub use client::{AttachOutcome, Client, ClientError};
pub use daemon::{Daemon, DaemonConfig, DaemonMetrics};
pub use proto::{serve, GuestRef, Request, Response, ServerConfig, SizeRef, SubmitSpec, WireFault};
pub use session::{
    sessions_json, Priority, SessionError, SessionId, SessionReport, SessionSpec, SessionState,
};
pub use store::{CrashClock, DirStore, MemStore, Orphan, OrphanClass, SessionStore};

/// Unique scratch directories for this crate's unit tests. `cargo test`
/// runs tests in parallel threads of one process, so a pid-keyed
/// directory name is *not* unique — two tests (or an aborted earlier run)
/// can collide. Each [`testdir::TempDir`] gets a process-wide counter
/// suffix and removes its tree on drop, even when the test fails.
#[cfg(test)]
pub(crate) mod testdir {
    use std::path::{Path, PathBuf};
    use std::sync::atomic::{AtomicUsize, Ordering};

    static NEXT: AtomicUsize = AtomicUsize::new(0);

    /// An exclusively-owned scratch directory, removed on drop.
    pub struct TempDir(PathBuf);

    impl TempDir {
        /// Creates `$TMPDIR/{tag}-{pid}-{n}`, empty.
        pub fn new(tag: &str) -> Self {
            let n = NEXT.fetch_add(1, Ordering::Relaxed);
            let dir = std::env::temp_dir().join(format!("{tag}-{}-{n}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }

        /// The directory path.
        pub fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
}
