//! The journal layer seen from outside: a timing [`RecordSink`]
//! decorator, and a writer that counts the bytes and flushes reaching the
//! storage under either journal writer.

use dp_core::{CheckpointImage, EncodedLogs, EpochRecord, RecordSink, RecordingMeta};
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One timed sink call.
#[derive(Debug, Clone, Copy)]
pub struct SinkCall {
    /// `"journal.begin"`, `"journal.epoch"` or `"journal.finish"`.
    pub name: &'static str,
    /// When the call was entered.
    pub start: Instant,
    /// When it returned.
    pub end: Instant,
}

/// Forwards every call to the wrapped sink unchanged and records when
/// each was entered and returned. The gap between one epoch call
/// returning and the next being entered is the coordinator's per-epoch
/// critical path.
pub struct TimedSink<'a> {
    inner: &'a mut dyn RecordSink,
    /// The calls, in arrival order.
    pub calls: Vec<SinkCall>,
}

impl<'a> TimedSink<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a mut dyn RecordSink) -> Self {
        TimedSink {
            inner,
            calls: Vec::new(),
        }
    }

    fn timed<T>(&mut self, name: &'static str, f: impl FnOnce(&mut dyn RecordSink) -> T) -> T {
        let start = Instant::now();
        let out = f(&mut *self.inner);
        self.calls.push(SinkCall {
            name,
            start,
            end: Instant::now(),
        });
        out
    }
}

impl RecordSink for TimedSink<'_> {
    fn begin(&mut self, meta: &RecordingMeta, initial: &CheckpointImage) -> io::Result<()> {
        self.timed("journal.begin", |s| s.begin(meta, initial))
    }
    fn epoch(&mut self, epoch: &EpochRecord) -> io::Result<()> {
        self.timed("journal.epoch", |s| s.epoch(epoch))
    }
    fn epoch_encoded(&mut self, epoch: &EpochRecord, logs: &EncodedLogs) -> io::Result<()> {
        self.timed("journal.epoch", |s| s.epoch_encoded(epoch, logs))
    }
    fn finish(&mut self) -> io::Result<()> {
        self.timed("journal.finish", |s| s.finish())
    }
}

/// Bytes and flushes that reached the storage below a journal writer.
#[derive(Debug, Default)]
pub struct IoCounts {
    /// Bytes written.
    pub bytes: AtomicU64,
    /// `flush` calls.
    pub flushes: AtomicU64,
}

/// A writer that counts what passes through it into shared [`IoCounts`]
/// (shared because the sharded writer's lanes write from their own
/// threads).
pub struct Counting<W> {
    inner: W,
    counts: Arc<IoCounts>,
}

impl<W> Counting<W> {
    /// Wraps `inner`, adding to `counts`.
    pub fn new(inner: W, counts: Arc<IoCounts>) -> Self {
        Counting { inner, counts }
    }
}

impl<W: Write> Write for Counting<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.counts.bytes.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }
    fn flush(&mut self) -> io::Result<()> {
        self.counts.flushes.fetch_add(1, Ordering::Relaxed);
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_core::{record_to, DoublePlayConfig, JournalWriter, ShardedJournalWriter};
    use dp_workloads::{find, Size};

    fn config() -> DoublePlayConfig {
        DoublePlayConfig::new(2)
            .epoch_cycles(100_000)
            .hidden_seed(11)
    }

    #[test]
    fn timed_dprj_journal_is_byte_equal() {
        let case = find("kvstore", 2, Size::Small).expect("kvstore exists");
        let mut plain = JournalWriter::new(Vec::new()).unwrap();
        record_to(&case.spec, &config(), &mut plain).unwrap();
        let mut inner = JournalWriter::new(Vec::new()).unwrap();
        let mut timed = TimedSink::new(&mut inner);
        record_to(&case.spec, &config(), &mut timed).unwrap();
        let epochs = timed
            .calls
            .iter()
            .filter(|c| c.name == "journal.epoch")
            .count();
        assert_eq!(timed.calls.first().map(|c| c.name), Some("journal.begin"));
        assert_eq!(timed.calls.last().map(|c| c.name), Some("journal.finish"));
        assert_eq!(epochs as u32, inner.epochs_committed());
        assert_eq!(inner.into_inner(), plain.into_inner());
    }

    #[test]
    fn timed_dprs_journal_is_byte_equal() {
        let case = find("aget", 2, Size::Small).expect("aget exists");
        let cfg = config()
            .keep_checkpoints(false)
            .spare_workers(1)
            .pipelined(true);
        let shards = |counts: &Arc<IoCounts>| {
            (0..2)
                .map(|_| Counting::new(Vec::new(), counts.clone()))
                .collect::<Vec<_>>()
        };
        let plain_counts = Arc::new(IoCounts::default());
        let mut plain = ShardedJournalWriter::new(shards(&plain_counts), 8).unwrap();
        record_to(&case.spec, &cfg, &mut plain).unwrap();
        let counts = Arc::new(IoCounts::default());
        let mut inner = ShardedJournalWriter::new(shards(&counts), 8).unwrap();
        record_to(&case.spec, &cfg, &mut TimedSink::new(&mut inner)).unwrap();
        assert_eq!(
            counts.bytes.load(Ordering::Relaxed),
            inner.bytes_written(),
            "the counting writer sees every journal byte"
        );
        let a: Vec<Vec<u8>> = plain
            .into_writers()
            .unwrap()
            .into_iter()
            .map(|c| c.inner)
            .collect();
        let b: Vec<Vec<u8>> = inner
            .into_writers()
            .unwrap()
            .into_iter()
            .map(|c| c.inner)
            .collect();
        assert_eq!(a, b);
    }
}
