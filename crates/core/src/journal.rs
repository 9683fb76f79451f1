//! Streaming a recording as it is produced: the [`RecordSink`] interface
//! and the single-stream [`JournalWriter`].
//!
//! The record coordinator pushes every committed epoch through a
//! [`RecordSink`]. A [`JournalWriter`] appends it to a durable file as a
//! self-delimiting CRC32-framed record and flushes at each commit marker,
//! so after a crash — torn write, `ENOSPC`, failed flush, SIGKILL — a
//! [`crate::JournalReader::salvage`] scan reconstructs the longest
//! committed epoch prefix as a valid, replayable [`crate::Recording`].
//!
//! The journal is the 1-shard case of the recording container (see
//! [`crate::journal_shards`] for the frame format and commit rule): the
//! epoch the writer flushes last is the durability point, exactly the
//! write-ahead rule of database redo logs. A finalized journal is
//! byte-identical to [`crate::Recording::save`] of the same run.

use std::io::{self, Write};

use crate::checkpoint::CheckpointImage;
use crate::journal_shards::ShardedJournalWriter;
use crate::recording::{EncodedLogs, EpochRecord, RecordingMeta};

/// Where the coordinator streams a recording as it is produced.
///
/// [`epoch`](RecordSink::epoch) returning `Ok` means the sink has
/// *accepted* the epoch; each implementation defines its own durability
/// point. [`JournalWriter`] makes every epoch durable before returning
/// (flush per commit marker), while a multi-stream
/// [`crate::ShardedJournalWriter`] group-commits: acceptance is immediate
/// but durability arrives at the next per-shard batch flush — after a
/// crash, [`crate::JournalReader`] recovers exactly the durable prefix
/// either way. Errors abort the recording run with
/// [`crate::RecordError::Sink`]; everything already durable remains
/// salvageable.
pub trait RecordSink {
    /// Called once, before the first epoch, with the recording identity
    /// and the boot state.
    fn begin(&mut self, meta: &RecordingMeta, initial: &CheckpointImage) -> io::Result<()>;
    /// Called after each epoch commits (including recovered divergent
    /// epochs and serialized-fallback epochs — everything that becomes
    /// part of the final recording). Epochs arrive **strictly in index
    /// order** (0, 1, 2, …): both recording drivers retire through the
    /// same in-order commit stage — even the pipelined one, whose verify
    /// workers finish out of order, holds results back until their turn.
    /// Sinks may rely on this for append-only layouts (the journal writers
    /// rely on it to assign epochs to streams deterministically).
    fn epoch(&mut self, epoch: &EpochRecord) -> io::Result<()>;
    /// Like [`epoch`](RecordSink::epoch), but with the compact-codec log
    /// encodings the commit path already produced for cost accounting.
    /// Serializing sinks override this to splice `logs` in verbatim
    /// ([`EpochRecord::put_with`]) instead of re-encoding both logs; the
    /// default ignores `logs` and delegates, so non-serializing sinks
    /// (taps, [`NullSink`]) need not change.
    fn epoch_encoded(&mut self, epoch: &EpochRecord, logs: &EncodedLogs) -> io::Result<()> {
        let _ = logs;
        self.epoch(epoch)
    }
    /// Called once on clean completion of the whole run.
    fn finish(&mut self) -> io::Result<()>;
}

/// The no-op sink behind plain [`crate::record`]: recording stays
/// in-memory-only, exactly as before journaling existed.
#[derive(Debug, Default)]
pub struct NullSink;

impl RecordSink for NullSink {
    fn begin(&mut self, _meta: &RecordingMeta, _initial: &CheckpointImage) -> io::Result<()> {
        Ok(())
    }
    fn epoch(&mut self, _epoch: &EpochRecord) -> io::Result<()> {
        Ok(())
    }
    fn finish(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Streams a recording into one durable writer: a 1-shard
/// [`ShardedJournalWriter`] with a group-commit batch of 1, so every
/// epoch's commit marker is flushed before [`RecordSink::epoch`] returns.
///
/// Construction writes the stream preamble immediately, so even a run
/// that crashes before its first epoch leaves an identifiable journal.
pub struct JournalWriter<W: Write>(ShardedJournalWriter<W>);

impl<W: Write> JournalWriter<W> {
    /// Wraps `sink` and writes the stream preamble.
    ///
    /// # Errors
    ///
    /// I/O failures from the sink.
    pub fn new(sink: W) -> io::Result<Self> {
        ShardedJournalWriter::new(vec![sink], 1).map(JournalWriter)
    }

    /// Total journal bytes written so far (the write-overhead metric).
    pub fn bytes_written(&self) -> u64 {
        self.0.bytes_written()
    }

    /// Epochs committed to the journal so far.
    pub fn epochs_committed(&self) -> u32 {
        self.0.epochs_committed()
    }

    /// Unwraps the sink (e.g. to salvage the bytes a faulted sink holds).
    pub fn into_inner(self) -> W {
        // One inline lane: no lane thread exists that could have failed.
        self.0
            .into_writers()
            .ok()
            .and_then(|mut w| w.pop())
            .expect("a journal writer owns exactly one inline stream")
    }
}

impl<W: Write> RecordSink for JournalWriter<W> {
    fn begin(&mut self, meta: &RecordingMeta, initial: &CheckpointImage) -> io::Result<()> {
        self.0.begin(meta, initial)
    }

    fn epoch(&mut self, epoch: &EpochRecord) -> io::Result<()> {
        self.0.epoch(epoch)
    }

    fn epoch_encoded(&mut self, epoch: &EpochRecord, logs: &EncodedLogs) -> io::Result<()> {
        self.0.epoch_encoded(epoch, logs)
    }

    fn finish(&mut self) -> io::Result<()> {
        self.0.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DoublePlayConfig;
    use crate::error::ReplayError;
    use crate::journal_shards::JournalReader;
    use crate::logs::{ScheduleLog, SyscallLog};
    use dp_vm::Tid;

    /// Bytes of one COMMIT frame: tag, length, index, payload CRC, CRC.
    const COMMIT_FRAME: usize = 5 + 8 + 4;

    fn tiny_parts() -> (RecordingMeta, CheckpointImage, Vec<EpochRecord>) {
        let meta = RecordingMeta {
            guest_name: "j".into(),
            program_hash: 11,
            initial_machine_hash: 22,
            config: DoublePlayConfig::new(2),
        };
        let initial = CheckpointImage {
            machine: dp_vm::Machine::new(
                std::sync::Arc::new({
                    let mut pb = dp_vm::builder::ProgramBuilder::new();
                    let mut f = pb.function("main");
                    f.ret();
                    f.finish();
                    pb.finish("main")
                }),
                &[],
            )
            .image(),
            kernel: dp_os::kernel::Kernel::new(Default::default()),
            machine_hash: 22,
        };
        let epochs = (0..3)
            .map(|i| {
                let mut schedule = ScheduleLog::new();
                schedule.push_slice(Tid(0), 100 + i as u64);
                EpochRecord {
                    index: i,
                    schedule,
                    syscalls: SyscallLog::new(),
                    end_machine_hash: 100 + u64::from(i),
                    external: Vec::new(),
                    start: None,
                    tp_cycles: 10,
                }
            })
            .collect();
        (meta, initial, epochs)
    }

    /// A journal of the three tiny epochs and, per epoch, the offset just
    /// past its commit marker.
    fn journal_bytes(finalize: bool) -> (Vec<u8>, Vec<u64>) {
        let (meta, initial, epochs) = tiny_parts();
        let mut w = JournalWriter::new(Vec::new()).unwrap();
        w.begin(&meta, &initial).unwrap();
        let mut commit_offsets = Vec::new();
        for e in &epochs {
            w.epoch(e).unwrap();
            commit_offsets.push(w.bytes_written());
        }
        if finalize {
            w.finish().unwrap();
        }
        assert_eq!(w.epochs_committed(), 3);
        (w.into_inner(), commit_offsets)
    }

    #[test]
    fn out_of_order_epochs_are_rejected() {
        let (meta, initial, epochs) = tiny_parts();
        let mut w = JournalWriter::new(Vec::new()).unwrap();
        w.begin(&meta, &initial).unwrap();
        let err = w.epoch(&epochs[1]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        w.epoch(&epochs[0]).unwrap();
        assert_eq!(w.epochs_committed(), 1);
    }

    #[test]
    fn full_journal_salvages_clean() {
        let (buf, _) = journal_bytes(true);
        let s = JournalReader::salvage(&buf).unwrap();
        assert!(s.clean);
        assert_eq!(s.committed(), 3);
        assert_eq!(s.shard_count, 1);
        assert_eq!(s.dropped_bytes, 0);
        assert_eq!(s.recording.epochs[2].end_machine_hash, 102);
        assert_eq!(s.recording.meta.guest_name, "j");
    }

    #[test]
    fn unfinalized_journal_salvages_all_commits_but_not_clean() {
        let (buf, _) = journal_bytes(false);
        let s = JournalReader::salvage(&buf).unwrap();
        assert!(!s.clean);
        assert_eq!(s.committed(), 3);
        assert_eq!(s.dropped_bytes, 0);
    }

    #[test]
    fn every_prefix_salvages_exactly_the_committed_epochs() {
        let (buf, commits) = journal_bytes(true);
        for cut in 0..=buf.len() {
            let expect: usize = commits.iter().filter(|&&o| o as usize <= cut).count();
            match JournalReader::salvage(&buf[..cut]) {
                Ok(s) => {
                    assert_eq!(
                        s.committed(),
                        expect,
                        "cut {cut}: salvaged {} epochs, expected {expect}",
                        s.committed()
                    );
                    assert_eq!(s.clean, cut == buf.len(), "cut {cut} clean flag");
                }
                Err(ReplayError::Corrupt { .. }) => {
                    // Only acceptable before the header frame is durable.
                    assert_eq!(expect, 0, "cut {cut}: header lost but epochs expected");
                }
                Err(e) => panic!("cut {cut}: unexpected error {e:?}"),
            }
        }
    }

    #[test]
    fn bitflips_never_gain_epochs_or_panic() {
        let (buf, commits) = journal_bytes(true);
        let full = commits.len();
        for i in 0..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0x40;
            match JournalReader::salvage(&bad) {
                Ok(s) => {
                    assert!(s.committed() <= full);
                    assert!(!s.clean, "flip at {i} still clean");
                }
                Err(ReplayError::Corrupt { .. }) => {}
                // A flip inside the 4-byte version field reads as a
                // foreign version, which is typed separately.
                Err(ReplayError::UnsupportedVersion { .. }) => assert!((4..8).contains(&i)),
                Err(e) => panic!("flip at {i}: unexpected error {e:?}"),
            }
        }
    }

    #[test]
    fn commit_marker_is_required() {
        // Chop the journal right after epoch 1's frame, before its commit
        // marker: the epoch must not be salvaged.
        let (buf, commits) = journal_bytes(false);
        let cut = commits[1] as usize - COMMIT_FRAME;
        let s = JournalReader::salvage(&buf[..cut]).unwrap();
        assert_eq!(s.committed(), 1);
        assert_eq!(s.detail, "epoch 1 not committed in shard 0");
    }

    #[test]
    fn shard_keep_tracks_the_last_commit_frame() {
        let (buf, commits) = journal_bytes(true);
        let s = JournalReader::salvage(&buf).unwrap();
        // Clean journal: the keep point excludes the FINAL frame.
        assert_eq!(s.shard_keep, vec![Some(*commits.last().unwrap() as usize)]);
        assert_eq!(s.salvaged_bytes, buf.len());
        // Cut mid-epoch: the keep point stays at the previous commit.
        let cut = commits[1] as usize + 3;
        let s = JournalReader::salvage(&buf[..cut]).unwrap();
        assert_eq!(s.committed(), 2);
        assert_eq!(s.shard_keep, vec![Some(commits[1] as usize)]);
        // No epochs at all: the keep point is the header frame's end, and
        // re-salvaging exactly that prefix is stable.
        let s = JournalReader::salvage(&buf[..commits[0] as usize - 1]).unwrap();
        assert_eq!(s.committed(), 0);
        let keep = s.shard_keep[0].unwrap();
        let s0 = JournalReader::salvage(&buf[..keep]).unwrap();
        assert_eq!(s0.committed(), 0);
        assert_eq!(s0.shard_keep, s.shard_keep);
    }

    #[test]
    fn resume_continues_byte_identically() {
        let (full, commits) = journal_bytes(true);
        let (_, _, epochs) = tiny_parts();
        // Crash after epoch 1's commit, mid-epoch-2: salvage, truncate to
        // the committed prefix, and append the missing tail.
        let cut = commits[1] as usize + 7;
        let s = JournalReader::salvage(&full[..cut]).unwrap();
        assert_eq!(s.committed(), 2);
        let prefix = full[..s.shard_keep[0].unwrap()].to_vec();
        let mut w = ShardedJournalWriter::resume(vec![prefix], 1, &s).unwrap();
        assert_eq!(w.epochs_committed(), 2);
        assert_eq!(w.bytes_written() as usize, s.shard_keep[0].unwrap());
        // Out-of-order guard still holds across the crash boundary.
        assert!(w.epoch(&epochs[0]).is_err());
        w.epoch(&epochs[2]).unwrap();
        w.finish().unwrap();
        assert_eq!(w.into_writers().unwrap(), vec![full]);
    }

    #[test]
    fn retired_containers_and_garbage_are_typed_errors() {
        assert!(matches!(
            JournalReader::salvage(b""),
            Err(ReplayError::Corrupt { .. })
        ));
        assert!(matches!(
            JournalReader::salvage(b"WAT?\x03\x00\x00\x00rest"),
            Err(ReplayError::Corrupt { .. })
        ));
        // Version-2 files of every pre-v3 magic — the monolithic `DPRC`
        // recording, the `DPRJ` journal, and the `DPRS` stream — and v3
        // streams, whose schedule logs predate the lead-byte codec, are not
        // corruption: each must surface as the typed version error.
        let (buf, _) = journal_bytes(true);
        for (magic, container, version) in [
            (*b"DPRC", "recording", 2),
            (*b"DPRJ", "journal", 2),
            (*b"DPRS", "recording stream", 2),
            (*b"DPRS", "recording stream", 3),
        ] {
            let mut old = buf.clone();
            old[..4].copy_from_slice(&magic);
            old[4..8].copy_from_slice(&u32::to_le_bytes(version));
            for result in [
                JournalReader::salvage(&old).err(),
                crate::Recording::load(&old[..]).err(),
            ] {
                match result {
                    Some(ReplayError::UnsupportedVersion {
                        container: c,
                        found,
                        expected,
                    }) => {
                        assert_eq!(c, container);
                        assert_eq!(found, version);
                        assert_eq!(expected, 4);
                    }
                    other => panic!("{container}: expected UnsupportedVersion, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn epoch_encoded_writes_identical_bytes() {
        let (meta, initial, epochs) = tiny_parts();
        let mut w1 = JournalWriter::new(Vec::new()).unwrap();
        let mut w2 = JournalWriter::new(Vec::new()).unwrap();
        w1.begin(&meta, &initial).unwrap();
        w2.begin(&meta, &initial).unwrap();
        for ep in &epochs {
            w1.epoch(ep).unwrap();
            w2.epoch_encoded(ep, &EncodedLogs::of(ep)).unwrap();
        }
        w1.finish().unwrap();
        w2.finish().unwrap();
        assert_eq!(w1.into_inner(), w2.into_inner());
    }
}
