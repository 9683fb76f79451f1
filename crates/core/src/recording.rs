//! Recordings: the persistent artifact a DoublePlay run produces.
//!
//! A recording is *complete*: given the same [`crate::GuestSpec`] (verified
//! by program hash), any consumer can re-create the recorded execution —
//! sequentially from the initial state, or epoch-by-epoch in parallel when
//! per-epoch checkpoints were kept.

use std::io::{Read, Write};

use crate::checkpoint::CheckpointImage;
use crate::config::DoublePlayConfig;
use crate::error::{ReplayError, SaveError};
use crate::journal::{JournalWriter, RecordSink};
use crate::journal_shards::JournalReader;
use crate::logs::{codec, ScheduleLog, SyscallLog};
use dp_os::kernel::ExternalChunk;
use dp_support::wire::Wire;

/// Identity and configuration of a recording.
#[derive(Debug, Clone)]
pub struct RecordingMeta {
    /// Name of the recorded guest.
    pub guest_name: String,
    /// Content hash of the recorded program.
    pub program_hash: u64,
    /// Digest of the boot state.
    pub initial_machine_hash: u64,
    /// The recorder configuration used.
    pub config: DoublePlayConfig,
}

/// One epoch of the recorded execution.
#[derive(Debug, Clone)]
pub struct EpochRecord {
    /// Epoch number (0-based).
    pub index: u32,
    /// Time-slice order of the epoch-parallel execution.
    pub schedule: ScheduleLog,
    /// Logged-class syscall results consumed within the epoch.
    pub syscalls: SyscallLog,
    /// Digest of the machine state at the epoch's end.
    pub end_machine_hash: u64,
    /// External output released when this epoch committed.
    pub external: Vec<ExternalChunk>,
    /// Start-of-epoch checkpoint (present when the recorder kept
    /// checkpoints; enables parallel replay and replay-to-point).
    pub start: Option<CheckpointImage>,
    /// Thread-parallel wall cycles of the epoch (diagnostics).
    pub tp_cycles: u64,
}

/// The compact-codec encodings of one epoch's logs, produced once in the
/// recorder's commit path (where their lengths feed cost accounting) and
/// spliced verbatim into the serialized [`EpochRecord`] by sinks that
/// implement [`crate::journal::RecordSink::epoch_encoded`] — the logs are
/// never encoded twice for one commit.
#[derive(Debug, Clone, Default)]
pub struct EncodedLogs {
    /// [`codec::encode_schedule`] of the epoch's schedule log.
    pub schedule: Vec<u8>,
    /// [`codec::encode_syscalls`] of the epoch's syscall log.
    pub syscalls: Vec<u8>,
}

impl EncodedLogs {
    /// Encodes both logs of `epoch` (the fallback for callers that did not
    /// carry encodings from the commit path).
    pub fn of(epoch: &EpochRecord) -> Self {
        EncodedLogs {
            schedule: codec::encode_schedule(&epoch.schedule),
            syscalls: codec::encode_syscalls(&epoch.syscalls),
        }
    }
}

impl EpochRecord {
    /// Serializes the record like its [`Wire`] impl, but splices the
    /// pre-encoded log payloads in instead of re-encoding them. Must mirror
    /// the `impl_wire_struct!` field order exactly; the
    /// `put_with_matches_wire_encoding` test pins the equivalence.
    pub fn put_with(&self, logs: &EncodedLogs, out: &mut Vec<u8>) {
        self.index.put(out);
        dp_support::wire::put_varint(out, logs.schedule.len() as u64);
        out.extend_from_slice(&logs.schedule);
        dp_support::wire::put_varint(out, logs.syscalls.len() as u64);
        out.extend_from_slice(&logs.syscalls);
        self.end_machine_hash.put(out);
        self.external.put(out);
        self.start.put(out);
        self.tp_cycles.put(out);
    }
}

/// A complete recording.
#[derive(Debug, Clone)]
pub struct Recording {
    /// Identity and configuration.
    pub meta: RecordingMeta,
    /// The boot state.
    pub initial: CheckpointImage,
    /// Epochs in order.
    pub epochs: Vec<EpochRecord>,
}

impl Recording {
    /// Encoded size of all schedule logs ([`codec::encode_schedule`]).
    pub fn schedule_bytes(&self) -> u64 {
        self.epochs
            .iter()
            .map(|e| codec::encode_schedule(&e.schedule).len() as u64)
            .sum()
    }

    /// Encoded size of all syscall logs.
    pub fn syscall_bytes(&self) -> u64 {
        self.epochs
            .iter()
            .map(|e| codec::encode_syscalls(&e.syscalls).len() as u64)
            .sum()
    }

    /// Total encoded log size (the paper's log-size metric; checkpoints are
    /// accounted separately, as in the paper).
    pub fn log_bytes(&self) -> u64 {
        self.schedule_bytes() + self.syscall_bytes()
    }

    /// All external output in commit order, flattened to bytes per
    /// destination-agnostic stream (convenient for asserting console
    /// output in tests and examples).
    pub fn console_output(&self) -> Vec<u8> {
        self.epochs
            .iter()
            .flat_map(|e| e.external.iter())
            .filter(|c| matches!(c.dest, dp_os::kernel::ExternalDest::Console))
            .flat_map(|c| c.bytes.iter().copied())
            .collect()
    }

    /// All external output chunks in commit order.
    pub fn external(&self) -> impl Iterator<Item = &ExternalChunk> {
        self.epochs.iter().flat_map(|e| e.external.iter())
    }

    /// Total schedule events across epochs.
    pub fn schedule_events(&self) -> u64 {
        self.epochs.iter().map(|e| e.schedule.len() as u64).sum()
    }

    /// Total logged syscalls across epochs.
    pub fn logged_syscalls(&self) -> u64 {
        self.epochs.iter().map(|e| e.syscalls.len() as u64).sum()
    }

    /// True when every epoch carries a start checkpoint.
    pub fn has_checkpoints(&self) -> bool {
        self.epochs.iter().all(|e| e.start.is_some())
    }

    /// Serializes the recording as a finalized 1-shard recording stream
    /// (see [`crate::journal_shards`]): byte-identical to what a
    /// [`crate::JournalWriter`] streams for the same run.
    ///
    /// # Errors
    ///
    /// [`SaveError::TooManyEpochs`] when the epoch count does not fit the
    /// stream's u32 epoch indices (saving would silently truncate);
    /// [`SaveError::Io`] for writer failures and for epochs whose indices
    /// are not `0, 1, 2, …`.
    pub fn save<W: Write>(&self, writer: W) -> Result<(), SaveError> {
        if u32::try_from(self.epochs.len()).is_err() {
            return Err(SaveError::TooManyEpochs {
                count: self.epochs.len(),
            });
        }
        let mut journal = JournalWriter::new(writer)?;
        journal.begin(&self.meta, &self.initial)?;
        for epoch in &self.epochs {
            journal.epoch(epoch)?;
        }
        journal.finish()?;
        Ok(())
    }

    /// Deserializes a recording saved by [`save`](Recording::save) (or a
    /// finalized 1-shard journal): salvages the stream and requires it to
    /// be clean, with no bytes past its final marker.
    ///
    /// # Errors
    ///
    /// [`ReplayError::Io`] if the reader fails;
    /// [`ReplayError::UnsupportedVersion`] for a stream written by a
    /// different format version (or a retired container);
    /// [`ReplayError::Corrupt`] for any malformed, truncated, unfinalized,
    /// or bit-flipped stream — never a panic.
    pub fn load<R: Read>(mut reader: R) -> Result<Self, ReplayError> {
        let mut buf = Vec::new();
        reader.read_to_end(&mut buf).map_err(|e| ReplayError::Io {
            detail: e.to_string(),
        })?;
        let s = JournalReader::salvage(&buf)?;
        if s.clean && s.dropped_bytes == 0 {
            return Ok(s.recording);
        }
        Err(ReplayError::Corrupt {
            detail: format!(
                "recording is not finalized ({}; {} committed epoch(s), {} byte(s) dropped) — \
                 recover the committed prefix with `dp salvage`",
                s.detail,
                s.committed(),
                s.dropped_bytes
            ),
        })
    }
}

dp_support::impl_wire_struct!(RecordingMeta {
    guest_name,
    program_hash,
    initial_machine_hash,
    config
});
dp_support::impl_wire_struct!(EpochRecord {
    index,
    schedule,
    syscalls,
    end_machine_hash,
    external,
    start,
    tp_cycles
});

#[cfg(test)]
mod tests {
    use super::*;
    use dp_os::kernel::ExternalDest;
    use dp_support::wire::to_bytes;
    use dp_vm::Tid;

    fn tiny_recording() -> Recording {
        let mut schedule = ScheduleLog::new();
        schedule.push_slice(Tid(0), 100);
        Recording {
            meta: RecordingMeta {
                guest_name: "t".into(),
                program_hash: 1,
                initial_machine_hash: 2,
                config: DoublePlayConfig::new(2),
            },
            initial: CheckpointImage {
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
                machine_hash: 2,
            },
            epochs: vec![EpochRecord {
                index: 0,
                schedule,
                syscalls: SyscallLog::new(),
                end_machine_hash: 3,
                external: vec![ExternalChunk {
                    dest: ExternalDest::Console,
                    bytes: b"hi".to_vec(),
                }],
                start: None,
                tp_cycles: 500,
            }],
        }
    }

    #[test]
    fn size_accounting() {
        let r = tiny_recording();
        assert!(r.schedule_bytes() > 0);
        assert!(r.syscall_bytes() > 0); // count prefix
        assert_eq!(r.log_bytes(), r.schedule_bytes() + r.syscall_bytes());
        assert_eq!(r.schedule_events(), 1);
        assert_eq!(r.logged_syscalls(), 0);
        assert!(!r.has_checkpoints());
    }

    #[test]
    fn console_output_concatenates() {
        let r = tiny_recording();
        assert_eq!(r.console_output(), b"hi");
        assert_eq!(r.external().count(), 1);
    }

    #[test]
    fn save_load_roundtrip() {
        let r = tiny_recording();
        let mut buf = Vec::new();
        r.save(&mut buf).unwrap();
        let back = Recording::load(&buf[..]).unwrap();
        assert_eq!(back.meta.guest_name, "t");
        assert_eq!(back.epochs.len(), 1);
        assert_eq!(back.epochs[0].end_machine_hash, 3);
        assert_eq!(back.console_output(), b"hi");
    }

    #[test]
    fn save_surfaces_writer_errors_as_typed_io() {
        struct Broken;
        impl Write for Broken {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk on fire"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        match tiny_recording().save(Broken) {
            Err(SaveError::Io { detail }) => assert!(detail.contains("disk on fire")),
            other => panic!("expected SaveError::Io, got {other:?}"),
        }
    }

    #[test]
    fn put_with_matches_wire_encoding() {
        let r = tiny_recording();
        let epoch = &r.epochs[0];
        let generic = to_bytes(epoch);
        let mut spliced = Vec::new();
        epoch.put_with(&EncodedLogs::of(epoch), &mut spliced);
        assert_eq!(generic, spliced, "put_with must mirror the Wire impl");
    }

    #[test]
    fn old_format_version_is_a_typed_version_error() {
        let r = tiny_recording();
        let mut buf = Vec::new();
        r.save(&mut buf).unwrap();
        // A version-3 stream is not corrupt, just older: rewrite the version
        // field and expect the typed error, never Corrupt or a bogus decode.
        buf[4..8].copy_from_slice(&3u32.to_le_bytes());
        match Recording::load(&buf[..]) {
            Err(ReplayError::UnsupportedVersion {
                container,
                found,
                expected,
            }) => {
                assert_eq!(container, "recording stream");
                assert_eq!(found, 3);
                assert_eq!(expected, 4);
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }

    #[test]
    fn forged_final_epoch_count_is_rejected() {
        let r = tiny_recording();
        let mut buf = Vec::new();
        r.save(&mut buf).unwrap();
        // The FINAL frame is the last 13 bytes: tag, length, count, CRC.
        // Re-frame it claiming u32::MAX epochs with a valid CRC: load must
        // reject the disagreement, not trust the count.
        let at = buf.len() - 13;
        buf[at + 5..at + 9].copy_from_slice(&u32::MAX.to_le_bytes());
        let crc = dp_support::crc32::crc32(&buf[at..at + 9]);
        buf[at + 9..].copy_from_slice(&crc.to_le_bytes());
        match Recording::load(&buf[..]) {
            Err(ReplayError::Corrupt { detail }) => {
                assert!(detail.contains("not finalized"), "detail: {detail}")
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn save_is_the_finalized_journal() {
        let r = tiny_recording();
        let mut saved = Vec::new();
        r.save(&mut saved).unwrap();
        let mut journal = JournalWriter::new(Vec::new()).unwrap();
        journal.begin(&r.meta, &r.initial).unwrap();
        journal.epoch(&r.epochs[0]).unwrap();
        journal.finish().unwrap();
        assert_eq!(saved, journal.into_inner());
        // Every strict prefix is unfinalized: a typed error, never a load.
        for cut in 0..saved.len() {
            assert!(
                matches!(
                    Recording::load(&saved[..cut]),
                    Err(ReplayError::Corrupt { .. })
                ),
                "prefix {cut} loaded"
            );
        }
        // So are bytes past the final marker.
        saved.push(0);
        assert!(Recording::load(&saved[..]).is_err());
    }
}
