//! Lossless recording compaction.
//!
//! The schedule log dominates a recording's log bytes, and its entropy is
//! low: most events are time slices, most slices belong to a handful of
//! thread ids, and quantum-driven slicing repeats the same instruction
//! count over and over. Compaction (1) re-canonicalizes each epoch's
//! schedule — run-length merging adjacent same-thread slices, the only
//! reordering-free merge replay semantics allow — and (2) re-encodes it
//! with a tighter codec (v2) that packs the event tag, thread id, and a
//! repeated-slice-length flag into a single lead byte. The result is
//! saved as a `DPRZ` container of CRC-guarded sections (the layout of
//! the retired version-2 `DPRC` recording container).
//!
//! Compaction is lossless by construction: the decoded recording contains
//! the same events, so it replays to the identical final-state hash. The
//! v2 encoding is also never larger than v1 — every event costs at most
//! the v1 bytes, and every slice costs at least one byte less.
//!
//! ## v2 schedule encoding
//!
//! `varint count`, then per event one lead byte plus payload:
//!
//! ```text
//! lead byte: bits 0..2  event tag (0 = slice, 1 = wake, 2 = signal)
//!            bit  2     repeat flag (slice only: instruction count equals
//!                       the previous slice's — no payload follows)
//!            bits 3..8  thread id 0..30 inline; 31 = escape, varint tid
//!                       follows the lead byte
//! payload:   slice: varint instrs (absent when the repeat flag is set)
//!            wake: none
//!            signal: varint sig
//! ```

use dp_core::logs::codec::{self, get_varint, put_varint, CodecError};
use dp_core::logs::{SchedEvent, ScheduleLog};
use dp_core::{EpochRecord, Recording, RecordingMeta, ReplayError};
use dp_support::crc32::crc32;
use dp_support::wire::{from_bytes, to_bytes};
use dp_vm::Tid;
use std::fmt;
use std::io::{Read, Write};

const TAG_SLICE: u8 = 0;
const TAG_WAKE: u8 = 1;
const TAG_SIGNAL: u8 = 2;
const REPEAT_FLAG: u8 = 1 << 2;
const TID_SHIFT: u32 = 3;
const TID_ESCAPE: u8 = 31;

/// Encodes a schedule log with the compact v2 codec.
pub fn encode_schedule_compact(log: &ScheduleLog) -> Vec<u8> {
    let mut out = Vec::new();
    put_varint(&mut out, log.len() as u64);
    let mut last_instrs: Option<u64> = None;
    for e in log.events() {
        let (tag, tid, payload) = match e {
            SchedEvent::Slice { tid, instrs } => (TAG_SLICE, tid.0, Some(*instrs)),
            SchedEvent::LoggedWake { tid } => (TAG_WAKE, tid.0, None),
            SchedEvent::Signal { tid, sig } => (TAG_SIGNAL, tid.0, Some(*sig)),
        };
        let repeat = tag == TAG_SLICE && payload == last_instrs;
        let tid_bits = if tid < TID_ESCAPE as u32 {
            tid as u8
        } else {
            TID_ESCAPE
        };
        let mut lead = tag | (tid_bits << TID_SHIFT);
        if repeat {
            lead |= REPEAT_FLAG;
        }
        out.push(lead);
        if tid_bits == TID_ESCAPE {
            put_varint(&mut out, tid as u64);
        }
        match (tag, repeat) {
            (TAG_SLICE, false) | (TAG_SIGNAL, _) => put_varint(&mut out, payload.unwrap()),
            _ => {}
        }
        if tag == TAG_SLICE {
            last_instrs = payload;
        }
    }
    out
}

/// Decodes a v2-encoded schedule log.
///
/// # Errors
///
/// Fails on truncated or corrupt input.
pub fn decode_schedule_compact(buf: &[u8]) -> Result<ScheduleLog, CodecError> {
    let mut pos = 0;
    let count = get_varint(buf, &mut pos, "compact schedule count")?;
    let mut events = Vec::new();
    let mut last_instrs: Option<u64> = None;
    for _ in 0..count {
        let lead = *buf.get(pos).ok_or(CodecError {
            offset: pos,
            context: "compact schedule lead byte",
        })?;
        pos += 1;
        let tag = lead & 0x3;
        let repeat = lead & REPEAT_FLAG != 0;
        let tid_bits = lead >> TID_SHIFT;
        let tid = if tid_bits == TID_ESCAPE {
            Tid(get_varint(buf, &mut pos, "compact schedule tid")? as u32)
        } else {
            Tid(tid_bits as u32)
        };
        events.push(match tag {
            TAG_SLICE => {
                let instrs = if repeat {
                    last_instrs.ok_or(CodecError {
                        offset: pos,
                        context: "repeat flag with no previous slice",
                    })?
                } else {
                    get_varint(buf, &mut pos, "compact slice length")?
                };
                last_instrs = Some(instrs);
                SchedEvent::Slice { tid, instrs }
            }
            TAG_WAKE => SchedEvent::LoggedWake { tid },
            TAG_SIGNAL => SchedEvent::Signal {
                tid,
                sig: get_varint(buf, &mut pos, "compact signal number")?,
            },
            _ => {
                return Err(CodecError {
                    offset: pos,
                    context: "unknown compact schedule tag",
                })
            }
        });
    }
    if pos != buf.len() {
        return Err(CodecError {
            offset: pos,
            context: "trailing bytes after compact schedule",
        });
    }
    Ok(events.into_iter().collect())
}

/// What compaction achieved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionStats {
    /// Epochs processed.
    pub epochs: usize,
    /// Schedule events before run-length canonicalization.
    pub events_before: u64,
    /// Schedule events after.
    pub events_after: u64,
    /// Total schedule bytes in the v1 wire encoding.
    pub schedule_bytes_before: u64,
    /// Total schedule bytes in the v2 encoding.
    pub schedule_bytes_after: u64,
}

impl CompactionStats {
    /// Compression ratio, as `before / after` (> 1 means smaller).
    pub fn ratio(&self) -> f64 {
        if self.schedule_bytes_after == 0 {
            1.0
        } else {
            self.schedule_bytes_before as f64 / self.schedule_bytes_after as f64
        }
    }
}

impl fmt::Display for CompactionStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} epochs: {} -> {} schedule events, {} -> {} schedule bytes ({:.2}x)",
            self.epochs,
            self.events_before,
            self.events_after,
            self.schedule_bytes_before,
            self.schedule_bytes_after,
            self.ratio()
        )
    }
}

/// Compacts a recording in memory: run-length canonicalizes every epoch's
/// schedule (merging adjacent same-thread slices, dropping empty ones) and
/// reports the byte savings of the v2 re-encode. The returned recording is
/// replay-equivalent to the input.
pub fn compact(recording: &Recording) -> (Recording, CompactionStats) {
    let mut out = recording.clone();
    let mut stats = CompactionStats {
        epochs: recording.epochs.len(),
        events_before: 0,
        events_after: 0,
        schedule_bytes_before: 0,
        schedule_bytes_after: 0,
    };
    for epoch in &mut out.epochs {
        stats.events_before += epoch.schedule.len() as u64;
        stats.schedule_bytes_before += codec::encode_schedule(&epoch.schedule).len() as u64;
        // `collect` re-applies the canonical coalescing rules; a schedule
        // straight off the recorder is usually canonical already, but logs
        // decoded from the wire or assembled by tools need not be.
        epoch.schedule = epoch.schedule.events().iter().copied().collect();
        stats.events_after += epoch.schedule.len() as u64;
        stats.schedule_bytes_after += encode_schedule_compact(&epoch.schedule).len() as u64;
    }
    (out, stats)
}

/// Compact-container magic: "DPRZ" (DoublePlay Recording, Zipped).
const MAGIC: [u8; 4] = *b"DPRZ";
/// Compact-container format version.
const FORMAT_VERSION: u32 = 1;

fn corrupt(detail: String) -> ReplayError {
    ReplayError::Corrupt { detail }
}

fn write_section<W: Write>(writer: &mut W, payload: &[u8]) -> std::io::Result<()> {
    writer.write_all(&(payload.len() as u32).to_le_bytes())?;
    writer.write_all(payload)?;
    writer.write_all(&crc32(payload).to_le_bytes())
}

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_varint(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

fn get_bytes<'a>(
    buf: &'a [u8],
    pos: &mut usize,
    context: &'static str,
) -> Result<&'a [u8], CodecError> {
    let len = get_varint(buf, pos, context)? as usize;
    let end = pos
        .checked_add(len)
        .filter(|&e| e <= buf.len())
        .ok_or(CodecError {
            offset: *pos,
            context,
        })?;
    let s = &buf[*pos..end];
    *pos = end;
    Ok(s)
}

fn encode_epoch(epoch: &EpochRecord) -> Vec<u8> {
    let mut out = Vec::new();
    put_varint(&mut out, epoch.index as u64);
    put_bytes(&mut out, &encode_schedule_compact(&epoch.schedule));
    put_bytes(&mut out, &codec::encode_syscalls(&epoch.syscalls));
    out.extend_from_slice(&epoch.end_machine_hash.to_le_bytes());
    put_bytes(&mut out, &to_bytes(&epoch.external));
    put_bytes(&mut out, &to_bytes(&epoch.start));
    put_varint(&mut out, epoch.tp_cycles);
    out
}

fn decode_epoch(buf: &[u8]) -> Result<EpochRecord, ReplayError> {
    let bad = |e: CodecError| corrupt(format!("compact epoch: {e}"));
    let mut pos = 0;
    let index = get_varint(buf, &mut pos, "epoch index").map_err(bad)? as u32;
    let sched_bytes = get_bytes(buf, &mut pos, "compact schedule").map_err(bad)?;
    let schedule = decode_schedule_compact(sched_bytes).map_err(bad)?;
    let sys_bytes = get_bytes(buf, &mut pos, "syscall log").map_err(bad)?;
    let syscalls = codec::decode_syscalls(sys_bytes).map_err(bad)?;
    if pos + 8 > buf.len() {
        return Err(corrupt("compact epoch: truncated end hash".into()));
    }
    let end_machine_hash = u64::from_le_bytes(buf[pos..pos + 8].try_into().unwrap());
    pos += 8;
    let external = from_bytes(get_bytes(buf, &mut pos, "external chunks").map_err(bad)?)
        .map_err(|e| corrupt(format!("compact epoch external: {e}")))?;
    let start = from_bytes(get_bytes(buf, &mut pos, "start checkpoint").map_err(bad)?)
        .map_err(|e| corrupt(format!("compact epoch checkpoint: {e}")))?;
    let tp_cycles = get_varint(buf, &mut pos, "tp cycles").map_err(bad)?;
    if pos != buf.len() {
        return Err(corrupt("compact epoch: trailing bytes".into()));
    }
    Ok(EpochRecord {
        index,
        schedule,
        syscalls,
        end_machine_hash,
        external,
        start,
        tp_cycles,
    })
}

/// Serializes a recording in the compact `DPRZ` container: magic, version,
/// then CRC32-guarded sections (meta, initial checkpoint, epoch count,
/// one per epoch), with every schedule
/// log in the v2 encoding. The recording is canonicalized with
/// [`compact`] first, so saving is itself the compaction pass.
///
/// # Errors
///
/// I/O failures from the writer, and `InvalidInput` when the epoch count
/// does not fit the container's u32 count field (saving would silently
/// truncate the tail).
pub fn save_compact<W: Write>(recording: &Recording, mut writer: W) -> std::io::Result<()> {
    let (canonical, _) = compact(recording);
    let count = u32::try_from(canonical.epochs.len()).map_err(|_| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!(
                "{} epochs exceed the container's u32 epoch count",
                canonical.epochs.len()
            ),
        )
    })?;
    writer.write_all(&MAGIC)?;
    writer.write_all(&FORMAT_VERSION.to_le_bytes())?;
    write_section(&mut writer, &to_bytes(&canonical.meta))?;
    write_section(&mut writer, &to_bytes(&canonical.initial))?;
    writer.write_all(&count.to_le_bytes())?;
    for epoch in &canonical.epochs {
        write_section(&mut writer, &encode_epoch(epoch))?;
    }
    Ok(())
}

/// Bounds-checked section reader shared by [`load_compact`].
struct Container<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Container<'a> {
    fn bytes(&mut self, n: usize, what: &str) -> Result<&'a [u8], ReplayError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| corrupt(format!("truncated at {what} (offset {})", self.pos)))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u32_le(&mut self, what: &str) -> Result<u32, ReplayError> {
        let raw = self.bytes(4, what)?;
        Ok(u32::from_le_bytes([raw[0], raw[1], raw[2], raw[3]]))
    }

    fn section(&mut self, what: &str) -> Result<&'a [u8], ReplayError> {
        let len = self.u32_le(what)? as usize;
        let payload = self.bytes(len, what)?;
        let stored = self.u32_le(what)?;
        let actual = crc32(payload);
        if stored != actual {
            return Err(corrupt(format!(
                "{what} checksum mismatch: stored {stored:#010x}, computed {actual:#010x}"
            )));
        }
        Ok(payload)
    }
}

/// Deserializes a compact `DPRZ` recording, validating magic, version, and
/// every section checksum.
///
/// # Errors
///
/// [`ReplayError::Corrupt`] for any malformed, truncated, or bit-flipped
/// container — never a panic.
pub fn load_compact(buf: &[u8]) -> Result<Recording, ReplayError> {
    let mut c = Container { buf, pos: 0 };
    let magic = c.bytes(4, "magic")?;
    if magic != MAGIC {
        return Err(corrupt(format!("bad magic {magic:02x?}")));
    }
    let version = c.u32_le("format version")?;
    if version != FORMAT_VERSION {
        return Err(corrupt(format!(
            "unsupported compact format version {version} (expected {FORMAT_VERSION})"
        )));
    }
    let meta: RecordingMeta = from_bytes(c.section("meta")?)
        .map_err(|e| corrupt(format!("meta payload undecodable: {e}")))?;
    let initial = from_bytes(c.section("initial checkpoint")?)
        .map_err(|e| corrupt(format!("initial checkpoint undecodable: {e}")))?;
    let count = c.u32_le("epoch count")?;
    // Plausibility: each epoch section costs at least its length prefix
    // and CRC trailer; reject a count that cannot fit before looping.
    let floor = (count as u64).saturating_mul(8);
    let remaining = (c.buf.len() - c.pos) as u64;
    if floor > remaining {
        return Err(corrupt(format!(
            "epoch count {count} implies at least {floor} bytes but only {remaining} remain"
        )));
    }
    let mut epochs = Vec::new();
    for i in 0..count {
        epochs.push(decode_epoch(c.section(&format!("epoch {i}"))?)?);
    }
    if c.pos != c.buf.len() {
        return Err(corrupt(format!(
            "{} trailing bytes after last epoch",
            c.buf.len() - c.pos
        )));
    }
    Ok(Recording {
        meta,
        initial,
        epochs,
    })
}

/// Loads a recording from either container, dispatching on the magic:
/// compact `DPRZ`, or otherwise the recording stream
/// ([`Recording::load`]: a saved recording or a finalized journal).
///
/// A journal loads only when it is *clean* — finalized by a run that
/// completed. A journal left behind by a crash is reported as corrupt
/// here so the data loss is never silent; recover its committed prefix
/// explicitly with `dp salvage` ([`dp_core::JournalReader::salvage`]).
///
/// # Errors
///
/// [`ReplayError::UnsupportedVersion`] for retired or foreign format
/// versions; [`ReplayError::Corrupt`] for unrecognized or malformed
/// containers and for unfinalized journals.
pub fn load_any(buf: &[u8]) -> Result<Recording, ReplayError> {
    if buf.starts_with(&MAGIC) {
        load_compact(buf)
    } else {
        Recording::load(buf)
    }
}

/// [`load_any`] over a reader.
///
/// # Errors
///
/// [`ReplayError::Io`] if the reader fails, otherwise as [`load_any`].
pub fn load_any_reader<R: Read>(mut reader: R) -> Result<Recording, ReplayError> {
    let mut buf = Vec::new();
    reader.read_to_end(&mut buf).map_err(|e| ReplayError::Io {
        detail: e.to_string(),
    })?;
    load_any(&buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_log() -> ScheduleLog {
        let mut log = ScheduleLog::new();
        log.push_slice(Tid(0), 200);
        log.push_slice(Tid(1), 200); // repeat length
        log.push_wake(Tid(2));
        log.push_slice(Tid(1), 200); // repeat again
        log.push_signal(Tid(0), 9);
        log.push_slice(Tid(40), 7); // escaped tid
        log.push_slice(Tid(0), 1_000_000);
        log
    }

    #[test]
    fn v2_roundtrip() {
        let log = sample_log();
        let buf = encode_schedule_compact(&log);
        assert_eq!(decode_schedule_compact(&buf).unwrap(), log);
    }

    #[test]
    fn v2_never_larger_than_v1() {
        let log = sample_log();
        assert!(encode_schedule_compact(&log).len() < codec::encode_schedule(&log).len());
        // Even a single-event log is no larger.
        let mut one = ScheduleLog::new();
        one.push_slice(Tid(0), 3);
        assert!(encode_schedule_compact(&one).len() <= codec::encode_schedule(&one).len());
    }

    #[test]
    fn v2_truncation_and_bad_repeat_are_errors() {
        let log = sample_log();
        let buf = encode_schedule_compact(&log);
        for cut in 1..buf.len() {
            assert!(
                decode_schedule_compact(&buf[..cut]).is_err(),
                "truncation at {cut} not detected"
            );
        }
        // A repeat flag with no previous slice is corrupt.
        let mut bad = Vec::new();
        put_varint(&mut bad, 1);
        bad.push(TAG_SLICE | REPEAT_FLAG);
        assert!(decode_schedule_compact(&bad).is_err());
    }

    #[test]
    fn load_any_rejects_garbage() {
        assert!(load_any(b"").is_err());
        assert!(load_any(b"WAT?xxxxxxxx").is_err());
        assert!(load_any(b"DPRZ").is_err()); // truncated compact container
    }
}
