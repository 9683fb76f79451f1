//! The recording container: `N` parallel, crash-consistent log streams
//! (`DPRS`) with a deterministic merge.
//!
//! Every persisted recording — a saved [`Recording`], a streaming
//! [`crate::JournalWriter`] journal, a sharded journal, a daemon
//! session's journal — is one or more streams in this format. A single
//! stream is simply the `N = 1` case (Taurus-style parallel log streams,
//! where single-stream logging is one stream of many): epoch `i` is
//! appended to stream `i mod N`, and each stream *group-commits* — it
//! flushes once per `batch` of its epochs. A 1-shard stream with a batch
//! of 1 flushes at every commit marker, the classic write-ahead rule. In
//! threaded mode each stream is appended by its own lane thread, so the
//! commit stage only serializes the frames and hands them off; the flush
//! leaves the hot path entirely.
//!
//! ## Stream format (version 4)
//!
//! ```text
//! stream := magic "DPRS" | version u32 le | frame*
//! frame  := tag u8 | len u32 le | payload[len] | crc32(tag|len|payload) u32 le
//!
//! tag 1 HEADER  payload = shard index u32 le ++ shard count u32 le
//!                         ++ program hash u64 le ++ initial hash u64 le
//!                         ++ full u8 ++ (full == 1: wire(meta) ++ wire(initial))
//! tag 2 EPOCH   payload = epoch index u32 le ++ wire(EpochRecord)
//! tag 3 COMMIT  payload = epoch index u32 le ++ crc32(epoch payload) u32 le
//! tag 4 FINAL   payload = total epoch count u32 le    (every stream, on finish)
//! ```
//!
//! `wire(EpochRecord)` carries the schedule and syscall logs as a varint
//! length plus their [`crate::logs::codec`] bytes.
//!
//! Only shard 0 carries the full header (`full == 1`: meta plus the
//! initial checkpoint); every stream carries the identity hashes, so a
//! stray stream can be paired with — or rejected from — its siblings.
//!
//! ## Commit rule and the consistent cross-shard prefix
//!
//! An epoch is **committed** in its stream iff its EPOCH frame is intact
//! (CRC valid, payload decodable, index in sequence for that stream) *and*
//! the immediately following COMMIT frame is intact and names that
//! epoch's index and payload CRC. A torn write can only ever hurt the
//! youngest, uncommitted suffix of a stream.
//!
//! Placement is round-robin, so epoch `i` depends on exactly the epochs
//! `< i`, which sit in known positions of known streams. Salvage walks
//! epochs `0, 1, 2, …`, taking each from the front of stream `i mod N`,
//! and stops at the first epoch that is not committed there: the result
//! is the longest prefix every epoch of which is durable, and it loads
//! **byte-identical** to the recording the sequential driver produced.

use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;

use crate::checkpoint::CheckpointImage;
use crate::error::ReplayError;
use crate::journal::RecordSink;
use crate::recording::{EncodedLogs, EpochRecord, Recording, RecordingMeta};
use dp_support::crc32::crc32;
use dp_support::wire::{Reader, Wire};

/// Stream magic: "DPRS" (DoublePlay Recording Stream).
const MAGIC: [u8; 4] = *b"DPRS";
/// Stream format version; bumped on any layout change. Version 2 switched
/// the log wire form to length-prefixed compact codec payloads; version 3
/// made the stream the only container and dropped the per-epoch
/// dependency vectors (round-robin placement determines them); version 4
/// encodes schedule logs with one lead byte per event
/// ([`crate::logs::codec`]).
const VERSION: u32 = 4;
/// Magics of the containers version 3 retired, with the names their
/// version errors report: the monolithic recording and the single-stream
/// journal.
const RETIRED: [([u8; 4], &str); 2] = [(*b"DPRC", "recording"), (*b"DPRJ", "journal")];

const TAG_HEADER: u8 = 1;
const TAG_EPOCH: u8 = 2;
const TAG_COMMIT: u8 = 3;
const TAG_FINAL: u8 = 4;

/// Tag byte + u32 length prefix.
const FRAME_HEAD: usize = 5;
/// CRC32 trailer.
const FRAME_TAIL: usize = 4;
/// Fixed part of the HEADER payload, before the optional full header.
const HEADER_FIXED: usize = 25;

/// Default group-commit size: epochs per shard between flushes.
pub const DEFAULT_SHARD_BATCH: u32 = 8;

/// The group-commit size a `shards`-stream journal uses: a single stream
/// flushes at every commit marker, so each accepted epoch is durable
/// before [`RecordSink::epoch`] returns; split streams exist to amortize
/// flushes and commit [`DEFAULT_SHARD_BATCH`] epochs per flush.
pub fn group_commit(shards: u32) -> u32 {
    if shards <= 1 {
        1
    } else {
        DEFAULT_SHARD_BATCH
    }
}

/// Appends one framed record (`tag | len | payload | crc32`) to `out`.
fn put_frame(out: &mut Vec<u8>, tag: u8, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len()).map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame payload of {} bytes exceeds u32", payload.len()),
        )
    })?;
    let start = out.len();
    out.reserve(FRAME_HEAD + payload.len() + FRAME_TAIL);
    out.push(tag);
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(payload);
    let crc = crc32(&out[start..]);
    out.extend_from_slice(&crc.to_le_bytes());
    Ok(())
}

/// One framed record as bytes.
fn frame(tag: u8, payload: &[u8]) -> io::Result<Vec<u8>> {
    let mut out = Vec::new();
    put_frame(&mut out, tag, payload)?;
    Ok(out)
}

/// One intact frame: tag, payload slice, and the offset just past it.
struct Frame<'a> {
    tag: u8,
    payload: &'a [u8],
    end: usize,
}

/// Reads the frame at `pos`, validating bounds and CRC. `None` means the
/// bytes from `pos` on do not form an intact frame — truncation, a torn
/// write, or corruption; salvage treats all three identically.
fn read_frame(buf: &[u8], pos: usize) -> Option<Frame<'_>> {
    let head = buf.get(pos..pos.checked_add(FRAME_HEAD)?)?;
    let len = u32::from_le_bytes([head[1], head[2], head[3], head[4]]) as usize;
    let payload_end = pos.checked_add(FRAME_HEAD)?.checked_add(len)?;
    let end = payload_end.checked_add(FRAME_TAIL)?;
    let stored = buf.get(payload_end..end)?;
    if u32::from_le_bytes([stored[0], stored[1], stored[2], stored[3]])
        != crc32(&buf[pos..payload_end])
    {
        return None;
    }
    Some(Frame {
        tag: head[0],
        payload: &buf[pos + FRAME_HEAD..payload_end],
        end,
    })
}

fn u32_at(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([b[at], b[at + 1], b[at + 2], b[at + 3]])
}

fn u64_at(b: &[u8], at: usize) -> u64 {
    u64::from(u32_at(b, at)) | (u64::from(u32_at(b, at + 4)) << 32)
}

/// What a lane carries per hand-off: bytes to append, how many epoch
/// commits they contain (group-commit ticks), and whether to flush
/// unconditionally (header and final frames — durability points).
struct LaneMsg {
    bytes: Vec<u8>,
    ticks: u32,
    force_flush: bool,
}

/// One stream's writer: either written inline by the caller of
/// [`RecordSink::epoch`] or by a dedicated lane thread (the commit stage
/// only serializes and sends).
enum Lane<W> {
    Inline {
        w: W,
        /// Epoch commits appended since the last flush.
        pending: u32,
    },
    Threaded {
        tx: mpsc::Sender<LaneMsg>,
        handle: JoinHandle<W>,
    },
}

/// Streams a recording into `N` streams with per-stream group commit.
/// Implements [`RecordSink`], so both recording drivers accept it.
///
/// Byte determinism: every stream's bytes are a pure function of the
/// epoch sequence and the shard count (frames are serialized by the
/// committing caller, in commit order, before any hand-off), so threading
/// and the batch size change *when* bytes become durable, never *which*
/// bytes the streams contain.
pub struct ShardedJournalWriter<W: Write> {
    lanes: Vec<Lane<W>>,
    shared: LaneShared,
    epochs: u32,
    written: u64,
}

impl<W: Write> ShardedJournalWriter<W> {
    /// Wraps one writer per shard (appends and flushes happen inline on
    /// the committing thread) and writes each stream's preamble. `batch`
    /// is the group-commit size; 0 is treated as 1 (flush per epoch).
    ///
    /// # Errors
    ///
    /// `InvalidInput` when `writers` is empty; I/O failures from the
    /// preamble writes.
    pub fn new(writers: Vec<W>, batch: u32) -> io::Result<Self> {
        Self::open(writers, batch, None, |_, w, _| Ok(inline(w)))
    }

    /// Wraps writers already holding exactly the merged prefix of
    /// `salvaged` — the caller has truncated stream `t` to
    /// `salvaged.shard_keep[t]` — and positions the writer (inline lanes)
    /// to append epoch `salvaged.committed()` onward. No preamble or
    /// header frame is rewritten; every stream continues byte-for-byte
    /// where its durable prefix ended.
    ///
    /// # Errors
    ///
    /// `InvalidInput` when the writer count disagrees with the salvage's
    /// shard count or any stream was missing from the salvage (resume
    /// needs all of them).
    pub fn resume(writers: Vec<W>, batch: u32, salvaged: &Salvaged) -> io::Result<Self> {
        Self::open(writers, batch, Some(salvaged), |_, w, _| Ok(inline(w)))
    }

    /// The one constructor: validates the request, builds a lane per
    /// writer with `lane`, and either writes every stream's preamble
    /// (fresh journal) or positions after `from`'s merged prefix.
    fn open(
        writers: Vec<W>,
        batch: u32,
        from: Option<&Salvaged>,
        mut lane: impl FnMut(usize, W, &LaneShared) -> io::Result<Lane<W>>,
    ) -> io::Result<Self> {
        let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidInput, msg);
        if writers.is_empty() {
            return Err(invalid("a journal needs at least one stream".into()));
        }
        let (epochs, written) = match from {
            None => (0, 0),
            Some(s) => {
                if writers.len() != s.shard_count as usize {
                    return Err(invalid(format!(
                        "{} writers for a {}-shard journal",
                        writers.len(),
                        s.shard_count
                    )));
                }
                let mut total = 0u64;
                for (t, keep) in s.shard_keep.iter().enumerate() {
                    let keep =
                        keep.ok_or_else(|| invalid(format!("shard {t} stream is missing")))?;
                    total += keep as u64;
                }
                (s.committed() as u32, total)
            }
        };
        let shared = LaneShared {
            batch: batch.max(1),
            flushes: Arc::new(AtomicU64::new(0)),
            lane_err: Arc::new(Mutex::new(None)),
        };
        let lanes = writers
            .into_iter()
            .enumerate()
            .map(|(shard, w)| lane(shard, w, &shared))
            .collect::<io::Result<Vec<_>>>()?;
        let mut this = ShardedJournalWriter {
            lanes,
            shared,
            epochs,
            written,
        };
        if from.is_none() {
            let mut pre = Vec::with_capacity(8);
            pre.extend_from_slice(&MAGIC);
            pre.extend_from_slice(&VERSION.to_le_bytes());
            for shard in 0..this.lanes.len() {
                this.lane_write(shard, pre.clone(), 0, false)?;
            }
        }
        Ok(this)
    }

    /// Shard count.
    pub fn shard_count(&self) -> u32 {
        self.lanes.len() as u32
    }

    /// Epochs committed so far.
    pub fn epochs_committed(&self) -> u32 {
        self.epochs
    }

    /// Total bytes handed to the streams (the write-overhead metric).
    pub fn bytes_written(&self) -> u64 {
        self.written
    }

    /// Flushes issued across all shards so far. In threaded mode lane
    /// flushes race this read; the count is exact once the writer is
    /// consumed by [`into_writers`](ShardedJournalWriter::into_writers).
    pub fn flushes(&self) -> u64 {
        self.shared.flushes.load(Ordering::SeqCst)
    }

    /// Appends `bytes` to `shard`, advancing the group-commit state by
    /// `ticks` epoch commits; `force_flush` flushes unconditionally.
    fn lane_write(
        &mut self,
        shard: usize,
        bytes: Vec<u8>,
        ticks: u32,
        force_flush: bool,
    ) -> io::Result<()> {
        self.written += bytes.len() as u64;
        match &mut self.lanes[shard] {
            Lane::Inline { w, pending } => {
                w.write_all(&bytes)?;
                *pending += ticks;
                if force_flush || *pending >= self.shared.batch {
                    w.flush()?;
                    *pending = 0;
                    self.shared.flushes.fetch_add(1, Ordering::SeqCst);
                }
                Ok(())
            }
            Lane::Threaded { tx, .. } => tx
                .send(LaneMsg {
                    bytes,
                    ticks,
                    force_flush,
                })
                .map_err(|_| io::Error::other("shard lane thread exited early")),
        }
    }

    /// Appends one epoch: in-order check, shard assignment, then the
    /// EPOCH frame (`put` serializes the record into it in place) and the
    /// COMMIT frame, handed to the lane in one piece. Shared by both
    /// [`RecordSink`] entry points so the commit rule is stated once.
    fn append_epoch(&mut self, index: u32, put: impl FnOnce(&mut Vec<u8>)) -> io::Result<()> {
        self.check_lanes()?;
        // The RecordSink in-order contract: shard assignment is a function
        // of the commit order, so an out-of-order epoch is a commit-stage
        // bug and must surface here, not as an unreplayable journal.
        if index != self.epochs {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "out-of-order epoch {index} (journal expects {})",
                    self.epochs
                ),
            ));
        }
        let shard = (index % self.shard_count()) as usize;
        let mut buf = vec![TAG_EPOCH, 0, 0, 0, 0];
        buf.extend_from_slice(&index.to_le_bytes());
        put(&mut buf);
        let len = u32::try_from(buf.len() - FRAME_HEAD).map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("epoch {index} of {} bytes exceeds u32", buf.len()),
            )
        })?;
        buf[1..FRAME_HEAD].copy_from_slice(&len.to_le_bytes());
        let mut commit = [0u8; 8];
        commit[..4].copy_from_slice(&index.to_le_bytes());
        commit[4..].copy_from_slice(&crc32(&buf[FRAME_HEAD..]).to_le_bytes());
        let crc = crc32(&buf);
        buf.extend_from_slice(&crc.to_le_bytes());
        put_frame(&mut buf, TAG_COMMIT, &commit)?;
        // One hand-off per epoch: frame and commit marker appended
        // together, flushed at the shard's group-commit boundary.
        self.lane_write(shard, buf, 1, false)?;
        self.epochs += 1;
        Ok(())
    }

    fn check_lanes(&self) -> io::Result<()> {
        self.shared.check()
    }

    /// Consumes the writer and returns the stream writers, joining lane
    /// threads (threaded mode) so all buffered bytes are flushed first.
    ///
    /// # Errors
    ///
    /// The first lane error, if any stream failed.
    pub fn into_writers(self) -> io::Result<Vec<W>> {
        let mut out = Vec::with_capacity(self.lanes.len());
        for lane in self.lanes {
            match lane {
                Lane::Inline { w, .. } => out.push(w),
                Lane::Threaded { tx, handle } => {
                    drop(tx);
                    out.push(
                        handle
                            .join()
                            .map_err(|_| io::Error::other("shard lane thread panicked"))?,
                    );
                }
            }
        }
        self.shared.check().map(|()| out)
    }
}

impl<W: Write + Send + 'static> ShardedJournalWriter<W> {
    /// Like [`new`](ShardedJournalWriter::new), but each stream is
    /// appended by its own lane thread: [`RecordSink::epoch`] only
    /// serializes the frames and hands them off, so neither the append
    /// nor the group-commit flush ever stalls the commit stage. Lane
    /// errors surface on the next sink call (or at
    /// [`into_writers`](ShardedJournalWriter::into_writers)).
    ///
    /// # Errors
    ///
    /// `InvalidInput` when `writers` is empty; a lane thread that cannot
    /// be spawned.
    pub fn threaded(writers: Vec<W>, batch: u32) -> io::Result<Self> {
        Self::open(writers, batch, None, |shard, w, shared| {
            let (tx, rx) = mpsc::channel::<LaneMsg>();
            let batch = shared.batch;
            let flushes = Arc::clone(&shared.flushes);
            let lane_err = Arc::clone(&shared.lane_err);
            let handle = std::thread::Builder::new()
                .name(format!("dprs-lane-{shard}"))
                .spawn(move || lane_loop(w, &rx, batch, &flushes, &lane_err))?;
            Ok(Lane::Threaded { tx, handle })
        })
    }
}

/// State every lane of one writer shares.
struct LaneShared {
    /// Group-commit size: epoch commits per stream between flushes.
    batch: u32,
    /// Flushes issued across all lanes (the E15 amortization metric).
    flushes: Arc<AtomicU64>,
    /// First error observed by a lane thread, surfaced on the next call.
    lane_err: Arc<Mutex<Option<String>>>,
}

impl LaneShared {
    /// The first error a lane thread parked, as an `io::Error`.
    fn check(&self) -> io::Result<()> {
        match self.lane_err.lock() {
            Ok(slot) => slot.as_ref().map_or(Ok(()), |msg| {
                Err(io::Error::other(format!("shard lane failed: {msg}")))
            }),
            Err(_) => Err(io::Error::other("shard lane error slot poisoned")),
        }
    }
}

fn inline<W>(w: W) -> Lane<W> {
    Lane::Inline { w, pending: 0 }
}

/// Lane-thread body: append, count commits, group-commit flush. On error
/// the lane parks the message in the shared slot and keeps draining (the
/// writer surfaces it on its next call); the writer is always returned so
/// callers can inspect whatever bytes it holds.
fn lane_loop<W: Write>(
    mut w: W,
    rx: &mpsc::Receiver<LaneMsg>,
    batch: u32,
    flushes: &AtomicU64,
    lane_err: &Mutex<Option<String>>,
) -> W {
    let mut pending = 0u32;
    let mut dead = false;
    while let Ok(msg) = rx.recv() {
        if dead {
            continue;
        }
        let r = (|| -> io::Result<()> {
            w.write_all(&msg.bytes)?;
            pending += msg.ticks;
            if msg.force_flush || pending >= batch {
                w.flush()?;
                pending = 0;
                flushes.fetch_add(1, Ordering::SeqCst);
            }
            Ok(())
        })();
        if let Err(e) = r {
            // A poisoned slot already reports a failure to the writer.
            if let Ok(mut slot) = lane_err.lock() {
                slot.get_or_insert_with(|| e.to_string());
            }
            dead = true;
        }
    }
    w
}

impl<W: Write> RecordSink for ShardedJournalWriter<W> {
    fn begin(&mut self, meta: &RecordingMeta, initial: &CheckpointImage) -> io::Result<()> {
        self.check_lanes()?;
        let shards = self.shard_count();
        for shard in 0..shards {
            let full = shard == 0;
            let mut payload = Vec::new();
            payload.extend_from_slice(&shard.to_le_bytes());
            payload.extend_from_slice(&shards.to_le_bytes());
            payload.extend_from_slice(&meta.program_hash.to_le_bytes());
            payload.extend_from_slice(&meta.initial_machine_hash.to_le_bytes());
            payload.push(u8::from(full));
            if full {
                meta.put(&mut payload);
                initial.put(&mut payload);
            }
            // The header is a durability point: a stream whose header
            // never reached the device contributes nothing.
            self.lane_write(shard as usize, frame(TAG_HEADER, &payload)?, 0, true)?;
        }
        Ok(())
    }

    fn epoch(&mut self, epoch: &EpochRecord) -> io::Result<()> {
        self.append_epoch(epoch.index, |out| epoch.put(out))
    }

    fn epoch_encoded(&mut self, epoch: &EpochRecord, logs: &EncodedLogs) -> io::Result<()> {
        self.append_epoch(epoch.index, |out| epoch.put_with(logs, out))
    }

    fn finish(&mut self) -> io::Result<()> {
        self.check_lanes()?;
        let final_frame = frame(TAG_FINAL, &self.epochs.to_le_bytes())?;
        for shard in 0..self.lanes.len() {
            // Force-flush: finish drains every stream's group-commit
            // buffer, so a clean run is fully durable.
            self.lane_write(shard, final_frame.clone(), 0, true)?;
        }
        Ok(())
    }
}

/// What one stream's salvage scan recovered.
struct ShardScan {
    shard: u32,
    shards: u32,
    program_hash: u64,
    initial_hash: u64,
    header: Option<(RecordingMeta, CheckpointImage)>,
    /// Committed epochs in stream order.
    epochs: Vec<EpochRecord>,
    /// Per committed epoch, the stream offset just past its COMMIT frame
    /// (parallel to `epochs`) — the candidate truncation points for
    /// append-reopen.
    commit_ends: Vec<usize>,
    /// Stream offset just past the header frame.
    header_end: usize,
    final_count: Option<u32>,
    salvaged_bytes: usize,
    dropped_bytes: usize,
}

/// Scans one stream, applying the per-stream commit rule. Errors are
/// [`ReplayError::UnsupportedVersion`] for a foreign format version or a
/// retired container, and [`ReplayError::Corrupt`] only when the stream
/// is unusable outright (bad magic, torn header) — a torn tail just ends
/// the scan.
fn scan_shard(buf: &[u8]) -> Result<ShardScan, ReplayError> {
    let corrupt = |detail: String| ReplayError::Corrupt { detail };
    if buf.len() < 8 {
        return Err(corrupt(format!(
            "too short to be a recording stream ({} bytes)",
            buf.len()
        )));
    }
    let found = u32_at(buf, 4);
    if let Some((_, container)) = RETIRED.iter().find(|(m, _)| buf[..4] == *m) {
        return Err(ReplayError::UnsupportedVersion {
            container,
            found,
            expected: VERSION,
        });
    }
    if buf[..4] != MAGIC {
        return Err(corrupt(format!("bad stream magic {:02x?}", &buf[..4])));
    }
    if found != VERSION {
        return Err(ReplayError::UnsupportedVersion {
            container: "recording stream",
            found,
            expected: VERSION,
        });
    }
    let head = read_frame(buf, 8)
        .filter(|f| f.tag == TAG_HEADER && f.payload.len() >= HEADER_FIXED)
        .ok_or_else(|| corrupt("stream header frame missing or torn".into()))?;
    let p = head.payload;
    let (shard, shards) = (u32_at(p, 0), u32_at(p, 4));
    if shards == 0 || shard >= shards {
        return Err(corrupt(format!(
            "stream header names shard {shard} of {shards}"
        )));
    }
    let header = if p[24] == 1 {
        let mut r = Reader::new(&p[HEADER_FIXED..]);
        let meta = RecordingMeta::get(&mut r)
            .map_err(|e| corrupt(format!("stream header meta undecodable: {e}")))?;
        let initial = CheckpointImage::get(&mut r)
            .map_err(|e| corrupt(format!("stream header checkpoint undecodable: {e}")))?;
        if !r.is_empty() {
            return Err(corrupt(format!(
                "{} trailing bytes inside stream header frame",
                r.remaining()
            )));
        }
        Some((meta, initial))
    } else {
        None
    };

    let mut epochs: Vec<EpochRecord> = Vec::new();
    let mut commit_ends: Vec<usize> = Vec::new();
    let mut final_count = None;
    let mut pos = head.end;
    while let Some(frame) = read_frame(buf, pos) {
        match frame.tag {
            TAG_EPOCH if frame.payload.len() >= 4 => {
                let index = u32_at(frame.payload, 0);
                let Ok(epoch) = dp_support::wire::from_bytes::<EpochRecord>(&frame.payload[4..])
                else {
                    break;
                };
                // Stamp, record, and placement must agree: this stream
                // holds epochs shard, shard + N, shard + 2N, … in order.
                if epoch.index != index || index != shard + epochs.len() as u32 * shards {
                    break;
                }
                let payload_crc = crc32(frame.payload);
                let Some(commit) = read_frame(buf, frame.end).filter(|c| {
                    c.tag == TAG_COMMIT
                        && c.payload.len() == 8
                        && u32_at(c.payload, 0) == index
                        && u32_at(c.payload, 4) == payload_crc
                }) else {
                    break;
                };
                epochs.push(epoch);
                commit_ends.push(commit.end);
                pos = commit.end;
            }
            TAG_FINAL => {
                if frame.payload.len() == 4 {
                    final_count = Some(u32_at(frame.payload, 0));
                }
                pos = frame.end;
                break;
            }
            _ => break,
        }
    }
    Ok(ShardScan {
        shard,
        shards,
        program_hash: u64_at(p, 8),
        initial_hash: u64_at(p, 16),
        header,
        epochs,
        commit_ends,
        header_end: head.end,
        final_count,
        salvaged_bytes: pos,
        dropped_bytes: buf.len() - pos,
    })
}

/// What a salvage scan recovered from a recording's streams.
#[derive(Debug)]
pub struct Salvaged {
    /// The merged recording: header plus the longest committed epoch
    /// prefix, byte-identical (when saved) to the sequential driver's
    /// output over the same prefix. Always valid and replayable (possibly
    /// zero epochs).
    pub recording: Recording,
    /// True when every stream is present, finalized with the same epoch
    /// count, and the whole run merged — nothing was lost.
    pub clean: bool,
    /// Shard count the streams declare.
    pub shard_count: u32,
    /// Bytes consumed as valid frames, summed over streams.
    pub salvaged_bytes: usize,
    /// Trailing bytes dropped (torn frame, uncommitted epoch, garbage),
    /// summed over streams.
    pub dropped_bytes: usize,
    /// Epochs durable in some stream but outside the merged prefix (an
    /// earlier epoch died in a sibling stream).
    pub dropped_epochs: usize,
    /// Per stream, the byte offset to truncate it to for append-reopen
    /// resume: just past the COMMIT frame of the stream's last epoch
    /// *inside the merged prefix* (the header's end when the prefix
    /// assigned it no epochs). Everything past it — a torn frame, an
    /// uncommitted epoch, even a bogus FINAL marker — is tail to drop.
    /// `None` for a stream that was missing or unusable — resume needs
    /// every stream, so any `None` forbids it.
    pub shard_keep: Vec<Option<usize>>,
    /// Why the merge stopped, for operator-facing reporting.
    pub detail: String,
}

impl Salvaged {
    /// Epochs recovered into the merged prefix.
    pub fn committed(&self) -> usize {
        self.recording.epochs.len()
    }
}

/// Parses recording streams, including ones a crash left behind.
pub struct JournalReader;

impl JournalReader {
    /// Salvages a single-stream recording: [`salvage_shards`] over one
    /// buffer. Works on intact recordings (`clean == true` when
    /// finalized) and on any crash-truncated or tail-corrupted prefix.
    ///
    /// # Errors
    ///
    /// As [`salvage_shards`].
    ///
    /// [`salvage_shards`]: JournalReader::salvage_shards
    pub fn salvage(buf: &[u8]) -> Result<Salvaged, ReplayError> {
        Self::salvage_shards(&[buf])
    }

    /// Merges a recording's streams back into a [`Recording`]: salvages
    /// each stream independently (commit rule per stream), then takes the
    /// longest epoch prefix every epoch of which is committed in its
    /// stream — the longest consistent cross-shard prefix.
    ///
    /// `bufs` may arrive in any order (streams carry their own shard
    /// index); a missing or individually unsalvageable stream simply
    /// bounds the prefix at its first assigned epoch.
    ///
    /// # Errors
    ///
    /// [`ReplayError::UnsupportedVersion`] when no stream is usable and
    /// one was written by a different format version (including the
    /// retired `DPRC` and `DPRJ` containers); [`ReplayError::Corrupt`]
    /// when nothing else is reconstructible: no usable stream,
    /// conflicting shard sets, or shard 0 (the full header) lost —
    /// without meta and the initial checkpoint there is no valid
    /// `Recording` to build. Never panics, whatever the input.
    pub fn salvage_shards<B: AsRef<[u8]>>(bufs: &[B]) -> Result<Salvaged, ReplayError> {
        let corrupt = |detail: String| ReplayError::Corrupt { detail };
        let mut scans: Vec<ShardScan> = Vec::new();
        let mut failures: Vec<ReplayError> = Vec::new();
        for buf in bufs {
            match scan_shard(buf.as_ref()) {
                Ok(s) => scans.push(s),
                Err(e) => failures.push(e),
            }
        }
        let Some(first) = scans.first() else {
            if let Some(i) = failures
                .iter()
                .position(|e| matches!(e, ReplayError::UnsupportedVersion { .. }))
            {
                return Err(failures.swap_remove(i));
            }
            let why: Vec<String> = failures.iter().map(ToString::to_string).collect();
            return Err(corrupt(format!("no usable stream ({})", why.join("; "))));
        };
        let shards = first.shards;
        for s in &scans {
            if s.shards != shards {
                return Err(corrupt(format!(
                    "conflicting shard counts ({} vs {shards})",
                    s.shards
                )));
            }
            if s.program_hash != first.program_hash || s.initial_hash != first.initial_hash {
                return Err(corrupt(format!(
                    "shard {} belongs to a different recording",
                    s.shard
                )));
            }
        }
        // Place scans by their declared index; duplicates are conflicts.
        let mut by_shard: Vec<Option<ShardScan>> = (0..shards).map(|_| None).collect();
        for s in scans {
            let slot = &mut by_shard[s.shard as usize];
            if slot.is_some() {
                return Err(corrupt(format!("two streams claim shard {}", s.shard)));
            }
            *slot = Some(s);
        }
        let (meta, initial) = by_shard[0]
            .as_mut()
            .and_then(|s| s.header.take())
            .ok_or_else(|| corrupt("shard 0 (the full-header stream) is missing".into()))?;

        let present = by_shard.iter().flatten();
        let salvaged_bytes: usize = present.clone().map(|s| s.salvaged_bytes).sum();
        let dropped_bytes: usize = present.clone().map(|s| s.dropped_bytes).sum();
        let total_durable: usize = present.map(|s| s.epochs.len()).sum();

        // The merge walk: epoch i is the next committed epoch of stream
        // i mod N (each stream holds its epochs in index order).
        let mut taken: Vec<usize> = vec![0; shards as usize];
        let mut streams: Vec<Option<std::vec::IntoIter<EpochRecord>>> = by_shard
            .iter_mut()
            .map(|s| {
                s.as_mut()
                    .map(|s| std::mem::take(&mut s.epochs).into_iter())
            })
            .collect();
        let mut epochs: Vec<EpochRecord> = Vec::new();
        let detail = loop {
            let i = epochs.len();
            let t = i % shards as usize;
            let Some(stream) = streams[t].as_mut() else {
                break format!("epoch {i}: shard {t} stream is missing");
            };
            let Some(record) = stream.next() else {
                break format!("epoch {i} not committed in shard {t}");
            };
            taken[t] += 1;
            epochs.push(record);
            if epochs.len() == u32::MAX as usize {
                break "epoch index space exhausted".to_string();
            }
        };

        let merged = epochs.len();
        // Truncation points: each present stream keeps exactly the commits
        // the merged prefix consumed from it.
        let shard_keep: Vec<Option<usize>> = by_shard
            .iter()
            .zip(&taken)
            .map(|(s, &n)| {
                s.as_ref()
                    .map(|s| n.checked_sub(1).map_or(s.header_end, |k| s.commit_ends[k]))
            })
            .collect();
        let clean = failures.is_empty()
            && total_durable == merged
            && by_shard
                .iter()
                .all(|s| s.as_ref().and_then(|s| s.final_count) == Some(merged as u32));
        Ok(Salvaged {
            recording: Recording {
                meta,
                initial,
                epochs,
            },
            clean,
            shard_count: shards,
            salvaged_bytes,
            dropped_bytes,
            dropped_epochs: total_durable - merged,
            shard_keep,
            detail: if clean {
                "clean completion".to_string()
            } else {
                detail
            },
        })
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DoublePlayConfig;
    use crate::journal::JournalWriter;
    use crate::record::coordinator::record_to;
    use crate::record::testutil::{atomic_counter_spec, racy_counter_spec};

    /// Records `spec` through an inline sharded writer and returns the shard
    /// streams plus, per epoch, its shard and that shard's stream length
    /// right after the epoch's hand-off (the per-shard commit offsets —
    /// group commit makes no difference to a byte-granular store).
    fn sharded_solo(
        spec: &crate::world::GuestSpec,
        config: &DoublePlayConfig,
        shards: u32,
        batch: u32,
    ) -> (Vec<Vec<u8>>, Vec<(usize, u64)>) {
        struct Tap {
            w: ShardedJournalWriter<Vec<u8>>,
            offsets: Vec<(usize, u64)>,
        }
        impl RecordSink for Tap {
            fn begin(&mut self, meta: &RecordingMeta, initial: &CheckpointImage) -> io::Result<()> {
                self.w.begin(meta, initial)
            }
            fn epoch(&mut self, e: &EpochRecord) -> io::Result<()> {
                let shard = (e.index % self.w.shard_count()) as usize;
                self.w.epoch(e)?;
                let len = match &self.w.lanes[shard] {
                    Lane::Inline { w, .. } => w.len() as u64,
                    Lane::Threaded { .. } => unreachable!("inline tap"),
                };
                self.offsets.push((shard, len));
                Ok(())
            }
            fn finish(&mut self) -> io::Result<()> {
                self.w.finish()
            }
        }
        let writers = (0..shards).map(|_| Vec::new()).collect();
        let mut tap = Tap {
            w: ShardedJournalWriter::new(writers, batch).unwrap(),
            offsets: Vec::new(),
        };
        record_to(spec, config, &mut tap).unwrap();
        (tap.w.into_writers().unwrap(), tap.offsets)
    }

    /// The byte-identity acceptance sweep: for seeds × workers × shard
    /// counts × fault plans, the sharded journal merges to a `Recording`
    /// whose saved bytes equal the sequential driver's.
    #[test]
    fn sharded_merge_is_byte_identical_to_sequential_across_sweep() {
        crate::faults::silence_injected_panics();
        for seed in 0..3u64 {
            for &workers in &[1usize, 2] {
                for &shards in &[2u32, 3, 5] {
                    for &faulty in &[false, true] {
                        // Two regimes: a racy guest tuned to diverge (the
                        // forward-recovery path), and an atomic guest with
                        // injected worker panics over many short epochs.
                        let (spec, config) = if faulty {
                            (
                                atomic_counter_spec(1_500, 2),
                                DoublePlayConfig::new(2)
                                    .epoch_cycles(4_000)
                                    .hidden_seed(seed)
                                    // Plan seed is fixed: the panic draw
                                    // is a pure function of (plan seed,
                                    // epoch, attempt), and this seed is
                                    // known to stay within the retry
                                    // budget for this guest.
                                    .faults(
                                        crate::faults::FaultPlan::none()
                                            .seed(5)
                                            .worker_panics_with(0.3),
                                    ),
                            )
                        } else {
                            (
                                racy_counter_spec(3_000),
                                DoublePlayConfig {
                                    tp_quantum: 200,
                                    tp_jitter: 300,
                                    ..DoublePlayConfig::new(2)
                                        .epoch_cycles(20_000)
                                        .hidden_seed(seed)
                                },
                            )
                        };
                        let config = config.spare_workers(workers).pipelined(workers > 0);
                        // Sequential single-stream reference.
                        let mut seq_journal = JournalWriter::new(Vec::new()).unwrap();
                        let seq =
                            record_to(&spec, &config.pipelined(false), &mut seq_journal).unwrap();
                        // Sharded pipelined run.
                        let (streams, _) = sharded_solo(&spec, &config, shards, 4);
                        let merged = JournalReader::salvage_shards(&streams).unwrap();
                        assert!(merged.clean, "detail: {}", merged.detail);
                        assert_eq!(merged.dropped_epochs, 0);
                        assert_eq!(merged.shard_count, shards);
                        let mut seq_bytes = Vec::new();
                        let mut sharded_bytes = Vec::new();
                        seq.recording.save(&mut seq_bytes).unwrap();
                        merged.recording.save(&mut sharded_bytes).unwrap();
                        assert_eq!(
                            seq_bytes, sharded_bytes,
                            "merge diverged (seed={seed} workers={workers} \
                             shards={shards} faulty={faulty})"
                        );
                    }
                }
            }
        }
    }

    /// Crash sweep: cutting every shard's stream after each of its commits
    /// (siblings intact) always yields exactly the consistent prefix.
    #[test]
    fn every_shard_prefix_merges_to_the_consistent_prefix() {
        let spec = atomic_counter_spec(4_000, 2);
        let config = DoublePlayConfig::new(2).epoch_cycles(1_500);
        let shards = 3u32;
        let (streams, offsets) = sharded_solo(&spec, &config, shards, 2);
        let epochs = offsets.len();
        assert!(epochs >= 6, "need several epochs per shard");
        // Cut shard `cut_shard` after `keep` of its epochs; siblings stay
        // complete. The consistent prefix must stop at the first epoch
        // assigned to the cut shard beyond `keep`.
        for cut_shard in 0..shards as usize {
            let ends: Vec<u64> = offsets
                .iter()
                .filter(|(s, _)| *s == cut_shard)
                .map(|(_, o)| *o)
                .collect();
            for (keep, &end) in ends.iter().enumerate() {
                let mut bufs = streams.clone();
                bufs[cut_shard].truncate(end as usize - 1);
                let merged = JournalReader::salvage_shards(&bufs).unwrap();
                // `keep` commits survive in the cut shard (the (keep+1)-th
                // is torn), so the prefix ends at that shard's epoch
                // number `keep`: global index cut_shard + keep*N.
                let expect = (cut_shard + keep * shards as usize).min(epochs);
                assert_eq!(
                    merged.committed(),
                    expect,
                    "cut shard {cut_shard} after {keep} commits"
                );
                assert!(!merged.clean);
                assert_eq!(
                    merged.dropped_epochs,
                    epochs - (epochs - expect).div_ceil(shards as usize) - expect,
                    "cut shard {cut_shard} keep {keep}: durable-but-dropped count"
                );
            }
        }
    }

    #[test]
    fn resume_continues_shard_streams_byte_identically() {
        let spec = atomic_counter_spec(4_000, 2);
        let config = DoublePlayConfig::new(2).epoch_cycles(1_500);
        let shards = 3u32;
        let (full_streams, offsets) = sharded_solo(&spec, &config, shards, 2);
        let full = JournalReader::salvage_shards(&full_streams).unwrap();
        assert!(full.clean);
        // Crash: tear shard 1 after one commit; siblings stay intact. The
        // merged prefix stops at shard 1's next assigned epoch, so intact
        // siblings carry durable-but-unusable commits past it.
        let cut_shard = 1usize;
        let ends: Vec<u64> = offsets
            .iter()
            .filter(|(s, _)| *s == cut_shard)
            .map(|(_, o)| *o)
            .collect();
        let mut torn = full_streams.clone();
        torn[cut_shard].truncate(ends[1] as usize - 1);
        let salvaged = JournalReader::salvage_shards(&torn).unwrap();
        assert!(!salvaged.clean);
        let committed = salvaged.committed();
        assert!(committed < full.committed());
        assert!(salvaged.dropped_epochs > 0);
        let truncate_to_keep = |salv: &Salvaged| -> Vec<Vec<u8>> {
            torn.iter()
                .enumerate()
                .map(|(t, s)| s[..salv.shard_keep[t].unwrap()].to_vec())
                .collect()
        };
        // Resume: truncate each stream to its keep point, append the
        // missing tail, finish — byte-identical to the uninterrupted run.
        let mut w =
            ShardedJournalWriter::resume(truncate_to_keep(&salvaged), 2, &salvaged).unwrap();
        assert_eq!(w.epochs_committed() as usize, committed);
        for e in &full.recording.epochs[committed..] {
            w.epoch(e).unwrap();
        }
        w.finish().unwrap();
        assert_eq!(w.into_writers().unwrap(), full_streams);
        // The batch size changes flush timing, never bytes.
        let mut w =
            ShardedJournalWriter::resume(truncate_to_keep(&salvaged), 4, &salvaged).unwrap();
        for e in &full.recording.epochs[committed..] {
            w.epoch(e).unwrap();
        }
        w.finish().unwrap();
        assert_eq!(w.into_writers().unwrap(), full_streams);
        // A missing sibling stream forbids resume outright.
        let headerless = JournalReader::salvage_shards(&[torn[0].clone()]).unwrap();
        assert!(headerless.shard_keep.iter().any(Option::is_none));
        match ShardedJournalWriter::resume(vec![Vec::<u8>::new(); shards as usize], 2, &headerless)
        {
            Ok(_) => panic!("resume with a missing stream must fail"),
            Err(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidInput),
        }
        // So does a writer-count mismatch.
        match ShardedJournalWriter::resume(vec![Vec::<u8>::new()], 2, &salvaged) {
            Ok(_) => panic!("resume with a writer-count mismatch must fail"),
            Err(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidInput),
        }
    }

    #[test]
    fn threaded_lanes_produce_identical_streams() {
        let spec = atomic_counter_spec(1_200, 2);
        let config = DoublePlayConfig::new(2).epoch_cycles(2_500);
        let (sync_streams, _) = sharded_solo(&spec, &config, 4, 8);
        let writers = (0..4).map(|_| Vec::new()).collect();
        let mut w = ShardedJournalWriter::threaded(writers, 8).unwrap();
        record_to(&spec, &config, &mut w).unwrap();
        assert!(w.flushes() >= 4, "headers alone flush once per shard");
        let threaded_streams = w.into_writers().unwrap();
        assert_eq!(sync_streams, threaded_streams);
    }

    #[test]
    fn group_commit_amortizes_flushes() {
        use std::sync::atomic::AtomicU64;

        struct CountingSink(Vec<u8>, Arc<AtomicU64>);
        impl Write for CountingSink {
            fn write(&mut self, data: &[u8]) -> io::Result<usize> {
                self.0.extend_from_slice(data);
                Ok(data.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                self.1.fetch_add(1, Ordering::SeqCst);
                Ok(())
            }
        }
        let spec = atomic_counter_spec(2_000, 2);
        let config = DoublePlayConfig::new(2).epoch_cycles(1_500);
        // Single-stream: one flush per epoch plus header and final.
        let single_flushes = Arc::new(AtomicU64::new(0));
        let mut single =
            JournalWriter::new(CountingSink(Vec::new(), Arc::clone(&single_flushes))).unwrap();
        let bundle = record_to(&spec, &config, &mut single).unwrap();
        let epochs = bundle.stats.committed;
        assert!(epochs >= 8, "need enough epochs to amortize");
        assert_eq!(single_flushes.load(Ordering::SeqCst), epochs + 2);
        // Sharded, batch 8: headers + finals + ~epochs/8 group commits.
        let shard_flushes = Arc::new(AtomicU64::new(0));
        let writers = (0..2)
            .map(|_| CountingSink(Vec::new(), Arc::clone(&shard_flushes)))
            .collect();
        let mut sharded = ShardedJournalWriter::new(writers, 8).unwrap();
        record_to(&spec, &config, &mut sharded).unwrap();
        let sharded_count = shard_flushes.load(Ordering::SeqCst);
        assert_eq!(sharded.epochs_committed() as u64, epochs);
        assert!(
            sharded_count < single_flushes.load(Ordering::SeqCst),
            "sharded {sharded_count} flushes vs single {} — no amortization",
            single_flushes.load(Ordering::SeqCst)
        );
        assert_eq!(sharded.flushes(), sharded_count);
    }

    #[test]
    fn out_of_order_epochs_are_rejected() {
        let spec = atomic_counter_spec(800, 2);
        let config = DoublePlayConfig::new(2).epoch_cycles(2_000);
        let (streams, _) = sharded_solo(&spec, &config, 2, 4);
        let merged = JournalReader::salvage_shards(&streams).unwrap();
        let mut w = ShardedJournalWriter::new(vec![Vec::<u8>::new(), Vec::new()], 4).unwrap();
        w.begin(&merged.recording.meta, &merged.recording.initial)
            .unwrap();
        let err = w.epoch(&merged.recording.epochs[1]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn foreign_mixed_and_duplicate_shards_are_typed_errors() {
        let spec = atomic_counter_spec(800, 2);
        let config = DoublePlayConfig::new(2).epoch_cycles(2_000);
        let (streams, _) = sharded_solo(&spec, &config, 2, 4);
        // Empty set and garbage are typed.
        assert!(matches!(
            JournalReader::salvage_shards::<Vec<u8>>(&[]),
            Err(ReplayError::Corrupt { .. })
        ));
        assert!(matches!(
            JournalReader::salvage_shards(&[b"garbage".to_vec()]),
            Err(ReplayError::Corrupt { .. })
        ));
        // Duplicate shard index.
        assert!(matches!(
            JournalReader::salvage_shards(&[streams[0].clone(), streams[0].clone()]),
            Err(ReplayError::Corrupt { .. })
        ));
        // A shard of a different recording (different seed → different
        // identity hashes) must be rejected, not merged.
        let other_cfg = config.hidden_seed(1234);
        let (other, _) = sharded_solo(&spec, &other_cfg, 2, 4);
        let r = JournalReader::salvage_shards(&[streams[0].clone(), other[1].clone()]);
        if let Ok(ok) = &r {
            // Same program and boot state can legitimately pair; then the
            // merge must still be internally consistent.
            assert!(ok.committed() <= streams.len() * ok.recording.epochs.len().max(1));
        }
        // Missing shard 0 (the full header) is unrecoverable.
        assert!(matches!(
            JournalReader::salvage_shards(&[streams[1].clone()]),
            Err(ReplayError::Corrupt { .. })
        ));
        // Missing a sibling bounds the prefix at its first epoch.
        let merged = JournalReader::salvage_shards(&[streams[0].clone()]).unwrap();
        assert_eq!(merged.committed(), 1.min(merged.recording.epochs.len()));
        assert!(!merged.clean);
    }

    #[test]
    fn bitflips_never_gain_epochs_or_panic() {
        let spec = atomic_counter_spec(800, 2);
        let config = DoublePlayConfig::new(2).epoch_cycles(2_000);
        let (streams, _) = sharded_solo(&spec, &config, 2, 4);
        let full = JournalReader::salvage_shards(&streams).unwrap().committed();
        for shard in 0..streams.len() {
            for i in (0..streams[shard].len()).step_by(7) {
                let mut bad = streams.clone();
                bad[shard][i] ^= 0x40;
                match JournalReader::salvage_shards(&bad) {
                    Ok(s) => assert!(s.committed() <= full),
                    Err(ReplayError::Corrupt { .. }) => {}
                    Err(e) => panic!("flip at {shard}:{i}: unexpected error {e:?}"),
                }
            }
        }
    }

    /// The one-container identity: for the same run, under either driver,
    /// `Recording::save` equals the `JournalWriter` journal, which equals
    /// a 1-shard `ShardedJournalWriter` stream (inline or threaded), byte
    /// for byte.
    #[test]
    fn save_journal_and_one_shard_stream_are_byte_identical() {
        let spec = racy_counter_spec(2_000);
        let base = DoublePlayConfig::new(2)
            .epoch_cycles(6_000)
            .spare_workers(2);
        let mut reference: Option<Vec<u8>> = None;
        for pipelined in [false, true] {
            let config = base.pipelined(pipelined);
            let mut journal = JournalWriter::new(Vec::new()).unwrap();
            let bundle = record_to(&spec, &config, &mut journal).unwrap();
            let journal = journal.into_inner();
            let mut saved = Vec::new();
            bundle.recording.save(&mut saved).unwrap();
            let mut inline = ShardedJournalWriter::new(vec![Vec::new()], 1).unwrap();
            record_to(&spec, &config, &mut inline).unwrap();
            let mut threaded =
                ShardedJournalWriter::threaded(vec![Vec::new()], DEFAULT_SHARD_BATCH).unwrap();
            record_to(&spec, &config, &mut threaded).unwrap();
            assert_eq!(saved, journal, "pipelined={pipelined}: save vs journal");
            assert_eq!(inline.into_writers().unwrap(), vec![journal.clone()]);
            assert_eq!(threaded.into_writers().unwrap(), vec![journal.clone()]);
            assert_eq!(
                Recording::load(&journal[..]).unwrap().epochs.len(),
                bundle.recording.epochs.len()
            );
            match &reference {
                None => reference = Some(journal),
                Some(r) => assert_eq!(r, &journal, "pipelined driver changed the bytes"),
            }
        }
    }

    #[test]
    fn poisoned_lane_error_slot_is_a_typed_error() {
        let mut w = ShardedJournalWriter::new(vec![Vec::<u8>::new(); 2], 4).unwrap();
        let slot = Arc::clone(&w.shared.lane_err);
        let _ = std::thread::spawn(move || {
            let _guard = slot.lock();
            panic!("poison the lane error slot");
        })
        .join();
        let rec = crate::record(&atomic_counter_spec(100, 1), &DoublePlayConfig::new(1))
            .unwrap()
            .recording;
        let err = w.begin(&rec.meta, &rec.initial).unwrap_err();
        assert!(err.to_string().contains("poisoned"), "{err}");
        assert!(w.into_writers().is_err());
    }
}
