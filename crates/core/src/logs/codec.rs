//! The log codec: the one binary encoding of schedule and syscall logs.
//!
//! The paper's log-size table reports *compressed* log rates; this codec is
//! the reproduction's analogue. It is used both to measure log sizes
//! (Table "log sizes", experiment E4) and as the logs' form inside the
//! recording stream: [`ScheduleLog`] and [`SyscallLog`] serialize as a
//! varint length followed by exactly these bytes, so the commit path
//! encodes each log once and sinks splice the bytes in verbatim
//! ([`crate::recording::EpochRecord::put_with`]). It is written on the
//! [`dp_support::wire`] primitives, so decoding is bounds-checked, never
//! panics, and fails with a [`WireError`] carrying an absolute offset.
//!
//! ## Schedule log
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
//!
//! Most events are slices of a handful of threads, and quantum-driven
//! slicing repeats one instruction count over and over, so a typical
//! slice costs a single byte.
//!
//! ## Syscall log
//!
//! `varint count`, then per entry: varint tid, varint syscall number,
//! 8-byte little-endian argument hash, varint result, via-wake byte, and
//! the effect — varint count of `(varint addr, varint len, bytes)` guest
//! writes, then varint count of `(dest, varint len, bytes)` external
//! chunks, where `dest` is `0` (console) or `1, varint fd` (socket).

use super::schedule::{SchedEvent, ScheduleLog};
use super::syscalls::{SyscallLog, SyscallLogEntry};
use dp_os::kernel::{ExternalChunk, ExternalDest, SyscallEffect};
use dp_support::wire::{put_varint, Reader, Wire, WireError};
use dp_vm::Tid;

const TAG_SLICE: u8 = 0;
const TAG_WAKE: u8 = 1;
const TAG_SIGNAL: u8 = 2;
const TAG_MASK: u8 = 0b11;
const REPEAT_FLAG: u8 = 1 << 2;
const TID_SHIFT: u32 = 3;
const TID_ESCAPE: u8 = 31;

const DEST_CONSOLE: u64 = 0;
const DEST_SOCKET: u64 = 1;

/// Encodes a schedule log.
pub fn encode_schedule(log: &ScheduleLog) -> Vec<u8> {
    let mut out = Vec::new();
    put_varint(&mut out, log.len() as u64);
    let mut last_instrs = None;
    for e in log.events() {
        match *e {
            SchedEvent::Slice { tid, instrs } => {
                let repeat = last_instrs == Some(instrs);
                put_lead(&mut out, TAG_SLICE | (u8::from(repeat) * REPEAT_FLAG), tid);
                // Whether a slice repeats is close to a coin flip, so rather
                // than branch on it, always write the length and drop it
                // again for a repeat.
                let lead_end = out.len();
                put_varint(&mut out, instrs);
                out.truncate(if repeat { lead_end } else { out.len() });
                last_instrs = Some(instrs);
            }
            SchedEvent::LoggedWake { tid } => put_lead(&mut out, TAG_WAKE, tid),
            SchedEvent::Signal { tid, sig } => {
                put_lead(&mut out, TAG_SIGNAL, tid);
                put_varint(&mut out, sig);
            }
        }
    }
    out
}

/// Appends an event's lead byte, and its escaped thread id if it has one.
fn put_lead(out: &mut Vec<u8>, tag_and_flag: u8, tid: Tid) {
    match u8::try_from(tid.0) {
        Ok(t) if t < TID_ESCAPE => out.push(tag_and_flag | t << TID_SHIFT),
        _ => {
            out.push(tag_and_flag | TID_ESCAPE << TID_SHIFT);
            put_varint(out, tid.0.into());
        }
    }
}

/// Decodes a schedule log; the whole buffer must be one log.
///
/// # Errors
///
/// Fails on truncated, corrupt or trailing input.
pub fn decode_schedule(buf: &[u8]) -> Result<ScheduleLog, WireError> {
    read_schedule(Reader::new(buf))
}

fn read_schedule(mut r: Reader<'_>) -> Result<ScheduleLog, WireError> {
    let count = r.varint("schedule count")?;
    let mut log = ScheduleLog::new();
    let mut last_instrs = None;
    for _ in 0..count {
        let at = r.pos();
        let lead = r.u8("schedule lead byte")?;
        let tid = match lead >> TID_SHIFT {
            TID_ESCAPE => Tid(get_u32(&mut r, "schedule tid")?),
            inline => Tid(inline.into()),
        };
        let bad = |context| {
            Err(WireError {
                offset: at,
                context,
            })
        };
        match (lead & TAG_MASK, lead & REPEAT_FLAG != 0) {
            (TAG_SLICE, repeat) => {
                let instrs = match (repeat, last_instrs) {
                    (false, _) => r.varint("slice length")?,
                    (true, Some(n)) => n,
                    (true, None) => return bad("repeat flag with no previous slice"),
                };
                last_instrs = Some(instrs);
                log.push_slice(tid, instrs);
            }
            (_, true) => return bad("repeat flag on a non-slice event"),
            (TAG_WAKE, false) => log.push_wake(tid),
            (TAG_SIGNAL, false) => log.push_signal(tid, r.varint("signal number")?),
            _ => return bad("unknown schedule tag"),
        }
    }
    r.expect_end()?;
    Ok(log)
}

/// Encodes a syscall log.
pub fn encode_syscalls(log: &SyscallLog) -> Vec<u8> {
    let mut out = Vec::new();
    put_varint(&mut out, log.len() as u64);
    for e in log.entries() {
        put_varint(&mut out, e.tid.0.into());
        put_varint(&mut out, e.num.into());
        out.extend_from_slice(&e.arg_hash.to_le_bytes());
        put_varint(&mut out, e.ret);
        put_varint(&mut out, e.via_wake.into());
        put_effect(&mut out, &e.effect);
    }
    out
}

/// Decodes a syscall log; the whole buffer must be one log.
///
/// # Errors
///
/// Fails on truncated, corrupt or trailing input.
pub fn decode_syscalls(buf: &[u8]) -> Result<SyscallLog, WireError> {
    read_syscalls(Reader::new(buf))
}

fn read_syscalls(mut r: Reader<'_>) -> Result<SyscallLog, WireError> {
    let count = r.varint("syscall count")?;
    let mut log = SyscallLog::new();
    for _ in 0..count {
        let tid = Tid(get_u32(&mut r, "syscall tid")?);
        let num = get_u32(&mut r, "syscall num")?;
        let mut arg_hash = [0; 8];
        arg_hash.copy_from_slice(r.take(8, "arg hash")?);
        let arg_hash = u64::from_le_bytes(arg_hash);
        let ret = r.varint("syscall ret")?;
        let via_wake = r.varint("via wake flag")? != 0;
        let effect = get_effect(&mut r)?;
        log.push(SyscallLogEntry {
            tid,
            num,
            arg_hash,
            ret,
            effect,
            via_wake,
        });
    }
    r.expect_end()?;
    Ok(log)
}

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_varint(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

fn get_bytes(r: &mut Reader<'_>, context: &'static str) -> Result<Vec<u8>, WireError> {
    let len = r.varint(context)?;
    // A length past the end fails in `take`, before anything is allocated.
    Ok(r.take(usize::try_from(len).unwrap_or(usize::MAX), context)?
        .to_vec())
}

/// Reads a varint that must fit a `u32`.
fn get_u32(r: &mut Reader<'_>, context: &'static str) -> Result<u32, WireError> {
    let offset = r.pos();
    u32::try_from(r.varint(context)?).map_err(|_| WireError { offset, context })
}

fn put_effect(out: &mut Vec<u8>, effect: &SyscallEffect) {
    put_varint(out, effect.guest_writes.len() as u64);
    for (addr, bytes) in &effect.guest_writes {
        put_varint(out, *addr);
        put_bytes(out, bytes);
    }
    put_varint(out, effect.external.len() as u64);
    for chunk in &effect.external {
        match chunk.dest {
            ExternalDest::Console => put_varint(out, DEST_CONSOLE),
            ExternalDest::Socket(fd) => {
                put_varint(out, DEST_SOCKET);
                put_varint(out, fd.into());
            }
        }
        put_bytes(out, &chunk.bytes);
    }
}

fn get_effect(r: &mut Reader<'_>) -> Result<SyscallEffect, WireError> {
    let mut effect = SyscallEffect::default();
    for _ in 0..r.varint("guest write count")? {
        let addr = r.varint("guest write addr")?;
        let bytes = get_bytes(r, "guest write bytes")?;
        effect.guest_writes.push((addr, bytes));
    }
    for _ in 0..r.varint("external chunk count")? {
        let at = r.pos();
        let dest = match r.varint("external dest")? {
            DEST_CONSOLE => ExternalDest::Console,
            DEST_SOCKET => ExternalDest::Socket(get_u32(r, "socket fd")?),
            _ => {
                return Err(WireError {
                    offset: at,
                    context: "unknown external dest",
                })
            }
        };
        let bytes = get_bytes(r, "external bytes")?;
        effect.external.push(ExternalChunk { dest, bytes });
    }
    Ok(effect)
}

/// Wire form: a varint length, then [`encode_schedule`]'s bytes.
impl Wire for ScheduleLog {
    fn put(&self, out: &mut Vec<u8>) {
        put_bytes(out, &encode_schedule(self));
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = usize::get(r)?;
        read_schedule(r.sub(len, "schedule log payload")?)
    }
}

/// Wire form: a varint length, then [`encode_syscalls`]'s bytes.
impl Wire for SyscallLog {
    fn put(&self, out: &mut Vec<u8>) {
        put_bytes(out, &encode_syscalls(self));
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = usize::get(r)?;
        read_syscalls(r.sub(len, "syscall log payload")?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_os::abi;

    #[test]
    fn schedule_roundtrip() {
        let mut log = ScheduleLog::new();
        log.push_slice(Tid(0), 10_000);
        log.push_wake(Tid(3));
        log.push_signal(Tid(1), 9);
        log.push_slice(Tid(1), 1);
        let buf = encode_schedule(&log);
        let back = decode_schedule(&buf).unwrap();
        assert_eq!(back, log);
    }

    #[test]
    fn syscall_roundtrip_with_effects() {
        let mut log = SyscallLog::new();
        log.push(SyscallLogEntry {
            tid: Tid(2),
            num: abi::SYS_RECV,
            arg_hash: 0xdead_beef_cafe_f00d,
            ret: 5,
            via_wake: true,
            effect: SyscallEffect {
                guest_writes: vec![(0x3000, b"hello".to_vec())],
                external: vec![ExternalChunk {
                    dest: ExternalDest::Socket(1001),
                    bytes: b"out".to_vec(),
                }],
            },
        });
        log.push(SyscallLogEntry {
            tid: Tid(0),
            num: abi::SYS_CLOCK,
            arg_hash: 1,
            ret: u64::MAX,
            effect: SyscallEffect::default(),
            via_wake: false,
        });
        let buf = encode_syscalls(&log);
        let back = decode_syscalls(&buf).unwrap();
        assert_eq!(back, log);
    }

    #[test]
    fn corrupt_tags_rejected() {
        // One event with the unused tag 3, and a wake carrying the repeat
        // flag: neither is anything the encoder writes.
        assert!(decode_schedule(&[1, 3]).is_err());
        assert!(decode_schedule(&[1, TAG_WAKE | REPEAT_FLAG]).is_err());
    }

    #[test]
    fn schedule_encoding_is_compact() {
        // A full epoch of one thread = a handful of bytes; this is the
        // paper's claim that uniparallel logging is tiny.
        let mut log = ScheduleLog::new();
        log.push_slice(Tid(0), 1_000_000);
        assert!(encode_schedule(&log).len() <= 8);
        // Quantum-sized slices of inline threads cost one byte each after
        // the first: count, lead + 2-byte length, then 9 repeat bytes.
        let mut log = ScheduleLog::new();
        for i in 0..10 {
            log.push_slice(Tid(i % 2), 5_000);
        }
        assert_eq!(encode_schedule(&log).len(), 1 + 3 + 9);
    }
}
