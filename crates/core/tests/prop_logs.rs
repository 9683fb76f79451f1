//! Property tests for the recording logs: codec roundtrips over arbitrary
//! log contents, schedule-log coalescing invariants, cursor semantics, and
//! — the robustness half — clean typed errors (never panics) on truncated
//! or bit-flipped buffers, including the recording container.

use dp_core::logs::{codec, SchedEvent, ScheduleLog, SyscallLog, SyscallLogEntry};
use dp_core::{record, DoublePlayConfig, GuestSpec, Recording, ReplayError};
use dp_os::abi;
use dp_os::kernel::{ExternalChunk, ExternalDest, SyscallEffect, WorldConfig};
use dp_support::check::{check, Gen};
use dp_support::wire::{put_varint, Reader};
use dp_vm::builder::ProgramBuilder;
use dp_vm::{Reg, Tid};
use std::sync::Arc;

fn sched_event(g: &mut Gen) -> SchedEvent {
    match g.index(3) {
        0 => SchedEvent::Slice {
            tid: Tid(g.below(8) as u32),
            instrs: g.range(1, 1_000_000),
        },
        1 => SchedEvent::LoggedWake {
            tid: Tid(g.below(8) as u32),
        },
        _ => SchedEvent::Signal {
            tid: Tid(g.below(8) as u32),
            sig: g.below(64),
        },
    }
}

fn sched_events(g: &mut Gen, max: usize) -> Vec<SchedEvent> {
    (0..g.index(max + 1)).map(|_| sched_event(g)).collect()
}

fn syscall_entry(g: &mut Gen) -> SyscallLogEntry {
    let writes = (0..g.index(3))
        .map(|_| (g.u64(), g.bytes(64)))
        .collect::<Vec<_>>();
    let external = (0..g.index(2))
        .enumerate()
        .map(|(i, _)| ExternalChunk {
            dest: if i % 2 == 0 {
                ExternalDest::Console
            } else {
                ExternalDest::Socket(1000 + i as u32)
            },
            bytes: g.bytes(64),
        })
        .collect::<Vec<_>>();
    SyscallLogEntry {
        tid: Tid(g.below(8) as u32),
        num: g.below(28) as u32,
        arg_hash: g.u64(),
        ret: g.u64(),
        via_wake: g.bool(),
        effect: SyscallEffect {
            guest_writes: writes,
            external,
        },
    }
}

fn syscall_entries(g: &mut Gen, min: usize, max: usize) -> Vec<SyscallLogEntry> {
    let n = min + g.index(max - min + 1);
    (0..n).map(|_| syscall_entry(g)).collect()
}

/// Any schedule log survives encode/decode bit-for-bit.
#[test]
fn schedule_codec_roundtrips() {
    check("schedule_codec_roundtrips", 64, |g| {
        let log: ScheduleLog = sched_events(g, 200).into_iter().collect();
        let encoded = codec::encode_schedule(&log);
        let decoded = codec::decode_schedule(&encoded).unwrap();
        assert_eq!(decoded, log);
    });
}

/// Any syscall log survives encode/decode, including effects.
#[test]
fn syscall_codec_roundtrips() {
    check("syscall_codec_roundtrips", 64, |g| {
        let log: SyscallLog = syscall_entries(g, 0, 60).into_iter().collect();
        let encoded = codec::encode_syscalls(&log);
        let decoded = codec::decode_syscalls(&encoded).unwrap();
        assert_eq!(decoded, log);
    });
}

/// Truncating an encoded log never panics — it returns a typed
/// `WireError`.
#[test]
fn truncated_logs_error_cleanly() {
    check("truncated_logs_error_cleanly", 128, |g| {
        let log: SyscallLog = syscall_entries(g, 1, 20).into_iter().collect();
        let encoded = codec::encode_syscalls(&log);
        let n = g.index(encoded.len().max(1));
        if n < encoded.len() {
            let _ = codec::decode_syscalls(&encoded[..n]);
        }
        let sched: ScheduleLog = sched_events(g, 40).into_iter().collect();
        let enc = codec::encode_schedule(&sched);
        if !enc.is_empty() {
            let _ = codec::decode_schedule(&enc[..g.index(enc.len())]);
        }
    });
}

/// Bit-flipping any byte of an encoded log either decodes to *something*
/// or yields a typed `WireError` — never a panic or a wild allocation.
#[test]
fn bitflipped_logs_never_panic() {
    check("bitflipped_logs_never_panic", 128, |g| {
        let log: SyscallLog = syscall_entries(g, 1, 12).into_iter().collect();
        let mut encoded = codec::encode_syscalls(&log);
        let i = g.index(encoded.len());
        encoded[i] ^= 1 << g.index(8);
        let _ = codec::decode_syscalls(&encoded);

        let sched: ScheduleLog = sched_events(g, 40).into_iter().collect();
        let mut enc = codec::encode_schedule(&sched);
        if !enc.is_empty() {
            let i = g.index(enc.len());
            enc[i] ^= 1 << g.index(8);
            let _ = codec::decode_schedule(&enc);
        }
    });
}

/// The varint reader the codec is built on, on arbitrary byte soup,
/// returns a value or a typed error.
#[test]
fn varint_decoding_is_total() {
    check("varint_decoding_is_total", 256, |g| {
        let buf = g.bytes(24);
        let mut r = Reader::new(&buf);
        match r.varint("fuzz") {
            Ok(_) => assert!(r.pos() <= buf.len()),
            Err(e) => assert!(e.offset <= buf.len()),
        }
    });
}

/// The byte size the per-field varint schedule encoding of format
/// version 3 gave a log: `varint count`, then per event `varint tag`,
/// `varint tid` and the payload varint.
fn v3_schedule_len(log: &ScheduleLog) -> usize {
    let mut out = Vec::new();
    put_varint(&mut out, log.len() as u64);
    for e in log.events() {
        match *e {
            SchedEvent::Slice { tid, instrs } => {
                for v in [0, tid.0.into(), instrs] {
                    put_varint(&mut out, v);
                }
            }
            SchedEvent::LoggedWake { tid } => {
                put_varint(&mut out, 1);
                put_varint(&mut out, tid.0.into());
            }
            SchedEvent::Signal { tid, sig } => {
                for v in [2, tid.0.into(), sig] {
                    put_varint(&mut out, v);
                }
            }
        }
    }
    out.len()
}

/// Recorder-shaped schedules — mostly quantum-sized slices, thread ids
/// past the inline range — round-trip, and the lead-byte encoding is never
/// larger than the per-field encoding it replaced.
#[test]
fn prop_v2_codec_roundtrips_random_schedules() {
    check("v2_codec_roundtrip", 64, |g| {
        let mut log = ScheduleLog::new();
        let quantum = g.range(1, 5_000);
        for _ in 0..g.range(0, 200) {
            let tid = Tid(g.below(40) as u32);
            match g.below(10) {
                0 => log.push_wake(tid),
                1 => log.push_signal(tid, g.below(32)),
                _ if g.prob(0.7) => log.push_slice(tid, quantum),
                _ => {
                    let magnitude = g.range(1, 40);
                    log.push_slice(tid, g.range(1, 1 << magnitude));
                }
            }
        }
        let encoded = codec::encode_schedule(&log);
        assert_eq!(codec::decode_schedule(&encoded).unwrap(), log);
        assert!(encoded.len() <= v3_schedule_len(&log));
    });
}

/// A schedule exercising every lead-byte path: repeats, an escaped tid,
/// a wake and a signal.
fn sample_schedule() -> ScheduleLog {
    let mut log = ScheduleLog::new();
    log.push_slice(Tid(0), 200);
    log.push_slice(Tid(1), 200);
    log.push_wake(Tid(2));
    log.push_slice(Tid(1), 200);
    log.push_signal(Tid(0), 9);
    log.push_slice(Tid(40), 7);
    log.push_slice(Tid(0), 1_000_000);
    log
}

#[test]
fn schedule_truncated_at_every_cut_is_an_error() {
    let encoded = codec::encode_schedule(&sample_schedule());
    for cut in 0..encoded.len() {
        assert!(
            codec::decode_schedule(&encoded[..cut]).is_err(),
            "truncation at {cut} not detected"
        );
    }
}

#[test]
fn repeat_flag_without_previous_slice_is_an_error() {
    // One event: a slice lead byte (tag 0, tid 0) with the repeat flag.
    let err = codec::decode_schedule(&[1, 1 << 2]).unwrap_err();
    assert_eq!(err.context, "repeat flag with no previous slice");
}

/// A decoder must consume exactly one log: bytes after it are corruption
/// (a length prefix that disagrees with the payload), not ignorable.
#[test]
fn trailing_bytes_after_a_log_are_rejected() {
    check("trailing_bytes_after_a_log_are_rejected", 32, |g| {
        let mut sched = codec::encode_schedule(&sched_events(g, 40).into_iter().collect());
        sched.push(g.u64() as u8);
        assert!(codec::decode_schedule(&sched).is_err());
        let log: SyscallLog = syscall_entries(g, 0, 8).into_iter().collect();
        let mut sys = codec::encode_syscalls(&log);
        sys.push(g.u64() as u8);
        assert!(codec::decode_syscalls(&sys).is_err());
    });
}

/// One syscall entry with the given tid, number and socket fd, encoded by
/// hand so the fields can exceed the `u32` the log types hold.
fn raw_syscall_log(tid: u64, num: u64, fd: u64) -> Vec<u8> {
    let mut out = Vec::new();
    for v in [1, tid, num] {
        put_varint(&mut out, v);
    }
    out.extend_from_slice(&7u64.to_le_bytes()); // arg hash
    for v in [0, 0, 0, 1, 1, fd, 0] {
        // ret, via_wake, no guest writes, one socket chunk, empty bytes
        put_varint(&mut out, v);
    }
    out
}

/// Thread ids, syscall numbers and socket fds are `u32`s: a wider value
/// in the log is a typed error, never silently truncated.
#[test]
fn fields_above_u32_are_typed_errors() {
    let big = u64::from(u32::MAX) + 1;
    let ok = raw_syscall_log(1, 2, 3);
    assert_eq!(codec::decode_syscalls(&ok).unwrap().len(), 1);
    for (raw, context) in [
        (raw_syscall_log(big, 2, 3), "syscall tid"),
        (raw_syscall_log(1, big, 3), "syscall num"),
        (raw_syscall_log(1, 2, big), "socket fd"),
    ] {
        assert_eq!(codec::decode_syscalls(&raw).unwrap_err().context, context);
    }
    // A schedule slice whose escaped tid is too wide.
    let mut sched = vec![1, 31 << 3];
    put_varint(&mut sched, big);
    put_varint(&mut sched, 10);
    assert_eq!(
        codec::decode_schedule(&sched).unwrap_err().context,
        "schedule tid"
    );
}

/// A 10-byte varint whose last byte carries bits past bit 63 does not fit
/// a `u64`: a typed error, not a silently wrapped value.
#[test]
fn overlong_varint_is_a_typed_error() {
    let overlong = [0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02];
    // The syscall result field, where nothing after it would notice.
    let mut sys = raw_syscall_log(1, 2, 3);
    let ret_at = 1 + 1 + 1 + 8;
    assert_eq!(sys[ret_at], 0);
    sys.splice(ret_at..=ret_at, overlong);
    assert!(codec::decode_syscalls(&sys).is_err());
    // A slice length.
    let mut sched = vec![1, 0];
    sched.extend_from_slice(&overlong);
    assert!(codec::decode_schedule(&sched).is_err());
}

/// The syscall-log bytes of a fixed log, with guest writes, console output
/// and socket output, are pinned: format version 4 changed only the
/// schedule encoding.
#[test]
fn syscall_log_bytes_are_pinned() {
    let log: SyscallLog = vec![
        SyscallLogEntry {
            tid: Tid(1),
            num: abi::SYS_RECV,
            arg_hash: 0x0123_4567_89ab_cdef,
            ret: 5,
            via_wake: true,
            effect: SyscallEffect {
                guest_writes: vec![(0x3000, b"hello".to_vec())],
                external: vec![
                    ExternalChunk {
                        dest: ExternalDest::Console,
                        bytes: b"log\n".to_vec(),
                    },
                    ExternalChunk {
                        dest: ExternalDest::Socket(1001),
                        bytes: b"out".to_vec(),
                    },
                ],
            },
        },
        SyscallLogEntry {
            tid: Tid(0),
            num: abi::SYS_CLOCK,
            arg_hash: 1,
            ret: 300,
            via_wake: false,
            effect: SyscallEffect::default(),
        },
    ]
    .into_iter()
    .collect();
    let golden: &[u8] = &[
        2, 1, 22, 239, 205, 171, 137, 103, 69, 35, 1, 5, 1, 1, 128, 96, 5, 104, 101, 108, 108, 111,
        2, 0, 4, 108, 111, 103, 10, 1, 233, 7, 3, 111, 117, 116, 0, 8, 1, 0, 0, 0, 0, 0, 0, 0, 172,
        2, 0, 0, 0,
    ];
    assert_eq!(codec::encode_syscalls(&log), golden);
    assert_eq!(codec::decode_syscalls(golden).unwrap(), log);
}

/// A small two-thread atomic-counter guest producing a multi-epoch
/// recording to corrupt.
fn recorded() -> Recording {
    let iters = 600i64;
    let mut pb = ProgramBuilder::new();
    let counter = pb.global("counter", 8);
    let mut w = pb.function("worker");
    let top = w.label();
    let done = w.label();
    w.consti(Reg(10), 0);
    w.consti(Reg(9), counter as i64);
    w.bind(top);
    w.bin(dp_vm::BinOp::Ltu, Reg(11), Reg(10), iters);
    w.jz(Reg(11), done);
    w.fetch_add(Reg(12), Reg(9), 1i64);
    w.add(Reg(10), Reg(10), 1i64);
    w.jmp(top);
    w.bind(done);
    w.consti(Reg(0), 0);
    w.syscall(abi::SYS_THREAD_EXIT);
    w.finish();
    let worker = pb.declare("worker");
    let mut f = pb.function("main");
    for _ in 0..2 {
        f.consti(Reg(0), worker.0 as i64);
        f.consti(Reg(1), 0);
        f.consti(Reg(2), 0);
        f.syscall(abi::SYS_SPAWN);
    }
    for t in 1..=2i64 {
        f.consti(Reg(0), t);
        f.syscall(abi::SYS_JOIN);
    }
    f.consti(Reg(9), counter as i64);
    f.load(Reg(0), Reg(9), 0, dp_vm::Width::W8);
    f.syscall(abi::SYS_EXIT);
    f.finish();
    let spec = GuestSpec::new(
        "corrupt-me",
        Arc::new(pb.finish("main")),
        WorldConfig::default(),
    );
    record(&spec, &DoublePlayConfig::new(2).epoch_cycles(4_000))
        .unwrap()
        .recording
}

/// Corrupting any single byte of a saved recording makes `load` fail with
/// a typed `ReplayError` — `Corrupt`, or `UnsupportedVersion` for a flip
/// inside the 4-byte version field — in 100% of trials, never a panic.
#[test]
fn corrupted_container_is_rejected_with_typed_error() {
    let recording = recorded();
    let mut saved = Vec::new();
    recording.save(&mut saved).unwrap();
    assert!(Recording::load(&saved[..]).is_ok());
    check("corrupted_container_is_rejected", 200, |g| {
        let mut bad = saved.clone();
        let i = g.index(bad.len());
        bad[i] ^= 1 << g.index(8);
        match Recording::load(&bad[..]) {
            Err(ReplayError::Corrupt { .. }) => {}
            Err(ReplayError::UnsupportedVersion { .. }) if (4..8).contains(&i) => {}
            Err(other) => panic!("corruption at byte {i} surfaced as {other:?}"),
            // A flip inside a section *payload* is always caught by its
            // CRC32; only flips that happen to cancel out could load — and
            // a single bit flip never cancels in CRC32.
            Ok(_) => panic!("single-bit corruption at byte {i} loaded successfully"),
        }
    });
}

/// Truncating a saved recording at any prefix length is also rejected.
#[test]
fn truncated_container_is_rejected() {
    let recording = recorded();
    let mut saved = Vec::new();
    recording.save(&mut saved).unwrap();
    check("truncated_container_is_rejected", 100, |g| {
        let n = g.index(saved.len());
        assert!(
            matches!(
                Recording::load(&saved[..n]),
                Err(ReplayError::Corrupt { .. })
            ),
            "prefix of {n} bytes did not error"
        );
    });
    // Trailing garbage is rejected too.
    let mut padded = saved.clone();
    padded.extend_from_slice(b"junk");
    assert!(matches!(
        Recording::load(&padded[..]),
        Err(ReplayError::Corrupt { .. })
    ));
}

/// Coalescing preserves per-thread instruction totals and never leaves
/// two adjacent slices of the same thread.
#[test]
fn coalescing_preserves_totals() {
    check("coalescing_preserves_totals", 64, |g| {
        use std::collections::BTreeMap;
        let events = sched_events(g, 300);
        let mut expect: BTreeMap<Tid, u64> = BTreeMap::new();
        for e in &events {
            if let SchedEvent::Slice { tid, instrs } = e {
                *expect.entry(*tid).or_insert(0) += instrs;
            }
        }
        let log: ScheduleLog = events.into_iter().collect();
        let mut got: BTreeMap<Tid, u64> = BTreeMap::new();
        let mut prev: Option<Tid> = None;
        for e in log.events() {
            match e {
                SchedEvent::Slice { tid, instrs } => {
                    assert!(*instrs > 0, "zero-length slice survived");
                    assert_ne!(prev, Some(*tid), "adjacent same-thread slices");
                    *got.entry(*tid).or_insert(0) += instrs;
                    prev = Some(*tid);
                }
                _ => prev = None,
            }
        }
        assert_eq!(log.total_instructions(), expect.values().sum::<u64>());
        assert_eq!(got, expect);
    });
}

/// The per-thread cursor dispenses exactly the per-thread subsequences.
#[test]
fn cursor_is_a_partition() {
    check("cursor_is_a_partition", 64, |g| {
        let entries = syscall_entries(g, 0, 80);
        let log: SyscallLog = entries.clone().into_iter().collect();
        let mut cursor = log.cursor();
        for tid in (0..8).map(Tid) {
            let mine: Vec<&SyscallLogEntry> = entries.iter().filter(|e| e.tid == tid).collect();
            for want in mine {
                let got = cursor.pop(tid).expect("cursor exhausted early");
                assert_eq!(got, want);
            }
            assert!(cursor.pop(tid).is_none());
        }
        assert!(cursor.exhausted());
    });
}
