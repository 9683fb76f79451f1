//! The syscall (input) log: results of logged-class syscalls, in completion
//! order, with per-thread consumption cursors.
//!
//! The thread-parallel execution produces these entries; the epoch-parallel
//! execution consumes them instead of touching the (already consumed)
//! external world, verifying on each consumption that the syscall it is
//! about to satisfy matches what was logged — a mismatch is an early
//! divergence signal.

use dp_os::kernel::SyscallEffect;
use dp_vm::{Machine, SyscallRequest, Tid, Word};
use std::collections::{BTreeMap, VecDeque};

use dp_os::abi;

/// One logged syscall completion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyscallLogEntry {
    /// Thread whose syscall completed.
    pub tid: Tid,
    /// Syscall number.
    pub num: u32,
    /// Digest of the arguments (and outbound payload, for output syscalls)
    /// at issue time; consumers verify theirs against it.
    pub arg_hash: u64,
    /// Result returned to the guest.
    pub ret: Word,
    /// Memory writes and external output the completion performed.
    pub effect: SyscallEffect,
    /// True when the syscall blocked and completed later via a wake (the
    /// consumer must apply it at the recorded `LoggedWake` point, not at
    /// issue).
    pub via_wake: bool,
}

/// Digest of a syscall request as issued by `machine`'s thread. For output
/// syscalls (`send`, `console`) the outbound payload is folded in, so a
/// guest that would emit different bytes is detected as divergent before
/// anything is externalized.
pub fn request_hash(machine: &Machine, req: &SyscallRequest) -> u64 {
    let mut h = dp_vm::hash::Fnv1a::new();
    h.write_u32(req.num);
    for a in &req.args {
        h.write_u64(*a);
    }
    let payload = match req.num {
        abi::SYS_CONSOLE => Some((req.args[0], req.args[1])),
        abi::SYS_SEND => Some((req.args[1], req.args[2])),
        _ => None,
    };
    if let Some((ptr, len)) = payload {
        // Verify hot path: one call per logged syscall per verify attempt.
        // Stream the payload through a stack buffer instead of allocating
        // a Vec per call.
        let len = (len as usize).min(1 << 20);
        let mut buf = [0u8; 1024];
        let mut done = 0usize;
        while done < len {
            let n = (len - done).min(buf.len());
            machine
                .mem()
                .read_into(ptr.wrapping_add(done as u64), &mut buf[..n]);
            h.write_bytes(&buf[..n]);
            done += n;
        }
    }
    h.finish()
}

/// Digest of a request from its number and arguments alone. Equal to
/// [`request_hash`] for every syscall that can block (none of them carry an
/// outbound payload), which is why wakes can be digested without a machine.
pub fn request_hash_args(req: &SyscallRequest) -> u64 {
    let mut h = dp_vm::hash::Fnv1a::new();
    h.write_u32(req.num);
    for a in &req.args {
        h.write_u64(*a);
    }
    h.finish()
}

/// An epoch's syscall log.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SyscallLog {
    entries: Vec<SyscallLogEntry>,
}

impl SyscallLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a completion.
    pub fn push(&mut self, entry: SyscallLogEntry) {
        self.entries.push(entry);
    }

    /// Entries in completion order.
    pub fn entries(&self) -> &[SyscallLogEntry] {
        &self.entries
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no syscalls were logged.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Builds a per-thread consumption cursor over this log.
    pub fn cursor(&self) -> SyscallCursor<'_> {
        let mut per_tid: BTreeMap<Tid, VecDeque<&SyscallLogEntry>> = BTreeMap::new();
        for e in &self.entries {
            per_tid.entry(e.tid).or_default().push_back(e);
        }
        SyscallCursor {
            per_tid,
            consumed: 0,
            total: self.entries.len(),
        }
    }
}

impl FromIterator<SyscallLogEntry> for SyscallLog {
    fn from_iter<I: IntoIterator<Item = SyscallLogEntry>>(iter: I) -> Self {
        SyscallLog {
            entries: iter.into_iter().collect(),
        }
    }
}

/// Per-thread FIFO view of a [`SyscallLog`]. A thread's completions are
/// consumed strictly in order; cross-thread order is irrelevant to the
/// consumer (each thread has at most one outstanding syscall).
#[derive(Debug)]
pub struct SyscallCursor<'a> {
    per_tid: BTreeMap<Tid, VecDeque<&'a SyscallLogEntry>>,
    consumed: usize,
    total: usize,
}

impl<'a> SyscallCursor<'a> {
    /// Next unconsumed entry for `tid`, if any.
    pub fn peek(&self, tid: Tid) -> Option<&'a SyscallLogEntry> {
        self.per_tid.get(&tid).and_then(|q| q.front().copied())
    }

    /// Consumes the next entry for `tid`.
    pub fn pop(&mut self, tid: Tid) -> Option<&'a SyscallLogEntry> {
        let e = self.per_tid.get_mut(&tid)?.pop_front();
        if e.is_some() {
            self.consumed += 1;
        }
        e
    }

    /// Entries not yet consumed.
    pub fn remaining(&self) -> usize {
        self.total - self.consumed
    }

    /// True when every entry has been consumed (required for an epoch to
    /// verify: leftover completions mean the executions disagreed).
    pub fn exhausted(&self) -> bool {
        self.remaining() == 0
    }
}

/// Applies a logged completion to the machine: performs the guest memory
/// writes and completes the pending syscall with the logged result.
///
/// # Panics
///
/// Panics if `tid` has no pending syscall (caller must check).
pub fn apply_entry(machine: &mut Machine, entry: &SyscallLogEntry) {
    for (addr, bytes) in &entry.effect.guest_writes {
        machine.mem_mut().write_bytes(*addr, bytes);
    }
    machine.complete_syscall(entry.tid, entry.ret);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(tid: u32, num: u32, ret: u64) -> SyscallLogEntry {
        SyscallLogEntry {
            tid: Tid(tid),
            num,
            arg_hash: 0,
            ret,
            effect: SyscallEffect::default(),
            via_wake: false,
        }
    }

    #[test]
    fn cursor_is_per_thread_fifo() {
        let log: SyscallLog = vec![
            entry(0, abi::SYS_CLOCK, 10),
            entry(1, abi::SYS_RANDOM, 99),
            entry(0, abi::SYS_CLOCK, 20),
        ]
        .into_iter()
        .collect();
        let mut cur = log.cursor();
        assert_eq!(cur.remaining(), 3);
        assert_eq!(cur.peek(Tid(0)).unwrap().ret, 10);
        assert_eq!(cur.pop(Tid(0)).unwrap().ret, 10);
        assert_eq!(cur.pop(Tid(1)).unwrap().ret, 99);
        assert_eq!(cur.pop(Tid(0)).unwrap().ret, 20);
        assert!(cur.exhausted());
        assert!(cur.pop(Tid(0)).is_none());
        assert!(cur.peek(Tid(5)).is_none());
    }

    #[test]
    fn request_hash_covers_payload() {
        use dp_vm::builder::ProgramBuilder;
        use std::sync::Arc;
        let mut pb = ProgramBuilder::new();
        let buf = pb.global_data("buf", b"payload!");
        let mut f = pb.function("main");
        f.ret();
        f.finish();
        let mut m = Machine::new(Arc::new(pb.finish("main")), &[]);
        let req = SyscallRequest {
            tid: Tid(0),
            num: abi::SYS_CONSOLE,
            args: [buf, 8, 0, 0, 0, 0],
        };
        let h1 = request_hash(&m, &req);
        m.mem_mut().write_bytes(buf, b"PAYLOAD!");
        let h2 = request_hash(&m, &req);
        assert_ne!(h1, h2, "payload change must change the digest");
        // Non-payload syscalls hash args only.
        let req2 = SyscallRequest {
            tid: Tid(0),
            num: abi::SYS_CLOCK,
            args: [0; 6],
        };
        let h3 = request_hash(&m, &req2);
        m.mem_mut().write_bytes(buf, b"payload!");
        assert_eq!(h3, request_hash(&m, &req2));
    }

    #[test]
    fn apply_entry_writes_and_completes() {
        use dp_vm::builder::ProgramBuilder;
        use dp_vm::observer::NullObserver;
        use dp_vm::{Reg, SliceLimits};
        use std::sync::Arc;
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        f.consti(Reg(0), 0);
        f.syscall(abi::SYS_RECV);
        f.ret();
        f.finish();
        let mut m = Machine::new(Arc::new(pb.finish("main")), &[]);
        m.run_slice(Tid(0), SliceLimits::budget(10), &mut NullObserver)
            .unwrap();
        let mut e = entry(0, abi::SYS_RECV, 4);
        e.effect.guest_writes.push((0x4000, b"data".to_vec()));
        apply_entry(&mut m, &e);
        assert_eq!(m.mem().read_bytes(0x4000, 4), b"data");
        assert_eq!(m.thread(Tid(0)).regs[0], 4);
        assert!(m.thread(Tid(0)).is_ready());
    }
}
