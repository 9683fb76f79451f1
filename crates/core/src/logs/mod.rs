//! Recording logs: what DoublePlay writes while an application runs.
//!
//! Three kinds of information fully determine the recorded execution:
//!
//! 1. the **schedule log** ([`schedule::ScheduleLog`]) — time-slice order
//!    within each epoch of the epoch-parallel execution;
//! 2. the **syscall log** ([`syscalls::SyscallLog`]) — results of
//!    logged-class (timing/boundary) syscalls;
//! 3. the per-epoch **state digests** stored in the recording, which are
//!    not needed for replay but let every consumer verify it.
//!
//! [`codec`] is the logs' one binary encoding, used both to measure log
//! sizes and as their form in the recording stream.

pub mod codec;
pub mod schedule;
pub mod syscalls;

pub use codec::{decode_schedule, decode_syscalls, encode_schedule, encode_syscalls};
pub use schedule::{SchedEvent, ScheduleLog};
pub use syscalls::{
    apply_entry, request_hash, request_hash_args, SyscallCursor, SyscallLog, SyscallLogEntry,
};
