//! Integration: seeking into recorded epochs with `replay_to_point`.
//!
//! Both guests below hold, in the sought epochs, a logged syscall that
//! blocks and is completed by a logged wake later in the same epoch. A
//! seek must defer that completion to the wake exactly as full-epoch
//! replay does, and return a state (or a typed error), never panic.

use doubleplay::prelude::*;
use doubleplay::workloads::find;

/// The recorder configuration the E-series experiments use for two
/// threads: checkpoints kept, sequential driver.
fn config_for_2(seed: u64) -> DoublePlayConfig {
    DoublePlayConfig::new(2)
        .epoch_cycles(200_000)
        .hidden_seed(seed)
}

/// Seeks points spread over every thread's slices in `epoch` (its first
/// instruction, quarter points, the middle, its last), and checks each
/// stopped state against the seek target.
fn seek_through(name: &str, size: Size, seed: u64, epochs: &[usize]) {
    let case = find(name, 2, size).expect("workload exists");
    let recording = record(&case.spec, &config_for_2(seed))
        .expect("record")
        .recording;
    for &e in epochs {
        let epoch = &recording.epochs[e];
        let start = doubleplay::core::Checkpoint::from_image(
            case.spec.program.clone(),
            epoch.start.clone().expect("checkpoints kept"),
        );
        let mut totals = std::collections::BTreeMap::<u32, u64>::new();
        for ev in epoch.schedule.events() {
            if let doubleplay::core::logs::SchedEvent::Slice { tid, instrs } = *ev {
                *totals.entry(tid.0).or_default() += instrs;
            }
        }
        assert!(!totals.is_empty(), "{name}: epoch {e} runs no slices");
        for (&t, &total) in &totals {
            let tid = doubleplay::vm::Tid(t);
            // A thread spawned inside the epoch starts from zero.
            let base = start
                .machine
                .threads()
                .get(t as usize)
                .map_or(0, |th| th.icount);
            for quarter in 0..=4 {
                let icount = base + total * quarter / 4;
                let m = replay_to_point(&recording, &case.spec.program, e as u32, tid, icount)
                    .unwrap_or_else(|err| {
                        panic!("{name} epoch {e}: seek t{t}@{icount} failed: {err}")
                    });
                assert!(
                    m.thread(tid).icount <= icount.max(base),
                    "{name} epoch {e}: t{t} ran past its seek target {icount}"
                );
            }
        }
    }
}

#[test]
fn seeking_kvstore_final_epoch_defers_woken_syscalls() {
    let case = find("kvstore", 2, Size::Medium).expect("kvstore exists");
    let last = record(&case.spec, &config_for_2(2))
        .expect("record")
        .recording
        .epochs
        .len()
        - 1;
    assert_eq!(last, 32, "the repro seeks epoch 32, the final one");
    seek_through("kvstore", Size::Medium, 2, &[last]);
}

#[test]
fn seeking_pcomp_epochs_defers_woken_syscalls() {
    seek_through("pcomp", Size::Small, 1, &[0, 3]);
}
