//! The layer pass: drives the record path's public functions epoch by
//! epoch on the same guest, config and seed that `record_to` recorded,
//! timing each call as a span. It measures every layer on real inputs;
//! it does not replace `record_to` (no serialized fallback, no adaptive
//! epochs, no sink) and need not reproduce its bytes.

use crate::trace::Tracer;
use dp_core::logs::{decode_schedule, decode_syscalls, encode_schedule, encode_syscalls};
use dp_core::record::{run_live, run_verify, TpRunner, VerifyInputs};
use dp_core::{Checkpoint, DoublePlayConfig, GuestSpec};

/// Work counts of one pass.
#[derive(Debug, Default, Clone, Copy)]
pub struct PassCounts {
    /// `TpRunner::run_epoch` calls.
    pub epochs: u64,
    /// Resident pages in the checkpoint images built.
    pub image_pages: u64,
}

/// Safety stop for a guest that never finishes.
const MAX_PASS_EPOCHS: u64 = 100_000;

/// Runs one layer pass of `spec` under `config`, recording spans into
/// `tr` under its currently open span.
pub fn layer_pass(
    spec: &GuestSpec,
    config: &DoublePlayConfig,
    tr: &mut Tracer,
) -> Result<PassCounts, String> {
    let err = |what: &str, e: &dyn std::fmt::Display| format!("layer pass {what}: {e}");
    let (mut machine, mut kernel) = spec.boot();
    machine.mem_mut().take_dirty();
    let mut prev = tr.span("checkpoint.capture", || {
        Checkpoint::capture(&machine, &kernel)
    });
    let mut tp = TpRunner::new(config);
    let mut clock = 0u64;
    let mut counts = PassCounts::default();
    while machine.halted().is_none() && machine.live_threads() > 0 {
        if counts.epochs >= MAX_PASS_EPOCHS {
            return Err(format!("layer pass exceeded {MAX_PASS_EPOCHS} epochs"));
        }
        let out = tr
            .span("record.thread_parallel", || {
                tp.run_epoch(&mut machine, &mut kernel, clock, config.epoch_cycles)
            })
            .map_err(|e| err("thread-parallel epoch", &e))?;
        counts.epochs += 1;
        machine.mem_mut().take_dirty();
        kernel.take_external();
        let hash = tr.span("vm.state_hash", || machine.state_hash());
        let next = tr.span("checkpoint.capture", || {
            Checkpoint::capture(&machine, &kernel)
        });
        if config.keep_checkpoints {
            let image = tr.span("checkpoint.to_image", || prev.to_image());
            counts.image_pages += image.machine.mem.resident_pages() as u64;
            let program = spec.program.clone();
            tr.span("checkpoint.from_image", || {
                drop(Checkpoint::from_image(program, image));
            });
        }
        let targets = next.targets();
        let ep = tr
            .span("record.epoch_parallel.verify", || {
                run_verify(
                    &prev,
                    VerifyInputs {
                        hint: &out.hint,
                        targets: &targets,
                        log: &out.syscalls,
                        expected_hash: hash,
                        expected_machine: Some(&next.machine),
                    },
                )
            })
            .map_err(|e| err("verify", &e))?;
        if ep.divergence.is_none() {
            codec_roundtrip(tr, &ep.schedule, &out.syscalls)?;
            clock += out.cycles;
            prev = next;
            continue;
        }
        // Forward recovery, as the coordinator does it: re-run the epoch
        // live from its start and adopt the live end state.
        let duration = out.cycles.saturating_mul(config.cpus as u64).max(1);
        let live = tr
            .span("record.epoch_parallel.live", || {
                run_live(&prev, duration, config.ep_quantum, clock)
            })
            .map_err(|e| err("live re-run", &e))?;
        codec_roundtrip(tr, &live.schedule, &live.generated)?;
        clock += live.cycles;
        machine = live.machine;
        kernel = live.kernel;
        prev = tr.span("checkpoint.capture", || {
            Checkpoint::capture(&machine, &kernel)
        });
    }
    Ok(counts)
}

/// Encodes an epoch's two logs as the commit path does, then decodes them
/// as salvage does, checking the round trip.
fn codec_roundtrip(
    tr: &mut Tracer,
    schedule: &dp_core::logs::ScheduleLog,
    syscalls: &dp_core::logs::SyscallLog,
) -> Result<(), String> {
    let (s, y) = tr.span("logs.codec.encode", || {
        (encode_schedule(schedule), encode_syscalls(syscalls))
    });
    let (ds, dy) = tr.span("logs.codec.decode", || {
        (decode_schedule(&s), decode_syscalls(&y))
    });
    if ds.map_err(|e| e.to_string())? == *schedule && dy.map_err(|e| e.to_string())? == *syscalls {
        Ok(())
    } else {
        Err("log codec round trip changed a log".into())
    }
}
