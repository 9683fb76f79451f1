//! The recording operations every workload runs on its guests: native
//! run, `record_to` into a durable journal, open (salvage), sequential
//! and parallel replay, each checked, repeated until the run's time is up.

use crate::layers::layer_pass;
use crate::sink::{Counting, IoCounts, SinkCall, TimedSink};
use crate::stats::{geomean, median, Tally};
use crate::trace::Tracer;
use dp_core::{
    record, record_to, replay_epoch, replay_parallel, replay_sequential, Checkpoint,
    DoublePlayConfig, GuestSpec, JournalReader, JournalWriter, RecordSink, Recording,
    RecordingBundle, ShardedJournalWriter, DEFAULT_SHARD_BATCH,
};
use dp_os::exec::DirectExecutor;
use dp_os::kernel::Kernel;
use dp_support::crc32::crc32;
use dp_vm::Machine;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::BufWriter;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Final-state check of a guest's native run.
pub type Check = Box<dyn Fn(&Machine, &Kernel) -> Result<(), String> + Send + Sync>;

/// A guest a workload records.
pub struct Guest {
    /// Display name.
    pub name: String,
    /// The bootable guest.
    pub spec: GuestSpec,
    /// Checks the native final state, when the guest has a reference.
    pub check: Option<Check>,
    /// Whether the guest's result is the same under every interleaving,
    /// so its replay must exit as its native run did. A racy guest's
    /// result depends on the interleaving; its replay is held to the
    /// recorded end-of-epoch hashes alone.
    pub race_free: bool,
}

/// Where `record_to` streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Journal {
    /// One `DPRJ` stream (`JournalWriter`).
    Single,
    /// Two `DPRS` shard streams appended on the committing thread
    /// (`ShardedJournalWriter::new`).
    Sharded,
    /// Two `DPRS` shard streams, each appended by its own lane thread
    /// (`ShardedJournalWriter::threaded`).
    ShardedLanes,
}

/// Shard streams of a sharded recording.
const SHARDS: usize = 2;

/// One recorded guest under one configuration.
pub struct Op {
    /// Index into [`Plan::guests`].
    pub guest: usize,
    /// Recorder configuration (its hidden seed comes from `--seed`). The
    /// timed repetitions record with the sequential driver: the pipelined
    /// driver's threads would outnumber a small host's cores and time the
    /// scheduler. A configuration that asks for the pipelined driver is
    /// recorded once by it after the repetitions, into a
    /// [`Journal::ShardedLanes`] journal when the plan is sharded, and
    /// checked byte-equal to the sequential driver's recording.
    pub config: DoublePlayConfig,
}

/// What one workload records.
pub struct Plan {
    /// The guests, built at set-up.
    pub guests: Vec<Guest>,
    /// The operations of one repetition, in order.
    pub ops: Vec<Op>,
    /// The journal format.
    pub journal: Journal,
}

/// Per-layer counts of one recording that must repeat exactly for a seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Counts {
    /// Epochs recorded.
    pub epochs: u64,
    /// Divergences.
    pub divergences: u64,
    /// Epochs recorded in serialized fallback.
    pub serialized: u64,
    /// Durable journal bytes.
    pub journal_bytes: u64,
    /// Encoded schedule + syscall log bytes.
    pub log_bytes: u64,
    /// Pages the incremental digest re-hashed.
    pub hashed_pages: u64,
    /// Resident pages the digest skipped.
    pub skipped_pages: u64,
    /// `RecorderStats::overhead()`.
    pub model_overhead: f64,
}

/// Samples of one operation across repetitions (nanoseconds).
#[derive(Debug, Default)]
pub struct OpLog {
    /// `DirectExecutor::run` walls.
    pub native_ns: Vec<f64>,
    /// `record_to` walls, until the journal is durable.
    pub record_ns: Vec<f64>,
    /// Journal bytes → `Recording` walls.
    pub open_ns: Vec<f64>,
    /// `replay_sequential` walls.
    pub replay_ns: Vec<f64>,
    /// `replay_parallel(…, 2)` walls (recordings with checkpoints).
    pub par_ns: Vec<f64>,
    /// Guest instructions of the recorded execution.
    pub instructions: u64,
    /// Counts per repetition (determinism self-check).
    pub counts: Vec<Counts>,
    /// CRC32 of the opened recording's saved bytes in the first
    /// repetition; later repetitions must match it.
    pub saved: Option<u32>,
    /// Pipelined-driver verify-pool utilization, per pipelined recording.
    pub utilization: Vec<f64>,
    /// Speculative epochs the pipelined driver cancelled, per pipelined
    /// recording.
    pub cancelled: Vec<u64>,
    /// Traced minus untraced `record_to` wall, per repetition (traced runs).
    pub trace_extra_ns: Vec<f64>,
    /// Traced `record_to` wall minus sink time minus layer-pass time.
    pub coordinator_self_ns: Vec<f64>,
    /// Time inside the sink, per repetition (traced runs).
    pub sink_ns: Vec<f64>,
    /// Flushes reaching the journal's storage, per repetition.
    pub flushes: Vec<u64>,
    /// Sequential busy time of the per-epoch replay chain (traced runs).
    pub epoch_chain_ns: Vec<f64>,
    /// Checkpoint-image pages the layer pass built (traced runs).
    pub image_pages: Vec<u64>,
}

/// Everything a run of a plan measured.
pub struct OpsResult {
    /// One log per [`Plan::ops`] entry.
    pub logs: Vec<OpLog>,
    /// Completed repetitions.
    pub reps: usize,
    /// Pooled `journal.epoch` call durations and inter-epoch gaps (ns).
    pub epoch_write_ns: Vec<f64>,
    /// Pooled gaps between one epoch call returning and the next entering.
    pub commit_gap_ns: Vec<f64>,
}

/// CRC32 of the recording's saved bytes: a stand-in for the bytes that
/// keeps the benchmark's own memory out of `peak_rss_mb`.
fn saved_crc(rec: &Recording) -> Result<u32, String> {
    let mut bytes = Vec::new();
    rec.save(&mut bytes).map_err(|e| format!("save: {e}"))?;
    Ok(crc32(&bytes))
}

fn ns(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// The journal files of operation `j`.
fn journal_paths(dir: &Path, j: usize, kind: Journal, tag: &str) -> Vec<PathBuf> {
    match kind {
        Journal::Single => vec![dir.join(format!("op{j}{tag}.dprj"))],
        Journal::Sharded | Journal::ShardedLanes => (0..SHARDS)
            .map(|s| dir.join(format!("op{j}{tag}.s{s}.dprs")))
            .collect(),
    }
}

fn create(path: &Path, counts: &Arc<IoCounts>) -> Result<Counting<BufWriter<File>>, String> {
    let file = File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?;
    Ok(Counting::new(BufWriter::new(file), counts.clone()))
}

/// A finished recording and what writing it cost.
struct Recorded {
    wall_ns: f64,
    bundle: RecordingBundle,
    journal_bytes: u64,
    flushes: u64,
    calls: Vec<SinkCall>,
}

/// Runs `record_to` into a fresh journal at `paths`, timing until every
/// byte is handed to the operating system. `timed` wraps the journal in
/// the timing sink decorator.
fn record_journal(
    spec: &GuestSpec,
    config: &DoublePlayConfig,
    kind: Journal,
    paths: &[PathBuf],
    timed: bool,
) -> Result<Recorded, String> {
    let io = Arc::new(IoCounts::default());
    let writers = paths
        .iter()
        .map(|p| create(p, &io))
        .collect::<Result<Vec<_>, _>>()?;
    let run = |sink: &mut dyn RecordSink, calls: &mut Vec<SinkCall>| {
        if timed {
            let mut t = TimedSink::new(sink);
            let out = record_to(spec, config, &mut t);
            *calls = t.calls;
            out
        } else {
            record_to(spec, config, sink)
        }
    };
    let mut calls = Vec::new();
    let start = Instant::now();
    let bundle = match kind {
        Journal::Single => {
            let mut w = JournalWriter::new(writers.into_iter().next().expect("one path"))
                .map_err(|e| format!("journal: {e}"))?;
            let bundle = run(&mut w, &mut calls).map_err(|e| format!("record: {e}"))?;
            w.into_inner();
            bundle
        }
        Journal::Sharded | Journal::ShardedLanes => {
            let mut w = if kind == Journal::Sharded {
                ShardedJournalWriter::new(writers, DEFAULT_SHARD_BATCH)
            } else {
                ShardedJournalWriter::threaded(writers, DEFAULT_SHARD_BATCH)
            }
            .map_err(|e| format!("sharded journal: {e}"))?;
            let bundle = run(&mut w, &mut calls).map_err(|e| format!("record: {e}"))?;
            w.into_writers().map_err(|e| format!("shard lanes: {e}"))?;
            bundle
        }
    };
    let wall_ns = ns(start);
    Ok(Recorded {
        wall_ns,
        bundle,
        journal_bytes: io.bytes.load(Ordering::Relaxed),
        flushes: io.flushes.load(Ordering::Relaxed),
        calls,
    })
}

/// Reads the journal back and salvages it into a `Recording`.
fn open_journal(kind: Journal, paths: &[PathBuf]) -> Result<(Recording, bool), String> {
    let read = |p: &PathBuf| std::fs::read(p).map_err(|e| format!("read {}: {e}", p.display()));
    match kind {
        Journal::Single => {
            let s =
                JournalReader::salvage(&read(&paths[0])?).map_err(|e| format!("salvage: {e}"))?;
            Ok((s.recording, s.clean))
        }
        Journal::Sharded | Journal::ShardedLanes => {
            let bufs = paths.iter().map(read).collect::<Result<Vec<_>, _>>()?;
            let s = JournalReader::salvage_shards(&bufs).map_err(|e| format!("salvage: {e}"))?;
            Ok((s.recording, s.clean))
        }
    }
}

/// Runs the native reference of `guest`: wall, instructions, exit code.
fn native(guest: &Guest, config: &DoublePlayConfig) -> Result<(f64, Option<dp_vm::Word>), String> {
    let (mut m, mut k) = guest.spec.boot();
    let start = Instant::now();
    let out = DirectExecutor::default()
        .run(&mut m, &mut k, config.max_instructions)
        .map_err(|e| format!("native run: {e}"))?;
    let wall = ns(start);
    if let Some(check) = &guest.check {
        check(&m, &k).map_err(|e| format!("native verify: {e}"))?;
    }
    Ok((wall, out.exit_code))
}

/// The message a panic carried, for the failure report.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    panic
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic".into())
}

/// Runs repetitions of every operation in `plan` until `deadline` (at
/// least `min_reps`), checking each step into `tally`.
pub fn run_ops(
    plan: &Plan,
    dir: &Path,
    deadline: Instant,
    min_reps: usize,
    tr: &mut Tracer,
    tally: &mut Tally,
) -> OpsResult {
    let mut res = OpsResult {
        logs: plan.ops.iter().map(|_| OpLog::default()).collect(),
        reps: 0,
        epoch_write_ns: Vec::new(),
        commit_gap_ns: Vec::new(),
    };
    while res.reps < min_reps || Instant::now() < deadline {
        for j in 0..plan.ops.len() {
            tr.run = ((res.reps as u64) << 16) | j as u64;
            let root = tr.open_span("op");
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                one_op(plan, j, res.reps, dir, tr, &mut res)
            }))
            .unwrap_or_else(|panic| Err(format!("panicked: {}", panic_message(&*panic))));
            tr.close_up_to(root);
            if let Err(e) = outcome {
                tally.op(Err(format!("{}: {e}", plan.guests[plan.ops[j].guest].name)));
            } else {
                tally.op(Ok(()));
            }
        }
        res.reps += 1;
    }
    res
}

/// One operation of one repetition. Every check failing here fails the
/// operation.
fn one_op(
    plan: &Plan,
    j: usize,
    rep: usize,
    dir: &Path,
    tr: &mut Tracer,
    res: &mut OpsResult,
) -> Result<(), String> {
    let op = &plan.ops[j];
    let config = op.config.pipelined(false);
    let guest = &plan.guests[op.guest];
    let spec = &guest.spec;
    let paths = journal_paths(dir, j, plan.journal, "");
    let tracing = tr.enabled();

    // Native and record alternate which goes first, so neither always
    // runs on a warmer cache.
    let mut native_out = None;
    let mut recorded = None;
    for step in 0..2 {
        if (step + rep + j).is_multiple_of(2) {
            native_out = Some(tr.span("os.native", || native(guest, &config))?);
        } else {
            let span = tr.open_span("record_to");
            let r = record_journal(spec, &config, plan.journal, &paths, tracing);
            if let Ok(r) = &r {
                for c in &r.calls {
                    tr.push(c.name, c.start, c.end, span);
                }
            }
            tr.close_span(span);
            recorded = Some(r?);
        }
    }
    let (native_ns, native_exit) = native_out.expect("native step ran");
    let rec = recorded.expect("record step ran");
    let log = &mut res.logs[j];
    log.native_ns.push(native_ns);
    log.record_ns.push(rec.wall_ns);
    let s = &rec.bundle.stats;
    log.counts.push(Counts {
        epochs: s.epochs,
        divergences: s.divergences,
        serialized: s.serialized_epochs,
        journal_bytes: rec.journal_bytes,
        log_bytes: s.log_bytes(),
        hashed_pages: s.hashed_pages,
        skipped_pages: s.hash_skipped_pages,
        model_overhead: s.overhead(),
    });
    log.flushes.push(rec.flushes);

    if tracing {
        trace_record(plan, j, dir, tr, res, &rec)?;
    }
    let log = &mut res.logs[j];

    let start = Instant::now();
    let (opened, clean) = tr.span("journal.open", || open_journal(plan.journal, &paths))?;
    log.open_ns.push(ns(start));
    if !clean || opened.epochs.len() as u64 != s.epochs {
        return Err(format!(
            "opened journal: clean {clean}, {} of {} epochs",
            opened.epochs.len(),
            s.epochs
        ));
    }
    let crc = saved_crc(&opened)?;
    if crc != saved_crc(&rec.bundle.recording)? {
        return Err("opened journal differs from the recording record_to returned".into());
    }
    match log.saved {
        None => log.saved = Some(crc),
        Some(first) if first != crc => {
            return Err("recording bytes changed between repetitions of one seed".into())
        }
        Some(_) => {}
    }

    let start = Instant::now();
    let replay = tr
        .span("replay.sequential", || {
            replay_sequential(&opened, &spec.program)
        })
        .map_err(|e| format!("replay: {e}"))?;
    log.replay_ns.push(ns(start));
    if guest.race_free && replay.exit_code != native_exit {
        return Err(format!(
            "replay exit {:?}, native exit {native_exit:?}",
            replay.exit_code
        ));
    }
    log.instructions = replay.instructions;

    if opened.has_checkpoints() {
        let start = Instant::now();
        let par = tr
            .span("replay.parallel", || {
                replay_parallel(&opened, &spec.program, 2)
            })
            .map_err(|e| format!("parallel replay: {e}"))?;
        log.par_ns.push(ns(start));
        if par.instructions != replay.instructions {
            return Err("parallel replay executed a different instruction count".into());
        }
    }
    if tracing {
        // Per-epoch replay: each epoch from the state the previous one
        // left, as replay_sequential chains them.
        let initial = Checkpoint::from_image(spec.program.clone(), opened.initial.clone());
        let (mut m, mut k) = (initial.machine, initial.kernel);
        let mut busy = 0.0;
        for e in &opened.epochs {
            let start = Checkpoint::capture(&m, &k);
            let t = Instant::now();
            let (m2, k2, _) = tr
                .span("replay.epoch", || replay_epoch(&start, e))
                .map_err(|e| format!("epoch replay: {e}"))?;
            busy += ns(t);
            (m, k) = (m2, k2);
        }
        res.logs[j].epoch_chain_ns.push(busy);
    }
    Ok(())
}

/// The traced run's extra work for one recording: the sink's per-epoch
/// timings, an untraced twin for the tracing overhead, and the layer pass.
fn trace_record(
    plan: &Plan,
    j: usize,
    dir: &Path,
    tr: &mut Tracer,
    res: &mut OpsResult,
    rec: &Recorded,
) -> Result<(), String> {
    let config = plan.ops[j].config.pipelined(false);
    let spec = &plan.guests[plan.ops[j].guest].spec;
    let mut sink_ns = 0.0;
    let mut last_end = None;
    for c in &rec.calls {
        let d = c.end.duration_since(c.start).as_nanos() as f64;
        sink_ns += d;
        if c.name == "journal.epoch" {
            res.epoch_write_ns.push(d);
            if let Some(prev) = last_end {
                res.commit_gap_ns
                    .push(c.start.saturating_duration_since(prev).as_nanos() as f64);
            }
            last_end = Some(c.end);
        }
    }
    let untraced = tr.span("record_to.untraced", || {
        let paths = journal_paths(dir, j, plan.journal, ".untraced");
        record_journal(spec, &config, plan.journal, &paths, false)
    })?;
    let pass = tr.open_span("layer_pass");
    let t = Instant::now();
    let counts = layer_pass(spec, &config, tr);
    let pass_ns = ns(t);
    tr.close_span(pass);
    let log = &mut res.logs[j];
    log.image_pages.push(counts?.image_pages);
    log.sink_ns.push(sink_ns);
    log.trace_extra_ns.push(rec.wall_ns - untraced.wall_ns);
    log.coordinator_self_ns
        .push(rec.wall_ns - sink_ns - pass_ns);
    Ok(())
}

/// Checks that every repetition produced the same counts and the same
/// recording bytes as the sequential driver's reference recording of the
/// same configuration, and records the pipelined twins (see
/// [`Op::config`]). Returns the failures found.
pub fn check_determinism(
    plan: &Plan,
    dir: &Path,
    res: &mut OpsResult,
    tally: &mut Tally,
) -> Vec<String> {
    let mut problems = Vec::new();
    for (j, (op, log)) in plan.ops.iter().zip(&mut res.logs).enumerate() {
        let name = &plan.guests[op.guest].name;
        if let Some(first) = log.counts.first() {
            if let Some(other) = log.counts.iter().find(|c| *c != first) {
                problems.push(format!(
                    "{name} (op {j}): per-layer counts changed between repetitions of one seed: \
                     {first:?} vs {other:?}"
                ));
            }
        }
        let reference = record(&plan.guests[op.guest].spec, &op.config.pipelined(false))
            .map_err(|e| format!("reference record: {e}"))
            .and_then(|b| saved_crc(&b.recording));
        let outcome = match (&reference, log.saved) {
            (Ok(r), Some(s)) if *r == s => Ok(()),
            (Ok(_), Some(_)) => Err(format!(
                "{name} (op {j}): recording differs from the sequential driver's"
            )),
            (Ok(_), None) => Err(format!("{name} (op {j}): no repetition finished")),
            (Err(e), _) => Err(format!("{name} (op {j}): {e}")),
        };
        tally.op(outcome);
        if op.config.pipelined {
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                pipelined_twin(plan, j, dir, log, reference.as_ref().ok())
            }))
            .unwrap_or_else(|panic| Err(format!("panicked: {}", panic_message(&*panic))));
            tally.op(outcome.map_err(|e| format!("{name} (op {j}) pipelined: {e}")));
        }
    }
    problems
}

/// Records operation `j` with the pipelined driver and checks the opened
/// recording against the sequential driver's (`reference`, a CRC of its
/// saved bytes).
fn pipelined_twin(
    plan: &Plan,
    j: usize,
    dir: &Path,
    log: &mut OpLog,
    reference: Option<&u32>,
) -> Result<(), String> {
    let op = &plan.ops[j];
    let kind = match plan.journal {
        Journal::Single => Journal::Single,
        Journal::Sharded | Journal::ShardedLanes => Journal::ShardedLanes,
    };
    let paths = journal_paths(dir, j, kind, ".pipelined");
    let rec = record_journal(&plan.guests[op.guest].spec, &op.config, kind, &paths, false)?;
    let wall = &rec.bundle.stats.wall;
    if !wall.pipelined {
        return Err("the pipelined driver did not run".into());
    }
    log.utilization.push(wall.utilization());
    log.cancelled.push(wall.cancelled_epochs);
    let (opened, clean) = open_journal(kind, &paths)?;
    if !clean || opened.epochs.len() as u64 != rec.bundle.stats.epochs {
        return Err(format!(
            "opened journal: clean {clean}, {} of {} epochs",
            opened.epochs.len(),
            rec.bundle.stats.epochs
        ));
    }
    match reference {
        Some(&r) if r == saved_crc(&opened)? => Ok(()),
        Some(_) => Err("recording differs from the sequential driver's".into()),
        None => Err("no sequential reference to compare with".into()),
    }
}

/// Median over repetitions of per-operation samples, combined across
/// operations by geometric mean.
fn per_op(logs: &[OpLog], f: impl Fn(&OpLog) -> Vec<f64>) -> Option<f64> {
    let medians: Vec<f64> = logs
        .iter()
        .map(&f)
        .filter(|v| !v.is_empty())
        .map(|v| median(&v))
        .collect();
    (!medians.is_empty()).then(|| geomean(&medians))
}

/// Per-repetition sums over operations, then their median.
fn per_rep(logs: &[OpLog], reps: usize, f: impl Fn(&OpLog, usize) -> Option<f64>) -> Option<f64> {
    let sums: Vec<f64> = (0..reps)
        .filter_map(|r| logs.iter().map(|l| f(l, r)).sum::<Option<f64>>())
        .collect();
    (!sums.is_empty()).then(|| median(&sums))
}

/// The end-to-end metrics of a plan's recordings. A shared host's speed
/// swings with other tenants' load, so times relative to native are
/// medians of ratios paired within one repetition, and absolute times are
/// the fastest repetition.
pub fn end_to_end(res: &OpsResult, m: &mut crate::report::Metrics) {
    let logs = &res.logs;
    let ratio = |a: &[f64], b: &[f64]| a.iter().zip(b).map(|(x, y)| x / y).collect::<Vec<_>>();
    let fastest_ms = |v: &[f64]| vec![v.iter().copied().fold(f64::INFINITY, f64::min) / 1e6];
    let mut set = |name, v: Option<f64>| {
        if let Some(v) = v {
            m.set(name, v);
        }
    };
    set(
        "record_overhead",
        per_op(logs, |l| ratio(&l.record_ns, &l.native_ns)),
    );
    set(
        "replay_overhead",
        per_op(logs, |l| ratio(&l.replay_ns, &l.native_ns)),
    );
    set("open_ms", per_op(logs, |l| fastest_ms(&l.open_ns)));
    let session_ms = per_op(logs, |l| fastest_ms(&l.record_ns));
    set("session_ms", session_ms);
    set("sessions_per_s", session_ms.map(|ms| 1e3 / ms));
    let bytes: u64 = logs
        .iter()
        .filter_map(|l| l.counts.first())
        .map(|c| c.journal_bytes)
        .sum();
    let instrs: u64 = logs.iter().map(|l| l.instructions).sum();
    if instrs > 0 {
        set(
            "recording_bytes_per_minstr",
            Some(bytes as f64 * 1e6 / instrs as f64),
        );
    }
}

/// The per-layer metrics the recording operations and the tracer give.
pub fn per_layer(res: &OpsResult, tr: &Tracer, m: &mut crate::report::Metrics) {
    let logs = &res.logs;
    let reps = res.reps.max(1) as f64;
    let first = |f: fn(&Counts) -> u64| -> f64 {
        logs.iter()
            .filter_map(|l| l.counts.first())
            .map(f)
            .sum::<u64>() as f64
    };
    let busy_ms = |name| tr.busy_ns(name) / reps / 1e6;
    let n_of = |name: &str| tr.durations(name).len();
    let pct = |m: &mut crate::report::Metrics, metric, span: &str| {
        m.set_percentile(
            metric,
            &tr.durations(span),
            50.0,
            1e-3,
            &format!("{span} calls"),
        );
    };

    m.set(
        "trace.overhead_ms",
        per_rep(logs, res.reps, |l, r| l.trace_extra_ns.get(r).copied()).unwrap_or(0.0) / 1e6,
    );
    m.set(
        "os.native_ms",
        per_rep(logs, res.reps, |l, r| l.native_ns.get(r).copied()).unwrap_or(0.0) / 1e6,
    );
    let rate = |v: &[f64], instrs: u64| v.iter().map(|t| instrs as f64 * 1e3 / t).collect();
    for (name, samples) in [
        (
            "os.native_minstr_per_s",
            (|l: &OpLog| &l.native_ns) as fn(&OpLog) -> &Vec<f64>,
        ),
        ("record.minstr_per_s", |l| &l.record_ns),
        ("replay.sequential_minstr_per_s", |l| &l.replay_ns),
        ("replay.parallel_minstr_per_s", |l| &l.par_ns),
    ] {
        if let Some(v) = per_op(logs, |l| rate(samples(l), l.instructions)) {
            m.set(name, v);
        }
    }
    m.set("vm.state_hash_ms", busy_ms("vm.state_hash"));
    pct(m, "vm.state_hash_us_p50", "vm.state_hash");
    m.set("vm.hashed_pages", first(|c| c.hashed_pages));
    m.set("vm.hash_skipped_pages", first(|c| c.skipped_pages));
    m.set(
        "record.thread_parallel.ms",
        busy_ms("record.thread_parallel"),
    );
    pct(
        m,
        "record.thread_parallel.epoch_us_p50",
        "record.thread_parallel",
    );
    m.set(
        "record.thread_parallel.epochs",
        n_of("record.thread_parallel") as f64 / reps,
    );
    pct(m, "checkpoint.capture_us_p50", "checkpoint.capture");
    m.set("checkpoint.image_ms", busy_ms("checkpoint.to_image"));
    m.set(
        "checkpoint.image_pages",
        logs.iter()
            .filter_map(|l| l.image_pages.first())
            .sum::<u64>() as f64,
    );
    pct(m, "checkpoint.restore_us_p50", "checkpoint.from_image");
    m.set(
        "record.epoch_parallel.verify_ms",
        busy_ms("record.epoch_parallel.verify"),
    );
    pct(
        m,
        "record.epoch_parallel.verify_us_p50",
        "record.epoch_parallel.verify",
    );
    m.set(
        "record.epoch_parallel.live_ms",
        busy_ms("record.epoch_parallel.live"),
    );
    m.set(
        "record.epoch_parallel.divergences",
        first(|c| c.divergences),
    );
    m.set(
        "record.epoch_parallel.serialized_epochs",
        first(|c| c.serialized),
    );
    let epochs = first(|c| c.epochs);
    if epochs > 0.0 {
        m.set(
            "record.epoch_parallel.useful_ratio",
            epochs / (epochs + first(|c| c.divergences)),
        );
    }
    m.set(
        "logs.codec.encode_us",
        tr.busy_ns("logs.codec.encode") / reps / 1e3,
    );
    m.set(
        "logs.codec.decode_us",
        tr.busy_ns("logs.codec.decode") / reps / 1e3,
    );
    m.set("logs.log_bytes", first(|c| c.log_bytes));
    m.set(
        "journal.write_ms",
        per_rep(logs, res.reps, |l, r| l.sink_ns.get(r).copied()).unwrap_or(0.0) / 1e6,
    );
    for (name, samples, q, what) in [
        (
            "journal.epoch_write_us_p50",
            &res.epoch_write_ns,
            50.0,
            "epoch writes",
        ),
        (
            "journal.epoch_write_us_p99",
            &res.epoch_write_ns,
            99.0,
            "epoch writes",
        ),
        (
            "journal.commit_gap_us_p50",
            &res.commit_gap_ns,
            50.0,
            "commit gaps",
        ),
        (
            "journal.commit_gap_us_p99",
            &res.commit_gap_ns,
            99.0,
            "commit gaps",
        ),
    ] {
        m.set_percentile(name, samples, q, 1e-3, what);
    }
    m.set("journal.bytes", first(|c| c.journal_bytes));
    m.set(
        "journal.flushes",
        logs.iter().filter_map(|l| l.flushes.first()).sum::<u64>() as f64,
    );
    let open_ns: f64 = logs.iter().flat_map(|l| &l.open_ns).sum();
    let opened: u64 = logs
        .iter()
        .flat_map(|l| l.counts.iter().take(l.open_ns.len()))
        .map(|c| c.journal_bytes)
        .sum();
    if open_ns > 0.0 {
        m.set(
            "journal.salvage_mib_per_s",
            opened as f64 / (1 << 20) as f64 / (open_ns / 1e9),
        );
    }
    m.set(
        "record.coordinator.self_ms",
        per_rep(logs, res.reps, |l, r| l.coordinator_self_ns.get(r).copied()).unwrap_or(0.0) / 1e6,
    );
    let overheads: Vec<f64> = logs
        .iter()
        .filter_map(|l| l.counts.first())
        .map(|c| c.model_overhead)
        .collect();
    if !overheads.is_empty() {
        m.set(
            "record.model_overhead",
            overheads.iter().sum::<f64>() / overheads.len() as f64,
        );
    }
    let utils: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.utilization.iter().copied())
        .collect();
    if !utils.is_empty() {
        m.set("record.pipelined.utilization", median(&utils));
    }
    // Median over each operation's pipelined recordings, summed over
    // operations.
    m.set(
        "record.pipelined.cancelled_epochs",
        logs.iter()
            .filter(|l| !l.cancelled.is_empty())
            .map(|l| median(&l.cancelled.iter().map(|&c| c as f64).collect::<Vec<_>>()))
            .sum(),
    );
    pct(m, "replay.epoch_us_p50", "replay.epoch");
    let chain = per_rep(logs, res.reps, |l, r| l.epoch_chain_ns.get(r).copied());
    let par = per_rep(logs, res.reps, |l, r| l.par_ns.get(r).copied());
    if let (Some(chain), Some(par)) = (chain, par) {
        m.set("replay.parallel_efficiency", chain / (2.0 * par));
    }
}

/// Renders the per-operation count table for the report.
pub fn counts_table(plan: &Plan, res: &OpsResult) -> Vec<String> {
    let mut by_name: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for (op, log) in plan.ops.iter().zip(&res.logs) {
        if let Some(c) = log.counts.first() {
            by_name
                .entry(plan.guests[op.guest].name.clone())
                .or_default()
                .push(format!(
                    "seed {:#x}: {} epochs, {} divergences, {} serialized, {} journal B",
                    op.config.hidden_seed, c.epochs, c.divergences, c.serialized, c.journal_bytes
                ));
        }
    }
    by_name
        .into_iter()
        .flat_map(|(name, rows)| rows.into_iter().map(move |r| format!("  {name:<16} {r}")))
        .collect()
}
