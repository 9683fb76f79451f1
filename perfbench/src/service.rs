//! The `service` workload: `dpd` served over its unix socket in this
//! process, driven by an open-loop generator at a ladder of fixed rates.

use crate::recording::{self, Guest, Journal, Op, Plan};
use crate::stats::{geomean, median, percentile, Tally};
use crate::trace::Tracer;
use crate::{Ctx, SETUP_REPS};
use dp_core::{record_to, DoublePlayConfig, FaultPlan, JournalReader, JournalWriter};
use dp_dpd::{
    serve, Client, ClientError, Daemon, DaemonConfig, GuestRef, MemStore, Priority, ServerConfig,
    SessionId, SessionState, SessionStore, SubmitSpec, WireFault,
};
use dp_support::rng::mix;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Guest threads of every session.
const WORKERS: usize = 2;

/// A session must reach a terminal state within this long after it was
/// due, at the ladder's p90, for a rung to pass.
pub const LATENCY_LIMIT_MS: f64 = 50.0;

/// The ladder: offered rates (sessions per second), lowest first, each
/// with the share of the run it lasts. The first rung is the reference
/// rate `session_ms` is read at, so it runs longest.
pub const LADDER: &[(f64, f64)] = &[(100.0, 0.40), (200.0, 0.10), (400.0, 0.10)];

/// Share of the run spent recording the session guests directly.
const SOLO_SHARE: f64 = 0.3;

/// Seeded sessions re-recorded solo and compared with the daemon's copy.
const SOLO_SAMPLE: usize = 4;

/// Session `i` of the E16 guest mix: atomic and racy counters, every
/// other session pipelined, every fourth under a divergence storm.
pub fn spec_for(seed: u64, i: usize) -> SubmitSpec {
    let iters = 300 + (i % 5) as i64 * 60;
    let guest = if i % 2 == 1 {
        GuestRef::RacyCounter {
            workers: WORKERS as u64,
            iters,
        }
    } else {
        GuestRef::AtomicCounter {
            workers: WORKERS as u64,
            iters,
        }
    };
    let mut config = DoublePlayConfig::new(WORKERS)
        .epoch_cycles(800)
        .hidden_seed(mix(&[seed, i as u64]));
    if i.is_multiple_of(2) {
        config = config.spare_workers(2).pipelined(true);
    }
    if i % 4 == 1 {
        config = config.faults(FaultPlan::none().seed(0xe16).storms(0.05, 3, 16));
    }
    let mut spec = SubmitSpec::new(format!("bench-{i}"), guest, config);
    spec.priority = match i % 3 {
        0 => Priority::High,
        1 => Priority::Normal,
        _ => Priority::Low,
    };
    spec
}

/// Sessions of the mix recorded directly per repetition: enough that the
/// seed-dependent divergences of single sessions average out.
const SOLO_SESSIONS: usize = 192;

/// The first sessions of the mix as a recording plan, so the session
/// guests' direct recording is measured as every other workload's is.
fn solo_plan(seed: u64) -> Result<Plan, String> {
    let mut guests = Vec::new();
    let mut ops = Vec::new();
    for i in 0..SOLO_SESSIONS {
        let spec = spec_for(seed, i);
        let guest = spec.guest.resolve().map_err(|e| format!("{e:?}"))?;
        let check: Option<recording::Check> = match spec.guest {
            GuestRef::AtomicCounter { workers, iters } => {
                let want = workers * iters as u64;
                Some(Box::new(
                    move |m: &dp_vm::Machine, _: &dp_os::kernel::Kernel| match m.halted() {
                        Some(v) if v == want => Ok(()),
                        other => Err(format!("counter exit {other:?}, want {want}")),
                    },
                ))
            }
            _ => None,
        };
        let mut config = spec.config;
        config.pipelined = spec.pipelined;
        guests.push(Guest {
            name: spec.name.clone(),
            race_free: check.is_some(),
            spec: guest,
            check,
        });
        ops.push(Op { guest: i, config });
    }
    Ok(Plan {
        guests,
        ops,
        journal: Journal::Single,
    })
}

/// A running daemon with its socket server.
pub struct Service {
    daemon: Arc<Daemon<MemStore>>,
    server: JoinHandle<std::io::Result<()>>,
    path: PathBuf,
}

impl Service {
    /// Starts the daemon with one runner and one verify core and serves it
    /// on `path`; returns once the socket accepts. With two of each, the
    /// daemon's threads, the generator and the connection threads
    /// outnumber a 2-core host's cores: in six paired runs on one,
    /// `session_ms` read about 12% lower and spread less with one of each,
    /// which still meets the latency limit at 400 sessions/s.
    pub fn start(path: &Path) -> Result<Self, String> {
        let daemon = Arc::new(Daemon::start(
            DaemonConfig {
                runners: 1,
                verify_cores: 1,
                queue_capacity: 256,
                ..DaemonConfig::default()
            },
            Arc::new(MemStore::new()),
        ));
        let server = {
            let d = daemon.clone();
            let p = path.to_path_buf();
            std::thread::spawn(move || serve(&d, &p, ServerConfig::default()))
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match Client::connect(path) {
                Ok(_) => break,
                Err(_) if Instant::now() < deadline && !server.is_finished() => {
                    std::thread::sleep(Duration::from_micros(200))
                }
                Err(e) => return Err(format!("dpd socket never accepted: {e}")),
            }
        }
        Ok(Service {
            daemon,
            server,
            path: path.to_path_buf(),
        })
    }

    /// A fresh client connection.
    pub fn connect(&self) -> Result<Client, String> {
        Client::connect(&self.path).map_err(|e| format!("connect: {e}"))
    }

    /// Stops the server, drains and stops the daemon, joining every thread.
    pub fn stop(self) -> Result<(), String> {
        self.connect()?
            .shutdown()
            .map_err(|e| format!("shutdown: {e}"))?;
        let served = self.server.join().map_err(|_| "server thread panicked")?;
        served.map_err(|e| format!("serve: {e}"))?;
        match Arc::try_unwrap(self.daemon) {
            Ok(d) => d.shutdown(),
            Err(_) => return Err("daemon still shared after the server stopped".into()),
        }
        Ok(())
    }
}

/// What one rung of the ladder measured.
#[derive(Debug, Default)]
struct Rung {
    rate: f64,
    /// Due-to-terminal latencies, ms; refused or unfinished sessions count
    /// as infinitely late.
    latency_ms: Vec<f64>,
    /// Whether each of those sessions ran on the pipelined driver.
    pipelined: Vec<bool>,
    /// Sessions that reached a terminal state.
    completed: usize,
    /// Time from the rung's start to its last completion, s.
    span_s: f64,
}

impl Rung {
    fn record(&mut self, pipelined: bool, latency_ms: f64) {
        self.pipelined.push(pipelined);
        self.latency_ms.push(latency_ms);
    }

    /// The median latency of the sessions on each recorder driver,
    /// combined by geometric mean. Half the mix is pipelined and takes
    /// about twice as long, so one median over every session would fall
    /// in the gap between the two groups and swing with either's tail.
    fn driver_p50(&self) -> f64 {
        let medians: Vec<f64> = [false, true]
            .into_iter()
            .map(|driver| {
                self.latency_ms
                    .iter()
                    .zip(&self.pipelined)
                    .filter(|&(_, &p)| p == driver)
                    .map(|(&l, _)| l)
                    .collect::<Vec<_>>()
            })
            .filter(|v| !v.is_empty())
            .map(|v| median(&v))
            .collect();
        geomean(&medians)
    }

    fn passes(&self) -> bool {
        self.completed == self.latency_ms.len()
            && percentile(&self.latency_ms, 90.0).is_some_and(|p| p <= LATENCY_LIMIT_MS)
    }
}

/// Per-request samples of the whole ladder.
#[derive(Debug, Default)]
struct LoadSamples {
    submit_us: Vec<f64>,
    status_us: Vec<f64>,
    late_us: Vec<f64>,
    admission_us: Vec<f64>,
    submitted: usize,
    rejected: usize,
    /// Sessions admitted, with their mix index.
    ids: Vec<(SessionId, usize)>,
}

/// Runs one rung: `rate × secs` sessions due at fixed times from one
/// generator thread over a submit and a watcher connection. Sessions still
/// running `LATENCY_LIMIT_MS` after the last was due are left to finish
/// and count as late.
#[allow(clippy::too_many_arguments)]
fn run_rung(
    sub: &mut Client,
    watch: &mut Client,
    seed: u64,
    first: usize,
    rate: f64,
    secs: f64,
    load: &mut LoadSamples,
    tally: &mut Tally,
    tr: &mut Tracer,
) -> Rung {
    let n = (rate * secs).round().max(1.0) as usize;
    let start = Instant::now();
    let mut rung = Rung {
        rate,
        ..Rung::default()
    };
    let mut outstanding: Vec<(SessionId, f64, bool)> = Vec::new();
    let give_up = n as f64 / rate + LATENCY_LIMIT_MS / 1e3;
    let mut next = 0;
    loop {
        // Submit what is due, a few at a time so the watcher keeps
        // polling even when the generator runs behind schedule.
        let mut submitted = 0;
        while next < n && submitted < 4 {
            let now = start.elapsed().as_secs_f64();
            let due = next as f64 / rate;
            if now < due {
                break;
            }
            load.late_us.push((now - due) * 1e6);
            let spec = spec_for(seed, first + next);
            let t = Instant::now();
            let res = tr.span("dpd.submit", || sub.submit(&spec));
            load.submitted += 1;
            match res {
                Ok(id) => {
                    load.submit_us.push(t.elapsed().as_nanos() as f64 / 1e3);
                    load.ids.push((id, first + next));
                    outstanding.push((id, due, spec.pipelined));
                }
                Err(ClientError::Fault(WireFault::Rejected { .. })) => {
                    load.rejected += 1;
                    rung.record(spec.pipelined, f64::INFINITY);
                }
                Err(e) => {
                    tally.op(Err(format!("submit: {e}")));
                    rung.record(spec.pipelined, f64::INFINITY);
                }
            }
            next += 1;
            submitted += 1;
        }
        if outstanding.is_empty() && next == n {
            break;
        }
        if next == n && start.elapsed().as_secs_f64() > give_up {
            for (_, _, pipelined) in outstanding.drain(..) {
                rung.record(pipelined, f64::INFINITY);
            }
            break;
        }
        // Poll the oldest few sessions.
        let mut i = 0;
        let mut finished = 0;
        for _ in 0..4 {
            let Some(&(id, due, pipelined)) = outstanding.get(i) else {
                break;
            };
            let t = Instant::now();
            let report = watch.status(id);
            load.status_us.push(t.elapsed().as_nanos() as f64 / 1e3);
            match report {
                Ok(r) if r.state.is_terminal() => {
                    let at = start.elapsed().as_secs_f64();
                    rung.record(pipelined, (at - due) * 1e3);
                    rung.completed += 1;
                    rung.span_s = at;
                    load.admission_us.push(r.admission_wait_ns as f64 / 1e3);
                    outstanding.remove(i);
                    finished += 1;
                }
                Ok(_) => i += 1,
                Err(e) => {
                    tally.op(Err(format!("status: {e}")));
                    rung.record(pipelined, f64::INFINITY);
                    outstanding.remove(i);
                }
            }
        }
        if submitted == 0 && finished == 0 {
            // Idle: wait a little, never past the next due time.
            let until_due = (next as f64 / rate - start.elapsed().as_secs_f64()).max(0.0);
            std::thread::sleep(Duration::from_secs_f64(until_due.min(0.0002)));
        }
    }
    rung
}

/// Runs the service workload; fills `ctx` and counts every operation.
pub fn run(ctx: &mut Ctx) -> Result<(), String> {
    let seed = ctx.seed;
    let socket = ctx.dir.join("dpd.sock");
    let mut built = None;
    for _ in 0..SETUP_REPS {
        // Set-up: build the guests, start the daemon and its socket.
        let t = Instant::now();
        let plan = solo_plan(seed)?;
        let s = Service::start(&socket)?;
        ctx.setup_s.push(t.elapsed().as_secs_f64());
        Service::stop(s)?;
        built = Some(plan);
    }
    let plan = built.expect("set up at least once");

    // Direct recording of the session guests, measured as every other
    // workload's recordings are. The daemon is not running yet: its idle
    // threads' polling would land in these sub-millisecond timings.
    let solo_deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds * SOLO_SHARE);
    let mut ops = recording::run_ops(
        &plan,
        &ctx.dir,
        solo_deadline,
        3,
        &mut ctx.tr,
        &mut ctx.tally,
    );
    ctx.problems.extend(recording::check_determinism(
        &plan,
        &ctx.dir,
        &mut ops,
        &mut ctx.tally,
    ));
    recording::end_to_end(&ops, &mut ctx.metrics);
    if ctx.tr.enabled() {
        recording::per_layer(&ops, &ctx.tr, &mut ctx.metrics);
    }
    ctx.lines.push(format!(
        "direct record_to of {} session guests: {} repetitions, {:.3} ms fastest (geometric mean)",
        plan.ops.len(),
        ops.reps,
        ctx.metrics.get("session_ms").unwrap_or(f64::NAN)
    ));

    // The ladder, lowest rate first, stopping after the first failure.
    let service = Service::start(&socket)?;
    let mut sub = service.connect()?;
    let mut watch = service.connect()?;
    let mut load = LoadSamples::default();
    let mut rungs: Vec<Rung> = Vec::new();
    let mut first = 0;
    for &(rate, share) in LADDER {
        let span = ctx.tr.open_span("dpd.rung");
        let rung = run_rung(
            &mut sub,
            &mut watch,
            seed,
            first,
            rate,
            ctx.seconds * share,
            &mut load,
            &mut ctx.tally,
            &mut ctx.tr,
        );
        ctx.tr.close_span(span);
        first += rung.latency_ms.len();
        let pass = rung.passes();
        ctx.lines.push(format!(
            "rung {:>5.0}/s: {} sessions, {} completed, p50 {:.2} ms, p90 {} ms: {}",
            rate,
            rung.latency_ms.len(),
            rung.completed,
            median(&rung.latency_ms),
            percentile(&rung.latency_ms, 90.0).map_or("n/a".into(), |p| format!("{p:.2}")),
            if pass {
                "meets the limit"
            } else {
                "misses the limit"
            }
        ));
        rungs.push(rung);
        if !pass {
            break;
        }
    }
    service.daemon.drain();

    // Every session: finalized, attach-streamed byte-equal to the
    // daemon's durable copy, and replayable.
    let attach_start = Instant::now();
    let mut attach_bytes = 0u64;
    let mut journals = Vec::new();
    for &(id, i) in &load.ids {
        let mut streamed = Vec::new();
        let got = ctx
            .tr
            .span("dpd.attach", || watch.attach(id, &mut streamed));
        let outcome = match got {
            Ok(a) if a.state == SessionState::Finalized && a.clean => {
                attach_bytes += a.bytes;
                match service.daemon.store().durable(id) {
                    Ok(d) if d == streamed => Ok(()),
                    Ok(_) => Err(format!(
                        "session {i}: attached journal differs from durable copy"
                    )),
                    Err(e) => Err(format!("session {i}: durable copy: {e}")),
                }
            }
            Ok(a) => Err(format!(
                "session {i} ended {:?}, clean {}",
                a.state, a.clean
            )),
            Err(e) => Err(format!("session {i}: attach: {e}")),
        };
        if outcome.is_ok() {
            journals.push((i, streamed));
        }
        ctx.tally.op(outcome);
    }
    let attach_s = attach_start.elapsed().as_secs_f64();
    let mut served_instructions = 0u64;
    for (i, journal) in &journals {
        let program = spec_for(seed, *i)
            .guest
            .resolve()
            .map_err(|e| format!("{e:?}"))?
            .program;
        let outcome = JournalReader::salvage(journal)
            .map_err(|e| format!("salvage: {e}"))
            .and_then(|s| {
                dp_core::replay_sequential(&s.recording, &program)
                    .map_err(|e| format!("replay: {e}"))
            })
            .map(|r| served_instructions += r.instructions)
            .map_err(|e| format!("session {i}: {e}"));
        ctx.tally.op(outcome);
    }

    // A seeded sample of sessions, recorded solo, must equal the daemon's
    // copy byte for byte.
    for k in 0..SOLO_SAMPLE.min(journals.len()) {
        let pick = (mix(&[seed, 0x501, k as u64]) % journals.len() as u64) as usize;
        let (i, journal) = &journals[pick];
        let spec = spec_for(seed, *i);
        let guest = spec.guest.resolve().map_err(|e| format!("{e:?}"))?;
        let mut config = spec.config;
        config.pipelined = spec.pipelined;
        let mut w = JournalWriter::new(Vec::new()).map_err(|e| e.to_string())?;
        let outcome = match record_to(&guest, &config, &mut w) {
            Ok(_) if &w.into_inner() == journal => Ok(()),
            Ok(_) => Err(format!(
                "session {i}: daemon journal differs from a solo record_to"
            )),
            Err(e) => Err(format!("session {i}: solo record: {e}")),
        };
        ctx.tally.op(outcome);
    }

    let daemon = service.daemon.metrics();
    drop((sub, watch));
    service.stop()?;

    // End-to-end: the reference rung's median, and the achieved rate at
    // the highest rung that met the limit (the first rung's if none did).
    let m = &mut ctx.metrics;
    m.set("session_ms", rungs[0].driver_p50());
    let best = rungs.iter().rfind(|r| r.passes()).unwrap_or(&rungs[0]);
    m.set("sessions_per_s", best.completed as f64 / best.span_s);
    if served_instructions > 0 {
        // Over every served session's durable journal, so the per-session
        // seeds average out.
        m.set(
            "recording_bytes_per_minstr",
            attach_bytes as f64 * 1e6 / served_instructions as f64,
        );
    }
    for r in &rungs {
        if r.latency_ms.iter().any(|l| l.is_infinite()) {
            ctx.lines.push(format!(
                "rung {:.0}/s: some sessions refused or unfinished",
                r.rate
            ));
        }
    }

    let pooled: Vec<f64> = rungs
        .iter()
        .filter(|r| r.passes())
        .flat_map(|r| r.latency_ms.iter().copied())
        .collect();
    for (name, samples, q, what) in [
        (
            "dpd.proto.submit_rtt_us_p50",
            &load.submit_us,
            50.0,
            "submits",
        ),
        (
            "dpd.proto.submit_rtt_us_p99",
            &load.submit_us,
            99.0,
            "submits",
        ),
        (
            "dpd.proto.status_rtt_us_p50",
            &load.status_us,
            50.0,
            "status calls",
        ),
        (
            "dpd.admission.wait_us_p50",
            &load.admission_us,
            50.0,
            "sessions",
        ),
        (
            "dpd.admission.wait_us_p99",
            &load.admission_us,
            99.0,
            "sessions",
        ),
        (
            "dpd.session_p99_ms",
            &pooled,
            99.0,
            "sessions on passing rungs",
        ),
        ("loadgen.late_us_p99", &load.late_us, 99.0, "submits"),
    ] {
        m.set_percentile(name, samples, q, 1.0, what);
    }
    m.set(
        "dpd.admission.rejected_ratio",
        load.rejected as f64 / load.submitted.max(1) as f64,
    );
    m.set("dpd.daemon.degraded_runs", daemon.degraded_runs as f64);
    m.set("dpd.daemon.retries", daemon.retries as f64);
    if attach_s > 0.0 && attach_bytes > 0 {
        m.set(
            "dpd.attach_mib_per_s",
            attach_bytes as f64 / (1 << 20) as f64 / attach_s,
        );
    }
    Ok(())
}
