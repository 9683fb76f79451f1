//! The three recording workloads: which guests, under which recorder
//! configuration, into which journal. README.md says why each is there.

use crate::recording::{self, Guest, Journal, Op, Plan};
use crate::{Ctx, SETUP_REPS};
use dp_core::{record, DoublePlayConfig};
use dp_support::rng::mix;
use dp_workloads::{find, Category, Size};
use std::time::{Duration, Instant};

/// Recording workload names.
pub const RECORDING: &[&str] = &["ckpt-heavy", "log-heavy", "racy"];

/// Hidden seeds the racy workload records each guest under.
const RACY_SEEDS: u64 = 6;

/// The recorder configuration the E-series experiments use for two
/// threads (`config_for(2)`): checkpoints kept, sequential driver.
fn config_for_2() -> DoublePlayConfig {
    DoublePlayConfig::new(2).epoch_cycles(200_000)
}

fn guests(names: &[&str], size: Size) -> Result<Vec<Guest>, String> {
    names
        .iter()
        .map(|&name| {
            let case = find(name, 2, size).ok_or_else(|| format!("unknown workload {name}"))?;
            let verify = case.verify;
            Ok(Guest {
                name: name.to_string(),
                race_free: case.category != Category::Racy,
                spec: case.spec,
                check: Some(Box::new(
                    move |m: &dp_vm::Machine, k: &dp_os::kernel::Kernel| {
                        verify(m, k).map_err(|e| e.to_string())
                    },
                )),
            })
        })
        .collect()
}

/// Builds the plan of a recording workload from the run's seed.
pub fn plan(workload: &str, seed: u64) -> Result<Plan, String> {
    let plan = match workload {
        "ckpt-heavy" => {
            let guests = guests(&["pfscan", "pcomp"], Size::Small)?;
            let config = config_for_2().hidden_seed(seed);
            Plan {
                ops: (0..guests.len())
                    .map(|guest| Op { guest, config })
                    .collect(),
                guests,
                journal: Journal::Single,
            }
        }
        "log-heavy" => {
            let guests = guests(&["kvstore", "webserve"], Size::Medium)?;
            // Timed on the sequential driver; the pipelined driver
            // records each guest once more, checked (see `Op::config`).
            let config = config_for_2()
                .keep_checkpoints(false)
                .spare_workers(1)
                .pipelined(true)
                .hidden_seed(seed);
            Plan {
                ops: (0..guests.len())
                    .map(|guest| Op { guest, config })
                    .collect(),
                guests,
                journal: Journal::Sharded,
            }
        }
        "racy" => {
            let guests = guests(
                &["racey-counter", "racey-bank", "racey-lazyinit"],
                Size::Large,
            )?;
            // Experiment E8's jitter configuration.
            let base = DoublePlayConfig {
                tp_quantum: 400,
                tp_jitter: 600,
                ..config_for_2().epoch_cycles(100_000)
            };
            let ops = (0..RACY_SEEDS)
                .flat_map(|k| {
                    let config = base.hidden_seed(mix(&[seed, k]));
                    (0..guests.len()).map(move |guest| Op { guest, config })
                })
                .collect();
            Plan {
                guests,
                ops,
                journal: Journal::Single,
            }
        }
        other => return Err(format!("unknown workload {other}")),
    };
    Ok(plan)
}

/// Runs a recording workload.
pub fn run(workload: &str, ctx: &mut Ctx) -> Result<(), String> {
    let mut built = None;
    for _ in 0..SETUP_REPS {
        // Set-up: build the guests and boot each once.
        let t = Instant::now();
        let p = plan(workload, ctx.seed)?;
        for g in &p.guests {
            drop(g.spec.boot());
        }
        ctx.setup_s.push(t.elapsed().as_secs_f64());
        built = Some(p);
    }
    let plan = built.expect("set up at least once");
    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    let mut res = recording::run_ops(&plan, &ctx.dir, deadline, 3, &mut ctx.tr, &mut ctx.tally);
    ctx.problems.extend(recording::check_determinism(
        &plan,
        &ctx.dir,
        &mut res,
        &mut ctx.tally,
    ));
    if workload == "racy" {
        check_seed_reaches_recorder(&plan, &res, ctx);
    }
    recording::end_to_end(&res, &mut ctx.metrics);
    if ctx.tr.enabled() {
        recording::per_layer(&res, &ctx.tr, &mut ctx.metrics);
    }
    ctx.lines.push(format!(
        "{} repetitions of {} recordings",
        res.reps,
        plan.ops.len()
    ));
    ctx.lines.extend(recording::counts_table(&plan, &res));
    Ok(())
}

/// The racy workload records every guest under several hidden seeds
/// derived from `--seed`; their divergence counts must not all agree, or
/// the seed is not reaching the recorder. When they happen to agree,
/// further derived seeds are recorded until one differs.
fn check_seed_reaches_recorder(plan: &Plan, res: &recording::OpsResult, ctx: &mut Ctx) {
    const MORE_SEEDS: u64 = 16;
    let mut per_seed: Vec<Vec<u64>> = res
        .logs
        .chunks(plan.guests.len())
        .map(|logs| {
            logs.iter()
                .map(|l| l.counts.first().map_or(u64::MAX, |c| c.divergences))
                .collect()
        })
        .collect();
    let all_agree = |v: &[Vec<u64>]| v.windows(2).all(|w| w[0] == w[1]);
    let mut k = RACY_SEEDS;
    while all_agree(&per_seed) && k < RACY_SEEDS + MORE_SEEDS {
        let config = plan.ops[0].config.hidden_seed(mix(&[ctx.seed, k]));
        let counts = plan
            .guests
            .iter()
            .map(|g| record(&g.spec, &config).map(|b| b.stats.divergences))
            .collect::<Result<Vec<_>, _>>();
        match counts {
            Ok(c) => per_seed.push(c),
            Err(e) => {
                ctx.problems
                    .push(format!("recording under an extra hidden seed: {e}"));
                return;
            }
        }
        k += 1;
    }
    ctx.lines.push(format!(
        "divergences per hidden seed (counter, bank, lazyinit): {per_seed:?}"
    ));
    if all_agree(&per_seed) {
        ctx.problems.push(format!(
            "divergence counts are identical under {} hidden seeds: \
             the seed does not reach the recorder",
            per_seed.len()
        ));
    }
}
