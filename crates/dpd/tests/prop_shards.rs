//! The cross-shard crash property: kill the daemon at an arbitrary byte
//! instant while sessions record *sharded* journals, and every session's
//! shard set salvages to exactly the dependency-closed committed prefix —
//! which matches the sequential recording hash-for-hash and replays.
//!
//! This extends the N-journal crash machinery of `prop_daemon.rs` to
//! N·K streams: one [`CrashClock`] cuts every shard of every session at
//! a different, arbitrary point (including mid-frame). The oracle is a
//! solo sharded run instrumented with per-shard commit byte offsets:
//! because epochs land round-robin and each shard's durable bytes are a
//! prefix of its deterministic solo stream, the longest consistent
//! cross-shard prefix is the first epoch whose shard has run out of
//! durable commits — everything before it is dependency-closed by the
//! prefix property, everything after is unreachable.

use dp_core::{
    record_to, replay_sequential, DoublePlayConfig, JournalReader, RecordSink, RecordingMeta,
    ShardedJournalWriter,
};
use dp_dpd::{guests, CrashClock, Daemon, DaemonConfig, MemStore, SessionSpec, SessionStore};
use dp_support::rng::mix;
use std::io::Write;
use std::sync::{Arc, Mutex};

/// A `Write` handle whose bytes are observable mid-run, so the tap can
/// read per-shard stream lengths after every epoch hand-off.
#[derive(Clone)]
struct SharedVec(Arc<Mutex<Vec<u8>>>);

impl Write for SharedVec {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(data);
        Ok(data.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A solo oracle: the full shard streams plus, per shard, the stream
/// length right after each of its epochs' commit frames.
type ShardOracle = (Vec<Vec<u8>>, Vec<Vec<u64>>);

/// A solo sharded run: the full shard streams plus, per shard, the stream
/// length right after each of its epochs' commit frames (the per-shard
/// durability oracle — byte-granular, so group-commit batching is moot).
fn solo_sharded(spec: &SessionSpec, shards: u32) -> ShardOracle {
    struct Tap {
        w: ShardedJournalWriter<SharedVec>,
        bufs: Vec<Arc<Mutex<Vec<u8>>>>,
        commits: Vec<Vec<u64>>,
    }
    impl RecordSink for Tap {
        fn begin(
            &mut self,
            meta: &RecordingMeta,
            initial: &dp_core::CheckpointImage,
        ) -> std::io::Result<()> {
            self.w.begin(meta, initial)
        }
        fn epoch(&mut self, e: &dp_core::EpochRecord) -> std::io::Result<()> {
            self.w.epoch(e)?;
            let t = (e.index % self.w.shard_count()) as usize;
            self.commits[t].push(self.bufs[t].lock().unwrap().len() as u64);
            Ok(())
        }
        fn finish(&mut self) -> std::io::Result<()> {
            self.w.finish()
        }
    }
    let bufs: Vec<Arc<Mutex<Vec<u8>>>> = (0..shards).map(|_| Arc::default()).collect();
    let writers = bufs.iter().map(|b| SharedVec(b.clone())).collect();
    let mut tap = Tap {
        w: ShardedJournalWriter::new(writers, dp_core::DEFAULT_SHARD_BATCH).unwrap(),
        bufs,
        commits: vec![Vec::new(); shards as usize],
    };
    record_to(&spec.guest, &spec.config, &mut tap).unwrap();
    let streams = tap.bufs.iter().map(|b| b.lock().unwrap().clone()).collect();
    (streams, tap.commits)
}

/// The dependency-closed prefix length given how many committed epochs
/// survive per shard. Round-robin + per-shard prefix durability means the
/// merge stops at the first epoch whose shard has no commits left; every
/// earlier epoch's dependency vector is covered by construction.
fn expected_prefix(durable_epochs: &[usize], total_epochs: usize) -> usize {
    let n = durable_epochs.len();
    let mut taken = vec![0usize; n];
    for i in 0..total_epochs {
        let t = i % n;
        if taken[t] >= durable_epochs[t] {
            return i;
        }
        taken[t] += 1;
    }
    total_epochs
}

/// The session mix: shard counts 2..=4 across guest shapes and drivers.
fn session_mix(round: u64) -> Vec<(SessionSpec, u32)> {
    let mut specs = Vec::new();
    for i in 0..4u64 {
        let seed = mix(&[round, i, 0x5a4d]);
        let iters = 300 + (i as i64) * 80;
        let guest = if i % 2 == 1 {
            guests::racy_counter(2, iters)
        } else {
            guests::atomic_counter(2, iters)
        };
        let mut config = DoublePlayConfig::new(2)
            .epoch_cycles(500 + 120 * i)
            .hidden_seed(seed);
        if i == 2 {
            config = config.spare_workers(2).pipelined(true);
        }
        let shards = 2 + (i as u32) % 3;
        specs.push((
            SessionSpec::new(format!("sh{round}-{i}"), guest, config)
                .restart_budget(0)
                .journal_shards(shards),
            shards,
        ));
    }
    specs
}

#[test]
fn daemon_wide_crash_salvages_every_shard_set_to_its_consistent_prefix() {
    for round in 0..2u64 {
        let specs = session_mix(round);
        let oracles: Vec<ShardOracle> = specs
            .iter()
            .map(|(s, shards)| solo_sharded(s, *shards))
            .collect();
        let total: u64 = oracles
            .iter()
            .flat_map(|(streams, _)| streams.iter())
            .map(|b| b.len() as u64)
            .sum();
        assert!(
            oracles
                .iter()
                .all(|(_, commits)| commits.iter().map(Vec::len).sum::<usize>() >= 4),
            "sessions too small to cut interestingly"
        );

        // Crash instants spread over the whole timeline, one random, plus
        // the never-crashes control.
        let mut crash_points: Vec<u64> = (1..8).map(|k| total * k / 8).collect();
        crash_points.push(mix(&[round, 0xbeef]) % total.max(1));
        crash_points.push(total + 1);

        for &crash_at in &crash_points {
            let clock = CrashClock::new(crash_at);
            let store = Arc::new(MemStore::crashing(clock));
            let daemon = Daemon::start(
                DaemonConfig {
                    runners: 3,
                    verify_cores: 4,
                    queue_capacity: 64,
                    ..DaemonConfig::default()
                },
                store.clone(),
            );
            let ids: Vec<_> = specs
                .iter()
                .map(|(s, _)| daemon.submit(s.clone()).expect("admission"))
                .collect();
            daemon.drain();
            daemon.shutdown();

            for (((spec, shards), (solo_streams, commits)), &id) in
                specs.iter().zip(&oracles).zip(&ids)
            {
                let durable: Vec<Vec<u8>> = (0..*shards)
                    .map(|k| store.durable_stream(id, k).unwrap())
                    .collect();
                // Each shard's durability is a prefix of its deterministic
                // solo stream: daemon concurrency must not leak into any
                // shard.
                for (t, d) in durable.iter().enumerate() {
                    assert!(
                        solo_streams[t].starts_with(d),
                        "{}: shard {t} durable bytes diverge from solo \
                         (crash_at={crash_at})",
                        spec.name
                    );
                }
                let durable_epochs: Vec<usize> = commits
                    .iter()
                    .enumerate()
                    .map(|(t, offs)| {
                        offs.iter()
                            .filter(|&&o| o as usize <= durable[t].len())
                            .count()
                    })
                    .collect();
                let total_epochs: usize = commits.iter().map(Vec::len).sum();
                let expected = expected_prefix(&durable_epochs, total_epochs);
                let reference = JournalReader::salvage_shards(solo_streams).unwrap();
                assert!(reference.clean, "solo shard set must merge clean");

                match JournalReader::salvage_shards(&durable) {
                    Ok(salv) => {
                        assert_eq!(
                            salv.committed(),
                            expected,
                            "{}: merge != dependency-closure oracle \
                             (crash_at={crash_at}, durable_epochs={durable_epochs:?})",
                            spec.name
                        );
                        assert_eq!(
                            salv.dropped_epochs,
                            durable_epochs.iter().sum::<usize>() - expected,
                            "{}: durable-but-inconsistent epoch count \
                             (crash_at={crash_at})",
                            spec.name
                        );
                        let fully_durable = durable
                            .iter()
                            .zip(solo_streams)
                            .all(|(d, s)| d.len() == s.len());
                        assert_eq!(
                            salv.clean, fully_durable,
                            "{}: clean flag wrong (crash_at={crash_at})",
                            spec.name
                        );
                        // The merged epochs are the sequential recording's,
                        // hash for hash...
                        for (a, b) in salv
                            .recording
                            .epochs
                            .iter()
                            .zip(&reference.recording.epochs)
                        {
                            assert_eq!(a.index, b.index);
                            assert_eq!(
                                a.end_machine_hash, b.end_machine_hash,
                                "{}: epoch {} differs from solo (crash_at={crash_at})",
                                spec.name, a.index
                            );
                        }
                        // ...and the consistent prefix replays.
                        let report = replay_sequential(&salv.recording, &spec.guest.program)
                            .expect("salvaged prefix must replay");
                        assert_eq!(report.epochs as usize, expected);
                    }
                    Err(_) => {
                        // Only acceptable while shard 0's full header is
                        // not yet durable — no epoch can be consistent
                        // without the recording header.
                        assert_eq!(
                            expected, 0,
                            "{}: header lost but oracle expects {expected} epochs \
                             (crash_at={crash_at})",
                            spec.name
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn sharded_sessions_finalize_clean_without_a_crash() {
    let specs = session_mix(77);
    let store = Arc::new(MemStore::crashing(CrashClock::new(u64::MAX)));
    let daemon = Daemon::start(DaemonConfig::default(), store.clone());
    let ids: Vec<_> = specs
        .iter()
        .map(|(s, _)| daemon.submit(s.clone()).expect("admission"))
        .collect();
    daemon.drain();
    for ((spec, shards), &id) in specs.iter().zip(&ids) {
        let r = daemon.report(id).unwrap();
        assert_eq!(
            r.state,
            dp_dpd::SessionState::Finalized,
            "{}: {:?} ({:?})",
            spec.name,
            r.state,
            r.error
        );
        let bufs: Vec<Vec<u8>> = (0..*shards)
            .map(|k| store.durable_stream(id, k).unwrap())
            .collect();
        let salv = JournalReader::salvage_shards(&bufs).unwrap();
        assert!(salv.clean);
        assert_eq!(salv.committed(), r.epochs as usize);
        assert_eq!(salv.shard_count, *shards);
    }
    daemon.shutdown();
}
