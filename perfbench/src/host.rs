//! The host fingerprint printed with every result, and process memory.

use std::hint::black_box;
use std::time::Instant;

/// What the numbers of a run should be read against.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo`, or `"unknown"`.
    pub cpu_model: String,
    /// Measured parallel capacity: the work two spinning threads finish
    /// per second divided by what one finishes alone. 2.0 means two free
    /// cores; 1.0 means the second thread gained nothing.
    pub parallel_capacity: f64,
}

impl Fingerprint {
    /// Probes the host (about 0.2 s).
    pub fn probe() -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Fingerprint {
            nproc,
            cpu_model,
            parallel_capacity: parallel_capacity(),
        }
    }

    /// One human-readable line.
    pub fn line(&self) -> String {
        format!(
            "host: nproc {} | cpu {} | parallel capacity {:.2} (2 spinning threads vs 1)",
            self.nproc, self.cpu_model, self.parallel_capacity
        )
    }
}

fn spin(iters: u64) -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..iters {
        x = black_box(x.rotate_left(7) ^ i).wrapping_mul(0x2545_f491_4f6c_dd1d);
    }
    x
}

/// Two threads each doing `N` spins versus one thread doing `N`:
/// `2 × t(one) / t(two)`. Median of three probes.
fn parallel_capacity() -> f64 {
    const N: u64 = 8_000_000;
    let mut ratios: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            black_box(spin(N));
            let one = t.elapsed().as_secs_f64();
            let t = Instant::now();
            std::thread::scope(|s| {
                let a = s.spawn(|| spin(N));
                let b = s.spawn(|| spin(N));
                black_box(a.join().expect("spin thread") ^ b.join().expect("spin thread"));
            });
            2.0 * one / t.elapsed().as_secs_f64()
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    ratios[1]
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}
