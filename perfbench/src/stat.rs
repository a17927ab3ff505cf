//! Timing loops, percentiles, digests and memory readings shared by the
//! workloads.

use std::time::{Duration, Instant};

/// 64-bit FNV-1a fold over words: order-sensitive, exact.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold one word.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
        }
        self
    }

    /// Fold a float by its exact bits.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// The folded value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Fold a list of per-op digests into one.
pub fn fold(digests: &[u64]) -> u64 {
    let mut d = Digest::default();
    for &x in digests {
        d.u64(x);
    }
    d.finish()
}

/// splitmix64 finalizer: derives independent streams from one seed.
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut x = seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A seeded Fisher–Yates shuffle of `0..n`.
pub fn shuffled(seed: u64, n: usize) -> Vec<usize> {
    let mut o: Vec<usize> = (0..n).collect();
    for k in (1..n).rev() {
        o.swap(k, (mix(seed, k as u64) % (k as u64 + 1)) as usize);
    }
    o
}

/// Uniform float in [0, 1) from a hash.
pub fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Nearest-rank percentile of an ascending slice (`q` in 0..=1).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values (0 for none).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// The tail percentile a workload reports: the highest of p90, p99 and
/// p99.9 that keeps at least ten samples beyond it at the workload's run
/// length. Fixed per workload so runs compare like with like.
#[derive(Debug, Clone, Copy)]
pub enum Tail {
    P90,
    P99,
    P999,
}

impl Tail {
    pub fn q(self) -> f64 {
        match self {
            Tail::P90 => 0.90,
            Tail::P99 => 0.99,
            Tail::P999 => 0.999,
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            Tail::P90 => "p90",
            Tail::P99 => "p99",
            Tail::P999 => "p99.9",
        }
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 if unreadable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// What a timed sequence of operations produced.
#[derive(Debug, Default)]
pub struct Phase {
    /// Latency of every timed op, µs.
    pub lat_us: Vec<f64>,
    /// Ops that completed and passed their output check.
    pub ok: u64,
    /// Ops that failed or whose output check failed.
    pub failed: u64,
    /// Wall time of the phase, seconds.
    pub elapsed_s: f64,
    /// Output digests of the first ops, in op order (see [`timed_loop`]).
    pub digests: Vec<u64>,
    /// First few failure messages.
    pub errors: Vec<String>,
}

impl Phase {
    pub fn attempted(&self) -> u64 {
        self.ok + self.failed
    }

    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(msg);
        }
    }
}

/// Run `op(0)`, `op(1)`, … back to back until `budget` has elapsed (the op
/// in flight at the deadline completes), timing each. `op` returns its
/// output digest or an error. Digests of the first `keep` ops are kept for
/// the recorded-digest check.
pub fn timed_loop(
    budget: Duration,
    keep: usize,
    mut op: impl FnMut(u64) -> Result<u64, String>,
) -> Phase {
    let mut phase = Phase::default();
    let start = Instant::now();
    let mut i = 0u64;
    while start.elapsed() < budget {
        let t = Instant::now();
        let out = op(i);
        phase.lat_us.push(t.elapsed().as_nanos() as f64 / 1e3);
        // A failed op keeps its digest slot (as 0) so later slots stay
        // aligned with op indices.
        if phase.digests.len() < keep {
            phase.digests.push(*out.as_ref().unwrap_or(&0));
        }
        match out {
            Ok(_) => phase.ok += 1,
            Err(e) => phase.fail(format!("op {i}: {e}")),
        }
        i += 1;
    }
    phase.elapsed_s = start.elapsed().as_secs_f64();
    phase
}

/// Time `f` in seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}
