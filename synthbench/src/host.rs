//! Host-speed normalization.
//!
//! On a shared virtual machine the speed of the whole run drifts with
//! the other tenants' load: runs minutes apart read every timing —
//! set-up, solve, tail, throughput alike — 10–30 % slower or faster,
//! far beyond what any statistic inside one run can filter. The run
//! therefore times a fixed calibration kernel before every solve, and
//! scales its timings by how fast that kernel ran: reported seconds
//! are seconds on the reference host, where one kernel pass takes
//! [`KERNEL_REF_S`]. The kernel is the benchmark's own code (text
//! formatting and parsing, hashing, sorting — the instruction mix of
//! the input path), so no change to the program under test can move
//! it.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// The time one [`kernel`] pass is scaled to: below a pass on the
/// reference host (2-vCPU x86-64 KVM guest), where loaded runs read
/// 1.5–1.8× it. It only fixes the unit of the reported seconds.
pub const KERNEL_REF_S: f64 = 250e-6;

/// One pass of the calibration kernel; returns its wall time in
/// seconds.
pub fn kernel() -> f64 {
    let started = Instant::now();
    let mut text = String::with_capacity(48 * 1024);
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..1_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let _ = writeln!(text, "edge P{i} P{} bytes={}", x % 997, x % 64);
    }
    let mut fan_in: HashMap<u64, u64> = HashMap::new();
    let mut keys = Vec::with_capacity(1_000);
    for line in text.lines() {
        let mut fields = line.split_whitespace().skip(1);
        let mut id = || {
            fields
                .next()
                .and_then(|f| {
                    f.trim_start_matches(['P', 'b', 'y', 't', 'e', 's', '='])
                        .parse::<u64>()
                        .ok()
                })
                .unwrap_or(0)
        };
        let (from, to, bytes) = (id(), id(), id());
        *fan_in.entry(to).or_insert(0) += bytes;
        keys.push(from.wrapping_mul(31) ^ to);
    }
    keys.sort_unstable();
    black_box((fan_in.len(), keys));
    started.elapsed().as_secs_f64()
}

/// Kernel timings collected over one run.
#[derive(Default)]
pub struct HostSpeed {
    samples: Vec<f64>,
}

impl HostSpeed {
    pub fn sample(&mut self) {
        self.samples.push(kernel());
    }

    /// How much slower than the reference host this run went: the
    /// median kernel time over [`KERNEL_REF_S`]. Raw seconds divided
    /// by it are reference-host seconds.
    pub fn factor(&self) -> f64 {
        median(&self.samples) / KERNEL_REF_S
    }
}
