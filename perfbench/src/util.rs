//! Small shared helpers: a seeded RNG, FNV-1a hashing, percentiles, the
//! process's peak RSS and the result-line JSON writer.

use std::fmt::Write as _;

/// SplitMix64: a tiny seeded generator, so every input the benchmark builds
/// is a pure function of `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// FNV-1a, folded incrementally (the benchmark's checksums and its cheap
/// response-line comparison).
#[derive(Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for byte in bytes {
            self.0 ^= u64::from(*byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, value: u64) {
        self.bytes(&value.to_le_bytes());
    }

    pub fn f64(&mut self, value: f64) {
        self.u64(value.to_bits());
    }

    pub fn str(&mut self, value: &str) {
        self.u64(value.len() as u64);
        self.bytes(value.as_bytes());
    }
}

pub fn fnv(bytes: &[u8]) -> u64 {
    let mut hash = Fnv::default();
    hash.bytes(bytes);
    hash.0
}

/// Nearest-rank percentile of `values` (sorted in place); 0 when empty.
pub fn percentile(values: &mut [f64], pct: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = ((pct / 100.0) * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

pub fn median(values: &mut [f64]) -> f64 {
    percentile(values, 50.0)
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU seconds, summed over every CPU, that the rest of the machine has
/// used so far: the busy and stolen time of all CPUs (`/proc/stat`) less
/// this process's own CPU time (`/proc/self/stat`). Both count in the
/// kernel's 100 Hz clock ticks. 0 where `/proc` cannot be read.
pub fn foreign_cpu_s() -> f64 {
    let read = |path| std::fs::read_to_string(path).unwrap_or_default();
    let stat = read("/proc/stat");
    let all: Vec<f64> = stat
        .lines()
        .next()
        .and_then(|line| line.strip_prefix("cpu "))
        .map(|rest| {
            rest.split_whitespace()
                .filter_map(|v| v.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    // user nice system idle iowait irq softirq steal ...
    let busy: f64 = [0, 1, 2, 5, 6, 7].iter().filter_map(|&i| all.get(i)).sum();
    let own_stat = read("/proc/self/stat");
    // The fields after the parenthesised command name start at `state`;
    // `utime` and `stime` are the 12th and 13th of them.
    let own: f64 = own_stat
        .rsplit_once(") ")
        .map(|(_, rest)| {
            rest.split_whitespace()
                .skip(11)
                .take(2)
                .filter_map(|v| v.parse::<f64>().ok())
                .sum()
        })
        .unwrap_or(0.0);
    (busy - own).max(0.0) / 100.0
}

/// The indices of the half of `foreign` (rounded up) with the least
/// foreign CPU, in their original order.
pub fn quietest_half(foreign: &[f64]) -> Vec<usize> {
    let mut by_load: Vec<usize> = (0..foreign.len()).collect();
    by_load.sort_by(|&a, &b| foreign[a].total_cmp(&foreign[b]));
    let mut kept = by_load[..foreign.len().div_ceil(2)].to_vec();
    kept.sort_unstable();
    kept
}

/// Hand the memory freed so far back to the system, so what one server or
/// set-up freed does not stay resident (in another thread's malloc arena)
/// and add to the next one's peak. A no-op off glibc.
pub fn release_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` takes no pointers; it only returns free
        // pages of glibc's own arenas to the kernel.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// One named metric with its unit, in output order.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// An ordered set of metrics, printed as aligned `name value unit` lines
/// and as the `metrics` object of the result line.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn print(&self) {
        for m in &self.0 {
            println!("  {:<40} {:>14.4} {}", m.name, m.value, m.unit);
        }
    }

    pub fn json(&self) -> String {
        let mut out = String::from("{");
        for (i, m) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            );
        }
        out.push('}');
        out
    }
}
