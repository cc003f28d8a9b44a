//! Exact quantiles over raw samples, the tail-percentile rule, and the
//! process readings (`/proc/self`) the end-to-end metrics use.

use std::time::Duration;

/// The percentiles a tail metric may report, highest first, in per mille.
const TAIL_PER_MILLE: [u32; 2] = [990, 950];

/// Samples a tail percentile must leave above it before it is reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank quantile of `sorted` at `per_mille`/1000: the smallest
/// sample with at least that share of the samples at or below it.
/// Integer arithmetic keeps `n = 200, p95` at rank 190 exactly.
pub fn quantile(sorted: &[f64], per_mille: u32) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (sorted.len() * per_mille as usize).div_ceil(1000).max(1);
    sorted[rank - 1]
}

/// How many samples rank above the `per_mille` quantile.
fn beyond(n: usize, per_mille: u32) -> usize {
    n - (n * per_mille as usize).div_ceil(1000).max(1)
}

/// A tail reading: the percentile used and its value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// `99` or `95`.
    pub percentile: u32,
    pub value: f64,
    /// False when even p95 has fewer than [`TAIL_MIN_BEYOND`] samples
    /// above it; the value is then p95 and the run says so.
    pub supported: bool,
}

/// The highest of p99 and p95 that has at least ten samples beyond it.
pub fn tail(sorted: &[f64]) -> Tail {
    for pm in TAIL_PER_MILLE {
        if beyond(sorted.len(), pm) >= TAIL_MIN_BEYOND {
            return Tail {
                percentile: pm / 10,
                value: quantile(sorted, pm),
                supported: true,
            };
        }
    }
    Tail {
        percentile: 95,
        value: quantile(sorted, 950),
        supported: false,
    }
}

/// Median and tail of a sample set, plus its size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub tail: Tail,
}

impl Summary {
    /// Summarize raw samples. `None` when there are none.
    pub fn of(samples: impl IntoIterator<Item = f64>) -> Option<Summary> {
        let mut sorted: Vec<f64> = samples.into_iter().collect();
        if sorted.is_empty() {
            return None;
        }
        sorted.sort_by(f64::total_cmp);
        Some(Summary {
            n: sorted.len(),
            p50: quantile(&sorted, 500),
            tail: tail(&sorted),
        })
    }
}

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Microseconds of a duration.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// `num / den`, or `None` when the base is zero.
pub fn ratio(num: f64, den: f64) -> Option<f64> {
    (den > 0.0).then(|| num / den)
}

/// Clock ticks per second of `/proc/self/stat` CPU times. Linux has
/// reported `USER_HZ = 100` to userspace on every architecture since 2.6.
const USER_HZ: f64 = 100.0;

/// User plus system CPU time of the whole process, all threads.
pub fn process_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name (field 2) may hold spaces; fields after its
    // closing parenthesis are space-separated, utime and stime being the
    // 12th and 13th of them.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: f64 =
        fields[11].parse::<f64>().expect("utime") + fields[12].parse::<f64>().expect("stime");
    Duration::from_secs_f64(ticks / USER_HZ)
}

/// Machine-wide CPU ticks from `/proc/stat`: (stolen by the hypervisor,
/// all). The share stolen over a run says how much other tenants of the
/// host took from it.
pub fn steal_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").expect("/proc/stat is readable");
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .expect("/proc/stat has a cpu line")
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Peak resident set size of the process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("VmHWM is reported");
    kib / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_quantiles_come_from_raw_samples() {
        let s = ramp(200);
        assert_eq!(quantile(&s, 500), 100.0);
        assert_eq!(quantile(&s, 950), 190.0);
        assert_eq!(quantile(&s, 990), 198.0);
        assert_eq!(quantile(&[7.0], 500), 7.0);
        assert_eq!(quantile(&[1.0, 2.0], 500), 1.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0], 500), 2.0);
    }

    #[test]
    fn tail_takes_the_highest_percentile_with_ten_samples_beyond() {
        // 200 samples: p99 leaves 2 beyond, p95 exactly 10.
        let t = tail(&ramp(200));
        assert_eq!((t.percentile, t.value, t.supported), (95, 190.0, true));
        // 1,000 samples: p99 leaves 10 beyond.
        let t = tail(&ramp(1000));
        assert_eq!((t.percentile, t.value, t.supported), (99, 990.0, true));
        // 999 samples: p99 leaves 9 beyond, so p95 it is.
        assert_eq!(tail(&ramp(999)).percentile, 95);
        // 199 samples: nothing qualifies; p95 is reported as unsupported.
        let t = tail(&ramp(199));
        assert_eq!((t.percentile, t.supported), (95, false));
    }

    #[test]
    fn summary_sorts_its_input() {
        let s = Summary::of([5.0, 1.0, 3.0, 2.0, 4.0]).unwrap();
        assert_eq!((s.n, s.p50), (5, 3.0));
        assert!(Summary::of([]).is_none());
    }

    #[test]
    fn process_readings_are_positive() {
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        assert!(peak_rss_mib() > 0.0);
        assert!(process_cpu() >= Duration::ZERO);
    }
}
