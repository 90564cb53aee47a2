//! Small statistics and process helpers shared by the workloads.

use std::time::Instant;

/// One slice of a [`Sliced`] series.
#[derive(Debug, Clone, Copy)]
struct Slice {
    samples: usize,
    p50: f64,
    p99: f64,
    /// Summed weight per second, from the last sample of the previous
    /// slice to the last sample of this one.
    rate: f64,
}

/// What a [`Sliced`] series reports: each figure at the fast quartile of
/// the slices.
#[derive(Debug, Clone, Copy)]
pub struct SliceSummary {
    /// Lower quartile over slices of each slice's p50 and p99; `n` counts
    /// every sample.
    pub pct: Percentiles,
    /// Upper quartile over slices of each slice's summed weight per second.
    pub rate: f64,
    pub slices: usize,
}

/// A time series cut into slices of `slice_s` seconds. Percentiles (and a
/// rate) are taken per slice and reported at the fast quartile over slices
/// (the lower quartile of latencies, the upper quartile of rates). Load
/// from other tenants of a shared host only ever slows a slice, for stretches
/// of seconds, by up to 2x; the median slice follows that load, while the
/// fast quartile tracks the program on the host's less-loaded stretches and
/// moved about half as much from run to run. Only the current slice's
/// samples are kept, so memory does not grow with the run.
#[derive(Debug)]
pub struct Sliced {
    slice_s: f64,
    current: usize,
    values: Vec<f64>,
    weight: f64,
    /// Time of the last sample, and of the last sample of the previous
    /// slice.
    last_t: f64,
    slice_from: f64,
    slices: Vec<Slice>,
    n: usize,
}

impl Sliced {
    pub fn new(slice_s: f64) -> Self {
        Self {
            slice_s,
            current: 0,
            values: Vec::new(),
            weight: 0.0,
            last_t: 0.0,
            slice_from: 0.0,
            slices: Vec::new(),
            n: 0,
        }
    }

    /// Adds `value` observed at `t` seconds, counting `weight` towards the
    /// slice's rate; `t` must not decrease.
    pub fn push(&mut self, t: f64, value: f64, weight: f64) {
        let slice = (t / self.slice_s).max(0.0) as usize;
        if slice != self.current {
            self.close_slice();
            self.current = slice;
        }
        self.values.push(value);
        self.weight += weight;
        self.last_t = t;
        self.n += 1;
    }

    fn close_slice(&mut self) {
        if !self.values.is_empty() {
            let p = Percentiles::of(&mut self.values);
            self.slices.push(Slice {
                samples: self.values.len(),
                p50: p.p50,
                p99: p.p99,
                rate: self.weight / (self.last_t - self.slice_from).max(1e-9),
            });
            self.values.clear();
            self.weight = 0.0;
            self.slice_from = self.last_t;
        }
    }

    /// The fast quartiles over slices. A last slice with fewer than half
    /// the samples of the fullest one (the run's overrun past its final
    /// slice boundary) is left out.
    pub fn finish(mut self) -> SliceSummary {
        let most = self.slices.iter().map(|s| s.samples).max().unwrap_or(0);
        if self.values.len() * 2 >= most {
            self.close_slice();
        }
        let quartile = |f: fn(&Slice) -> f64, q: f64| {
            let mut column: Vec<f64> = self.slices.iter().map(f).collect();
            sort(&mut column);
            quantile(&column, q)
        };
        SliceSummary {
            pct: Percentiles {
                n: self.n,
                p50: quartile(|s| s.p50, 0.25),
                p99: quartile(|s| s.p99, 0.25),
            },
            rate: quartile(|s| s.rate, 0.75),
            slices: self.slices.len(),
        }
    }
}

/// Nearest-rank quantile of an ascending-sorted sample set (`q` in [0, 1]).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `values` and returns its median (the mean of the middle two for
/// an even count).
pub fn median(values: &mut [f64]) -> f64 {
    sort(values);
    match values.len() {
        0 => 0.0,
        n if n % 2 == 1 => values[n / 2],
        n => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// Sorts floats ascending (NaN-free inputs).
pub fn sort(values: &mut [f64]) {
    values.sort_unstable_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
}

/// Arithmetic mean (0 for an empty set).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Percentiles of a latency sample set, with its size.
#[derive(Debug, Clone, Copy)]
pub struct Percentiles {
    pub n: usize,
    pub p50: f64,
    pub p99: f64,
}

impl Percentiles {
    /// Sorts `samples` and takes its p50 and p99.
    pub fn of(samples: &mut [f64]) -> Self {
        sort(samples);
        Self {
            n: samples.len(),
            p50: quantile(samples, 0.5),
            p99: quantile(samples, 0.99),
        }
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), or `None`
/// where `/proc/self/status` does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The VM's aggregate CPU time counters (`/proc/stat`, in ticks): all
/// time, and time the hypervisor ran something else while a CPU of this VM
/// had work (steal).
#[derive(Debug, Clone, Copy)]
pub struct CpuTicks {
    total: u64,
    steal: u64,
}

impl CpuTicks {
    /// The counters now, or `None` where `/proc/stat` does not have them.
    pub fn now() -> Option<Self> {
        let stat = std::fs::read_to_string("/proc/stat").ok()?;
        let fields: Vec<u64> = stat
            .lines()
            .next()?
            .strip_prefix("cpu ")?
            .split_whitespace()
            .map(|f| f.parse().ok())
            .collect::<Option<_>>()?;
        // user nice system idle iowait irq softirq steal [guest guest_nice],
        // where guest time is already counted in user and nice
        let steal = *fields.get(7)?;
        Some(Self {
            total: fields.iter().take(8).sum(),
            steal,
        })
    }

    /// Share of all CPU time from `self` to `later` that was stolen.
    pub fn steal_share(self, later: Self) -> f64 {
        let total = later.total.saturating_sub(self.total).max(1);
        later.steal.saturating_sub(self.steal) as f64 / total as f64
    }
}

/// Seconds elapsed since `start`.
pub fn secs_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&sorted, 0.5), 50.0);
        assert_eq!(quantile(&sorted, 0.99), 99.0);
        assert_eq!(quantile(&sorted, 1.0), 100.0);
        assert_eq!(quantile(&sorted, 0.0), 1.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn sliced_figures_are_the_fast_quartile() {
        // four 1 s slices; slices 1 and 2 are slowed: fewer samples, each
        // later, and slice 2 more so
        let mut sliced = Sliced::new(1.0);
        for slice in 0..4 {
            let (n, slow) = match slice {
                1 => (50, 2.0),
                2 => (25, 4.0),
                _ => (100, 1.0),
            };
            for i in 0..n {
                let t = f64::from(slice) + (f64::from(i) + 1.0) / f64::from(n);
                let value = slow * f64::from(i * 100 / n);
                sliced.push(t.min(f64::from(slice) + 0.999), value, 1.0);
            }
        }
        // an overrun into a fifth slice is left out
        sliced.push(4.0, 5000.0, 1.0);
        let summary = sliced.finish();
        assert_eq!(summary.slices, 4);
        assert_eq!(summary.pct.n, 276);
        // per-slice p50s are 49, 96, 192 and 49: the lower quartile is an
        // unloaded slice's
        assert_eq!(summary.pct.p50, 49.0);
        assert_eq!(summary.pct.p99, 98.0);
        // per-slice rates are ~100, 50, 25 and 100 per second: the upper
        // quartile is an unloaded slice's
        assert!((summary.rate - 100.0).abs() < 0.2, "{}", summary.rate);
    }

    #[test]
    fn median_sorts_first() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0]), 2.5);
    }
}
