//! Open-loop shot generator: shots fall due on a Poisson schedule fixed
//! in advance, whether or not the decoder has kept up, and each shot's
//! latency runs from when it was due to when the generator observes its
//! outcome. A stall therefore raises the latency of every shot due during
//! it, and how late the generator itself sent each shot is recorded too.

use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Due times (ns from the start of the run) of a Poisson process with
/// `rate_per_s` arrivals per second over `seconds`.
pub fn poisson_schedule(seed: u64, rate_per_s: f64, seconds: f64) -> Vec<u64> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let horizon_ns = seconds * 1e9;
    let mut due = Vec::with_capacity((rate_per_s * seconds * 1.1) as usize + 16);
    let mut t = 0.0;
    loop {
        // 53-bit uniform in (0, 1): the +0.5 keeps ln() finite
        let uniform = ((rng.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
        t += -uniform.ln() / rate_per_s * 1e9;
        if t >= horizon_ns {
            return due;
        }
        due.push(t as u64);
    }
}

/// The decoder under an open-loop generator.
pub trait Target {
    /// A submitted shot whose outcome is not yet observed.
    type Pending;

    /// Nanoseconds since the start of the run.
    fn now_ns(&mut self) -> u64;

    /// Submits arrival `arrival` (blocking while the decoder applies
    /// backpressure). `None` means the submission failed.
    fn send(&mut self, arrival: usize) -> Option<Self::Pending>;

    /// The shot's outcome if ready: `Some(true)` for a correct outcome,
    /// `Some(false)` for a failed one.
    fn poll(&mut self, arrival: usize, pending: &mut Self::Pending) -> Option<bool>;
}

/// What one open-loop run observed.
#[derive(Debug, Default)]
pub struct Record {
    /// Per observed shot: its arrival index and its outcome time minus its
    /// due time, in ns.
    pub latencies: Vec<(usize, f64)>,
    /// Per sent shot: send time minus due time, in ns.
    pub lag_ns: Vec<f64>,
    /// Shots whose submission failed or whose outcome was a failure.
    pub failed: u64,
    /// Time the last outcome was observed, ns from the start.
    pub end_ns: u64,
}

/// Drives `target` through `schedule`, then waits for every outcome.
pub fn drive<T: Target>(target: &mut T, schedule: &[u64]) -> Record {
    let mut record = Record {
        latencies: Vec::with_capacity(schedule.len()),
        lag_ns: Vec::with_capacity(schedule.len()),
        ..Record::default()
    };
    let mut pending: Vec<(usize, T::Pending)> = Vec::new();
    let mut next = 0;
    while next < schedule.len() || !pending.is_empty() {
        let now = target.now_ns();
        let mut busy = false;
        if next < schedule.len() && now >= schedule[next] {
            busy = true;
            record.lag_ns.push((now - schedule[next]) as f64);
            match target.send(next) {
                Some(p) => pending.push((next, p)),
                None => record.failed += 1,
            }
            next += 1;
        }
        let mut i = 0;
        while i < pending.len() {
            let (arrival, ref mut p) = pending[i];
            match target.poll(arrival, p) {
                Some(ok) => {
                    let seen = target.now_ns();
                    let latency = seen.saturating_sub(schedule[arrival]) as f64;
                    record.latencies.push((arrival, latency));
                    record.failed += u64::from(!ok);
                    record.end_ns = record.end_ns.max(seen);
                    pending.swap_remove(i);
                    busy = true;
                }
                None => i += 1,
            }
        }
        if !busy {
            // let a decode thread that shares this core run
            std::thread::yield_now();
        }
    }
    record
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A simulated decoder on a simulated clock: each poll advances the
    /// clock by 1 µs, a shot completes 5 µs after it was sent, and sending
    /// `stall_at` stalls the clock for `stall_ns`.
    struct Simulated {
        clock: u64,
        stall_at: Option<usize>,
        stall_ns: u64,
    }

    impl Target for Simulated {
        type Pending = u64;

        fn now_ns(&mut self) -> u64 {
            self.clock += 1_000;
            self.clock
        }

        fn send(&mut self, arrival: usize) -> Option<u64> {
            if self.stall_at == Some(arrival) {
                self.clock += self.stall_ns;
            }
            Some(self.clock + 5_000)
        }

        fn poll(&mut self, _arrival: usize, ready_at: &mut u64) -> Option<bool> {
            (self.clock >= *ready_at).then_some(true)
        }
    }

    fn latencies(stall_at: Option<usize>) -> Vec<f64> {
        let schedule: Vec<u64> = (0..20).map(|k| 100_000 * (k + 1)).collect();
        let mut target = Simulated {
            clock: 0,
            stall_at,
            stall_ns: 1_000_000,
        };
        let record = drive(&mut target, &schedule);
        assert_eq!(record.latencies.len(), 20);
        assert_eq!(record.failed, 0);
        let mut by_arrival = vec![0.0; 20];
        for &(arrival, latency) in &record.latencies {
            by_arrival[arrival] = latency;
        }
        by_arrival
    }

    #[test]
    fn a_stall_raises_the_latency_of_shots_due_after_it() {
        let calm = latencies(None);
        let stalled = latencies(Some(5));
        // shots due before the stall are unaffected
        assert_eq!(&stalled[..5], &calm[..5]);
        // the stalled shot and every shot due during the 1 ms stall (due
        // every 100 µs) wait for it: measured from their due time, not from
        // when the generator finally sent them
        for k in 5..15 {
            assert!(
                stalled[k] > calm[k] + 50_000.0,
                "shot {k}: {} vs {}",
                stalled[k],
                calm[k]
            );
        }
        // the backlog drains afterwards
        assert!(stalled[19] < calm[19] + 50_000.0);
    }

    #[test]
    fn lag_records_how_late_shots_were_sent() {
        let schedule: Vec<u64> = (0..10).map(|k| 100_000 * (k + 1)).collect();
        let mut target = Simulated {
            clock: 0,
            stall_at: Some(2),
            stall_ns: 1_000_000,
        };
        let record = drive(&mut target, &schedule);
        let late = record.lag_ns.iter().filter(|&&l| l > 100_000.0).count();
        assert!(late >= 5, "lags: {:?}", record.lag_ns);
    }

    #[test]
    fn poisson_schedule_is_seeded_and_has_the_rate() {
        let a = poisson_schedule(3, 10_000.0, 2.0);
        assert_eq!(a, poisson_schedule(3, 10_000.0, 2.0));
        assert_ne!(a, poisson_schedule(4, 10_000.0, 2.0));
        assert!((a.len() as f64 - 20_000.0).abs() < 600.0, "{}", a.len());
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
    }
}
