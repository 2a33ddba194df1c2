//! A machine-speed probe, and the rule that keeps disturbed stretches of
//! a run out of the reported numbers.
//!
//! The sandbox is a 2-core guest whose neighbours slow memory-touching
//! code by 10–50 % for anything between a tenth of a second and a minute
//! (README, "Noise"). A run lasts 20–30 seconds, so without care it
//! reports quiet-machine numbers, busy-machine numbers or a blend, and
//! ten runs spread by 30–45 %.
//!
//! The probe is a dependent-load walk over a 256 KiB table: it is
//! benchmark-owned, never changes with the program, and takes 80 µs.
//! Every client takes one between operations whenever [`WINDOW`] has
//! passed since its last one, so a round is a chain of *windows*, each
//! with a reading at both ends. On an undisturbed machine the probe reads
//! the same to a tenth of a percent, so the run's *usual speed* is the
//! most common reading, and a window is *quiet* when both of its readings
//! lie within [`QUIET_BAND`] of it: a disturbance of the kind that slows
//! Gallery by a fifth moves the probe by 2 %. Metrics are computed from
//! quiet windows only. Which windows are kept depends on the probe
//! alone, never on how fast the program was in them.

use crate::gen::Rng;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A window is quiet when the probe read within this share of the usual
/// speed at both of its ends. Both sides: the sandbox also has stretches
/// 3.5 % and 7 % faster than usual (its clock steps up), and a run that
/// mixed them in would differ from one that met none.
pub const QUIET_BAND: f64 = 0.01;

/// The readings a quiet window may have at its ends.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gate {
    lo: f64,
    hi: f64,
}

impl Gate {
    /// Every window passes: for a phase that never met a quiet machine.
    pub const OPEN: Gate = Gate {
        lo: 0.0,
        hi: f64::INFINITY,
    };

    pub fn around(usual_speed: f64) -> Gate {
        Gate {
            lo: usual_speed * (1.0 - QUIET_BAND),
            hi: usual_speed * (1.0 + QUIET_BAND),
        }
    }

    pub fn admits(&self, speed: (f64, f64)) -> bool {
        let ok = |s: f64| self.lo <= s && s <= self.hi;
        ok(speed.0) && ok(speed.1)
    }
}

/// The most common of `readings`, to 0.4 %: the median of the fullest
/// bin (bins are 0.4 % wide) and its two neighbours.
pub fn usual_speed(readings: &[f64]) -> f64 {
    const BIN: f64 = 0.004;
    let bin = |v: f64| (v.max(f64::MIN_POSITIVE).ln() / BIN).round() as i64;
    let mut counts = std::collections::BTreeMap::<i64, usize>::new();
    for &v in readings {
        *counts.entry(bin(v)).or_default() += 1;
    }
    // The fullest bin; of equally full ones the fastest.
    let Some((&fullest, _)) = counts.iter().max_by_key(|(&b, &n)| (n, b)) else {
        return 0.0;
    };
    let near: Vec<f64> = readings
        .iter()
        .copied()
        .filter(|&v| (bin(v) - fullest).abs() <= 1)
        .collect();
    crate::stats::median_f64(&near).unwrap_or(0.0)
}

/// Time between two probes of one client.
pub const WINDOW: Duration = Duration::from_millis(4);

/// A round is reported from its quiet windows when they hold at least
/// this share of its operations; otherwise the round is left out.
pub const MIN_QUIET_SHARE_OF_ROUND: f64 = 0.25;

/// Readings taken, a millisecond apart, before the first wait of a run.
const CALIBRATION_READINGS: usize = 50;

pub struct Probe {
    next: Vec<u32>,
}

const ENTRIES: usize = 64 * 1024;
const STEPS: usize = 8_000;

impl Probe {
    pub fn new() -> Self {
        // Sattolo's algorithm: one cycle through every entry, so the walk
        // never falls into a short loop that would sit in L1.
        let mut next: Vec<u32> = (0..ENTRIES as u32).collect();
        let mut rng = Rng::new(0x9E37_79B9, 0);
        for i in (1..ENTRIES).rev() {
            next.swap(i, rng.below(i as u32) as usize);
        }
        Probe { next }
    }

    /// Dependent loads per microsecond over one short walk. The first
    /// pass brings back the lines the program's own work pushed out since
    /// the last probe; the faster of two timed passes is the reading, so
    /// that one interrupt does not cost a window.
    pub fn speed(&self) -> f64 {
        let walk = || {
            let mut at = 0usize;
            let t0 = Instant::now();
            for _ in 0..STEPS {
                at = self.next[at] as usize;
            }
            let elapsed = t0.elapsed();
            std::hint::black_box(at);
            STEPS as f64 / (elapsed.as_secs_f64() * 1e6)
        };
        walk();
        walk().max(walk())
    }
}

/// The probe plus what a run remembers about it: every reading so far
/// and how much longer the run is willing to wait for quiet.
pub struct Quiet {
    probe: Probe,
    /// Both clients of `mixed` probe, each on its own thread.
    readings: Mutex<Vec<f64>>,
    patience_left_ns: AtomicU64,
    waited_ns: AtomicU64,
}

impl Quiet {
    /// `patience`: the most one run will wait, in total, for a
    /// disturbance to pass.
    pub fn new(patience: Duration) -> Self {
        Quiet {
            probe: Probe::new(),
            readings: Mutex::new(Vec::new()),
            patience_left_ns: AtomicU64::new(patience.as_nanos() as u64),
            waited_ns: AtomicU64::new(0),
        }
    }

    /// Take one probe reading.
    pub fn speed(&self) -> f64 {
        let speed = self.probe.speed();
        self.readings
            .lock()
            .expect("probe readings lock")
            .push(speed);
        speed
    }

    /// The most common reading so far.
    pub fn usual_speed(&self) -> f64 {
        usual_speed(&self.readings.lock().expect("probe readings lock"))
    }

    /// What a quiet window may read at its ends, from every reading so far.
    pub fn gate(&self) -> Gate {
        Gate::around(self.usual_speed())
    }

    /// Before a round, a set-up or a recovery: wait until three readings
    /// in a row are quiet, or the run's patience is used up.
    pub fn pause(&self) {
        if self.patience_left_ns.load(Relaxed) == 0 {
            return;
        }
        let started = Instant::now();
        // The first pause of a run has nothing to compare with yet.
        while self.readings.lock().expect("probe readings lock").len() < CALIBRATION_READINGS {
            self.speed();
            std::thread::sleep(Duration::from_millis(1));
        }
        let gate = self.gate();
        let mut in_a_row = 0;
        loop {
            let speed = self.speed();
            in_a_row = if gate.admits((speed, speed)) {
                in_a_row + 1
            } else {
                0
            };
            let waited = started.elapsed().as_nanos() as u64;
            let patience = self.patience_left_ns.load(Relaxed);
            if in_a_row >= 3 || waited >= patience {
                self.patience_left_ns
                    .store(patience.saturating_sub(waited), Relaxed);
                self.waited_ns.fetch_add(waited, Relaxed);
                return;
            }
            if in_a_row == 0 {
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }

    /// Total time this run has waited for quiet.
    pub fn waited(&self) -> Duration {
        Duration::from_nanos(self.waited_ns.load(Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_walk_is_one_cycle_and_the_probe_reads_positive() {
        let p = Probe::new();
        let mut at = 0usize;
        let mut steps = 0;
        loop {
            at = p.next[at] as usize;
            steps += 1;
            if at == 0 {
                break;
            }
        }
        assert_eq!(steps, ENTRIES);
        assert!(p.speed() > 0.0);
    }

    #[test]
    fn pause_gives_up_when_patience_runs_out() {
        let q = Quiet::new(Duration::from_millis(150));
        // Pretend the machine is usually impossibly fast: never quiet again.
        q.readings.lock().unwrap().extend([1e12; 100_000]);
        q.pause();
        assert!(q.waited() >= Duration::from_millis(150));
        let before = q.waited();
        q.pause();
        assert!(
            q.waited() - before < Duration::from_millis(50),
            "patience is per run, not per pause"
        );
    }

    #[test]
    fn the_usual_speed_is_the_most_common_reading_and_the_gate_is_a_band_around_it() {
        assert_eq!(usual_speed(&[]), 0.0);
        // A tight cluster at 200, a smaller one at 207 (the clock stepped
        // up), and disturbed readings spread out below.
        let mut readings: Vec<f64> = (0..50).map(|i| 199.9 + 0.004 * f64::from(i)).collect();
        readings.extend((0..20).map(|i| 207.0 + 0.004 * f64::from(i)));
        readings.extend((0..60).map(|i| 120.0 + 1.3 * f64::from(i)));
        let usual = usual_speed(&readings);
        assert!((usual - 200.0).abs() < 0.2, "{usual}");
        let gate = Gate::around(usual);
        assert!(gate.admits((200.5, 199.0)));
        assert!(!gate.admits((200.5, 196.0)), "one disturbed end is enough");
        assert!(
            !gate.admits((207.0, 200.0)),
            "faster than usual is not usual either"
        );
        assert!(Gate::OPEN.admits((1.0, 1e9)));
    }
}
