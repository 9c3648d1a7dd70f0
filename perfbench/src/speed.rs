//! Host-speed sampling: what `pass_ref_s` and `setup_s` are corrected by.
//!
//! The benchmark's host is a few vCPUs of a shared machine. Whatever runs
//! on the same physical cores slows branchy, memory-touching code such as
//! the program's by up to 2×, in phases that come and go within seconds,
//! while a tight arithmetic loop barely notices. Timing a pass alone
//! measures those phases as much as the program.
//!
//! A [`Sampler`] measures them at the same moments instead. Its thread
//! wakes every [`INTERVAL`] and runs a probe: three fixed kernels of the
//! program's kinds of work ([`Kernel`]: an event-driven pipeline
//! simulation, a tiling search and a text round trip), each timed on its
//! own. The benchmark pins itself to one CPU first, so the probes and the
//! pass share a core and see the same contention. A window's speed, as a
//! set of kernels sees it, is their reference time over their mean time
//! inside the window: 1 on the quiet reference host, less when the host
//! is slowed down. Each workload takes the kernels whose speed followed
//! its passes best in calibration runs (`Workload::speed_kernels`).
//!
//! The kernels are the benchmark's own code and never change with the
//! program, so a faster program shows as a shorter corrected time.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt::Write;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Sleep between two probes.
pub const INTERVAL: Duration = Duration::from_millis(20);

/// Probes a window needs for a speed of its own; shorter windows take the
/// run's speed.
const MIN_PROBES: usize = 8;

/// The three kinds of work a probe does, each timed on its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// An event-driven pipeline simulation ([`simulate`]).
    Simulate,
    /// A tiling search with a cost model ([`search`]).
    Search,
    /// A JSON-like text round trip ([`text`]).
    Text,
}

impl Kernel {
    /// Every kernel, in the order a probe runs them.
    pub const ALL: [Kernel; 3] = [Kernel::Simulate, Kernel::Search, Kernel::Text];

    /// The kernel's name in the result's info line.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Simulate => "simulate",
            Kernel::Search => "search",
            Kernel::Text => "text",
        }
    }

    /// The kernel's mean time on the reference host, the 2-vCPU VM the
    /// benchmark was sized on, when it was quiet.
    pub fn reference_s(self) -> f64 {
        match self {
            Kernel::Simulate => 150e-6,
            Kernel::Search => 75e-6,
            Kernel::Text => 105e-6,
        }
    }

    /// Run the kernel once; the checksum is the same on every call.
    fn run(self) -> u64 {
        match self {
            Kernel::Simulate => simulate(black_box(150)),
            Kernel::Search => search(black_box(4)),
            Kernel::Text => text(black_box(500)),
        }
    }
}

/// One probe: when it started and how long each kernel ran.
#[derive(Debug, Clone, Copy)]
struct Sample {
    start: Instant,
    secs: [f64; 3],
}

impl Sample {
    fn end(&self) -> Instant {
        self.start + Duration::from_secs_f64(self.secs.iter().sum())
    }
}

/// The probes that ran inside a time window.
#[derive(Debug, Clone, Copy, Default)]
pub struct Window {
    /// Probes that started and ended inside the window.
    pub probes: usize,
    /// Each kernel's total run time over those probes.
    kernel_s: [f64; 3],
}

impl Window {
    /// The probes' total run time, which the window's own work did not get.
    pub fn probe_s(&self) -> f64 {
        self.kernel_s.iter().sum()
    }

    /// Host speed over the window as `kernels` see it: their reference
    /// time over their mean time, or `None` with fewer than
    /// [`MIN_PROBES`] probes.
    pub fn speed(&self, kernels: &[Kernel]) -> Option<f64> {
        let reference: f64 = kernels.iter().map(|k| k.reference_s()).sum();
        let measured: f64 = kernels.iter().map(|&k| self.kernel_s[k as usize]).sum();
        (self.probes >= MIN_PROBES).then(|| reference * self.probes as f64 / measured)
    }
}

/// A thread that probes the host's speed until dropped.
pub struct Sampler {
    samples: Arc<Mutex<Vec<Sample>>>,
    mismatches: Arc<Mutex<u64>>,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Sampler {
    /// Start probing.
    pub fn start() -> Sampler {
        let samples = Arc::new(Mutex::new(Vec::new()));
        let mismatches = Arc::new(Mutex::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let (samples, mismatches, stop) = (samples.clone(), mismatches.clone(), stop.clone());
            std::thread::spawn(move || {
                let expected = Kernel::ALL.map(Kernel::run);
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(INTERVAL);
                    let start = Instant::now();
                    let mut secs = [0.0; 3];
                    let mut same = true;
                    for (i, kernel) in Kernel::ALL.into_iter().enumerate() {
                        let t = Instant::now();
                        same &= kernel.run() == expected[i];
                        secs[i] = t.elapsed().as_secs_f64();
                    }
                    if !same {
                        *mismatches.lock().expect("probe lock") += 1;
                    }
                    samples
                        .lock()
                        .expect("probe lock")
                        .push(Sample { start, secs });
                }
            })
        };
        Sampler {
            samples,
            mismatches,
            stop,
            thread: Some(thread),
        }
    }

    /// The probes that ran between `from` and `to`.
    pub fn window(&self, from: Instant, to: Instant) -> Window {
        let samples = self.samples.lock().expect("probe lock");
        sum(samples.iter().filter(|s| s.start >= from && s.end() <= to))
    }

    /// Every probe so far.
    pub fn all(&self) -> Window {
        sum(self.samples.lock().expect("probe lock").iter())
    }

    /// Probes whose checksums differed from the first probe's.
    pub fn mismatches(&self) -> u64 {
        *self.mismatches.lock().expect("probe lock")
    }
}

/// The window the `samples` make up.
fn sum<'a>(samples: impl Iterator<Item = &'a Sample>) -> Window {
    samples.fold(Window::default(), |mut w, s| {
        w.probes += 1;
        for (total, secs) in w.kernel_s.iter_mut().zip(s.secs) {
            *total += secs;
        }
        w
    })
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            thread.join().expect("the probe thread does not panic");
        }
    }
}

/// An event-driven simulation of a blocking pipeline: a 12-stage chain
/// with two skip edges and bounded channels, run for `frames` frames.
/// Returns the makespan mixed with the channel traffic.
fn simulate(frames: u64) -> u64 {
    const STAGES: usize = 12;
    let service: Vec<u64> = (0..STAGES as u64).map(|i| 900 + i * 7919 % 2300).collect();
    let mut edges: Vec<(usize, usize, usize)> = (0..STAGES - 1).map(|i| (i, i + 1, 2)).collect();
    edges.extend([(0, 5, 3), (3, 9, 2)]);
    let ends = |stage: usize, from: bool| -> Vec<usize> {
        (0..edges.len())
            .filter(|&e| if from { edges[e].0 } else { edges[e].1 } == stage)
            .collect()
    };
    let ins: Vec<Vec<usize>> = (0..STAGES).map(|s| ends(s, false)).collect();
    let outs: Vec<Vec<usize>> = (0..STAGES).map(|s| ends(s, true)).collect();
    let mut channels: Vec<VecDeque<u64>> = vec![VecDeque::new(); edges.len()];
    let (mut busy, mut holding) = ([false; STAGES], [false; STAGES]);
    let (mut supplied, mut done, mut now, mut seq, mut traffic) = (0, 0, 0, 0, 0u64);
    let mut events = BinaryHeap::new();
    while done < frames {
        let mut changed = true;
        while changed {
            changed = false;
            for i in 0..STAGES {
                if holding[i] && outs[i].iter().all(|&e| channels[e].len() < edges[e].2) {
                    for &e in &outs[i] {
                        channels[e].push_back(now);
                    }
                    holding[i] = false;
                    done += u64::from(outs[i].is_empty());
                    changed = true;
                }
                let ready = if ins[i].is_empty() {
                    supplied < frames
                } else {
                    ins[i].iter().all(|&e| !channels[e].is_empty())
                };
                if !busy[i] && !holding[i] && ready {
                    supplied += u64::from(ins[i].is_empty());
                    for &e in &ins[i] {
                        traffic = traffic.wrapping_add(channels[e].pop_front().unwrap_or(0));
                    }
                    busy[i] = true;
                    events.push(Reverse((now + service[i], seq, i)));
                    seq += 1;
                    changed = true;
                }
            }
        }
        let Some(Reverse((t, _, i))) = events.pop() else {
            break;
        };
        now = t;
        busy[i] = false;
        holding[i] = true;
    }
    now ^ traffic
}

/// A tiling search: every divisor tiling of `rounds` small conv layers
/// that fits a 64 KiB buffer, costed by a toy traffic model. Returns the
/// best costs mixed with the number of tilings costed.
fn search(rounds: u64) -> u64 {
    let divisors = |d: u64| {
        (1..=d)
            .filter(|t| d.is_multiple_of(*t))
            .collect::<Vec<u64>>()
    };
    let mut digest = 0u64;
    for round in 0..rounds {
        let (k, y, x, c) = (64, 28 + 4 * round, 28, 32 << (round % 2));
        let (dk, dy, dx, dc) = (divisors(k), divisors(y), divisors(x), divisors(c));
        let (mut best, mut costed) = (f64::INFINITY, 0u64);
        for &tk in &dk {
            for &ty in &dy {
                for &tx in &dx {
                    for &tc in &dc {
                        let buffer = tk * tc * 9 + tc * (ty + 2) * (tx + 2) + tk * ty * tx;
                        if buffer > 64 * 1024 {
                            continue;
                        }
                        costed += 1;
                        let trips = (k / tk) * (y / ty) * (x / tx) * (c / tc);
                        let outputs = (tk * ty * tx) as f64;
                        let traffic =
                            trips as f64 * buffer as f64 * 2.0 + outputs / (tc as f64).sqrt();
                        let util = outputs / (tk * ty * tx).next_power_of_two() as f64;
                        best = best.min(traffic * 1.7 + 200.0 / util);
                    }
                }
            }
        }
        digest = digest.rotate_left(17) ^ best.to_bits() ^ costed;
    }
    digest
}

/// A text round trip: `records` records written as JSON-like text, then
/// scanned back byte by byte. Returns a hash of the strings and numbers.
fn text(records: u64) -> u64 {
    let mut doc = String::from("[");
    for i in 0..records {
        if i > 0 {
            doc.push(',');
        }
        let _ = write!(
            doc,
            "{{\"name\":\"stage_{i}\",\"cycles\":{},\"pj\":{:.3}}}",
            i * 7919 % 100_003,
            i as f64 * 1.618
        );
    }
    doc.push(']');
    let (mut hash, mut number, mut in_string) = (0u64, 0u64, false);
    for &b in doc.as_bytes() {
        if in_string {
            if b == b'"' {
                in_string = false;
            } else {
                hash = hash.wrapping_mul(31).wrapping_add(u64::from(b));
            }
        } else if b == b'"' {
            in_string = true;
        } else if b.is_ascii_digit() {
            number = number.wrapping_mul(10).wrapping_add(u64::from(b - b'0'));
        } else if b == b',' || b == b'}' {
            hash ^= number;
            number = 0;
        }
    }
    hash ^ std::str::from_utf8(doc.as_bytes()).map_or(0, |t| t.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_are_deterministic() {
        for kernel in Kernel::ALL {
            assert_eq!(kernel.run(), kernel.run(), "{}", kernel.name());
        }
    }

    #[test]
    fn window_speed_needs_enough_probes() {
        let mut window = Window {
            probes: MIN_PROBES - 1,
            kernel_s: [1.0; 3],
        };
        assert_eq!(window.speed(&Kernel::ALL), None);
        // Search ran at half speed, the others at the reference speed.
        window.probes = 10;
        window.kernel_s = Kernel::ALL.map(|k| 10.0 * k.reference_s());
        window.kernel_s[Kernel::Search as usize] *= 2.0;
        let others = window.speed(&[Kernel::Simulate, Kernel::Text]).unwrap();
        assert!((others - 1.0).abs() < 1e-12);
        assert!((window.speed(&[Kernel::Search]).unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn sampler_records_probes_and_stops() {
        let sampler = Sampler::start();
        let from = Instant::now();
        std::thread::sleep(INTERVAL * 6);
        let window = sampler.window(from, Instant::now());
        assert!(window.probes >= 2, "{window:?}");
        assert!(sampler.all().probes >= window.probes);
        assert_eq!(sampler.mismatches(), 0);
    }
}
