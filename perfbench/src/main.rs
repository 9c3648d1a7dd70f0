//! Host-time benchmark of the Morph reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fig9_search|pareto_sweep|stream_long|report_roundtrip> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload from a single thread, pinned to one CPU
//! (it re-runs itself under `taskset`) next to a host-speed sampler
//! (`speed.rs`). It sets the workload up several times, then runs
//! untraced passes until `--seconds` of pass time have been measured (and
//! at least three passes, when they fit in 1.75 × `--seconds`), verifying
//! every pass outside its timed window and setting up again after it.
//! Pass and set-up times are corrected to the reference host speed the
//! sampler measured over them. With `--trace 0` the last stdout line
//! carries the end-to-end metrics. With `--trace 1` one more, traced pass
//! follows, the line carries the per-layer metrics instead, and a
//! Perfetto sidecar of the traced pass lands in `perfbench/out/`. The line
//! before the result records the environment and the raw samples. See
//! `README.md`.

mod probe;
mod replay;
mod seeded;
mod speed;
mod workload;

use morph_core::{DecisionStore, SearchStats, StoreKey};
use morph_json::Value;
use probe::{covered, spans, Span, Tracer, STORE_HIT};
use speed::{Kernel, Sampler};
use std::collections::HashMap;
use std::process::{Command, ExitCode};
use std::time::Instant;
use workload::{pass, setup, verify, Input, PassOutput, Workload};

/// Set-ups before the first pass: at least this many, and for at least
/// [`SETUP_MIN_S`]. After every pass the set-up runs again for at least
/// [`SETUP_BETWEEN_S`] (once, at least), outside the pass's window, so
/// that the samples `setup_s` takes its median over span the whole run.
const SETUP_REPS: usize = 5;

/// Set-up time spent before the first pass, at least.
const SETUP_MIN_S: f64 = 0.25;

/// Set-up time spent after every pass, at least.
const SETUP_BETWEEN_S: f64 = 0.05;

/// Passes a run takes when they fit: with 3 samples the median drops a
/// single outlier.
const MIN_PASSES: usize = 3;

/// How far past `--seconds` a run may go to reach [`MIN_PASSES`].
const MAX_OVERRUN: f64 = 1.75;

/// Environment variables that would change what a session runs.
const CLEARED_ENV: [&str; 4] = [
    "MORPH_ENGINE",
    "MORPH_THREADS",
    "MORPH_EFFORT",
    "MORPH_TEST_THREADS",
];

/// Worker threads every session runs with.
const THREADS: usize = 1;

/// Set in the pinned process to the CPU it runs on.
const PINNED_ENV: &str = "PERFBENCH_CPU";

/// Where traced passes write their Perfetto sidecars.
const SIDECAR_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) =
        (None, workload::DEFAULT_SEED, 10.0_f64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value)?),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds {seconds}: expected a positive number"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Whether to run another timed pass: until `seconds` of pass time are
/// measured, and on to [`MIN_PASSES`] while the next pass (predicted by
/// the last one) ends within [`MAX_OVERRUN`] × `seconds`.
fn more_passes(wall_s: &[f64], seconds: f64) -> bool {
    let done = sum(wall_s);
    done < seconds
        || (wall_s.len() < MIN_PASSES
            && done + wall_s.last().copied().unwrap_or(0.0) <= MAX_OVERRUN * seconds)
}

fn sum(xs: &[f64]) -> f64 {
    xs.iter().fold(0.0, |acc, x| acc + x)
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => f64::midpoint(v[n / 2 - 1], v[n / 2]),
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The process's peak resident set (`VmHWM`) in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// One metric of the result line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// A JSON document on one line.
fn one_line(v: &Value) -> String {
    v.pretty()
        .lines()
        .map(str::trim)
        .collect::<Vec<_>>()
        .join(" ")
}

fn floats(xs: &[f64]) -> Value {
    Value::Arr(xs.iter().map(|&x| Value::Float(x)).collect())
}

fn main() -> ExitCode {
    let started = Instant::now();
    for var in CLEARED_ENV {
        std::env::remove_var(var);
    }
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let cpu = match pin() {
        Pin::Ran(code) => return code,
        Pin::Here(cpu) => cpu,
    };
    let sampler = Sampler::start();

    // Set-up, several times. The first is timed from process start.
    let mut setups: Vec<Timed> = Vec::new();
    let mut input = set_up(&args, &mut setups, SETUP_REPS, SETUP_MIN_S, started);

    // Timed passes, each verified outside its window; the first pass also
    // gets the checks whose outcome only depends on the report bytes.
    let off = Tracer::off();
    let mut passes: Vec<Timed> = Vec::new();
    let mut wall_s: Vec<f64> = Vec::new();
    let mut failed = 0u64;
    let mut problems: Vec<String> = Vec::new();
    let mut last: Option<PassOutput> = None;
    // The peak resident set through set-up and the first pass: later
    // passes only add heap fragmentation, and how many run depends on the
    // host's speed.
    let mut peak_rss = 0.0;
    while more_passes(&wall_s, args.seconds) {
        let t = Instant::now();
        let out = pass(&input, &off);
        let timed = Timed::since(t);
        if passes.is_empty() {
            peak_rss = peak_rss_mb();
        }
        wall_s.push(timed.secs());
        passes.push(timed);
        let verdict = verify(&input, &out, passes.len() == 1, &off);
        input = set_up(&args, &mut setups, 1, SETUP_BETWEEN_S, Instant::now());
        if !verdict.problems.is_empty() {
            failed += 1;
            problems.extend(verdict.problems);
        }
        last = Some(out);
    }
    let last = last.expect("at least one pass");
    let mut attempted = passes.len() as u64;
    let wall = median(&wall_s);

    // Correct every timed window to the reference host speed, as the
    // kernels that do the workload's kind of work see it.
    let kernels = args.workload.speed_kernels();
    let run = sampler.all();
    let run_speed = run.speed(kernels).unwrap_or(1.0);
    let corrected = |t: &Timed| {
        let window = sampler.window(t.from, t.to);
        t.corrected(window.probe_s(), window.speed(kernels).unwrap_or(run_speed))
    };
    let pass_ref_s: Vec<f64> = passes.iter().map(corrected).collect();
    let setup_s: Vec<f64> = setups.iter().map(corrected).collect();

    let mut sidecar = Value::Null;
    let metrics = if args.trace {
        attempted += 1;
        let traced = traced_pass(&args, &last, wall, run_speed);
        if !traced.problems.is_empty() {
            failed += 1;
            problems.extend(traced.problems);
        }
        sidecar = traced.sidecar.map_or(Value::Null, Value::Str);
        traced.metrics
    } else {
        vec![
            metric("pass_ref_s", median(&pass_ref_s), "s"),
            metric("setup_s", median(&setup_s), "s"),
            metric("peak_rss_mb", peak_rss, "MiB"),
        ]
    };
    let probe_mismatches = sampler.mismatches();
    drop(sampler);
    if probe_mismatches > 0 {
        failed += 1;
        problems.push(format!(
            "{probe_mismatches} host-speed probes returned another checksum than the first"
        ));
    }

    for p in &problems {
        eprintln!("perfbench: verification failed: {p}");
    }
    let info = Value::obj([
        ("workload", Value::Str(args.workload.name().into())),
        ("seed", Value::Int(args.seed as i64)),
        ("seconds", Value::Float(args.seconds)),
        ("trace", Value::Bool(args.trace)),
        ("nproc", Value::Int(online_cpus() as i64)),
        ("threads", Value::Int(THREADS as i64)),
        ("frames", Value::Int(args.workload.frames() as i64)),
        ("rustc", Value::Str(env!("PERFBENCH_RUSTC").into())),
        ("cpu", cpu.map_or(Value::Null, |c| Value::Int(c as i64))),
        ("probes", Value::Int(run.probes as i64)),
        (
            "speed_kernels",
            Value::Arr(
                kernels
                    .iter()
                    .map(|k| Value::Str(k.name().into()))
                    .collect(),
            ),
        ),
        ("host_speed", Value::Float(run_speed)),
        (
            "kernel_speeds",
            Value::obj(
                Kernel::ALL.map(|k| (k.name(), Value::Float(run.speed(&[k]).unwrap_or(0.0)))),
            ),
        ),
        ("passes", Value::Int(passes.len() as i64)),
        ("wall_s_samples", floats(&wall_s)),
        ("pass_ref_s_samples", floats(&pass_ref_s)),
        ("setup_reps", Value::Int(setup_s.len() as i64)),
        (
            "error_rate",
            Value::Float(ratio(failed as f64, attempted as f64)),
        ),
        ("sidecar", sidecar),
    ]);
    println!("{}", one_line(&Value::obj([("info", info)])));
    let result = Value::obj([
        ("correct", Value::Bool(failed == 0)),
        ("attempted", Value::Int(attempted as i64)),
        ("failed", Value::Int(failed as i64)),
        (
            "metrics",
            Value::Obj(
                metrics
                    .iter()
                    .map(|m| {
                        let v = Value::obj([
                            ("value", Value::Float(m.value)),
                            ("unit", Value::Str(m.unit.into())),
                        ]);
                        (m.name.to_string(), v)
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", one_line(&result));
    ExitCode::SUCCESS
}

/// A timed window of the run.
#[derive(Debug, Clone, Copy)]
struct Timed {
    from: Instant,
    to: Instant,
}

impl Timed {
    /// The window from `from` until now.
    fn since(from: Instant) -> Timed {
        Timed {
            from,
            to: Instant::now(),
        }
    }

    fn secs(&self) -> f64 {
        (self.to - self.from).as_secs_f64()
    }

    /// The window's own time (less `probe_s`, the time probes ran inside
    /// it) at the reference host speed, given the host's `speed` over it.
    fn corrected(&self, probe_s: f64, speed: f64) -> f64 {
        (self.secs() - probe_s).max(0.0) * speed
    }
}

/// Where the benchmark runs.
enum Pin {
    /// A pinned copy of this process ran, and exited with this code.
    Ran(ExitCode),
    /// Run here: pinned to this CPU, or unpinned.
    Here(Option<usize>),
}

/// Pin the benchmark to one CPU, so that the host-speed probes share a
/// core with the passes: re-run this program under `taskset` on the last
/// CPU it may use and wait for it. The re-run (or a process that cannot
/// start `taskset`) goes on here.
fn pin() -> Pin {
    if let Ok(cpu) = std::env::var(PINNED_ENV) {
        return Pin::Here(cpu.parse().ok());
    }
    let Some(cpu) = allowed_cpus().last().copied() else {
        return Pin::Here(None);
    };
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot re-run pinned ({e}); running unpinned");
            return Pin::Here(None);
        }
    };
    let status = Command::new("taskset")
        .arg("-c")
        .arg(cpu.to_string())
        .arg(exe)
        .args(std::env::args_os().skip(1))
        .env(PINNED_ENV, cpu.to_string())
        .status();
    match status {
        Ok(status) => Pin::Ran(
            status
                .code()
                .and_then(|c| u8::try_from(c).ok())
                .map_or(ExitCode::FAILURE, ExitCode::from),
        ),
        Err(e) => {
            eprintln!("perfbench: cannot start taskset ({e}); running unpinned");
            Pin::Here(None)
        }
    }
}

/// The CPUs this process may run on (`Cpus_allowed_list`), in order.
fn allowed_cpus() -> Vec<usize> {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .map(cpu_list)
        .unwrap_or_default()
}

/// The machine's online CPUs, pinned or not.
fn online_cpus() -> usize {
    std::fs::read_to_string("/sys/devices/system/cpu/online")
        .map_or(0, |list| cpu_list(&list).len())
}

/// The CPUs of a kernel CPU list such as `0-3,6`.
fn cpu_list(list: &str) -> Vec<usize> {
    list.trim()
        .split(',')
        .filter_map(|range| {
            let (lo, hi) = range.split_once('-').unwrap_or((range, range));
            Some(lo.trim().parse::<usize>().ok()?..=hi.trim().parse::<usize>().ok()?)
        })
        .flatten()
        .collect()
}

/// Each entry's search stats, by key.
fn entry_stats(store: &DecisionStore) -> HashMap<StoreKey, SearchStats> {
    store
        .entries()
        .into_iter()
        .map(|(k, e)| (k, e.stats))
        .collect()
}

/// Set the workload up at least `reps` times and for at least `min_s`,
/// the first time from `first_from`, pushing each time onto `samples`.
/// Returns the last input.
fn set_up(
    args: &Args,
    samples: &mut Vec<Timed>,
    reps: usize,
    min_s: f64,
    first_from: Instant,
) -> Input {
    let mut t = first_from;
    let (mut n, mut spent) = (0, 0.0);
    loop {
        let input = setup(args.workload, args.seed, &Tracer::off());
        let timed = Timed::since(t);
        samples.push(timed);
        (n, spent) = (n + 1, spent + timed.secs());
        if n >= reps && spent >= min_s {
            return input;
        }
        t = Instant::now();
    }
}

/// What the traced pass yields.
struct Traced {
    metrics: Vec<Metric>,
    problems: Vec<String>,
    sidecar: Option<String>,
}

/// Set up and run one traced pass with its deep verification, check it
/// against the untraced `last` pass, write the Perfetto sidecar and derive
/// the per-layer metrics from the recorded spans. `untraced_wall` is the
/// untraced passes' median host time and `host_speed` the run's speed.
fn traced_pass(args: &Args, last: &PassOutput, untraced_wall: f64, host_speed: f64) -> Traced {
    let tracer = Tracer::on();
    let input = setup(args.workload, args.seed, &tracer);
    let out = pass(&input, &tracer);
    let verdict = tracer.span("bench", "verify", || verify(&input, &out, true, &tracer));
    let mut problems = verdict.problems;

    if out.json() != last.json() {
        problems.push("the traced report differs from the untraced one".into());
    }
    for (traced, untraced) in out.chips.iter().zip(&last.chips) {
        if let (Some((a, _)), Some((b, _))) = (&traced.store, &untraced.store) {
            if entry_stats(a) != entry_stats(b) {
                problems.push(format!(
                    "{}: traced store search stats differ from the untraced ones",
                    traced.name
                ));
            }
        }
    }

    let buffer = tracer.buffer().expect("the tracer is on");
    let events = buffer.events();
    let trace_violations = morph_audit::trace::audit_trace(&events, None);
    problems.extend(
        trace_violations
            .iter()
            .map(|v| format!("trace audit: {v:?}")),
    );
    let path = format!(
        "{SIDECAR_DIR}/{}-seed{}.trace.json",
        args.workload.name(),
        args.seed
    );
    let sidecar = std::fs::create_dir_all(SIDECAR_DIR)
        .and_then(|()| std::fs::write(&path, buffer.to_perfetto_string(None)));
    if let Err(e) = &sidecar {
        problems.push(format!("writing {path}: {e}"));
    }

    let spans = spans(&events);
    let on = |track: &str, name: &str| -> Vec<&Span> {
        spans
            .iter()
            .filter(|s| s.track == track && s.name == name)
            .collect()
    };
    let on_layer = |layer: &str| -> Vec<&Span> {
        spans
            .iter()
            .filter(|s| s.track.split(':').next() == Some(layer))
            .collect()
    };
    let secs = |v: &[&Span]| v.iter().fold(0.0, |acc, s| acc + s.secs());
    let count = |v: &[&Span]| v.len() as f64;

    let pass_s = secs(&on("bench", "pass"));
    let run = on("session", "run");
    let optimizer = on_layer("optimizer");
    let eyeriss = on_layer("eyeriss");
    let calls: Vec<&Span> = optimizer.iter().chain(&eyeriss).copied().collect();
    let session_self_ns: u64 = run
        .iter()
        .map(|r| (r.end - r.start) - covered(r, &calls))
        .sum();
    let hits = events
        .iter()
        .filter(|e| e.name == STORE_HIT && e.track.starts_with("optimizer:"))
        .count() as f64;
    // The stores the pass searched into: none when it ran no session
    // (`report_roundtrip` reads a report made at set-up). Every entry
    // counts, budgeted ones included.
    let stores: Vec<&DecisionStore> = out
        .chips
        .iter()
        .filter(|_| !run.is_empty())
        .filter_map(|c| c.store.as_ref().map(|(s, _)| s.as_ref()))
        .collect();
    let entries: usize = stores.iter().map(|s| s.len()).sum();
    let stats = stores
        .iter()
        .fold(SearchStats::default(), |acc, s| acc.add(&s.stats()));
    let busy = secs(&optimizer);
    let simulate = on("pipeline", "simulate");
    let replay_s = secs(&simulate);
    let json_bytes = if on("json", "write").is_empty() {
        0.0
    } else {
        out.json().len() as f64
    };
    let parse_s = secs(&on("json", "parse"));

    let metrics = vec![
        metric("optimizer.calls", count(&optimizer), "count"),
        metric("optimizer.busy_s", busy, "s"),
        metric(
            "optimizer.hit_ratio",
            ratio(hits, count(&optimizer)),
            "ratio",
        ),
        metric("optimizer.store_entries", entries as f64, "count"),
        metric("optimizer.enumerated", stats.enumerated as f64, "count"),
        metric("optimizer.bound_pruned", stats.bound_pruned as f64, "count"),
        metric("optimizer.costed", stats.costed as f64, "count"),
        metric(
            "optimizer.costed_ratio",
            ratio(stats.costed as f64, stats.enumerated as f64),
            "ratio",
        ),
        metric(
            "optimizer.us_per_costed",
            ratio(busy * 1e6, stats.costed as f64),
            "us",
        ),
        metric("eyeriss.calls", count(&eyeriss), "count"),
        metric("eyeriss.busy_s", secs(&eyeriss), "s"),
        metric("pipeline.replay_s", replay_s, "s"),
        metric(
            "pipeline.simulations",
            verdict.replay.simulations as f64,
            "count",
        ),
        metric(
            "pipeline.stage_frames",
            verdict.replay.stage_frames as f64,
            "count",
        ),
        metric(
            "pipeline.ns_per_stage_frame",
            ratio(replay_s * 1e9, verdict.replay.stage_frames as f64),
            "ns",
        ),
        metric(
            "pipeline.replay_mismatches",
            verdict.replay_mismatches as f64,
            "count",
        ),
        metric("session.run_s", secs(&run), "s"),
        metric("session.self_s", session_self_ns as f64 / 1e9, "s"),
        metric("nets.build_s", secs(&on("nets", "build")), "s"),
        metric("json.write_s", secs(&on("json", "write")), "s"),
        metric("json.parse_s", parse_s, "s"),
        metric("json.decode_s", secs(&on("json", "decode")), "s"),
        metric("json.bytes", json_bytes, "bytes"),
        metric(
            "json.parse_mb_per_s",
            ratio(json_bytes / 1e6, parse_s),
            "MB/s",
        ),
        metric("audit.report_s", secs(&on("audit", "report")), "s"),
        metric("audit.store_s", secs(&on("verify", "audit_store")), "s"),
        metric(
            "audit.violations",
            (verdict.violations + trace_violations.len()) as f64,
            "count",
        ),
        metric(
            "trace.overhead_ratio",
            ratio(pass_s, untraced_wall),
            "ratio",
        ),
        metric("host.wall_s", untraced_wall, "s"),
        metric("host.speed", host_speed, "ratio"),
    ];
    Traced {
        metrics,
        problems,
        sidecar: sidecar.ok().map(|()| path),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists_expand_ranges() {
        assert_eq!(cpu_list("0-1\n"), vec![0, 1]);
        assert_eq!(cpu_list("0,2-3"), vec![0, 2, 3]);
        assert_eq!(cpu_list("5"), vec![5]);
        assert!(cpu_list("").is_empty());
    }

    #[test]
    fn correction_drops_probe_time_and_scales_by_speed() {
        let from = Instant::now();
        let timed = Timed {
            from,
            to: from + std::time::Duration::from_secs(2),
        };
        assert!((timed.corrected(0.5, 0.8) - 1.5 * 0.8).abs() < 1e-9);
        assert_eq!(timed.corrected(3.0, 1.0), 0.0);
    }
}
