//! The Giallar benchmark: one command, three workloads, end-to-end metrics
//! untraced and per-layer metrics from a traced run.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <registry|certify-suite|served> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload reports the same end-to-end metric names: `op1_*` and
//! `op2_*` are the workload's two operation kinds (see [`Workload::aliases`]
//! and `perfbench/README.md`), `ops_per_s` its completed-work rate, and
//! `setup_s` the median set-up time over several fresh processes.  The last
//! line of standard output is the JSON result; the lines before it are the
//! same numbers as a table, under the operation names users know.

mod checks;
mod registry;
mod served;
mod stats;
mod suite;

use std::process::{Command, ExitCode};

use giallar_core::json::{self, Value};
use stats::{json_number, Metrics, Samples};

/// `BENCHMARK.json`, which declares the metrics a run prints: every
/// `end_to_end` metric with `--trace 0`, every `per_layer` one with
/// `--trace 1`.
const DECLARATION: &str = include_str!("../../BENCHMARK.json");

/// The (name, unit) pairs `BENCHMARK.json` declares under `key`.
fn declared(key: &str) -> Result<Vec<(String, String)>, String> {
    let declaration = json::parse(DECLARATION).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let metrics = declaration.get(key).and_then(Value::as_array);
    metrics
        .ok_or_else(|| format!("BENCHMARK.json has no `{key}` list"))?
        .iter()
        .map(|metric| {
            let field = |field| metric.get(field).and_then(Value::as_str).map(str::to_string);
            field("name")
                .zip(field("unit"))
                .ok_or_else(|| format!("a `{key}` metric without a name or a unit"))
        })
        .collect()
}

/// One benchmark workload.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Registry,
    CertifySuite,
    Served,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "registry" => Some(Workload::Registry),
            "certify-suite" => Some(Workload::CertifySuite),
            "served" => Some(Workload::Served),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Registry => "registry",
            Workload::CertifySuite => "certify-suite",
            Workload::Served => "served",
        }
    }

    /// What `op1`, `op2` and `ops_per_s` stand for on this workload, as the
    /// metric names users know them by.
    pub fn aliases(self) -> [&'static str; 3] {
        match self {
            Workload::Registry => ["verify_cold", "verify_warm", "verifies_per_s"],
            Workload::CertifySuite => ["certify", "check_cert", "certified_per_s"],
            Workload::Served => ["served_verify", "served_certify", "served_req_per_s"],
        }
    }

    /// The per-layer metric prefixes (the name up to its first `.`) this
    /// workload's traced run measures.  Every declared metric under one of
    /// them must be measured; the others read zero on this workload.
    fn layers(self) -> &'static [&'static str] {
        match self {
            Workload::Registry => &[
                "verify_cold",
                "verify_warm",
                "registry",
                "verifier",
                "cache",
                "batch",
                "backend",
                "trace",
            ],
            Workload::CertifySuite => {
                &["certify", "check_cert", "qasm", "transpile", "check", "json", "trace"]
            }
            Workload::Served => {
                &["served_verify", "served_certify", "mix", "protocol", "engine", "serve", "trace"]
            }
        }
    }
}

/// Deterministic input generator (SplitMix64); the workloads draw every
/// seeded choice from it.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// What a workload run hands back: operations attempted and failed
/// (known-answer checks included), every metric it measured, and the
/// human-readable lines printed before the result.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    pub lines: Vec<String>,
}

impl Outcome {
    /// Counts one attempted operation or check; a failure is reported on
    /// standard error (the first few of each run).
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("perfbench: FAILED: {}", what());
            }
        }
    }

    /// Counts a fallible operation.
    pub fn check_result<T>(&mut self, result: Result<T, String>, what: &str) -> Option<T> {
        match result {
            Ok(value) => {
                self.check(true, String::new);
                Some(value)
            }
            Err(error) => {
                self.check(false, || format!("{what}: {error}"));
                None
            }
        }
    }

    /// Records the median and tail of `samples` as `<slot>_p50_ms` and
    /// `<slot>_p90_ms`, and notes the percentile the tail stands for.
    pub fn latency(&mut self, slot: &str, alias: &str, samples: &Samples) {
        let (tail, percentile) = samples.tail();
        self.metrics.set(&format!("{slot}_p50_ms"), samples.median(), "ms");
        self.metrics.set(&format!("{slot}_p90_ms"), tail, "ms");
        self.lines.push(format!(
            "{alias}: {} samples, p50 {:.4} ms, p{percentile:.1} {tail:.4} ms{}",
            samples.len(),
            samples.median(),
            if percentile < 90.0 { " (too few samples for p90: reported as *_p90_ms)" } else { "" }
        ));
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    setup_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut setup_probe = false;
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        if flag == "--setup-probe" {
            setup_probe = true;
            i += 1;
            continue;
        }
        let value = argv.get(i + 1).ok_or_else(|| format!("{flag} needs a value"))?;
        match flag {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed `{value}`"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad --seconds `{value}`"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace `{value}` (0 or 1)")),
                })
            }
            _ => return Err(format!("unknown option `{flag}`")),
        }
        i += 2;
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
        setup_probe,
    })
}

/// Fresh processes the set-up time is measured in, half before the timed
/// window and half after it.  The rule library and the symbolic-execution
/// template are compiled once per process, so only a new process pays the
/// full set-up a user waits for; splitting the probes keeps one short
/// stretch of a busy host from setting the median.
const SETUP_PROBES: usize = 32;

/// Runs the workload's set-up in `probes` child processes and adds their
/// seconds to `seconds`.
fn measure_setup(workload: Workload, probes: usize, seconds: &mut Samples) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    for _ in 0..probes {
        let output = Command::new(&exe)
            .args(["--setup-probe", "--workload", workload.name()])
            .output()
            .map_err(|e| format!("running a set-up probe: {e}"))?;
        let text = String::from_utf8_lossy(&output.stdout);
        let value: f64 =
            text.trim().parse().ok().filter(|_| output.status.success()).ok_or_else(|| {
                format!("set-up probe failed: {}", String::from_utf8_lossy(&output.stderr))
            })?;
        seconds.push(value);
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("perfbench: {error}");
            eprintln!(
                "usage: perfbench --workload <registry|certify-suite|served> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    if args.setup_probe {
        let seconds = match args.workload {
            Workload::Registry => registry::setup_probe(),
            Workload::CertifySuite => suite::setup_probe(),
            Workload::Served => served::setup_probe(),
        };
        return match seconds {
            Ok(seconds) => {
                println!("{seconds}");
                ExitCode::SUCCESS
            }
            Err(error) => {
                eprintln!("perfbench: set-up failed: {error}");
                ExitCode::FAILURE
            }
        };
    }
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(error) => {
            eprintln!("perfbench: {error}");
            ExitCode::FAILURE
        }
    }
}

/// Measures the set-up, runs the workload and prints its result.
fn run(args: &Args) -> Result<(), String> {
    let mut setup = Samples::default();
    measure_setup(args.workload, SETUP_PROBES / 2, &mut setup)?;
    let config = RunConfig { seed: args.seed, seconds: args.seconds as f64, trace: args.trace };
    let outcome = match args.workload {
        Workload::Registry => registry::run(&config),
        Workload::CertifySuite => suite::run(&config),
        Workload::Served => served::run(&config),
    }
    .map_err(|error| format!("{} could not run: {error}", args.workload.name()))?;
    measure_setup(args.workload, SETUP_PROBES - SETUP_PROBES / 2, &mut setup)?;
    print_result(args.workload, setup.median(), args.trace, outcome)
}

/// Untimed work every run does first: the host's clock and caches settle
/// after idling, which otherwise slows the first second of a run.
pub const WARMUP_SECONDS: f64 = 2.0;

/// What every workload's `run` receives.
pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn print_result(
    workload: Workload,
    setup_s: f64,
    trace: bool,
    mut outcome: Outcome,
) -> Result<(), String> {
    outcome.metrics.set("setup_s", setup_s, "s");
    // The parallelism the untraced runs fan out to: no RAYON_NUM_THREADS or
    // --jobs override is set, so users' default applies.
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    outcome.metrics.set("trace.threads", threads as f64, "count");
    let printed = printed_metrics(workload, trace, &mut outcome)?;
    let failed_ratio = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "workload {} ({} attempted, {} failed)",
        workload.name(),
        outcome.attempted,
        outcome.failed
    );
    for line in &outcome.lines {
        println!("  {line}");
    }
    let [op1, op2, rate] = workload.aliases();
    println!("  failed_ratio = {failed_ratio} ratio");
    for (name, value, unit) in &printed {
        let alias = name.replace("op1", op1).replace("op2", op2).replace("ops_per_s", rate);
        if trace {
            println!("  {name:<34} {value:>14.4} {unit}");
        } else {
            println!("  {name:<12} {alias:<26} {value:>14.4} {unit}");
        }
    }
    let members: Vec<String> = printed
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_number(*value))
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        members.join(", ")
    );
    Ok(())
}

/// The declared metrics this run prints, as (name, value, unit).  A metric
/// the run should have measured but did not, or measured in another unit,
/// fails the run; a per-layer metric of a layer the workload does not
/// exercise reads zero.
fn printed_metrics(
    workload: Workload,
    trace: bool,
    outcome: &mut Outcome,
) -> Result<Vec<(String, f64, String)>, String> {
    let names = declared(if trace { "per_layer" } else { "end_to_end" })?;
    let mut printed = Vec::new();
    for (name, unit) in names {
        let prefix = name.split('.').next().unwrap_or_default();
        let expected = !trace || workload.layers().contains(&prefix);
        let value = match outcome.metrics.get_with_unit(&name) {
            Some((value, measured)) => {
                outcome.check(measured == unit, || {
                    format!("{name} measured in {measured}, declared in {unit}")
                });
                value
            }
            None => {
                if expected {
                    outcome.check(false, || format!("{name} was not measured"));
                }
                0.0
            }
        };
        printed.push((name, value, unit));
    }
    Ok(printed)
}
