//! `wlbench`: the morphtree workload benchmark.
//!
//! ```text
//! cargo run --release --manifest-path wlbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run builds the workload's inputs from `--seed`, sets up (several
//! times, reporting the median), measures for `--seconds`, checks every
//! output, and prints as its last stdout line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the run is traced
//! and the metrics are the per-layer ones. See `wlbench/README.md`.

mod clock;
mod host;
mod layers;
mod probe;
mod reference;
mod rng;
mod spans;
mod stats;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;

use stats::Samples;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10);
    if seconds == 0 {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds as f64,
        trace: trace.unwrap_or(false),
    })
}

/// Latencies of one request class, in microseconds.
pub struct Class {
    pub label: &'static str,
    /// The tail percentile reported for this class. It is fixed: a run
    /// with fewer than ten samples beyond it fails rather than reporting a
    /// lower percentile under the same name.
    pub tail: f64,
    pub samples: Samples,
}

/// What an untraced run measured.
pub struct EndToEnd {
    pub setup_s: f64,
    pub ops_per_s: f64,
    pub ops_label: &'static str,
    pub primary: Class,
    pub secondary: Class,
}

/// What a workload run produced, traced or not.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Named output checks; the run is correct only if all pass.
    pub checks: Vec<(String, bool)>,
    /// Set by untraced runs.
    pub end_to_end: Option<EndToEnd>,
    /// Set by traced runs: per-layer metric values by name.
    pub per_layer: Vec<(&'static str, f64)>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        assert!(
            layers::PER_LAYER.iter().any(|&(n, _)| n == name),
            "{name} is not a declared per-layer metric"
        );
        assert!(value.is_finite(), "{name} is not finite: {value}");
        self.per_layer.push((name, value));
    }
}

fn json_metric(out: &mut String, first: &mut bool, name: &str, value: f64, unit: &str) {
    let sep = if *first { "" } else { ", " };
    *first = false;
    let _ = write!(
        out,
        "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
    );
}

/// Prints the notes and the final JSON line; returns the exit code.
fn emit(args: &Args, outcome: &mut Outcome) -> ExitCode {
    let mut metrics = String::new();
    let mut first = true;
    let mut ok = true;
    if args.trace {
        let mut set = Vec::new();
        for &(name, unit) in layers::PER_LAYER {
            let value = outcome
                .per_layer
                .iter()
                .rev()
                .find(|(n, _)| *n == name)
                .map(|&(_, v)| v);
            if value.is_some() {
                set.push(name);
            }
            json_metric(&mut metrics, &mut first, name, value.unwrap_or(0.0), unit);
        }
        outcome.notes.push(format!(
            "per-layer: {} of {} metrics measured on this workload; the rest are 0 because it does not call those layers",
            set.len(),
            layers::PER_LAYER.len()
        ));
    } else {
        let e2e = outcome
            .end_to_end
            .as_mut()
            .expect("untraced run reports end-to-end metrics");
        // Times are normalized to the host-speed reference; see
        // `reference.rs`. Set-up time and memory are reported as measured.
        let (chunk_ns, chunks) =
            reference::mean_chunk_ns().expect("every measuring window runs reference chunks");
        let f = reference::factor(chunk_ns);
        outcome.notes.push(format!(
            "reference: {chunks} chunks, mean {:.3} ms, times scaled by {f:.4}",
            chunk_ns / 1e6
        ));
        let mut values = vec![
            ("setup_s", e2e.setup_s),
            ("peak_rss_mib", host::peak_rss_mib()),
            ("ops_per_ref_s", e2e.ops_per_s / f),
        ];
        outcome.notes.push(format!(
            "ops_per_ref_s counts {}; measured {:.1}/s",
            e2e.ops_label, e2e.ops_per_s
        ));
        for (prefix, class) in [
            ("primary", &mut e2e.primary),
            ("secondary", &mut e2e.secondary),
        ] {
            let n = class.samples.len();
            let p = class.tail;
            let Some(tail) = class.samples.tail(p) else {
                outcome.notes.push(format!(
                    "{prefix} ({}): only {n} samples, fewer than {} beyond p{p}",
                    class.label,
                    stats::MIN_BEYOND
                ));
                ok = false;
                continue;
            };
            let mean = class.samples.mean();
            outcome.notes.push(format!(
                "{prefix} ({}): n={n} measured mean={mean:.3}us p50={:.3}us p{p}={tail:.3}us ({} samples beyond)",
                class.label,
                class.samples.median(),
                stats::beyond(p, n),
            ));
            let (mean_name, tail_name) = match prefix {
                "primary" => ("primary_mean_ref_us", "primary_tail_ref_us"),
                _ => ("secondary_mean_ref_us", "secondary_tail_ref_us"),
            };
            values.push((mean_name, mean * f));
            values.push((tail_name, tail * f));
        }
        for &(name, unit) in layers::END_TO_END {
            match values.iter().find(|(n, _)| *n == name) {
                Some(&(_, v)) if v > 0.0 && v.is_finite() => {
                    json_metric(&mut metrics, &mut first, name, v, unit);
                }
                _ => ok = false,
            }
        }
    }
    for (name, passed) in &outcome.checks {
        outcome.notes.push(format!(
            "check {}: {name}",
            if *passed { "ok" } else { "FAILED" }
        ));
    }
    let correct = ok && outcome.failed == 0 && outcome.checks.iter().all(|(_, p)| *p);
    for note in &outcome.notes {
        println!("{note}");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.attempted.max(1),
        outcome.failed
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("wlbench: {e}");
            return ExitCode::from(2);
        }
    };
    reference::init();
    let host = host::Host::probe();
    println!(
        "{}",
        host.line(&args.workload, args.seed, args.seconds as u64, args.trace)
    );
    let Some(mut outcome) = workloads::run(&args) else {
        eprintln!(
            "wlbench: unknown workload {}; known: {}",
            args.workload,
            workloads::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    emit(&args, &mut outcome)
}
