//! Repository benchmark for the Herald workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <megafleet|decode_stream|hda_dse> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload. It builds the workload's inputs from
//! the seed several times (set-up), then runs timed passes for the
//! given number of seconds, checks every pass's outputs, and prints one
//! JSON object as the last line of standard output. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` reports the per-layer metrics and
//! writes the span trace under `perfbench/out/`. See `perfbench/README.md`.

mod layers;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;
use workloads::{PassOutput, Workload};

/// The seed claims are made on by default.
pub const DEFAULT_SEED: u64 = 2026;
/// A seed held out from tuning, for confirming later claims.
pub const HELD_OUT_SEED: u64 = 7919;

/// Passes a run makes at least, however long they take.
const MIN_PASSES: usize = 5;

/// The command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {:?}, got {:?}",
            workloads::NAMES,
            args.workload
        ));
    }
    Ok(args)
}

/// A number as JSON (non-finite values become `null`, which the
/// result check then rejects).
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

/// Mean of a sample (0 when empty).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Median of a sample (upper median for even sizes).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v.get(v.len() / 2).copied().unwrap_or(0.0)
}

/// Peak resident memory of this process, MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or("unreadable VmHWM")?;
    Ok(kb / 1024.0)
}

/// What a run of set-up rounds and timed passes measured.
pub struct Measured {
    /// Host seconds of each set-up round.
    pub setup_s: Vec<f64>,
    /// Every correct pass's output, in order.
    pub outputs: Vec<PassOutput>,
    pub attempted: u64,
    pub failed: u64,
    /// The workload as the last set-up round built it.
    pub workload: Option<Workload>,
    /// Peak resident memory after the first correct pass, MB: the
    /// footprint of building and running the workload once, before
    /// repeated passes add allocator history.
    pub peak_rss_mb: f64,
}

impl Measured {
    /// Items per host second of a pass made of each timed unit's
    /// fastest run. Every pass does the same work, and other tenants of
    /// the machine only ever slow a unit down, so the fastest run of
    /// each is the steadiest estimate of the program's own speed.
    pub fn items_per_s(&self) -> f64 {
        let items = self.outputs.first().map_or(0, |o| o.items);
        items as f64 / self.fastest_s()
    }

    /// Host seconds of a pass made of each unit's fastest run.
    pub fn fastest_s(&self) -> f64 {
        let units = self.outputs.first().map_or(0, |o| o.units_s.len());
        (0..units)
            .map(|u| {
                self.outputs
                    .iter()
                    .map(|o| o.units_s[u])
                    .fold(f64::INFINITY, f64::min)
            })
            .sum()
    }
}

/// Alternates set-up rounds and timed passes until `seconds` have
/// elapsed (and at least [`MIN_PASSES`] passes ran). Each pass runs on
/// the inputs the round before it built, and is checked against the
/// first correct pass: a pass that errors or fails a check counts as
/// failed. Returns an error only when the workload cannot run here at
/// all (more threads than processors).
pub fn measure(args: &Args, seconds: f64, t: &mut Tracer) -> Result<Measured, String> {
    let nproc = nproc()?;
    let mut m = Measured {
        setup_s: Vec::new(),
        outputs: Vec::new(),
        attempted: 0,
        failed: 0,
        workload: None,
        peak_rss_mb: 0.0,
    };
    let start = Instant::now();
    while m.attempted < MIN_PASSES as u64 || start.elapsed().as_secs_f64() < seconds {
        t.next_run();
        m.attempted += 1;
        // Drop the previous inputs first, so peak memory holds one copy.
        m.workload = None;
        let t0 = Instant::now();
        let built = t.span("bench.setup", |t| {
            Workload::setup(&args.workload, args.seed, t)
        });
        m.setup_s.push(t0.elapsed().as_secs_f64());
        let w = match built {
            Ok(w) => w,
            Err(e) => {
                eprintln!("{}: set-up {} failed: {e}", args.workload, m.attempted);
                m.failed += 1;
                continue;
            }
        };
        if w.chips() > nproc {
            return Err(format!(
                "{} needs {} threads in its timed phase but only {nproc} processors are available",
                args.workload,
                w.chips()
            ));
        }
        let out = t.span("bench.pass", |t| w.pass(t));
        m.workload = Some(w);
        let out = match out {
            Ok(out) => out,
            Err(e) => {
                eprintln!("{}: pass {} failed: {e}", args.workload, m.attempted);
                m.failed += 1;
                continue;
            }
        };
        let mut failures = out.failures.clone();
        if let Some(first) = m.outputs.first() {
            if !first.sim.same_bits(&out.sim) {
                failures.push("sim metrics differ from the first pass".into());
            }
            if first.items != out.items {
                failures.push("item count differs from the first pass".into());
            }
        }
        if !failures.is_empty() {
            eprintln!(
                "{}: pass {} failed its checks: {failures:?}",
                args.workload, m.attempted
            );
            m.failed += 1;
            continue;
        }
        if m.outputs.is_empty() {
            m.peak_rss_mb = peak_rss_mb()?;
        }
        m.outputs.push(out);
    }
    Ok(m)
}

fn nproc() -> Result<usize, String> {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .map_err(|e| format!("cannot read the processor count: {e}"))
}

/// One output metric: name, value, unit.
pub type Metric = (String, f64, String);

fn metric_row(out: &mut String, name: &str, value: f64, unit: &str) {
    if !out.ends_with('{') {
        out.push_str(", ");
    }
    let _ = write!(
        out,
        "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
        json_num(value)
    );
}

fn run(args: &Args) -> Result<(u64, u64, Vec<Metric>), String> {
    let (m, metrics) = if args.trace {
        layers::traced_run(args)?
    } else {
        let m = measure(args, args.seconds, &mut Tracer::new(false))?;
        let first = m.outputs.first().ok_or("no pass succeeded")?;
        let mut metrics: Vec<Metric> = vec![
            ("setup_s".into(), median(&m.setup_s), "s".into()),
            ("items_per_s".into(), m.items_per_s(), "1/s".into()),
            ("peak_rss_mb".into(), m.peak_rss_mb, "MB".into()),
        ];
        for (name, unit, value) in first.sim.rows() {
            metrics.push((name.into(), value, unit.into()));
        }
        (m, metrics)
    };
    let w = m.workload.as_ref().ok_or("no set-up round succeeded")?;
    println!(
        "# workload={} seed={} default_seed={DEFAULT_SEED} held_out_seed={HELD_OUT_SEED} nproc={} \
         chips={} threads={} passes={} fastest_pass_s={} items_per_pass={}",
        args.workload,
        args.seed,
        nproc()?,
        w.chips(),
        w.chips(),
        m.outputs.len(),
        m.fastest_s(),
        m.outputs.first().map_or(0, |o| o.items)
    );
    Ok((m.attempted, m.failed, metrics))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((attempted, failed, metrics)) => {
            let correct = failed == 0 && metrics.iter().all(|(_, v, _)| v.is_finite());
            let mut m = String::from("{");
            for (name, value, unit) in &metrics {
                metric_row(&mut m, name, *value, unit);
            }
            m.push('}');
            println!(
                "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {m}}}"
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
