//! The three benchmark workloads: how each builds its inputs from the
//! seed (set-up), runs one timed pass, and checks the pass's outputs.
//!
//! Every call into the workspace goes through a public function and is
//! wrapped in a [`Tracer`] span named after the layer it enters, so the
//! traced run can attribute host time to layers without any change to
//! the program.

use crate::mean;
use crate::trace::Tracer;
use herald_arch::{AcceleratorClass, AcceleratorConfig, Partition};
use herald_core::ctx::EvalContext;
use herald_core::dse::{DseConfig, DseEngine};
use herald_core::exec::ScheduleSimulator;
use herald_core::fleet::{DispatchPolicy, FleetConfig, FleetReport, FleetSimulator};
use herald_core::sched::{HeraldScheduler, IncrementalScheduler, Scheduler};
use herald_core::sim::{HotPathProfile, ReportMode, StreamReport, StreamSimulator};
use herald_core::task::TaskGraph;
use herald_core::HeraldError;
use herald_dataflow::DataflowStyle;
use herald_workloads::seeded::{arrival_iter, derive_seed, SplitMix64};
use herald_workloads::{
    all_workloads, diurnal_fleet_stream, transformer_decode_stream, MultiDnnWorkload, Scenario,
    StreamSpec,
};
use std::time::Instant;

/// Workload names, as `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["megafleet", "decode_stream", "hda_dse"];

/// `megafleet` size: tenants over the five shared rotation workloads.
const FLEET_TENANTS: usize = 20_000;
/// Mean frames per tenant over the simulated day.
const FLEET_FRAMES_PER_TENANT: f64 = 4.0;
/// Chips of the `megafleet` fleet: one per-chip worker thread each.
const FLEET_CHIPS: usize = 2;
/// Diurnal trough and peak load, as shares of fleet capacity.
const FLEET_TROUGH: f64 = 0.40;
const FLEET_PEAK: f64 = 0.70;
/// Per-frame deadline, in chip service periods.
const FLEET_DEADLINE_PERIODS: f64 = 4.0;

/// `decode_stream` shape: sessions of `DECODE_TOKENS` tokens each.
const DECODE_SESSIONS: usize = 1024;
const DECODE_TOKENS: usize = 256;
/// Steady-state share of the chip the sessions keep busy.
const DECODE_UTILIZATION: f64 = 0.85;
/// Per-token deadline, in mean one-token service times.
const DECODE_DEADLINE_SERVICES: f64 = 1.1;
/// Seeded offset of a session's admission, as a share of one gap.
const DECODE_START_JITTER: f64 = 0.02;

/// `hda_dse` frame budget of a cell, in one-frame latencies of the
/// cell's workload on the even-split HDA of the cell's style set.
const DSE_BUDGET_FACTOR: f64 = 2.0;

/// The simulated end-to-end metrics of one pass. Deterministic: equal
/// inputs give equal bits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimMetrics {
    pub mean_latency_ms: f64,
    pub p99_latency_ms: f64,
    pub miss_rate: f64,
    pub energy_mj_per_frame: f64,
    pub edp_js: f64,
}

impl SimMetrics {
    /// The metrics as `(name, unit, value)` rows.
    pub fn rows(&self) -> [(&'static str, &'static str, f64); 5] {
        [
            ("sim_mean_latency_ms", "ms", self.mean_latency_ms),
            ("sim_p99_latency_ms", "ms", self.p99_latency_ms),
            ("sim_miss_rate", "ratio", self.miss_rate),
            ("sim_energy_mj_per_frame", "mJ", self.energy_mj_per_frame),
            ("sim_edp_js", "J.s", self.edp_js),
        ]
    }

    fn bits(&self) -> [u64; 5] {
        self.rows().map(|(_, _, v)| v.to_bits())
    }

    /// Whether two passes produced the same metrics, bit for bit.
    pub fn same_bits(&self, other: &SimMetrics) -> bool {
        self.bits() == other.bits()
    }
}

/// What one pass produced.
#[derive(Debug, Clone)]
pub struct PassOutput {
    /// Work items: simulated events for the streams, evaluated design
    /// points for the DSE.
    pub items: u64,
    pub sim: SimMetrics,
    /// Host seconds of each timed call into the program: the one
    /// simulation of a stream pass, or each cell of a DSE pass.
    pub units_s: Vec<f64>,
    /// Output checks that failed (empty when the pass is correct).
    pub failures: Vec<String>,
    /// The engine's hot-path profile (traced stream passes only).
    pub profile: Option<HotPathProfile>,
    /// Design-evaluation counters (DSE passes only): scheduler runs,
    /// placement evaluations, dedup skips.
    pub dse_counts: Option<[u64; 3]>,
    /// Cost-model hits and misses over the pass, where the pass owns
    /// the model.
    pub cost_hits_misses: Option<(u64, u64)>,
}

/// A workload with its inputs built.
pub enum Workload {
    Decode(DecodeBench),
    Megafleet(FleetBench),
    Dse(DseBench),
}

/// The single-chip decode workload.
pub struct DecodeBench {
    pub scenario: Scenario,
    pub chip: AcceleratorConfig,
    /// Arrivals the generator admits before the horizon (counted from
    /// its own arrival iterators, independently of the engine).
    pub expected_frames: usize,
    /// The sampling gap, for the chaining check.
    pub gap_s: f64,
}

/// The multi-chip serving workload.
pub struct FleetBench {
    pub scenario: Scenario,
    pub chip: AcceleratorConfig,
    pub fleet: FleetConfig,
    pub expected_frames: usize,
    /// The generator's arguments: trough and peak rate, deadline,
    /// horizon, seed.
    params: (f64, f64, f64, f64, u64),
}

impl FleetBench {
    /// The same tenants at one chip's share of the load.
    pub fn one_chip_scenario(&self) -> Scenario {
        let (trough, peak, deadline, horizon, seed) = self.params;
        let share = 1.0 / self.fleet.len() as f64;
        diurnal_fleet_stream(
            FLEET_TENANTS,
            trough * share,
            peak * share,
            deadline,
            horizon,
            seed,
        )
    }
}

/// The design-space sweep workload.
pub struct DseBench {
    pub workloads: Vec<MultiDnnWorkload>,
    pub style_sets: Vec<Vec<DataflowStyle>>,
    pub config: DseConfig,
    /// Frame budget of each (workload, style set) cell, workload-major:
    /// [`DSE_BUDGET_FACTOR`] times the one-frame latency of the cell's
    /// even-split HDA on Edge resources.
    pub budgets_s: Vec<f64>,
    /// The even-split Edge Maelstrom the per-layer probes run on.
    pub reference: AcceleratorConfig,
}

impl Workload {
    /// Builds the named workload's inputs from `seed`.
    pub fn setup(name: &str, seed: u64, t: &mut Tracer) -> Result<Self, HeraldError> {
        match name {
            "megafleet" => fleet_setup(seed, t).map(Workload::Megafleet),
            "decode_stream" => decode_setup(seed, t).map(Workload::Decode),
            "hda_dse" => dse_setup(seed, t).map(Workload::Dse),
            other => Err(HeraldError::Scenario {
                reason: format!("unknown workload {other:?}"),
            }),
        }
    }

    /// Chips simulated. The timed phase runs one host thread per chip.
    pub fn chips(&self) -> usize {
        match self {
            Workload::Megafleet(f) => f.fleet.len(),
            _ => 1,
        }
    }

    /// Runs one pass; `t.enabled()` selects the profiled entry points.
    pub fn pass(&self, t: &mut Tracer) -> Result<PassOutput, HeraldError> {
        match self {
            Workload::Decode(s) => decode_pass(s, t),
            Workload::Megafleet(f) => fleet_pass(f, t),
            Workload::Dse(d) => dse_pass(d, t),
        }
    }

    /// The distinct DNN workloads the pass schedules, and the chip the
    /// per-layer probes run them on.
    pub fn probe_inputs(&self) -> (Vec<MultiDnnWorkload>, AcceleratorConfig) {
        match self {
            Workload::Decode(s) => (distinct_workloads(&s.scenario), s.chip.clone()),
            Workload::Megafleet(f) => (distinct_workloads(&f.scenario), f.chip.clone()),
            Workload::Dse(d) => (d.workloads.clone(), d.reference.clone()),
        }
    }

    /// The streaming scenario, for workloads that have one.
    pub fn scenario(&self) -> Option<&Scenario> {
        match self {
            Workload::Decode(s) => Some(&s.scenario),
            Workload::Megafleet(f) => Some(&f.scenario),
            Workload::Dse(_) => None,
        }
    }
}

/// Every structurally distinct workload a scenario's streams run,
/// including per-token decode workloads, in first-seen order.
fn distinct_workloads(scenario: &Scenario) -> Vec<MultiDnnWorkload> {
    let mut out: Vec<MultiDnnWorkload> = Vec::new();
    for stream in scenario.streams() {
        let all = std::iter::once(stream.workload()).chain(stream.token_workloads());
        for w in all {
            if !out.iter().any(|d| d.same_structure(w)) {
                out.push(w.clone());
            }
        }
    }
    out
}

/// One-frame service time of `workload` alone on `chip`: build its
/// graph, compile it, replay the schedule.
fn service_time_s(
    t: &mut Tracer,
    ctx: &EvalContext,
    workload: &MultiDnnWorkload,
    chip: &AcceleratorConfig,
) -> Result<f64, HeraldError> {
    let graph = t.span("models.graph_build", |_| TaskGraph::new(workload));
    let schedule = t.span("sched.compile", |_| {
        HeraldScheduler::default().schedule_with(&graph, chip, ctx.cost_model(), ctx.stats())
    })?;
    let report = t.span("exec.replay", |_| {
        ScheduleSimulator::new(&graph, chip, ctx.cost_model()).simulate(&schedule)
    })?;
    Ok(report.total_latency_s())
}

/// Frames the generator admits before the horizon, drained from each
/// stream's own arrival iterator (a chained session yields its start).
pub fn count_arrivals(scenario: &Scenario) -> usize {
    scenario
        .streams()
        .iter()
        .map(|s| arrival_iter(s.arrival(), scenario.horizon_s()).count())
        .sum()
}

fn edge_maelstrom() -> Result<AcceleratorConfig, HeraldError> {
    let res = AcceleratorClass::Edge.resources();
    Ok(AcceleratorConfig::maelstrom(
        res,
        Partition::even(2, res.pes, res.bandwidth_gbps),
    )?)
}

/// `decode_stream`: chained decode sessions on an Edge sparse
/// Maelstrom. The sampling gap comes from the mean one-token service
/// time, so that the sessions in flight keep [`DECODE_UTILIZATION`] of
/// the chip busy; sessions are admitted one per gap, at a seeded offset
/// within [`DECODE_START_JITTER`] of their slot.
fn decode_setup(seed: u64, t: &mut Tracer) -> Result<DecodeBench, HeraldError> {
    let res = AcceleratorClass::Edge.resources();
    let chip =
        AcceleratorConfig::sparse_maelstrom(res, Partition::even(2, res.pes, res.bandwidth_gbps))?;
    // One session of the final shape, to calibrate the per-token cost.
    let probe = t.span("workloads.gen", |_| {
        transformer_decode_stream(1, DECODE_TOKENS, 1.0, 1.0, seed)
    });
    let buckets = distinct_workloads(&probe);
    let ctx = EvalContext::new();
    let mut bucket_s = Vec::with_capacity(buckets.len());
    for w in &buckets {
        bucket_s.push(service_time_s(t, &ctx, w, &chip)?);
    }
    let tokens = probe.streams()[0].token_workloads();
    let mean_token_s = tokens
        .iter()
        .map(|w| {
            let b = buckets
                .iter()
                .position(|d| d.same_structure(w))
                .unwrap_or(0);
            bucket_s[b]
        })
        .sum::<f64>()
        / tokens.len() as f64;
    // With one session admitted per gap and each lasting about
    // DECODE_TOKENS gaps, DECODE_TOKENS sessions are in flight at once.
    let gap_s = DECODE_TOKENS as f64 * mean_token_s / DECODE_UTILIZATION - mean_token_s;
    let deadline_s = DECODE_DEADLINE_SERVICES * mean_token_s;
    let generated = t.span("workloads.gen", |_| {
        transformer_decode_stream(DECODE_SESSIONS, DECODE_TOKENS, gap_s, deadline_s, seed)
    });
    let mut scenario = Scenario::new(generated.name(), generated.horizon_s());
    for (j, stream) in generated.streams().iter().enumerate() {
        let mut rng = SplitMix64::seed_from_u64(derive_seed(seed, j as u64));
        let start_s = (j as f64 + DECODE_START_JITTER * rng.gen_unit()) * gap_s;
        scenario = scenario.stream(
            StreamSpec::chained(
                stream.name(),
                stream.workload().clone(),
                start_s,
                gap_s,
                DECODE_TOKENS,
            )
            .with_token_workloads(stream.token_workloads().to_vec())
            .with_deadline(deadline_s),
        );
    }
    Ok(DecodeBench {
        expected_frames: DECODE_SESSIONS * DECODE_TOKENS,
        scenario,
        chip,
        gap_s,
    })
}

/// `megafleet`: the `megafleet_headline` shape at [`FLEET_TENANTS`]
/// tenants on [`FLEET_CHIPS`] Cloud Maelstrom chips.
fn fleet_setup(seed: u64, t: &mut Tracer) -> Result<FleetBench, HeraldError> {
    let res = AcceleratorClass::Cloud.resources();
    let chip = AcceleratorConfig::maelstrom(res, Partition::even(2, res.pes, res.bandwidth_gbps))?;
    let unit = t.span("workloads.gen", |_| {
        diurnal_fleet_stream(5, 1.0, 1.0, 1.0, 1.0, seed)
    });
    let ctx = EvalContext::new();
    let mut unit_load = 0.0;
    for stream in unit.streams() {
        unit_load +=
            stream.arrival().mean_fps() * service_time_s(t, &ctx, stream.workload(), &chip)?;
    }
    let chip_capacity_fps = 1.0 / unit_load;
    let fleet_capacity_fps = FLEET_CHIPS as f64 * chip_capacity_fps;
    let trough_fps = FLEET_TROUGH * fleet_capacity_fps;
    let peak_fps = FLEET_PEAK * fleet_capacity_fps;
    let mean_fps = 0.5 * (trough_fps + peak_fps);
    let horizon_s = FLEET_FRAMES_PER_TENANT * FLEET_TENANTS as f64 / mean_fps;
    let deadline_s = FLEET_DEADLINE_PERIODS / chip_capacity_fps;
    let scenario = t.span("workloads.gen", |_| {
        diurnal_fleet_stream(
            FLEET_TENANTS,
            trough_fps,
            peak_fps,
            deadline_s,
            horizon_s,
            seed,
        )
    });
    let expected_frames = t.span("workloads.arrivals", |_| count_arrivals(&scenario));
    Ok(FleetBench {
        fleet: FleetConfig::homogeneous(&chip, FLEET_CHIPS).with_audit_trail(false),
        scenario,
        chip,
        expected_frames,
        params: (trough_fps, peak_fps, deadline_s, horizon_s, seed),
    })
}

/// The four HDA style sets of Table III (Maelstrom's first).
fn hda_style_sets() -> Vec<Vec<DataflowStyle>> {
    use DataflowStyle::{Eyeriss, Nvdla, ShiDianNao};
    vec![
        vec![Nvdla, ShiDianNao],
        vec![ShiDianNao, Eyeriss],
        vec![Eyeriss, Nvdla],
        vec![Nvdla, ShiDianNao, Eyeriss],
    ]
}

/// `hda_dse`: Herald's co-optimization over the Table II workloads and
/// the Table III style sets on Edge resources, at the default grid. The
/// seed draws the order in which each workload's model instances are
/// submitted (the breadth-first scheduler rotates over them in that
/// order); the work per pass is the same for every seed.
fn dse_setup(seed: u64, t: &mut Tracer) -> Result<DseBench, HeraldError> {
    let workloads: Vec<MultiDnnWorkload> = t.span("workloads.gen", |_| {
        all_workloads()
            .iter()
            .enumerate()
            .map(|(i, w)| {
                let mut models: Vec<_> = w
                    .instances()
                    .iter()
                    .map(|inst| inst.model().clone())
                    .collect();
                let mut rng = SplitMix64::seed_from_u64(derive_seed(seed, i as u64));
                for k in (1..models.len()).rev() {
                    models.swap(k, rng.gen_range(0, k + 1));
                }
                models
                    .into_iter()
                    .fold(MultiDnnWorkload::new(w.name()), |acc, m| {
                        acc.with_model(m, 1)
                    })
            })
            .collect()
    });
    let res = AcceleratorClass::Edge.resources();
    let style_sets = hda_style_sets();
    let ctx = EvalContext::new();
    let mut budgets_s = Vec::with_capacity(workloads.len() * style_sets.len());
    for w in &workloads {
        for styles in &style_sets {
            let partition = Partition::even(styles.len(), res.pes, res.bandwidth_gbps);
            let even = AcceleratorConfig::hda(styles, res, partition)?;
            budgets_s.push(DSE_BUDGET_FACTOR * service_time_s(t, &ctx, w, &even)?);
        }
    }
    Ok(DseBench {
        workloads,
        style_sets,
        config: DseConfig {
            parallel: false,
            ..DseConfig::default()
        },
        budgets_s,
        reference: edge_maelstrom()?,
    })
}

/// Nearest-rank percentile, the rule the engine's reports use.
fn percentile(mut xs: Vec<f64>, q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let rank = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
    xs[rank - 1]
}

/// Relative gap between two figures (0 when both are 0).
fn rel_gap(a: f64, b: f64) -> f64 {
    let scale = a.abs().max(b.abs());
    if scale == 0.0 {
        0.0
    } else {
        (a - b).abs() / scale
    }
}

/// Stationarity tolerances for the half-horizon check.
const HALF_LATENCY_REL: f64 = 0.25;
const HALF_MISS_ABS: f64 = 0.05;

/// Checks that the first and second halves of the arrival span agree on
/// mean latency and miss rate, so no metric depends on run length.
fn check_halves(
    failures: &mut Vec<String>,
    span_s: f64,
    mean_between: impl Fn(f64, f64) -> f64,
    miss_between: impl Fn(f64, f64) -> f64,
) {
    let mid = span_s / 2.0;
    let (l1, l2) = (mean_between(0.0, mid), mean_between(mid, span_s));
    let (m1, m2) = (miss_between(0.0, mid), miss_between(mid, span_s));
    if rel_gap(l1, l2) > HALF_LATENCY_REL {
        failures.push(format!(
            "mean latency differs between halves: {l1} s vs {l2} s"
        ));
    }
    if (m1 - m2).abs() > HALF_MISS_ABS {
        failures.push(format!("miss rate differs between halves: {m1} vs {m2}"));
    }
}

fn stream_sim_metrics(r: &StreamReport) -> SimMetrics {
    let frames = r.frames().len() as f64;
    let latencies: Vec<f64> = r.frames().iter().map(|f| f.latency_s).collect();
    let mean_s = mean(&latencies);
    let energy_j = r.total_energy_j() / frames;
    SimMetrics {
        mean_latency_ms: mean_s * 1e3,
        p99_latency_ms: r.latency_percentile(0.99) * 1e3,
        miss_rate: r.deadline_miss_rate(),
        energy_mj_per_frame: energy_j * 1e3,
        edp_js: energy_j * mean_s,
    }
}

fn decode_pass(s: &DecodeBench, t: &mut Tracer) -> Result<PassOutput, HeraldError> {
    let ctx = EvalContext::new();
    let scheduler = IncrementalScheduler::new(HeraldScheduler::default(), ctx.clone());
    let sim = StreamSimulator::new(&s.chip, ctx.cost_model()).with_context(&ctx);
    let t0 = Instant::now();
    let (report, profile) = if t.enabled() {
        let (r, p) = t.span("sim.simulate", |_| {
            sim.simulate_profiled(&scheduler, &s.scenario)
        })?;
        (r, Some(p))
    } else {
        (sim.simulate(&scheduler, &s.scenario)?, None)
    };
    let units_s = vec![t0.elapsed().as_secs_f64()];
    let mut failures = Vec::new();
    let frames = report.frames();
    if frames.len() != s.expected_frames {
        failures.push(format!(
            "{} frames completed, {} arrivals admitted",
            frames.len(),
            s.expected_frames
        ));
    }
    if let Some(p) = &profile {
        if p.events != report.events_processed() as u64 {
            failures.push("profile and report disagree on events".into());
        }
    }
    check_chaining(&mut failures, frames, s.scenario.streams().len(), s.gap_s);
    let span_s = frames.iter().map(|f| f.arrival_s).fold(0.0, f64::max);
    check_halves(
        &mut failures,
        span_s,
        |a, b| report.mean_latency_between(a, b),
        |a, b| report.miss_rate_between(a, b),
    );
    Ok(PassOutput {
        items: report.events_processed() as u64,
        sim: stream_sim_metrics(&report),
        units_s,
        failures,
        profile,
        dse_counts: None,
        cost_hits_misses: Some((
            ctx.cost_model().cache_hits(),
            ctx.cost_model().cache_misses(),
        )),
    })
}

/// Token k+1 of every session arrives exactly at finish(k) + gap.
fn check_chaining(
    failures: &mut Vec<String>,
    frames: &[herald_core::sim::FrameRecord],
    sessions: usize,
    gap_s: f64,
) {
    let mut per_session: Vec<Vec<(usize, f64, f64)>> = vec![Vec::new(); sessions];
    for f in frames {
        per_session[f.stream].push((f.seq, f.arrival_s, f.finish_s));
    }
    for (i, tokens) in per_session.iter_mut().enumerate() {
        tokens.sort_by_key(|&(seq, _, _)| seq);
        for pair in tokens.windows(2) {
            let (_, _, prev_finish) = pair[0];
            let (seq, arrival, _) = pair[1];
            if arrival.to_bits() != (prev_finish + gap_s).to_bits() {
                failures.push(format!(
                    "session {i} token {seq} does not chain on its predecessor"
                ));
                return;
            }
        }
    }
}

fn fleet_sim_metrics(r: &FleetReport) -> SimMetrics {
    let (mut frames, mut latency_sum_s, mut deadline_frames, mut missed) =
        (0u64, 0.0f64, 0u64, 0u64);
    for a in r.per_chip().iter().flat_map(StreamReport::stream_aggs) {
        frames += a.frames;
        latency_sum_s += a.latency_sum_s;
        deadline_frames += a.deadline_frames;
        missed += a.missed;
    }
    let mean_s = latency_sum_s / frames as f64;
    let energy_j = r.total_energy_j() / frames as f64;
    // A dropped frame counts as a miss.
    let dropped = r.dropped_total() as u64;
    SimMetrics {
        mean_latency_ms: mean_s * 1e3,
        p99_latency_ms: r.latency_percentile(0.99) * 1e3,
        miss_rate: (missed + dropped) as f64 / (deadline_frames + dropped) as f64,
        energy_mj_per_frame: energy_j * 1e3,
        edp_js: energy_j * mean_s,
    }
}

fn fleet_pass(f: &FleetBench, t: &mut Tracer) -> Result<PassOutput, HeraldError> {
    let sim = FleetSimulator::new(&f.fleet)
        .with_dispatcher(DispatchPolicy::LeastLoaded)
        .with_report_mode(ReportMode::sketch());
    let t0 = Instant::now();
    let (report, profile) = if t.enabled() {
        let (r, p) = t.span("fleet.simulate", |_| sim.simulate_profiled(&f.scenario))?;
        (r, Some(p))
    } else {
        (sim.simulate(&f.scenario)?, None)
    };
    let units_s = vec![t0.elapsed().as_secs_f64()];
    let mut failures = Vec::new();
    let generated = report.frames_total() + report.dropped_total();
    if generated != f.expected_frames {
        failures.push(format!(
            "{generated} frames served or dropped, {} arrivals generated",
            f.expected_frames
        ));
    }
    let per_chip: usize = (0..report.chips()).map(|c| report.frames_on_chip(c)).sum();
    let per_chip_aggs: u64 = report
        .per_chip()
        .iter()
        .flat_map(StreamReport::stream_aggs)
        .map(|a| a.frames)
        .sum();
    if per_chip != report.frames_total() || per_chip_aggs != report.frames_total() as u64 {
        failures.push(format!(
            "merged frames {} differ from the per-chip sum {per_chip} / {per_chip_aggs}",
            report.frames_total()
        ));
    }
    let events: u64 = report
        .per_chip()
        .iter()
        .map(|r| r.events_processed() as u64)
        .sum();
    if let Some(p) = &profile {
        if p.events != events {
            failures.push("profile and reports disagree on events".into());
        }
    }
    check_halves(
        &mut failures,
        f.scenario.horizon_s(),
        |a, b| {
            // Frame-weighted mean over the chips' windowed means.
            let (sum, n) = report.per_chip().iter().fold((0.0, 0.0), |(s, n), r| {
                let k = r.deadline_frames_between(a, b) as f64;
                (s + r.mean_latency_between(a, b) * k, n + k)
            });
            if n > 0.0 {
                sum / n
            } else {
                0.0
            }
        },
        |a, b| report.miss_rate_between(a, b),
    );
    Ok(PassOutput {
        items: events,
        sim: fleet_sim_metrics(&report),
        units_s,
        failures,
        profile,
        dse_counts: None,
        cost_hits_misses: None,
    })
}

fn dse_pass(d: &DseBench, t: &mut Tracer) -> Result<PassOutput, HeraldError> {
    let ctx = EvalContext::new();
    let engine = DseEngine::new(d.config.clone());
    let res = AcceleratorClass::Edge.resources();
    let mut latencies = Vec::new();
    let mut energies = Vec::new();
    let mut over_budget = 0usize;
    let mut log_best_edp = 0.0;
    let mut failures = Vec::new();
    let mut units_s = Vec::with_capacity(d.workloads.len() * d.style_sets.len());
    let mut budgets_s = d.budgets_s.iter();
    for w in &d.workloads {
        for (styles, budget_s) in d.style_sets.iter().zip(budgets_s.by_ref()) {
            let t0 = Instant::now();
            let outcome = t.span("dse.co_optimize", |_| {
                engine.co_optimize_in(&ctx, w, res, styles)
            })?;
            units_s.push(t0.elapsed().as_secs_f64());
            let Some(best) = outcome.best() else {
                failures.push(format!("no design point for {} on {styles:?}", w.name()));
                continue;
            };
            log_best_edp += best.edp().ln();
            for p in &outcome.points {
                let lat = p.latency_s();
                if !(lat.is_finite() && lat > 0.0 && p.energy_j() > 0.0) {
                    failures.push(format!("degenerate design point on {}", w.name()));
                }
                over_budget += usize::from(lat > *budget_s);
                latencies.push(lat);
                energies.push(p.energy_j());
            }
        }
    }
    let cells = (d.workloads.len() * d.style_sets.len()) as f64;
    let points = latencies.len();
    let stats = ctx.stats().snapshot();
    let cost = ctx.cost_model();
    Ok(PassOutput {
        items: points as u64,
        sim: SimMetrics {
            mean_latency_ms: mean(&latencies) * 1e3,
            p99_latency_ms: percentile(latencies, 0.99) * 1e3,
            miss_rate: over_budget as f64 / points as f64,
            energy_mj_per_frame: mean(&energies) * 1e3,
            edp_js: (log_best_edp / cells).exp(),
        },
        units_s,
        failures,
        profile: None,
        dse_counts: Some([
            stats.scheduler_runs,
            stats.placement_evals,
            stats.dedup_skips,
        ]),
        cost_hits_misses: Some((cost.cache_hits(), cost.cache_misses())),
    })
}
