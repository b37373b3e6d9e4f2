//! The traced run: per-layer metrics.
//!
//! The run first measures untraced passes, then the same passes with
//! the tracer on and the engine's profiled entry points, then probes
//! each layer's public functions on the workload's own inputs. Counts
//! come from the public reports (`HotPathProfile`, `MemProfile`,
//! `EvalSnapshot`, the `CostModel` counters); nothing is added inside
//! the program. A metric whose layer the workload does not exercise is
//! reported as 0 (see `perfbench/README.md` for which ones each
//! workload exercises). The spans and counts are written to
//! `perfbench/out/trace-<workload>-<seed>.json` at exit.

use crate::trace::Tracer;
use crate::workloads::{count_arrivals, FleetBench, Workload};
use crate::{mean, measure, median, Args, Measured, Metric};
use herald_arch::AcceleratorConfig;
use herald_core::ctx::EvalContext;
use herald_core::exec::ScheduleSimulator;
use herald_core::fleet::{DispatchPolicy, FleetConfig, FleetSimulator};
use herald_core::sched::{HeraldScheduler, IncrementalScheduler, Scheduler};
use herald_core::sim::{HotPathProfile, ReportMode, StreamSimulator};
use herald_core::task::TaskGraph;
use herald_cost::{CostModel, CostQuery};
use herald_workloads::MultiDnnWorkload;
use std::hint::black_box;
use std::time::Instant;

/// Repetitions of each layer probe; probes report the median.
const PROBE_REPS: usize = 7;
/// Memo-hit repetitions per compiled graph in the `ctx` probe.
const MEMO_HITS: usize = 50;

const MB: f64 = 1024.0 * 1024.0;

/// Every per-layer metric, in `BENCHMARK.json` order, with its unit.
pub const PER_LAYER: [(&str, &str); 32] = [
    ("workloads.gen_s", "s"),
    ("workloads.arrivals_per_s", "1/s"),
    ("models.graph_build_us", "us"),
    ("cost.query_ns_cold", "ns"),
    ("cost.query_ns_warm", "ns"),
    ("cost.cache_hit_rate", "ratio"),
    ("sched.compile_ms", "ms"),
    ("sched.placement_evals", "count"),
    ("ctx.memo_hit_us", "us"),
    ("ctx.fingerprint_hit_rate", "ratio"),
    ("exec.replay_us", "us"),
    ("sim.events", "count"),
    ("sim.schedule_compiles", "count"),
    ("sim.cost_tables_built", "count"),
    ("sim.cost_table_entries", "count"),
    ("sim.cost_tables_per_compile", "ratio"),
    ("sim.compile_share", "ratio"),
    ("sim.admit_share", "ratio"),
    ("sim.run_share", "ratio"),
    ("sim.harvest_share", "ratio"),
    ("sim.mean_batch_events", "count"),
    ("sim.arena_reuse_rate", "ratio"),
    ("sim.tracked_mb", "MB"),
    ("fleet.wall_s", "s"),
    ("fleet.overhead_s", "s"),
    ("fleet.parallel_efficiency", "ratio"),
    ("fleet.estimate_mb", "MB"),
    ("dse.points_per_s", "1/s"),
    ("dse.scheduler_runs", "count"),
    ("dse.placement_evals_per_point", "ratio"),
    ("dse.dedup_skips", "count"),
    ("trace.overhead", "ratio"),
];

/// Per-layer values by name; unset ones are reported as 0.
struct Values(Vec<(&'static str, f64)>);

impl Values {
    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.0.retain(|(n, _)| *n != name);
        self.0.push((name, value));
    }

    fn into_metrics(self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let v = self
                    .0
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(0.0, |&(_, v)| v);
                (name.to_string(), v, unit.to_string())
            })
            .collect()
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Median host seconds of `reps` runs of `f`.
fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Runs the traced measurement; returns the traced passes (for the
/// attempted/failed counts) and the per-layer metrics.
pub fn traced_run(args: &Args) -> Result<(Measured, Vec<Metric>), String> {
    let plain = measure(args, args.seconds / 2.0, &mut Tracer::new(false))?;
    let mut t = Tracer::new(true);
    let mut traced = measure(args, args.seconds / 2.0, &mut t)?;
    traced.attempted += plain.attempted;
    traced.failed += plain.failed;
    let w = traced
        .workload
        .as_ref()
        .ok_or("no set-up round succeeded")?;
    let first = traced.outputs.first().ok_or("no traced pass succeeded")?;

    let mut v = Values(Vec::new());
    v.set(
        "trace.overhead",
        ratio(traced.items_per_s(), plain.items_per_s()),
    );
    let gen: Vec<f64> = (1..=traced.setup_s.len() as u32)
        .map(|run| {
            t.spans()
                .iter()
                .filter(|s| s.run == run && s.name == "workloads.gen")
                .map(|s| s.dur_ns() as f64 / 1e9)
                .sum()
        })
        .collect();
    v.set("workloads.gen_s", median(&gen));
    if let Some(scenario) = w.scenario() {
        let mut n = 0;
        let secs = t.span("workloads.arrivals", |_| {
            time_median(PROBE_REPS, || n = black_box(count_arrivals(scenario)))
        });
        v.set("workloads.arrivals_per_s", ratio(n as f64, secs));
    }
    if let Some((hits, misses)) = first.cost_hits_misses {
        v.set(
            "cost.cache_hit_rate",
            ratio(hits as f64, (hits + misses) as f64),
        );
    }
    if let Some(p) = &first.profile {
        engine_counts(&mut v, p, &traced);
    }
    if let Some([runs, evals, dedup]) = first.dse_counts {
        v.set("dse.points_per_s", traced.items_per_s());
        v.set("dse.scheduler_runs", runs as f64);
        v.set(
            "dse.placement_evals_per_point",
            ratio(evals as f64, first.items as f64),
        );
        v.set("dse.dedup_skips", dedup as f64);
    }
    // Each probe's checks count as one more attempted operation.
    let (distinct, chip) = w.probe_inputs();
    let mut probes_ok = vec![layer_probes(&mut v, &mut t, &distinct, &chip)?];
    if let Workload::Megafleet(f) = w {
        probes_ok.push(fleet_probes(&mut v, &mut t, f, &traced)?);
    }
    traced.attempted += probes_ok.len() as u64;
    traced.failed += probes_ok.iter().filter(|ok| !**ok).count() as u64;

    for (name, value) in &v.0 {
        t.count(*name, *value);
    }
    write_trace(args, &t)?;
    Ok((traced, v.into_metrics()))
}

/// The streaming engine's counters and phase shares, from the first
/// traced pass's profile and the fastest traced pass's wall time.
fn engine_counts(v: &mut Values, p: &HotPathProfile, traced: &Measured) {
    // Phase shares use each pass's own wall time; report the median.
    let shares = |ns: fn(&HotPathProfile) -> u64| {
        let per_pass: Vec<f64> = traced
            .outputs
            .iter()
            .filter_map(|o| {
                let wall: f64 = o.units_s.iter().sum();
                o.profile.as_ref().map(|p| ns(p) as f64 / 1e9 / wall)
            })
            .collect();
        median(&per_pass)
    };
    v.set("sim.events", p.events as f64);
    v.set("sim.schedule_compiles", p.schedule_compiles as f64);
    v.set("sim.cost_tables_built", p.cost_tables_built as f64);
    v.set("sim.cost_table_entries", p.cost_table_entries as f64);
    v.set(
        "sim.cost_tables_per_compile",
        ratio(p.cost_tables_built as f64, p.schedule_compiles as f64),
    );
    v.set("sim.compile_share", shares(|p| p.compile_ns));
    v.set("sim.admit_share", shares(|p| p.admit_ns));
    v.set("sim.run_share", shares(|p| p.run_ns));
    v.set("sim.harvest_share", shares(|p| p.harvest_ns));
    v.set("sim.mean_batch_events", p.mean_batch_events());
    v.set("sim.arena_reuse_rate", p.arena_reuse_rate());
    v.set("sim.tracked_mb", p.mem.tracked_total() as f64 / MB);
}

/// Probes the model, cost, sched, ctx and exec layers on the distinct
/// workloads the pass schedules. Returns whether every check held.
fn layer_probes(
    v: &mut Values,
    t: &mut Tracer,
    distinct: &[MultiDnnWorkload],
    chip: &AcceleratorConfig,
) -> Result<bool, String> {
    let graphs: Vec<TaskGraph> = distinct.iter().map(TaskGraph::new).collect();
    let build_us: Vec<f64> = distinct
        .iter()
        .map(|w| {
            t.span("models.graph_build", |_| {
                time_median(PROBE_REPS, || {
                    let g = TaskGraph::new(w);
                    black_box(g.structural_fingerprint());
                })
            }) * 1e6
        })
        .collect();
    v.set("models.graph_build_us", mean(&build_us));

    // Every (layer, sub-accelerator) pair of the distinct graphs.
    let pairs: Vec<(&herald_models::Layer, CostQuery)> = graphs
        .iter()
        .flat_map(|g| g.ids().map(move |id| g.layer(id)))
        .flat_map(|layer| {
            chip.sub_accelerators().iter().map(move |sa| {
                let q = CostQuery {
                    style: sa.style(),
                    pes: sa.pes(),
                    bandwidth_gbps: sa.bandwidth_gbps(),
                    reconfigurable: sa.is_reconfigurable(),
                    sparse_gating: sa.has_sparse_gating(),
                };
                (layer, q)
            })
        })
        .collect();
    let n = pairs.len() as f64;
    let query_all = |model: &CostModel| {
        for (layer, q) in &pairs {
            black_box(model.query(layer, *q));
        }
    };
    let cold = t.span("cost.query_cold", |_| {
        time_median(PROBE_REPS, || query_all(&CostModel::default()))
    });
    let warm_model = CostModel::default();
    query_all(&warm_model);
    let warm = t.span("cost.query_warm", |_| {
        time_median(PROBE_REPS, || query_all(&warm_model))
    });
    v.set("cost.query_ns_cold", cold * 1e9 / n);
    v.set("cost.query_ns_warm", warm * 1e9 / n);

    // Compile each graph on the warm model, so compile time is the
    // scheduler's own; count placement evaluations per compile.
    let ctx = EvalContext::new();
    let scheduler = HeraldScheduler::default();
    let mut compile_ms = Vec::new();
    let mut replay_us = Vec::new();
    let mut all_ok = true;
    for g in &graphs {
        query_all(ctx.cost_model());
        let mut schedule = None;
        let secs = t.span("sched.compile", |_| {
            time_median(PROBE_REPS, || {
                schedule = Some(scheduler.schedule_with(g, chip, ctx.cost_model(), ctx.stats()));
            })
        });
        let schedule = schedule
            .expect("time_median ran the closure")
            .map_err(|e| format!("compile probe failed: {e}"))?;
        compile_ms.push(secs * 1e3);
        let sim = ScheduleSimulator::new(g, chip, ctx.cost_model());
        let mut ok = true;
        let secs = t.span("exec.replay", |_| {
            time_median(PROBE_REPS, || {
                ok &= black_box(sim.simulate(&schedule)).is_ok()
            })
        });
        all_ok &= ok;
        replay_us.push(secs * 1e6);
    }
    let compiles = (PROBE_REPS * graphs.len()) as f64;
    v.set("sched.compile_ms", mean(&compile_ms));
    v.set(
        "sched.placement_evals",
        ratio(ctx.stats().placement_evals() as f64, compiles),
    );
    v.set("exec.replay_us", mean(&replay_us));

    // Memo hits: compile once through the incremental scheduler, then
    // repeat the same request.
    let memo_ctx = EvalContext::new();
    let incremental = IncrementalScheduler::new(HeraldScheduler::default(), memo_ctx.clone());
    let mut hit_us = Vec::new();
    for g in &graphs {
        let compiled = incremental
            .schedule(g, chip, memo_ctx.cost_model())
            .map_err(|e| format!("memo probe failed: {e}"))?;
        let mut same = true;
        let secs = t.span("ctx.memo_hit", |_| {
            time_median(PROBE_REPS, || {
                for _ in 0..MEMO_HITS {
                    let s = incremental.schedule(g, chip, memo_ctx.cost_model());
                    same &= s.as_ref().is_ok_and(|s| *s == compiled);
                }
            })
        });
        all_ok &= same;
        hit_us.push(secs * 1e6 / MEMO_HITS as f64);
    }
    let s = memo_ctx.stats().snapshot();
    v.set("ctx.memo_hit_us", mean(&hit_us));
    v.set(
        "ctx.fingerprint_hit_rate",
        ratio(s.fingerprint_hits as f64, s.fingerprint_lookups as f64),
    );
    Ok(all_ok)
}

/// Fleet-layer figures on `megafleet`: the traced passes' wall time and
/// parallel efficiency, and the overhead of a 1-chip fleet over a direct
/// single-chip run of the same scenario, whose reports must be
/// identical. Returns whether they were.
fn fleet_probes(
    v: &mut Values,
    t: &mut Tracer,
    f: &FleetBench,
    traced: &Measured,
) -> Result<bool, String> {
    let chips = f.fleet.len() as f64;
    let efficiency: Vec<f64> = traced
        .outputs
        .iter()
        .filter_map(|o| {
            let p = o.profile.as_ref()?;
            let busy_ns = p.compile_ns + p.admit_ns + p.run_ns + p.harvest_ns;
            let wall: f64 = o.units_s.iter().sum();
            Some(busy_ns as f64 / 1e9 / (chips * wall))
        })
        .collect();
    v.set("fleet.wall_s", traced.fastest_s());
    v.set("fleet.parallel_efficiency", median(&efficiency));
    if let Some(p) = traced.outputs.first().and_then(|o| o.profile.as_ref()) {
        v.set("fleet.estimate_mb", p.mem.estimate_bytes as f64 / MB);
    }

    let scenario = t.span("workloads.gen", |_| f.one_chip_scenario());
    let one = FleetConfig::homogeneous(&f.chip, 1).with_audit_trail(false);
    let fleet_sim = FleetSimulator::new(&one)
        .with_dispatcher(DispatchPolicy::LeastLoaded)
        .with_report_mode(ReportMode::sketch());
    let mut fleet_report = None;
    let fleet_s = t.span("fleet.simulate", |_| {
        time_median(3, || fleet_report = Some(fleet_sim.simulate(&scenario)))
    });
    let fleet_report = fleet_report
        .expect("time_median ran the closure")
        .map_err(|e| format!("1-chip fleet probe failed: {e}"))?;
    let mut direct = None;
    let mut hits_misses = (0, 0);
    let direct_s = t.span("sim.simulate", |_| {
        time_median(3, || {
            let ctx = EvalContext::new();
            let scheduler = IncrementalScheduler::new(HeraldScheduler::default(), ctx.clone());
            direct = Some(
                StreamSimulator::new(&f.chip, ctx.cost_model())
                    .with_context(&ctx)
                    .with_report_mode(ReportMode::sketch())
                    .simulate(&scheduler, &scenario),
            );
            hits_misses = (
                ctx.cost_model().cache_hits(),
                ctx.cost_model().cache_misses(),
            );
        })
    });
    let direct = direct
        .expect("time_median ran the closure")
        .map_err(|e| format!("direct probe failed: {e}"))?;
    v.set("fleet.overhead_s", fleet_s - direct_s);
    let (hits, misses) = hits_misses;
    v.set(
        "cost.cache_hit_rate",
        ratio(hits as f64, (hits + misses) as f64),
    );
    let identical = fleet_report.per_chip().first() == Some(&direct);
    if !identical {
        eprintln!("megafleet: the 1-chip fleet report differs from the direct run");
    }
    Ok(identical)
}

fn write_trace(args: &Args, t: &Tracer) -> Result<(), String> {
    let dir = std::path::Path::new("perfbench/out");
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}-{}.json", args.workload, args.seed));
    std::fs::write(&path, t.to_chrome_json(&args.workload))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("# trace written to {}", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::PER_LAYER;
    use crate::workloads::NAMES;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    /// The `{...}` entries of one top-level list of `BENCHMARK.json`.
    fn entries(list: &str) -> Vec<&'static str> {
        let key = format!("\"{list}\": [");
        let start = BENCHMARK_JSON.find(&key).expect("list present") + key.len();
        let body = &BENCHMARK_JSON[start..];
        let body = &body[..body.find(']').expect("list closed")];
        body.split('{').skip(1).collect()
    }

    /// The string value of `key` in one entry.
    fn field<'a>(entry: &'a str, key: &str) -> &'a str {
        let key = format!("\"{key}\": \"");
        let start = entry.find(&key).expect("field present") + key.len();
        let rest = &entry[start..];
        &rest[..rest.find('"').expect("string closed")]
    }

    #[test]
    fn per_layer_matches_benchmark_json() {
        let listed: Vec<(&str, &str)> = entries("per_layer")
            .into_iter()
            .map(|e| (field(e, "name"), field(e, "unit")))
            .collect();
        assert_eq!(listed, PER_LAYER.to_vec());
    }

    #[test]
    fn workloads_match_benchmark_json() {
        let listed: Vec<&str> = entries("workloads")
            .into_iter()
            .map(|e| field(e, "name"))
            .collect();
        assert_eq!(listed, NAMES.to_vec());
    }
}
