//! Hot-path equivalence suite for the PR-7 optimizations: the
//! fingerprint-served memo tier and batched arrival admission are pure
//! speedups — every observable simulation output must be bit-identical
//! to the slow paths they replace.
//!
//! * **Fingerprint path == structural-key path**: a warm rerun on a
//!   shared [`EvalContext`] serves every scheduling decision through
//!   the 128-bit fingerprint lookup (verify-on-hit against the full
//!   structural key), and must reproduce the cold run — which compiled
//!   everything fresh — to the last bit, with nonzero fingerprint hits
//!   and zero collisions.
//! * **Batched admission == per-event admission**: admitting arrivals
//!   in windows of 1 (the historical event-at-a-time walk), 7 (an
//!   awkward prime), and the default 32 must produce identical reports
//!   under both [`ReschedulePolicy`] variants.
//! * **One cost table per distinct workload**: the engine-wide schedule
//!   table compiles each workload once, however many streams, swaps and
//!   decode tokens share it, on one chip and per chip of a fleet.

use herald::core::sched::IncrementalScheduler;
use herald::core::sim::{StreamReport, StreamSimulator, DEFAULT_ADMISSION_BATCH};
use herald::prelude::*;

fn edge_maelstrom() -> AcceleratorConfig {
    AcceleratorConfig::maelstrom(
        AcceleratorClass::Edge.resources(),
        Partition::even(2, 1024, 16.0),
    )
    .unwrap()
}

fn scenarios() -> [Scenario; 3] {
    [
        herald::workloads::arvr_a_stream(1.0, 1.2),
        herald::workloads::workload_change_trace(2.0, 0.6, 2.0),
        herald::workloads::poisson_mix_stream(1.0, 0.5, 2024),
    ]
}

/// Asserts two stream reports agree on every simulation output (the
/// scheduling-work counters may legitimately differ between a cold and
/// a warm run).
fn assert_same_simulation(a: &StreamReport, b: &StreamReport, label: &str) {
    assert_eq!(a.frames(), b.frames(), "{label}: frame records");
    assert_eq!(a.swaps(), b.swaps(), "{label}: swap records");
    assert_eq!(a.busy_spans(), b.busy_spans(), "{label}: busy spans");
    assert_eq!(a.per_acc(), b.per_acc(), "{label}: per-acc summaries");
    assert_eq!(a.energy(), b.energy(), "{label}: energy");
    assert_eq!(a.makespan_s(), b.makespan_s(), "{label}: makespan");
    assert_eq!(
        a.peak_memory_bytes(),
        b.peak_memory_bytes(),
        "{label}: peak memory"
    );
}

#[test]
fn fingerprint_served_reruns_match_structural_compiles() {
    // Cold run: every schedule is compiled fresh and inserted under its
    // full structural key + fingerprint. Warm rerun on the same
    // context: every decision is served by the fingerprint probe
    // (verified on hit against the structural key). Same bits out.
    for scenario in &scenarios() {
        let ctx = EvalContext::new();
        let run = || {
            Experiment::new(scenario.design_workload())
                .on_accelerator(edge_maelstrom())
                .fast()
                .with_context(ctx.clone())
                .scenario(scenario)
                .unwrap()
        };
        let before = ctx.stats().snapshot();
        let cold = run();
        let after_cold = ctx.stats().snapshot();
        let warm = run();
        let after_warm = ctx.stats().snapshot();

        assert_same_simulation(cold.report(), warm.report(), scenario.name());
        assert_eq!(
            warm.report().scheduler_invocations(),
            0,
            "{}: the warm run must compile nothing",
            scenario.name()
        );
        // The cold run only *inserted* fingerprints; the warm run's
        // per-stream probes hit them — and verification never found a
        // colliding structural key.
        assert_eq!(
            after_cold.fingerprint_hits - before.fingerprint_hits,
            0,
            "{}: distinct stream models cannot hit the memo cold",
            scenario.name()
        );
        assert!(
            after_warm.fingerprint_hits > after_cold.fingerprint_hits,
            "{}: warm rerun must be fingerprint-served",
            scenario.name()
        );
        assert_eq!(
            after_warm.fingerprint_collisions,
            0,
            "{}: no collisions on real workloads",
            scenario.name()
        );
    }
}

#[test]
fn batched_admission_is_bit_identical_to_per_event() {
    // Batch caps 1 (event-at-a-time), 7 (splits windows awkwardly) and
    // the default 32 must not change a single bit of the simulation,
    // whichever rescheduling policy runs above the core.
    let config = edge_maelstrom();
    for scenario in &scenarios() {
        for policy in [
            ReschedulePolicy::Incremental,
            ReschedulePolicy::FullReschedule,
        ] {
            let run = |cap: usize| -> StreamReport {
                let ctx = EvalContext::new();
                let scheduler = HeraldScheduler::new(SchedulerConfig::default());
                let sim = StreamSimulator::new(&config, ctx.cost_model())
                    .with_policy(policy)
                    .with_context(&ctx)
                    .with_admission_batch(cap);
                match policy {
                    ReschedulePolicy::Incremental => {
                        let inc = IncrementalScheduler::new(scheduler, ctx.clone());
                        sim.simulate(&inc, scenario).unwrap()
                    }
                    ReschedulePolicy::FullReschedule => sim.simulate(&scheduler, scenario).unwrap(),
                }
            };
            let per_event = run(1);
            let batched_7 = run(7);
            let batched_default = run(DEFAULT_ADMISSION_BATCH);
            let label = format!("{} under {policy:?}", scenario.name());
            assert_eq!(
                per_event, batched_7,
                "{label}: batch cap 7 diverged from per-event admission"
            );
            assert_eq!(
                per_event, batched_default,
                "{label}: default batching diverged from per-event admission"
            );
        }
    }
}

/// Five streams cloning two shared workloads — one of them swapping to
/// the workload two others already run — plus, when `chained`, one
/// decode session whose four tokens span two KV buckets.
fn shared_workloads_scenario(chained: bool) -> (Scenario, Vec<MultiDnnWorkload>) {
    let single = |m| herald::workloads::single_model(m, 1);
    let a = single(herald::models::zoo::mobilenet_v1());
    let b = single(herald::models::zoo::mobilenet_v2());
    let mut scenario = Scenario::new("shared", 0.2)
        .stream(StreamSpec::periodic("a0", a.clone(), 20.0))
        .stream(StreamSpec::periodic("a1", a.clone(), 25.0))
        .stream(StreamSpec::poisson("b0", b.clone(), 20.0, 3))
        .stream(StreamSpec::periodic("b1", b.clone(), 15.0))
        .stream(StreamSpec::periodic("swapper", a.clone(), 30.0).swap_at(0.1, b.clone()));
    let mut workloads = vec![a, b];
    if chained {
        let kv64 = single(herald::models::zoo::transformer_decoder(64));
        let kv128 = single(herald::models::zoo::transformer_decoder(128));
        let tokens = vec![kv64.clone(), kv64.clone(), kv128.clone(), kv128.clone()];
        scenario = scenario.stream(
            StreamSpec::chained("decode", kv64.clone(), 0.0, 0.01, 4).with_token_workloads(tokens),
        );
        workloads.extend([kv64, kv128]);
    }
    (scenario, workloads)
}

#[test]
fn each_distinct_workload_builds_one_cost_table() {
    // The schedule table is engine-wide: however many streams, swaps
    // and decode tokens share a workload, it is compiled — and its
    // per-task cost table built — once.
    let config = edge_maelstrom();
    let (scenario, workloads) = shared_workloads_scenario(true);
    let ctx = EvalContext::new();
    let inc = IncrementalScheduler::new(HeraldScheduler::default(), ctx.clone());
    let (report, profile) = StreamSimulator::new(&config, ctx.cost_model())
        .with_context(&ctx)
        .simulate_profiled(&inc, &scenario)
        .unwrap();
    let admitted: Vec<&MultiDnnWorkload> = workloads
        .iter()
        .filter(|w| report.frames().iter().any(|f| *f.workload == *w.name()))
        .collect();
    assert_eq!(admitted.len(), workloads.len(), "every workload ran");
    assert_eq!(profile.cost_tables_built, admitted.len() as u64);
    let tasks: usize = admitted
        .iter()
        .map(|w| herald::core::task::TaskGraph::new(w).len())
        .sum();
    assert_eq!(profile.cost_table_entries, tasks as u64);

    // A 2-chip fleet (chained streams cannot be routed) builds at most
    // one table per chip and distinct workload.
    let (scenario, workloads) = shared_workloads_scenario(false);
    let fleet = FleetConfig::homogeneous(&config, 2);
    let (_, profile) = FleetSimulator::new(&fleet)
        .with_dispatcher(DispatchPolicy::LeastLoaded)
        .simulate_profiled(&scenario)
        .unwrap();
    assert!(
        profile.cost_tables_built <= (fleet.len() * workloads.len()) as u64,
        "{} cost tables for {} chips x {} workloads",
        profile.cost_tables_built,
        fleet.len(),
        workloads.len()
    );
}
