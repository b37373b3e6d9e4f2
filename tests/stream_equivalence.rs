//! The online-rescheduling equivalence suite: the incremental streaming
//! path (one engine-wide schedule table shared by every stream, shared
//! `EvalContext`)
//! must produce **bit-identical** simulations to the full-reschedule
//! baseline that re-runs the scheduler at every frame arrival — on the
//! rated AR/VR trace, the Fig. 13 workload-change trace, and a seeded
//! Poisson scenario — while doing measurably less scheduling work.

use herald::prelude::*;

fn edge_maelstrom() -> AcceleratorConfig {
    AcceleratorConfig::maelstrom(
        AcceleratorClass::Edge.resources(),
        Partition::even(2, 1024, 16.0),
    )
    .unwrap()
}

/// Streams `scenario` on a fixed accelerator under both policies and
/// asserts the timelines agree to the last bit, the counters prove the
/// incremental path did less work, and returns both reports.
fn assert_equivalent(scenario: &Scenario) -> (StreamOutcome, StreamOutcome) {
    let run = |policy: ReschedulePolicy| {
        Experiment::new(scenario.design_workload())
            .on_accelerator(edge_maelstrom())
            .fast()
            .reschedule_policy(policy)
            .scenario(scenario)
            .unwrap()
    };
    let incremental = run(ReschedulePolicy::Incremental);
    let full = run(ReschedulePolicy::FullReschedule);
    let (a, b) = (incremental.report(), full.report());

    // Bit-identical simulation outcomes (exact f64 equality throughout).
    assert_eq!(a.frames(), b.frames(), "{}: frame records", scenario.name());
    assert_eq!(a.swaps(), b.swaps(), "{}: swap records", scenario.name());
    assert_eq!(
        a.busy_spans(),
        b.busy_spans(),
        "{}: busy spans",
        scenario.name()
    );
    assert_eq!(
        a.per_acc(),
        b.per_acc(),
        "{}: per-acc summaries",
        scenario.name()
    );
    assert_eq!(
        a.energy(),
        b.energy(),
        "{}: energy breakdown",
        scenario.name()
    );
    assert_eq!(
        a.makespan_s(),
        b.makespan_s(),
        "{}: makespan",
        scenario.name()
    );
    assert_eq!(
        a.peak_memory_bytes(),
        b.peak_memory_bytes(),
        "{}: peak memory",
        scenario.name()
    );
    assert_eq!(a.events_processed(), b.events_processed());

    // The incremental path compiled strictly less often and evaluated
    // strictly fewer placements; the baseline never hit a cache.
    assert!(a.scheduler_invocations() < b.scheduler_invocations());
    assert!(a.placement_evaluations() < b.placement_evaluations());
    assert!(a.schedule_cache_hits() > 0);
    assert_eq!(b.schedule_cache_hits(), 0);
    (incremental, full)
}

#[test]
fn arvr_a_stream_is_bit_identical_incrementally() {
    // Rates 2/4/4 fps over 1.2 s: ~12 arrivals across three streams, no
    // swaps — the steady-state serving regime.
    let scenario = herald::workloads::arvr_a_stream(1.0, 1.2);
    let (incremental, full) = assert_equivalent(&scenario);
    // One compile per stream; every later arrival reuses it.
    assert_eq!(incremental.report().scheduler_invocations(), 3);
    assert_eq!(
        full.report().scheduler_invocations(),
        full.report().frames().len()
    );
}

#[test]
fn workload_change_trace_is_bit_identical_incrementally() {
    // The Fig. 13 trace: full multi-DNN frames with a mid-run swap from
    // AR/VR-A to AR/VR-B — the swap must invalidate (only) the swapped
    // stream's memo in both the engine and the context.
    let scenario = herald::workloads::workload_change_trace(2.0, 0.6, 2.0);
    let (incremental, _) = assert_equivalent(&scenario);
    // Two workload versions on one stream: exactly two compiles.
    assert_eq!(incremental.report().scheduler_invocations(), 2);
    assert_eq!(incremental.report().swaps().len(), 1);
}

#[test]
fn seeded_poisson_scenario_is_bit_identical_incrementally() {
    // Memoryless arrivals plus a camera-stream swap, sampled from a
    // fixed seed: irregular event interleavings across two tenants.
    let scenario = herald::workloads::poisson_mix_stream(1.0, 0.5, 2024);
    let (incremental, _) = assert_equivalent(&scenario);
    // Three workload versions total: camera before/after its swap, plus
    // the analytics stream.
    assert_eq!(incremental.report().scheduler_invocations(), 3);
}

#[test]
fn shared_context_serves_repeat_scenarios_from_memo() {
    // Two identical `.scenario()` calls on one context: the second run's
    // compiles are all served from the context's schedule memo, and the
    // cost model learns nothing new — yet the outcomes are identical.
    let scenario = herald::workloads::arvr_a_stream(1.0, 1.2);
    let ctx = EvalContext::new();
    let run = || {
        Experiment::new(scenario.design_workload())
            .on_accelerator(edge_maelstrom())
            .fast()
            .with_context(ctx.clone())
            .scenario(&scenario)
            .unwrap()
    };
    let first = run();
    let runs_after_first = ctx.stats().scheduler_runs();
    let queries_after_first = ctx.cost_model().cached_queries();
    assert!(runs_after_first > 0);
    assert!(first.report().placement_evaluations() > 0);

    let second = run();
    // Identical simulation, zero fresh scheduling work: the second run
    // reports 0 compiles and 0 placement evaluations because every
    // scheduling decision was served from the context memo.
    assert_eq!(first.report().frames(), second.report().frames());
    assert_eq!(first.report().busy_spans(), second.report().busy_spans());
    assert_eq!(first.report().energy(), second.report().energy());
    assert_eq!(second.report().placement_evaluations(), 0);
    assert_eq!(second.report().scheduler_invocations(), 0);
    assert_eq!(
        second.report().schedule_cache_hits(),
        second.report().frames().len(),
        "every online decision of the warm run is a cache hit"
    );
    assert_eq!(
        ctx.stats().scheduler_runs(),
        runs_after_first,
        "second run must not re-run the placement core"
    );
    assert_eq!(ctx.cost_model().cached_queries(), queries_after_first);
}

#[test]
fn one_chip_fleet_is_bit_identical_to_direct_streaming() {
    // The fleet layer's correctness bar: a 1-chip fleet under *any*
    // dispatcher routes the entire trace to its only chip and must
    // reproduce the direct single-chip streaming run to the last bit —
    // same frames, spans, energy, counters, everything the report
    // carries. Covered on the steady-state AR/VR trace, the Fig. 13
    // workload-change trace and the seeded Poisson mix.
    let scenarios = [
        herald::workloads::arvr_a_stream(1.0, 1.2),
        herald::workloads::workload_change_trace(2.0, 0.6, 2.0),
        herald::workloads::poisson_mix_stream(1.0, 0.5, 2024),
    ];
    let chip = edge_maelstrom();
    let fleet = FleetConfig::homogeneous(&chip, 1);
    for scenario in &scenarios {
        let direct = Experiment::new(scenario.design_workload())
            .on_accelerator(chip.clone())
            .fast()
            .scenario(scenario)
            .unwrap();
        for policy in DispatchPolicy::ALL {
            let fleet_run = Experiment::new(scenario.design_workload())
                .fast()
                .dispatcher(policy)
                .fleet(&fleet, scenario)
                .unwrap();
            let report = fleet_run.report();
            assert_eq!(report.chips(), 1);
            assert!(report.dropped().is_empty());
            assert_eq!(
                &report.per_chip()[0],
                direct.report(),
                "{}: 1-chip fleet under {policy:?} must equal the direct run",
                scenario.name()
            );
            // The merged fleet view agrees with the single-chip report.
            assert_eq!(report.frames_total(), direct.report().frames().len());
            assert_eq!(
                report.makespan_s().to_bits(),
                direct.report().makespan_s().to_bits()
            );
            assert_eq!(
                report.deadline_miss_rate().to_bits(),
                direct.report().deadline_miss_rate().to_bits()
            );
            assert_eq!(
                report.latency_percentile(0.95).to_bits(),
                direct.report().latency_percentile(0.95).to_bits()
            );
        }
    }
}

#[test]
fn context_reuse_spans_run_and_scenario_calls() {
    // `.run()` warms the context; the `.scenario()` on the same design
    // workload then starts from a hot cost model. The observable
    // contract: no new distinct cost queries are computed by the
    // streaming phase beyond what the one-shot run already evaluated.
    let scenario = herald::workloads::arvr_a_stream(1.0, 0.6);
    let workload = scenario.design_workload();
    let ctx = EvalContext::new();
    Experiment::new(workload.clone())
        .on_accelerator(edge_maelstrom())
        .fast()
        .with_context(ctx.clone())
        .run()
        .unwrap();
    let queries_after_run = ctx.cost_model().cached_queries();
    Experiment::new(workload)
        .on_accelerator(edge_maelstrom())
        .fast()
        .with_context(ctx.clone())
        .scenario(&scenario)
        .unwrap();
    assert_eq!(
        ctx.cost_model().cached_queries(),
        queries_after_run,
        "streaming the same layers must hit the shared cost memo"
    );
    assert!(ctx.cost_model().cache_hits() > 0);
}
