//! Property-style tests over the fleet serving layer: for seeded-random
//! scenarios, fleets and dispatch policies, frame conservation holds
//! (every generated frame is dispatched to exactly one chip and appears
//! in exactly one per-chip report), merged fleet totals equal the sum of
//! per-chip totals, and the merged report is bit-identical across
//! repeated runs regardless of how the per-chip workers interleave.
//!
//! The build environment cannot fetch `proptest`, so cases are generated
//! deterministically from the same SplitMix64 PRNG the DSE uses — every
//! run exercises the identical case set, which also makes failures
//! trivially reproducible.

use herald::prelude::*;
use herald_core::rng::SplitMix64;
use herald_workloads::{seeded, single_model, Scenario};
use std::collections::HashSet;

const CASES: usize = 6;

/// Small random multi-tenant scenarios over the cheaper zoo members:
/// a seeded Poisson pair (with a mid-run swap), a periodic pair, or a
/// fleet mix.
fn gen_scenario(rng: &mut SplitMix64, case: usize) -> Scenario {
    let seed = rng.next_u64();
    match case % 3 {
        0 => herald::workloads::poisson_mix_stream(
            0.5 + rng.gen_range(0, 3) as f64 * 0.25,
            0.15,
            seed,
        ),
        1 => {
            let fps = 80.0 + rng.gen_range(0, 5) as f64 * 20.0;
            Scenario::new("periodic-pair", 0.08)
                .stream(
                    StreamSpec::periodic(
                        "a",
                        single_model(herald::models::zoo::mobilenet_v1(), 1),
                        fps,
                    )
                    .with_deadline(1.5 / fps),
                )
                .stream(
                    StreamSpec::poisson(
                        "b",
                        single_model(herald::models::zoo::mobilenet_v2(), 1),
                        fps / 2.0,
                        seeded::derive_seed(seed, 1),
                    )
                    .with_deadline(3.0 / fps),
                )
        }
        _ => herald::workloads::fleet_mix_stream(
            2 + rng.gen_range(0, 3),
            60.0 + rng.gen_range(0, 4) as f64 * 30.0,
            0.05,
            0.08,
            seed,
        ),
    }
}

/// Random 1-3 chip fleets, homogeneous or mixed-style.
fn gen_fleet(rng: &mut SplitMix64) -> FleetConfig {
    let res = AcceleratorClass::Edge.resources();
    let styles = [
        DataflowStyle::Nvdla,
        DataflowStyle::ShiDianNao,
        DataflowStyle::Eyeriss,
    ];
    let chips = 1 + rng.gen_range(0, 3);
    let mut fleet = FleetConfig::new();
    let homogeneous = rng.gen_range(0, 2) == 0;
    let base = styles[rng.gen_range(0, styles.len())];
    for i in 0..chips {
        let style = if homogeneous {
            base
        } else {
            styles[(rng.gen_range(0, styles.len()) + i) % styles.len()]
        };
        fleet = fleet.chip(AcceleratorConfig::fda(style, res));
    }
    fleet
}

/// The globally generated frames of a scenario, as (stream, seq) ->
/// arrival time — recomputed independently from the shared samplers and
/// sorted in the dispatcher's global event order (time, then stream).
fn generated_frames(scenario: &Scenario) -> Vec<(usize, usize, f64)> {
    let mut frames = Vec::new();
    for (si, stream) in scenario.streams().iter().enumerate() {
        for (seq, t) in seeded::arrival_times(stream.arrival(), scenario.horizon_s())
            .into_iter()
            .enumerate()
        {
            frames.push((si, seq, t));
        }
    }
    frames.sort_by(|a, b| a.2.total_cmp(&b.2).then(a.0.cmp(&b.0)).then(a.1.cmp(&b.1)));
    frames
}

fn simulate(
    fleet: &FleetConfig,
    scenario: &Scenario,
    policy: DispatchPolicy,
) -> herald::FleetOutcome {
    Experiment::new(scenario.design_workload())
        .fast()
        .dispatcher(policy)
        .fleet(fleet, scenario)
        .expect("fleet simulation succeeds")
}

#[test]
fn every_generated_frame_is_dispatched_to_exactly_one_chip() {
    let mut rng = SplitMix64::seed_from_u64(0xF1EE7);
    for case in 0..CASES {
        let scenario = gen_scenario(&mut rng, case);
        let fleet = gen_fleet(&mut rng);
        let expected = generated_frames(&scenario);
        for policy in DispatchPolicy::ALL {
            let outcome = simulate(&fleet, &scenario, policy);
            let report = outcome.report();

            // Exactly one routing decision per generated frame, with
            // matching arrival times and no duplicates.
            assert_eq!(report.assignments().len(), expected.len());
            let mut seen = HashSet::new();
            for (assignment, (si, seq, t)) in report.assignments().iter().zip(&expected) {
                assert_eq!((assignment.stream, assignment.seq), (*si, *seq));
                assert_eq!(assignment.arrival_s.to_bits(), t.to_bits());
                assert!(assignment.chip < fleet.len());
                assert!(
                    seen.insert((assignment.stream, assignment.seq)),
                    "frame ({}, {}) dispatched twice",
                    assignment.stream,
                    assignment.seq
                );
            }

            // Every frame appears in exactly one per-chip report: chip
            // frame counts per stream match the assignment partition,
            // and each chip's replayed arrival times are exactly the
            // routed slice.
            for (c, chip_report) in report.per_chip().iter().enumerate() {
                for (si, _) in scenario.streams().iter().enumerate() {
                    let routed: Vec<u64> = report
                        .assignments()
                        .iter()
                        .filter(|a| a.chip == c && a.stream == si)
                        .map(|a| a.arrival_s.to_bits())
                        .collect();
                    let mut replayed: Vec<u64> = chip_report
                        .frames()
                        .iter()
                        .filter(|f| f.stream == si)
                        .map(|f| f.arrival_s.to_bits())
                        .collect();
                    replayed.sort_unstable();
                    let mut routed_sorted = routed.clone();
                    routed_sorted.sort_unstable();
                    assert_eq!(
                        routed_sorted, replayed,
                        "case {case} {policy:?}: chip {c} stream {si} frame mismatch"
                    );
                }
            }
            assert_eq!(report.frames_total(), expected.len());
            assert!(report.dropped().is_empty());
        }
    }
}

#[test]
fn merged_totals_equal_the_sum_of_per_chip_totals() {
    let mut rng = SplitMix64::seed_from_u64(0x5EED);
    for case in 0..CASES {
        let scenario = gen_scenario(&mut rng, case);
        let fleet = gen_fleet(&mut rng);
        let policy = DispatchPolicy::ALL[case % DispatchPolicy::ALL.len()];
        let outcome = simulate(&fleet, &scenario, policy);
        let report = outcome.report();

        let frame_sum: usize = report.per_chip().iter().map(|r| r.frames().len()).sum();
        assert_eq!(report.frames_total(), frame_sum);

        let energy_sum: f64 = report.per_chip().iter().map(|r| r.total_energy_j()).sum();
        assert_eq!(report.total_energy_j().to_bits(), energy_sum.to_bits());

        let makespan_max = report
            .per_chip()
            .iter()
            .map(|r| r.makespan_s())
            .fold(scenario.horizon_s(), f64::max);
        assert_eq!(report.makespan_s().to_bits(), makespan_max.to_bits());

        // The merged miss rate counts exactly the per-chip missed /
        // deadline-carrying frames.
        let (mut missed, mut with_deadline) = (0usize, 0usize);
        for chip in report.per_chip() {
            for f in chip.frames() {
                if f.deadline_s.is_some() {
                    with_deadline += 1;
                    if f.missed {
                        missed += 1;
                    }
                }
            }
        }
        let expected_rate = if with_deadline == 0 {
            0.0
        } else {
            missed as f64 / with_deadline as f64
        };
        assert_eq!(
            report.deadline_miss_rate().to_bits(),
            expected_rate.to_bits()
        );

        // Per-stream merged stats partition the same frames.
        let stream_frame_sum: usize = report.stream_stats().iter().map(|s| s.frames).sum();
        assert_eq!(stream_frame_sum, frame_sum);
    }
}

#[test]
fn fleet_reports_are_bit_identical_across_repeated_runs() {
    // One chip worker per chip runs on its own thread; the merged
    // report must not depend on how those workers interleave. Three
    // repeats per case gives the scheduler room to interleave
    // differently while staying cheap.
    let mut rng = SplitMix64::seed_from_u64(0xD15EA5E);
    for case in 0..CASES {
        let scenario = gen_scenario(&mut rng, case);
        let fleet = gen_fleet(&mut rng);
        let policy = DispatchPolicy::ALL[case % DispatchPolicy::ALL.len()];
        let first = simulate(&fleet, &scenario, policy);
        for _ in 0..2 {
            let again = simulate(&fleet, &scenario, policy);
            assert_eq!(
                first.report(),
                again.report(),
                "case {case} {policy:?}: fleet report must be reproducible"
            );
            assert_eq!(first, again);
        }
    }
}

#[test]
fn swap_list_order_does_not_change_the_fleet_report() {
    // A deserialized scenario may list a stream's swaps out of time
    // order (only the `swap_at` builder sorts). Dispatch and admission
    // must still estimate each frame against the workload the engine
    // actually runs: the swap that fired, not the next one in the list.
    // On an NVDLA-style chip, MobileNetV1's depth-wise layers run far
    // slower than ResNet50's dense convolutions.
    let fast = single_model(herald::models::zoo::resnet50(), 1);
    let slow = single_model(herald::models::zoo::mobilenet_v1(), 1);
    let chip = AcceleratorConfig::fda(DataflowStyle::Nvdla, AcceleratorClass::Edge.resources());
    let service = |w: &MultiDnnWorkload| {
        HeraldScheduler::default()
            .schedule_and_simulate(
                &herald_core::task::TaskGraph::new(w),
                &chip,
                &CostModel::default(),
            )
            .unwrap()
            .total_latency_s()
    };
    let (fast_s, slow_s) = (service(&fast), service(&slow));
    assert!(slow_s > 4.0 * fast_s, "{slow_s} vs {fast_s}");
    // Fast frames fit the deadline, slow ones never do: admission drops
    // exactly the frames it believes run the slow workload.
    let period = 2.0 * fast_s;
    let scenario = Scenario::new("swap-order", 30.0 * period).stream(
        StreamSpec::periodic("s", fast.clone(), 1.0 / period)
            .with_deadline((fast_s * slow_s).sqrt())
            .swap_at(10.0 * period, slow)
            .swap_at(20.0 * period, fast),
    );
    let sorted_json = serde_json::to_string(&scenario).unwrap();
    let swaps = scenario.streams()[0].swaps();
    let forward = serde_json::to_string(swaps).unwrap();
    let reversed: Vec<WorkloadSwap> = swaps.iter().rev().cloned().collect();
    assert_eq!(sorted_json.matches(&forward).count(), 1);
    let reversed_json = sorted_json.replace(&forward, &serde_json::to_string(&reversed).unwrap());
    let sorted: Scenario = serde_json::from_str(&sorted_json).unwrap();
    let unsorted: Scenario = serde_json::from_str(&reversed_json).unwrap();
    assert_eq!(unsorted.streams()[0].swaps(), &reversed[..]);

    let fleet = FleetConfig::homogeneous(&chip, 2);
    let run = |scenario: &Scenario| {
        FleetSimulator::new(&fleet)
            .with_dispatcher(DispatchPolicy::DeadlineAware)
            .with_admission(AdmissionPolicy::DeadlineSlack { slack: 1.0 })
            .simulate(scenario)
            .unwrap()
    };
    let a = run(&sorted);
    assert!(!a.dropped().is_empty(), "slow frames must be dropped");
    assert_eq!(a, run(&unsorted));
}
