//! The pure placement core: the Fig. 8 assignment/ordering loop as a
//! stateless function, generalized from whole layers to fused tile
//! groups.
//!
//! [`construct_schedule`] is the single implementation of Herald's
//! dataflow-preference + load-balance-feedback construction. It has no
//! caches and no hidden state: given equal inputs it returns
//! bit-identical schedules, which is what lets the incremental layer
//! ([`crate::sched::IncrementalScheduler`]) and the streaming engine
//! memoize its output safely. Every per-(task, sub-accelerator) cost
//! ranking it performs is recorded as a *placement evaluation* in the
//! supplied [`EvalStats`], so callers can observe exactly how much
//! placement work a pipeline did.
//!
//! # Placement unit: fused tile groups
//!
//! The unit the loop assigns is a [`FusionPlan`] group — up to
//! `cfg.fusion` depth-wise consecutive layers of one model instance,
//! never crossing instance boundaries (the Stream-style generalization
//! of Herald's layer placement). A group is costed on every
//! sub-accelerator as a whole: its latency is the sum of its members'
//! latencies and its ranking score the sum of their per-layer scores,
//! layered directly over the existing [`CostModel`] with no new cost
//! tables. All members of a chosen group commit to the same
//! sub-accelerator back to back. At granularity 1 every group is a
//! single layer and the loop reduces *exactly* to the historical
//! per-layer construction — same comparisons, same float operations,
//! bit-identical schedules (pinned by the equivalence suite in
//! `tests/fused_equivalence.rs`).
//!
//! # Time comparisons
//!
//! All clock comparisons use a *relative* slack
//! (`time_slack`): the historical absolute epsilons (`1e-15`,
//! `1e-12`) fall below the f64 ulp once simulated time passes ~4.5 s
//! and ~4096 s respectively, so on long horizons `now + eps == now`
//! and the completion-event filter / tie-breaks silently degenerate.
//! The relative slack keeps the construction scale-invariant: scaling
//! every latency by a power of two (an exact f64 operation) yields the
//! identical schedule.

use crate::ctx::EvalStats;
use crate::error::HeraldError;
use crate::exec::{earliest_memory_feasible, Schedule};
use crate::sched::{OrderingPolicy, SchedulerConfig};
use crate::task::{TaskGraph, TaskId};
use herald_arch::AcceleratorConfig;
use herald_cost::{CostModel, LayerCost};
use std::collections::VecDeque;

/// Floor of the comparison slack, seconds: the historical absolute
/// epsilon, kept so that near time zero the relative slack degrades to
/// exactly the pre-fusion behavior.
const ABS_EPS: f64 = 1e-15;

/// Relative component of the comparison slack: ~1000 ulps at any
/// magnitude, wide enough to absorb reassociation error in long
/// latency sums, far below any real layer latency.
const REL_EPS: f64 = 1e-12;

/// Scale-aware comparison slack around time `t`: two event times
/// within `time_slack(t)` of each other are simultaneous. Never
/// smaller than the historical `1e-15`, and grows with `|t|` so it
/// stays above the ulp at any simulated time.
#[inline]
fn time_slack(t: f64) -> f64 {
    ABS_EPS.max(t.abs() * REL_EPS)
}

/// The smallest forced clock advance past `t` that is guaranteed to
/// make strict progress: `t + time_slack(t)`, or the next representable
/// f64 when even that is absorbed (non-finite inputs saturate).
#[inline]
fn strictly_after(t: f64) -> f64 {
    let bumped = t + time_slack(t);
    if bumped > t {
        bumped
    } else {
        // Degenerate magnitudes only: step one ulp.
        f64::from_bits(t.to_bits() + 1)
    }
}

/// A depth-wise partition of a [`TaskGraph`] into fused tile groups:
/// each group is up to `granularity` consecutive tasks of one model
/// instance (the placement unit of [`construct_schedule`]). Groups
/// never span instance boundaries; a trailing group may be shorter.
/// Granularity 1 (or 0, treated as 1) puts every task in its own group
/// — Herald's whole-layer placement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FusionPlan {
    granularity: usize,
    /// Per-instance task lists, pre-flattened once.
    instance_tasks: Vec<Vec<TaskId>>,
}

impl FusionPlan {
    /// Partitions `graph` into depth-wise groups of up to `granularity`
    /// tasks per model instance.
    pub fn new(graph: &TaskGraph, granularity: usize) -> Self {
        Self {
            granularity: granularity.max(1),
            instance_tasks: (0..graph.num_instances())
                .map(|i| graph.instance_tasks(i))
                .collect(),
        }
    }

    /// The effective granularity (at least 1).
    pub fn granularity(&self) -> usize {
        self.granularity
    }

    /// Number of model instances in the plan.
    pub fn num_instances(&self) -> usize {
        self.instance_tasks.len()
    }

    /// Total number of groups across all instances.
    pub fn num_groups(&self) -> usize {
        self.instance_tasks
            .iter()
            .map(|t| t.len().div_ceil(self.granularity))
            .sum()
    }

    /// All tasks of instance `inst`, in depth order.
    fn tasks(&self, inst: usize) -> &[TaskId] {
        &self.instance_tasks[inst]
    }

    /// The group of instance `inst` starting at task position `head`:
    /// up to `granularity` consecutive tasks, clipped at the instance
    /// end. Empty when the instance is exhausted.
    fn group_at(&self, inst: usize, head: usize) -> &[TaskId] {
        let tasks = &self.instance_tasks[inst];
        let end = (head + self.granularity).min(tasks.len());
        &tasks[head.min(tasks.len())..end]
    }
}

/// The per-sub-accelerator cost of one fused tile group, layered over
/// the existing [`CostModel`]: member layer costs are queried
/// individually (so the per-layer buffer occupancies stay exact) and
/// aggregated — group latency is the member sum, the ranking score the
/// sum of member scores. At granularity 1 both reduce to the single
/// member's values with no extra arithmetic (`0.0 + x` preserves every
/// bit for finite non-zero `x`, and scores/latencies are positive).
struct GroupCost {
    /// `members[g][a]`: cost of group member `g` on sub-accelerator `a`.
    members: Vec<Vec<LayerCost>>,
    /// Summed latency per sub-accelerator, seconds.
    latency_s: Vec<f64>,
    /// Summed ranking score per sub-accelerator.
    score: Vec<f64>,
}

impl GroupCost {
    fn of(
        group: &[TaskId],
        graph: &TaskGraph,
        acc: &AcceleratorConfig,
        cost: &CostModel,
        cfg: &SchedulerConfig,
    ) -> Self {
        let ways = acc.sub_accelerators().len();
        let members: Vec<Vec<LayerCost>> = group
            .iter()
            .map(|&t| {
                (0..ways)
                    .map(|a| acc.sub_accelerators()[a].layer_cost(cost, graph.layer(t), cfg.metric))
                    .collect()
            })
            .collect();
        let mut latency_s = vec![0.0f64; ways];
        let mut score = vec![0.0f64; ways];
        for row in &members {
            for (a, c) in row.iter().enumerate() {
                latency_s[a] += c.latency_s;
                score[a] += c.score(cfg.metric);
            }
        }
        Self {
            members,
            latency_s,
            score,
        }
    }
}

/// Runs the Fig. 8 construction loop over fused tile groups and returns
/// the initial schedule (no post-processing — see
/// [`crate::sched::post_process`] for the Fig. 9 pass).
///
/// Each visit of a model-queue head costs every member of the head
/// group on every sub-accelerator; those queries are recorded in
/// `stats` as placement evaluations (`group_len * ways` per visit).
///
/// # Errors
///
/// Returns [`HeraldError::Scheduling`] when the construction state is
/// internally inconsistent (a scheduled instance missing from the
/// rotation, an unscheduled dependence inside a committed group, or a
/// structurally invalid assignment) — conditions that indicate a
/// scheduler bug and previously panicked.
pub fn construct_schedule(
    graph: &TaskGraph,
    acc: &AcceleratorConfig,
    cost: &CostModel,
    cfg: &SchedulerConfig,
    stats: &EvalStats,
) -> Result<Schedule, HeraldError> {
    let ways = acc.sub_accelerators().len();
    let gb = acc.global_buffer_bytes();
    let staging_cap = gb / 4;

    // The placement units: fused tile groups (granularity 1 = layers).
    let plan = FusionPlan::new(graph, cfg.fusion);
    let mut heads = vec![0usize; plan.num_instances()];
    // Model visit rotation (Fig. 8's `rearrange(MD)`).
    let mut rotation: VecDeque<usize> = (0..plan.num_instances()).collect();

    let mut now = 0.0f64;
    let mut acc_free = vec![0.0f64; ways];
    let mut tot_latency = vec![0.0f64; ways];
    let mut finish: Vec<Option<f64>> = vec![None; graph.len()];
    // Committed (start, finish, occupancy) intervals not yet finished at
    // `now`: the only ones a fit query at or after `now` can see.
    let mut intervals: Vec<(f64, f64, u64)> = Vec::with_capacity(graph.len());
    let mut assignment = vec![0usize; graph.len()];
    let mut order: Vec<Vec<TaskId>> = vec![Vec::new(); ways];
    let mut remaining = graph.len();

    while remaining > 0 {
        let mut scheduled: Option<usize> = None; // instance that progressed

        'models: for &inst in &rotation {
            if heads[inst] >= plan.tasks(inst).len() {
                continue;
            }
            let group = plan.group_at(inst, heads[inst]);
            let t = group[0];

            // Dependence condition at the group's first member:
            // producers complete by the current cycle (they are always
            // *scheduled* because layers of one instance are visited in
            // order; later members' external producers are handled at
            // commit time below, where intra-group sequencing already
            // delays them past the first member).
            let dep_ok = graph
                .deps(t)
                .iter()
                .all(|d| finish[d.0].is_some_and(|f| f <= now + time_slack(now)));
            if !dep_ok {
                continue;
            }

            // Rank sub-accelerators by the group's summed per-layer
            // metric (dataflow preference).
            stats.record_placement_evals((group.len() * ways) as u64);
            let costs = GroupCost::of(group, graph, acc, cost, cfg);
            let mut ranked: Vec<usize> = (0..ways).collect();
            ranked.sort_by(|&a, &b| costs.score[a].total_cmp(&costs.score[b]));
            let preferred = ranked[0];

            // Load-balance feedback (Fig. 8): the group goes to its
            // preferred sub-accelerator *as long as possible*; only
            // when that assignment would leave the preferred array
            // loaded beyond `LbF x` the lightest projected load does
            // the scheduler explore alternatives — and then it picks
            // whichever sub-accelerator completes the group earliest
            // (queue wait plus group latency), the "alternative layer
            // assignment that reduces overall costs" of Sec. IV-D.
            let min_projected = (0..ways)
                .map(|a| tot_latency[a] + costs.latency_s[a])
                .fold(f64::INFINITY, f64::min);
            let unbalanced = tot_latency[preferred] + costs.latency_s[preferred]
                > cfg.load_balance_factor * min_projected;
            let mut candidates: Vec<usize> = ranked.clone();
            if unbalanced {
                candidates.sort_by(|&a, &b| {
                    let fa = now.max(acc_free[a]) + costs.latency_s[a];
                    let fb = now.max(acc_free[b]) + costs.latency_s[b];
                    fa.total_cmp(&fb)
                });
            }

            for &a in &candidates {
                // Memory condition at the first member's actual start
                // time (the admission decision; later members follow
                // sequentially on the same array).
                let occ = costs.members[0][a].buffer.occupancy_bytes(staging_cap);
                let ready = now.max(acc_free[a]);
                let start = earliest_memory_feasible(ready, occ, gb, &intervals);
                if start > ready + time_slack(ready) && intervals.iter().any(|(_, f, _)| *f > now) {
                    // Memory-deferred while other layers are still
                    // draining: try the next candidate instead.
                    continue;
                }

                // Commit the whole group to `a`, members back to back.
                let mut cursor = start;
                for (g, &m) in group.iter().enumerate() {
                    let lat = costs.members[g][a].latency_s;
                    let (m_start, m_occ) = if g == 0 {
                        (start, occ)
                    } else {
                        // Later members wait for the previous member
                        // and any external producers, then claim
                        // staging memory at their own start.
                        let mut m_ready = cursor;
                        for d in graph.deps(m) {
                            let f = finish[d.0].ok_or_else(|| HeraldError::Scheduling {
                                reason: format!(
                                    "dependence {d} of fused group member {m} \
                                     is unscheduled at commit time"
                                ),
                            })?;
                            m_ready = m_ready.max(f);
                        }
                        let m_occ = costs.members[g][a].buffer.occupancy_bytes(staging_cap);
                        (
                            earliest_memory_feasible(m_ready, m_occ, gb, &intervals),
                            m_occ,
                        )
                    };
                    let m_fin = m_start + lat;
                    intervals.push((m_start, m_fin, m_occ));
                    finish[m.0] = Some(m_fin);
                    tot_latency[a] += lat;
                    assignment[m.0] = a;
                    order[a].push(m);
                    cursor = m_fin;
                }
                acc_free[a] = cursor;
                heads[inst] += group.len();
                remaining -= group.len();
                scheduled = Some(inst);
                break 'models;
            }
        }

        match scheduled {
            Some(inst) => {
                // `rearrange(MD)`: keep draining the same model
                // (depth-first) or rotate to the next (breadth-first).
                let pos = rotation.iter().position(|&i| i == inst).ok_or_else(|| {
                    HeraldError::Scheduling {
                        reason: format!("scheduled instance {inst} is missing from the rotation"),
                    }
                })?;
                rotation.remove(pos);
                match cfg.ordering {
                    OrderingPolicy::DepthFirst => rotation.push_front(inst),
                    OrderingPolicy::BreadthFirst => rotation.push_back(inst),
                }
            }
            None => {
                // Defer: advance to the next completion event; if the
                // chip is fully drained, force the clock strictly past
                // every queue tail so the next sweep finds an idle
                // accelerator (safety net — cannot recurse because an
                // idle accelerator always accepts).
                let next = intervals
                    .iter()
                    .map(|(_, f, _)| *f)
                    .filter(|f| *f > now + time_slack(now))
                    .fold(f64::INFINITY, f64::min);
                if next.is_finite() {
                    now = next;
                } else {
                    now = strictly_after(acc_free.iter().copied().fold(now, f64::max));
                }
                // Every later query is made at or after `now`, so an
                // interval finished by then never counts again.
                intervals.retain(|(_, f, _)| *f > now);
            }
        }
    }

    Schedule::new(assignment, order).map_err(|e| HeraldError::Scheduling {
        reason: format!("constructed assignment failed structural validation: {e}"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use herald_arch::{AcceleratorClass, Partition};
    use herald_models::zoo;
    use herald_workloads::MultiDnnWorkload;

    fn setup() -> (TaskGraph, AcceleratorConfig, CostModel) {
        let w = MultiDnnWorkload::new("mix")
            .with_model(zoo::mobilenet_v1(), 1)
            .with_model(zoo::mobilenet_v2(), 1);
        let acc = AcceleratorConfig::maelstrom(
            AcceleratorClass::Edge.resources(),
            Partition::even(2, 1024, 16.0),
        )
        .unwrap();
        (TaskGraph::new(&w), acc, CostModel::default())
    }

    #[test]
    fn placement_evaluations_are_counted_per_head_visit() {
        let (graph, acc, cost) = setup();
        let stats = EvalStats::default();
        let schedule =
            construct_schedule(&graph, &acc, &cost, &SchedulerConfig::default(), &stats).unwrap();
        assert_eq!(schedule.assignment().len(), graph.len());
        // Every scheduled task costs at least one head visit of `ways`
        // evaluations; deferred visits add more.
        let ways = acc.sub_accelerators().len() as u64;
        assert!(stats.placement_evals() >= graph.len() as u64 * ways);
        assert_eq!(stats.placement_evals() % ways, 0);
    }

    #[test]
    fn fusion_plan_partitions_depth_wise_without_crossing_instances() {
        let (graph, _, _) = setup();
        for granularity in [1, 2, 3, 7, usize::MAX] {
            let plan = FusionPlan::new(&graph, granularity);
            assert_eq!(plan.granularity(), granularity.max(1));
            let mut seen = 0usize;
            for inst in 0..plan.num_instances() {
                let tasks = graph.instance_tasks(inst);
                let mut head = 0;
                while head < tasks.len() {
                    let group = plan.group_at(inst, head);
                    assert!(!group.is_empty() && group.len() <= plan.granularity());
                    // Depth-wise consecutive tasks of this instance only.
                    assert_eq!(group, &tasks[head..head + group.len()]);
                    head += group.len();
                    seen += group.len();
                }
            }
            assert_eq!(seen, graph.len(), "granularity {granularity}");
            let groups = plan.num_groups();
            assert!(groups >= graph.num_instances());
            if granularity == 1 {
                assert_eq!(groups, graph.len());
            }
        }
    }

    #[test]
    fn fused_groups_commit_consecutively_to_one_subaccelerator() {
        let (graph, acc, cost) = setup();
        let cfg = SchedulerConfig {
            fusion: 4,
            ..Default::default()
        };
        let stats = EvalStats::default();
        let schedule = construct_schedule(&graph, &acc, &cost, &cfg, &stats).unwrap();
        assert_eq!(schedule.assignment().len(), graph.len());
        // Every fused group landed on a single sub-accelerator, its
        // members adjacent in that queue.
        let plan = FusionPlan::new(&graph, cfg.fusion);
        for inst in 0..plan.num_instances() {
            let tasks = graph.instance_tasks(inst);
            let mut head = 0;
            while head < tasks.len() {
                let group = plan.group_at(inst, head);
                let a = schedule.assignment()[group[0].0];
                for &m in group {
                    assert_eq!(schedule.assignment()[m.0], a, "group split across arrays");
                }
                let queue = &schedule.order()[a];
                let pos0 = queue.iter().position(|&q| q == group[0]).unwrap();
                for (g, &m) in group.iter().enumerate() {
                    assert_eq!(queue[pos0 + g], m, "group members not adjacent");
                }
                head += group.len();
            }
        }
        // Fused placement costs the same per-task evaluations (each
        // member costed once per way), still a multiple of `ways`.
        let ways = acc.sub_accelerators().len() as u64;
        assert_eq!(stats.placement_evals() % ways, 0);
        assert!(stats.placement_evals() >= graph.len() as u64 * ways);
    }

    #[test]
    fn construction_is_scale_invariant_at_large_time_offsets() {
        // Scaling every latency by a power of two is exact in f64, so a
        // scale-invariant construction must produce the identical
        // schedule — even when the scaled clock runs past 1e6 seconds,
        // where the historical absolute epsilons (1e-15 / 1e-12) fall
        // below the ulp and comparisons silently degenerate.
        //
        // The scaling must hold the *cycle* counts fixed: traffic
        // cycles derive from bytes/(bandwidth/clock), so the clock and
        // the bandwidth divide by the same power of two together —
        // bytes_per_cycle (hence every integer cycle count) stays
        // bit-identical, and latency_s = cycles/(clock * 1e9) scales by
        // exactly 2^40 (power-of-two scaling commutes with f64
        // rounding).
        let scale = (1u64 << 40) as f64;
        let (graph, _, _) = setup();
        let base_acc = AcceleratorConfig::maelstrom(
            AcceleratorClass::Edge.resources(),
            Partition::even(2, 1024, 16.0),
        )
        .unwrap();
        let scaled_acc = AcceleratorConfig::maelstrom(
            AcceleratorClass::Edge.resources(),
            Partition::even(2, 1024, 16.0 / scale),
        )
        .unwrap();
        let base = herald_cost::CostModel::default();
        let scaled = herald_cost::CostModel::new(herald_cost::CostModelConfig {
            clock_ghz: base.config().clock_ghz / scale,
            ..*base.config()
        });
        for fusion in [1, 3] {
            let cfg = SchedulerConfig {
                fusion,
                ..Default::default()
            };
            let stats = EvalStats::default();
            let small = construct_schedule(&graph, &base_acc, &base, &cfg, &stats).unwrap();
            let large = construct_schedule(&graph, &scaled_acc, &scaled, &cfg, &stats).unwrap();
            assert_eq!(
                small, large,
                "fusion {fusion}: schedule changed under exact 2^40 time scaling"
            );
        }
    }

    #[test]
    fn forced_advance_makes_strict_progress_at_any_magnitude() {
        for t in [0.0, 1e-30, 1.0, 4.5, 1e4, 1e9, 1e18] {
            assert!(strictly_after(t) > t, "no progress past {t}");
        }
        // The historical constant 1e-12 stalls past ~4096 s; the
        // relative slack does not.
        let t = 1e5f64;
        assert_eq!(t + 1e-12, t, "precondition: absolute epsilon absorbed");
        assert!(strictly_after(t) > t);
        // Near zero the slack floors at the historical 1e-15.
        assert_eq!(time_slack(0.0), 1e-15);
        assert_eq!(time_slack(1e-9), 1e-15);
    }
}
