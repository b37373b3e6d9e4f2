//! Multi-DNN evaluation workloads for the Herald HDA framework.
//!
//! Reproduces the paper's Table II: heterogeneous multi-DNN workloads built
//! from the AR/VR models of Table I and the MLPerf inference suite. Each
//! model is replicated once per assigned batch to "model different target
//! processing rates of each sub-task"; every replica is an independent
//! [`WorkloadInstance`] whose layers depend only on earlier layers of the
//! same replica — exactly the structure the Herald scheduler exploits for
//! inter-model layer parallelism.
//!
//! # Example
//!
//! ```
//! use herald_workloads::{arvr_a, mlperf};
//!
//! let a = arvr_a();
//! // Table II: Resnet50 x2, UNet x4, MobileNetV2 x4.
//! assert_eq!(a.instances().len(), 10);
//! let ml = mlperf(8);
//! assert_eq!(ml.instances().len(), 5 * 8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod scenario;
pub mod seeded;

pub use scenario::{
    arvr_a_stream, arvr_b_stream, diurnal_fleet_stream, diurnal_ramp_trace, diurnal_rate_at,
    fleet_mix_stream, poisson_mix_stream, sparse_mix_stream, transformer_decode_stream,
    workload_change_trace, ArrivalProcess, Scenario, StreamSpec, WorkloadSwap, DECODE_KV_BUCKET,
    SPARSE_DENSITY_GRID,
};

use herald_models::{zoo, DnnModel};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// One independent model replica inside a workload.
///
/// Replicas of the same model share the underlying [`DnnModel`] via
/// reference counting; the instance label distinguishes them in schedules
/// and reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadInstance {
    model: Arc<DnnModel>,
    replica: usize,
}

impl WorkloadInstance {
    /// The underlying model.
    pub fn model(&self) -> &DnnModel {
        &self.model
    }

    /// Replica index among this model's batch (0-based).
    pub fn replica(&self) -> usize {
        self.replica
    }

    /// A unique label such as `"Resnet50#1"`.
    pub fn label(&self) -> String {
        format!("{}#{}", self.model.name(), self.replica)
    }
}

impl fmt::Display for WorkloadInstance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// A heterogeneous multi-DNN workload: a named list of model replicas.
///
/// Build custom workloads with [`MultiDnnWorkload::new`] +
/// [`MultiDnnWorkload::with_model`], or use the paper's Table II workloads
/// ([`arvr_a`], [`arvr_b`], [`mlperf`]).
///
/// Clones share the name and the replica list, so a scenario that
/// carries one workload per decode token or per tenant holds reference
/// counts, not copies.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiDnnWorkload {
    name: Arc<str>,
    instances: Arc<Vec<WorkloadInstance>>,
}

impl MultiDnnWorkload {
    /// Creates an empty workload.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: Arc::from(name.into()),
            instances: Arc::new(Vec::new()),
        }
    }

    /// Adds `batches` replicas of `model` (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `batches` is zero.
    #[must_use]
    pub fn with_model(mut self, model: DnnModel, batches: usize) -> Self {
        assert!(batches > 0, "a model needs at least one batch");
        let shared = Arc::new(model);
        let instances = Arc::make_mut(&mut self.instances);
        for replica in 0..batches {
            instances.push(WorkloadInstance {
                model: Arc::clone(&shared),
                replica,
            });
        }
        self
    }

    /// Appends every replica of another workload (builder style). Replica
    /// indices are kept as-is, so merged workloads may repeat labels such
    /// as `"Resnet50#0"`; labels are cosmetic and schedules key on task
    /// ids.
    #[must_use]
    pub fn with_workload(mut self, other: &MultiDnnWorkload) -> Self {
        Arc::make_mut(&mut self.instances).extend(other.instances.iter().cloned());
        self
    }

    /// The workload name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All model replicas, in insertion order.
    pub fn instances(&self) -> &[WorkloadInstance] {
        &self.instances
    }

    /// Total MAC-layer count across all replicas.
    pub fn total_layers(&self) -> usize {
        self.instances.iter().map(|i| i.model.num_layers()).sum()
    }

    /// Total MAC operations across all replicas.
    pub fn total_macs(&self) -> u64 {
        self.instances.iter().map(|i| i.model.total_macs()).sum()
    }

    /// Structural equality with an `Arc` pointer fast path: clones of a
    /// shared workload (e.g. a million fleet tenants instantiated from
    /// one rotation) share their [`DnnModel`] allocations, so they
    /// compare by pointer instead of walking every layer. Falls back to
    /// the full `PartialEq` when the pointers differ, so the result is
    /// always exactly `self == other`.
    pub fn same_structure(&self, other: &MultiDnnWorkload) -> bool {
        if self.name != other.name || self.instances.len() != other.instances.len() {
            return false;
        }
        if self
            .instances
            .iter()
            .zip(other.instances.iter())
            .all(|(a, b)| a.replica == b.replica && Arc::ptr_eq(&a.model, &b.model))
        {
            return true;
        }
        self == other
    }

    /// The distinct models in this workload with their batch counts,
    /// in first-appearance order (the Table II rows).
    pub fn model_mix(&self) -> Vec<(String, usize)> {
        let mut mix: Vec<(String, usize)> = Vec::new();
        for inst in self.instances.iter() {
            let name = inst.model.name().to_string();
            if let Some(entry) = mix.iter_mut().find(|(n, _)| *n == name) {
                entry.1 += 1;
            } else {
                mix.push((name, 1));
            }
        }
        mix
    }
}

impl fmt::Display for MultiDnnWorkload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mix: Vec<String> = self
            .model_mix()
            .into_iter()
            .map(|(name, n)| format!("{name} x{n}"))
            .collect();
        write!(
            f,
            "{} [{}] ({} layers)",
            self.name,
            mix.join(", "),
            self.total_layers()
        )
    }
}

/// Table II **AR/VR-A**: Resnet50 x2, UNet x4, MobileNetV2 x4.
pub fn arvr_a() -> MultiDnnWorkload {
    MultiDnnWorkload::new("AR/VR-A")
        .with_model(zoo::resnet50(), 2)
        .with_model(zoo::unet(), 4)
        .with_model(zoo::mobilenet_v2(), 4)
}

/// Table II **AR/VR-B**: Resnet50 x2, UNet x2, MobileNetV2 x4,
/// BR-Q Handpose x2, Focal-Length DepthNet x2.
pub fn arvr_b() -> MultiDnnWorkload {
    MultiDnnWorkload::new("AR/VR-B")
        .with_model(zoo::resnet50(), 2)
        .with_model(zoo::unet(), 2)
        .with_model(zoo::mobilenet_v2(), 4)
        .with_model(zoo::brq_handpose(), 2)
        .with_model(zoo::focal_depthnet(), 2)
}

/// Table II **MLPerf** multi-stream: Resnet50, MobileNetV1, SSD-Resnet34,
/// SSD-MobileNetV1 and GNMT, each at the given batch size (1 by default in
/// the paper, 8 for the batch-size study of Table VI).
pub fn mlperf(batch: usize) -> MultiDnnWorkload {
    MultiDnnWorkload::new(if batch == 1 {
        "MLPerf".to_string()
    } else {
        format!("MLPerf-b{batch}")
    })
    .with_model(zoo::resnet50(), batch)
    .with_model(zoo::mobilenet_v1(), batch)
    .with_model(zoo::ssd_resnet34(), batch)
    .with_model(zoo::ssd_mobilenet_v1(), batch)
    .with_model(zoo::gnmt(), batch)
}

/// All three Table II workloads at their paper batch sizes.
pub fn all_workloads() -> Vec<MultiDnnWorkload> {
    vec![arvr_a(), arvr_b(), mlperf(1)]
}

/// A single-DNN batch workload (paper Fig. 12 / Table VI studies).
pub fn single_model(model: DnnModel, batch: usize) -> MultiDnnWorkload {
    let name = format!("{}-b{batch}", model.name());
    MultiDnnWorkload::new(name).with_model(model, batch)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arvr_a_matches_table2() {
        let w = arvr_a();
        assert_eq!(
            w.model_mix(),
            vec![
                ("Resnet50".to_string(), 2),
                ("UNet".to_string(), 4),
                ("MobileNetV2".to_string(), 4)
            ]
        );
    }

    #[test]
    fn arvr_b_matches_table2() {
        let w = arvr_b();
        assert_eq!(w.instances().len(), 12);
        assert_eq!(w.model_mix().len(), 5);
    }

    #[test]
    fn mlperf_scales_with_batch() {
        assert_eq!(mlperf(1).instances().len(), 5);
        assert_eq!(mlperf(8).instances().len(), 40);
        assert_eq!(mlperf(8).total_macs(), 8 * mlperf(1).total_macs());
    }

    #[test]
    fn layer_counts_are_workload_scale() {
        // Paper Table VII: AR/VR-A 448, AR/VR-B 618, MLPerf 181 layers.
        // Our zoo encodes slightly different per-model layer counts
        // (documented in EXPERIMENTS.md); totals must be the same order.
        assert!((300..600).contains(&arvr_a().total_layers()));
        assert!((400..800).contains(&arvr_b().total_layers()));
        assert!((150..300).contains(&mlperf(1).total_layers()));
    }

    #[test]
    fn replicas_share_model_storage() {
        let w = arvr_a();
        let first_unet = w
            .instances()
            .iter()
            .find(|i| i.model().name() == "UNet")
            .unwrap();
        assert_eq!(first_unet.replica(), 0);
        let labels: Vec<String> = w
            .instances()
            .iter()
            .filter(|i| i.model().name() == "UNet")
            .map(WorkloadInstance::label)
            .collect();
        assert_eq!(labels, vec!["UNet#0", "UNet#1", "UNet#2", "UNet#3"]);
    }

    #[test]
    fn single_model_workload() {
        let w = single_model(herald_models::zoo::unet(), 4);
        assert_eq!(w.name(), "UNet-b4");
        assert_eq!(w.instances().len(), 4);
    }

    #[test]
    fn display_summarizes_mix() {
        let text = arvr_a().to_string();
        assert!(text.contains("Resnet50 x2"), "{text}");
        assert!(text.contains("layers"), "{text}");
    }

    #[test]
    fn same_structure_matches_partial_eq() {
        let a = arvr_a();
        let clone = a.clone(); // shares model Arcs: pointer fast path
        assert!(a.same_structure(&clone));
        let rebuilt = arvr_a(); // fresh Arcs: deep-equality fallback
        assert!(a.same_structure(&rebuilt));
        assert_eq!(a == rebuilt, a.same_structure(&rebuilt));
        let b = arvr_b();
        assert!(!a.same_structure(&b));
        assert_eq!(a == b, a.same_structure(&b));
    }

    #[test]
    #[should_panic(expected = "at least one batch")]
    fn zero_batches_rejected() {
        let _ = MultiDnnWorkload::new("w").with_model(herald_models::zoo::unet(), 0);
    }
}
