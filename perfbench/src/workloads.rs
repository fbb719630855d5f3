//! The three benchmark workloads. Each is a `ScenarioSpec` built from the
//! seed alone, so the same seed always yields the same inputs; the
//! reasons for each choice are recorded in `perfbench/WORKLOADS.md`.

use tapestry_core::MaintenanceMode;
use tapestry_sim::SimTime;
use tapestry_workload::presets::{churn_scale_preset, scale_preset, scale_side, ScaleSpace};
use tapestry_workload::{Arrival, PhaseSpec, Popularity, ScenarioSpec};

/// Worker threads every workload runs with (the benchmark host's core
/// count; reports are byte-identical at every value).
pub const THREADS: usize = 2;

/// Which benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Bootstrap- and check-bound: a large static mesh, little traffic.
    StaticLarge,
    /// Dispatch-bound under join/kill churn with incremental repair.
    ChurnRepair,
    /// Dispatch- and runner-bound: a dense locate/publish mix, no churn.
    AppMix,
}

/// Full benchmark sizes or the smoke test's tiny ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::StaticLarge, Workload::ChurnRepair, Workload::AppMix];

    /// Parse a `--workload` value.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::StaticLarge => "static-large",
            Workload::ChurnRepair => "churn-repair",
            Workload::AppMix => "app-mix",
        }
    }

    /// Must every checked phase find every Property 2 primary optimal?
    /// True without churn: nothing should disturb a statically built mesh.
    pub fn tables_must_be_optimal(self) -> bool {
        self != Workload::ChurnRepair
    }

    /// The workload's scenario at `seed`.
    pub fn spec(self, seed: u64, size: Size) -> ScenarioSpec {
        let tiny = size == Size::Tiny;
        match self {
            Workload::StaticLarge => {
                let (nodes, ops) = if tiny { (256, 200) } else { (8_000, 2_000) };
                scale_preset(nodes, ops, seed, ScaleSpace::Torus, THREADS)
            }
            Workload::ChurnRepair => {
                let (nodes, ops) = if tiny { (256, 400) } else { (2_000, 2_000) };
                churn_scale_preset(nodes, ops, seed, THREADS, true, MaintenanceMode::Incremental)
            }
            Workload::AppMix => {
                let (nodes, ops) = if tiny { (256, 2_000) } else { (4_000, 100_000) };
                app_mix(nodes, ops, seed)
            }
        }
    }
}

/// One checked steady phase of Zipf-popular locates and republishes, half
/// of them writes, on the constant-density torus of the scale family.
fn app_mix(nodes: usize, ops: u64, seed: u64) -> ScenarioSpec {
    let side = scale_side(nodes);
    let stretch = side / 1000.0;
    ScenarioSpec::new("app-mix")
        .capacity(nodes)
        .initial_nodes(nodes)
        .objects(nodes / 2)
        .threads(THREADS)
        .torus(side)
        .phase(
            PhaseSpec::new("steady", SimTime::from_distance(60_000.0 * stretch))
                .arrival(Arrival::Poisson { ops })
                .popularity(Popularity::Zipf { exponent: 1.1 })
                .writes(0.5)
                .checked(),
        )
        .seed(seed)
}
