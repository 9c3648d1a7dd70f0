//! Pipeline replay: rebuild each adopted schedule from its report and run
//! `morph_pipeline::simulate` on it again.
//!
//! The DAG schedule comes from the `PipelineReport` alone (stage service
//! cycles, edge endpoints and capacities); the linearized-chain baseline
//! from the run's layer shapes and the backend's `pipeline_caps`. Both
//! simulations must reproduce the report's makespan, fill, drain and
//! chain figures exactly.

use crate::probe::Tracer;
use morph_core::{NetworkRun, PipelineCaps};
use morph_pipeline::{simulate, EdgeSpec, PipelineSpec, StageSpec};

/// Work one replay did.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayWork {
    /// `simulate` calls made.
    pub simulations: u64,
    /// Stages × frames simulated, summed over those calls.
    pub stage_frames: u64,
}

impl ReplayWork {
    /// Work of both replays added up.
    pub fn add(self, other: ReplayWork) -> ReplayWork {
        ReplayWork {
            simulations: self.simulations + other.simulations,
            stage_frames: self.stage_frames + other.stage_frames,
        }
    }
}

fn expect_eq<T: PartialEq + std::fmt::Debug>(what: &str, got: &T, want: &T) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{what}: replay gives {got:?}, report says {want:?}"
        ))
    }
}

/// Replay `run`'s schedule (nothing to do when it has none). Each
/// `simulate` call is a `simulate` span on the `pipeline` track.
pub fn replay(run: &NetworkRun, caps: PipelineCaps, tracer: &Tracer) -> Result<ReplayWork, String> {
    let Some(p) = &run.pipeline else {
        return Ok(ReplayWork::default());
    };
    let subject = format!("{}/{}", run.backend, run.network);
    let stages: Vec<StageSpec> = p
        .stages
        .iter()
        .map(|s| StageSpec {
            name: s.name.clone(),
            service_cycles: s.service_cycles,
        })
        .collect();
    let dag = PipelineSpec {
        stages: stages.clone(),
        edges: p
            .edges
            .iter()
            .map(|e| EdgeSpec {
                from: e.from as usize,
                to: e.to as usize,
                capacity: e.capacity as usize,
            })
            .collect(),
    };
    let chain_caps: Vec<usize> = run.layers[..run.layers.len() - 1]
        .iter()
        .map(|l| caps.channel_capacity(l.shape.output_bytes()))
        .collect();
    let chain = PipelineSpec::chain(stages, &chain_caps);

    let stats = tracer.span("pipeline", "simulate", || simulate(&dag, p.frames));
    let chain_stats = tracer.span("pipeline", "simulate", || simulate(&chain, p.frames));

    let check = || -> Result<(), String> {
        expect_eq("makespan", &stats.makespan_cycles, &p.makespan_cycles)?;
        expect_eq("fill", &stats.fill_cycles, &p.fill_cycles)?;
        expect_eq("drain", &stats.drain_cycles, &p.drain_cycles)?;
        expect_eq("chain fill", &chain_stats.fill_cycles, &p.chain_fill_cycles)?;
        let chain_fps = p.clock_hz as f64 / chain_stats.steady_cycles_per_frame().max(1.0);
        expect_eq("chain fps", &chain_fps.to_bits(), &p.chain_fps.to_bits())
    };
    check().map_err(|e| format!("{subject}: {e}"))?;
    Ok(ReplayWork {
        simulations: 2,
        stage_frames: 2 * p.stages.len() as u64 * p.frames,
    })
}
