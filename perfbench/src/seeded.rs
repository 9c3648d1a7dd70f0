//! Seeded fork/join networks for the `stream_long` workload.
//!
//! The generator draws from a 64-bit LCG and builds each network with the
//! `Network` fork builder, so a seed fixes every shape, branch count and
//! join kind. It is not a fuzzer: every layer keeps its input extents
//! (1×1×1 convolutions, or 3×3×3 with unit padding), so each network
//! passes `Network::validate`. Every network has the same number of conv
//! stages whatever the seed, which keeps the pipeline work of a pass close
//! to constant across seeds while the DAG itself changes.

use morph_nets::Network;
use morph_tensor::shape::ConvShape;

/// Networks generated per seed (their names).
pub const NAMES: [&str; 3] = ["Seeded-A", "Seeded-B", "Seeded-C"];

/// Fork/join blocks per network after the stem.
const BLOCKS: usize = 5;

/// Conv layers per block, spread over its branches.
const CONVS_PER_BLOCK: usize = 4;

/// Knuth's MMIX linear congruential generator.
pub struct Lcg(u64);

impl Lcg {
    /// A generator whose sequence is fixed by `seed`.
    pub fn new(seed: u64) -> Self {
        let mut rng = Lcg(seed);
        rng.next();
        rng
    }

    /// The next 31 high-quality bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 33
    }

    /// A value in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// One of `choices`.
    pub fn pick<T: Copy>(&mut self, choices: &[T]) -> T {
        choices[self.below(choices.len())]
    }
}

/// The seeded networks of `stream_long`.
pub fn networks(seed: u64) -> Vec<Network> {
    let mut rng = Lcg::new(seed);
    NAMES.iter().map(|&name| network(name, &mut rng)).collect()
}

/// Split `total` convs over `ways` branches of at least one conv each,
/// except that the first branch is an identity shortcut (no convs) when
/// `shortcut` is set.
fn branch_depths(rng: &mut Lcg, ways: usize, shortcut: bool, total: usize) -> Vec<usize> {
    let mut depths = vec![1; ways];
    if shortcut {
        depths[0] = 0;
    }
    let placed: usize = depths.iter().sum();
    for _ in placed..total {
        let way = usize::from(shortcut) + rng.below(ways - usize::from(shortcut));
        depths[way] += 1;
    }
    depths
}

/// A conv over `(hw, hw, frames, c)` that keeps those extents.
fn same_conv(rng: &mut Lcg, hw: usize, frames: usize, c: usize, k: usize) -> ConvShape {
    if rng.below(2) == 0 {
        ConvShape::new_3d(hw, hw, frames, c, k, 1, 1, 1)
    } else {
        ConvShape::new_3d(hw, hw, frames, c, k, 3, 3, 3).with_pad(1, 1)
    }
}

fn network(name: &'static str, rng: &mut Lcg) -> Network {
    let hw = rng.pick(&[14, 28]);
    let frames = rng.pick(&[4, 8]);
    let mut channels = rng.pick(&[16, 32, 64]);
    let mut net = Network::new(name);
    net.conv(
        "stem",
        ConvShape::new_3d(hw, hw, frames, 3, channels, 3, 3, 3).with_pad(1, 1),
    );
    for block in 0..BLOCKS {
        let concat = rng.below(2) == 0;
        let ways = 2 + rng.below(3);
        // An add join may take one identity shortcut (a branch of no
        // convs); every other branch holds at least one conv.
        let shortcut = !concat && rng.below(2) == 0;
        let depths = branch_depths(rng, ways, shortcut, CONVS_PER_BLOCK);
        let mut fork = net.fork();
        let mut out_channels = 0;
        for (way, &depth) in depths.iter().enumerate() {
            fork.branch();
            let mut c = channels;
            for layer in 0..depth {
                // Add branches must end on the block's input channel count.
                let k = if !concat && layer + 1 == depth {
                    channels
                } else {
                    rng.pick(&[8, 16, 24, 32])
                };
                fork.conv(
                    format!("b{block}_{way}_{layer}"),
                    same_conv(rng, hw, frames, c, k),
                );
                c = k;
            }
            out_channels += c;
        }
        if concat {
            fork.concat(format!("b{block}_concat"));
            channels = out_channels;
        } else {
            fork.add(format!("b{block}_add"));
        }
    }
    net.validate()
        .expect("the generator only emits extent-preserving layers");
    net
}

#[cfg(test)]
mod tests {
    use super::*;
    use morph_audit::report::{audit_document, ReportContext};
    use morph_core::{Eyeriss, PipelineMode, Session};

    fn dag(net: &Network) -> (Vec<ConvShape>, Vec<(usize, usize)>) {
        (
            net.conv_layers().map(|l| l.shape).collect(),
            net.layer_edges(),
        )
    }

    fn report_json(seed: u64) -> (String, Session) {
        let session = Session::builder()
            .backend(Eyeriss::builder().build())
            .networks(networks(seed))
            .threads(1)
            .pipeline(PipelineMode::Analytic)
            .pipeline_frames(64)
            .build();
        (session.run().to_json_string(), session)
    }

    #[test]
    fn stage_count_is_fixed_and_every_network_validates() {
        for seed in 0..50 {
            for net in networks(seed) {
                net.validate().unwrap();
                assert!(net.is_branching());
                assert_eq!(net.num_conv_layers(), 1 + BLOCKS * CONVS_PER_BLOCK);
            }
        }
    }

    #[test]
    fn same_seed_gives_the_same_report() {
        assert_eq!(report_json(7).0, report_json(7).0);
    }

    #[test]
    fn different_seeds_give_different_dags_that_verify() {
        let a: Vec<_> = networks(1).iter().map(dag).collect();
        let b: Vec<_> = networks(2).iter().map(dag).collect();
        assert_ne!(a, b);
        let (text, session) = report_json(2);
        let eyeriss = &session.backends()[0];
        let ctx =
            ReportContext::default().with_backend(eyeriss.name(), eyeriss.arch().clusters as u64);
        assert_eq!(audit_document(&text, &ctx), vec![]);
        let report = morph_core::RunReport::from_json_str(&text).unwrap();
        for run in &report.runs {
            crate::replay::replay(run, eyeriss.pipeline_caps(), &crate::probe::Tracer::off())
                .unwrap();
        }
    }
}
