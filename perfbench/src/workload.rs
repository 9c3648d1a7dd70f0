//! The four workloads: set-up, one pass, and the pass's verification.
//!
//! Every session pins `threads(1)` and builds fresh backends per pass, so
//! each pass starts from a cold decision store. Verification runs outside
//! the timed pass.

use crate::probe::Tracer;
use crate::replay::{replay, ReplayWork};
use crate::seeded;
use crate::speed::Kernel;
use morph_audit::mapping::audit_store;
use morph_audit::report::{audit_document, ReportContext};
use morph_core::{
    ArchSpec, Backend, DecisionStore, Eyeriss, Morph, MorphBase, PipelineCaps, PipelineMode,
    RunReport, Session,
};
use morph_json::{FromJson, Value};
use morph_nets::{zoo, Network};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The seed the reference digests were recorded at.
pub const DEFAULT_SEED: u64 = 1;

/// Reference digests of each workload's report, at [`DEFAULT_SEED`].
const REFERENCE: &str = include_str!("../reference.json");

/// The committed perf-gate baseline the Fig. 9 totals must match.
const BASELINE: &str = include_str!("../../crates/bench/baseline.json");

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Eyeriss, Morph_base and Morph × the five evaluation networks, no
    /// pipeline: the paper's Fig. 9 run, nearly all mapping search.
    Fig9Search,
    /// Morph × Two_Stream under the Pareto sweep: budget sweeps under two
    /// objectives and simulated deadline levels.
    ParetoSweep,
    /// Eyeriss × the zoo plus seeded fork/join networks, analytic pipeline
    /// at 8,192 frames: nearly all pipeline simulation.
    StreamLong,
    /// A prebuilt zoo report serialized, parsed, decoded, compared and
    /// audited: the report artifact path.
    ReportRoundtrip,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Fig9Search,
        Workload::ParetoSweep,
        Workload::StreamLong,
        Workload::ReportRoundtrip,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig9Search => "fig9_search",
            Workload::ParetoSweep => "pareto_sweep",
            Workload::StreamLong => "stream_long",
            Workload::ReportRoundtrip => "report_roundtrip",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Result<Self, String> {
        Self::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| {
                let names: Vec<_> = Self::ALL.iter().map(|w| w.name()).collect();
                format!(
                    "unknown workload {name:?}; expected one of {}",
                    names.join(", ")
                )
            })
    }

    fn mode(self) -> PipelineMode {
        match self {
            Workload::Fig9Search => PipelineMode::Off,
            Workload::ParetoSweep => PipelineMode::Pareto { power_cap_mw: None },
            Workload::StreamLong | Workload::ReportRoundtrip => PipelineMode::Analytic,
        }
    }

    /// The probe kernels whose speed the workload's times are corrected
    /// by: the ones whose speed followed the workload's own best in
    /// calibration runs (see `README.md`). The optimizer's passes distort
    /// the simulation kernel's time with their own cache footprint, so
    /// the search workloads take the text kernel alone.
    pub fn speed_kernels(self) -> &'static [Kernel] {
        match self {
            Workload::Fig9Search | Workload::ParetoSweep => &[Kernel::Text],
            Workload::StreamLong | Workload::ReportRoundtrip => &Kernel::ALL,
        }
    }

    /// Frames per simulated stream (0 for a workload without a pipeline).
    pub fn frames(self) -> u64 {
        match self {
            Workload::Fig9Search => 0,
            Workload::ParetoSweep | Workload::ReportRoundtrip => 32,
            Workload::StreamLong => 8192,
        }
    }

    fn networks(self, seed: u64) -> Vec<Network> {
        let mut nets = match self {
            Workload::Fig9Search => zoo::evaluation_networks(),
            Workload::ParetoSweep => vec![zoo::two_stream()],
            Workload::StreamLong | Workload::ReportRoundtrip => zoo::all(),
        };
        if self == Workload::StreamLong {
            nets.extend(seeded::networks(seed));
        }
        for net in &nets {
            net.validate()
                .expect("zoo and seeded networks are well formed");
        }
        nets
    }

    /// Fresh backends in session order; searched ones carry their
    /// mapping-audit `banked` flag.
    fn backends(self) -> Vec<(Box<dyn Backend>, Option<bool>)> {
        let eyeriss = || {
            (
                Box::new(Eyeriss::builder().build()) as Box<dyn Backend>,
                None,
            )
        };
        let base = || {
            (
                Box::new(MorphBase::builder().build()) as Box<dyn Backend>,
                Some(false),
            )
        };
        let morph = || {
            (
                Box::new(Morph::builder().build()) as Box<dyn Backend>,
                Some(true),
            )
        };
        match self {
            Workload::Fig9Search => vec![eyeriss(), base(), morph()],
            Workload::ParetoSweep => vec![morph()],
            Workload::StreamLong => vec![eyeriss()],
            Workload::ReportRoundtrip => vec![base(), eyeriss()],
        }
    }
}

/// A backend's chip and store, as verification needs them.
#[derive(Clone)]
pub struct Chip {
    /// Backend display name.
    pub name: String,
    arch: ArchSpec,
    caps: PipelineCaps,
    /// The decision store of a searched backend, with its `banked` flag.
    pub store: Option<(Arc<DecisionStore>, bool)>,
}

fn report_context(chips: &[Chip]) -> ReportContext {
    chips.iter().fold(ReportContext::default(), |ctx, c| {
        ctx.with_backend(&c.name, c.arch.clusters as u64)
    })
}

/// One expected Fig. 9 total: `(backend, network, cycles, total_pj)`.
type Fig9Total = (String, String, u64, f64);

/// Everything a pass is checked against.
struct Reference {
    /// Report digests of `reference.json`, by key.
    digests: BTreeMap<String, String>,
    /// Fig. 9 totals from the committed baseline (`fig9_search` only).
    fig9: Vec<Fig9Total>,
}

impl Reference {
    fn load(workload: Workload) -> Reference {
        let doc = Value::parse(REFERENCE).expect("reference.json is valid JSON");
        let digests = match doc.get("digests") {
            Some(Value::Obj(map)) => map
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.as_str()?.to_string())))
                .collect(),
            _ => BTreeMap::new(),
        };
        let fig9 = if workload == Workload::Fig9Search {
            fig9_baseline()
        } else {
            Vec::new()
        };
        Reference { digests, fig9 }
    }
}

/// The occurrence-0 energy-objective baseline entries of the three Fig. 9
/// backends on the five evaluation networks.
fn fig9_baseline() -> Vec<Fig9Total> {
    let doc = Value::parse(BASELINE).expect("baseline.json is valid JSON");
    let nets: Vec<&str> = zoo::evaluation_networks().iter().map(|n| n.name).collect();
    doc.get("entries")
        .and_then(Value::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|e| {
            let backend = e.get("backend")?.as_str()?;
            let network = e.get("network")?.as_str()?;
            let wanted = ["Eyeriss", "Morph_base", "Morph"].contains(&backend)
                && nets.contains(&network)
                && e.get("objective")?.as_str()? == "energy"
                && e.get("occurrence")?.as_u64()? == 0;
            wanted.then_some((
                backend.to_string(),
                network.to_string(),
                e.get("cycles")?.as_u64()?,
                e.get("total_pj")?.as_f64()?,
            ))
        })
        .collect()
}

/// What set-up builds once and every pass consumes.
pub struct Input {
    /// The workload.
    pub workload: Workload,
    seed: u64,
    networks: Vec<Network>,
    reference: Reference,
    /// `report_roundtrip` only: the report each pass round-trips, with the
    /// chips that produced it.
    fixture: Option<(RunReport, Vec<Chip>)>,
}

/// Set a workload up: build its networks (a `build` span on the `nets`
/// track), load its references and, for `report_roundtrip`, run the
/// session whose report the passes round-trip.
pub fn setup(workload: Workload, seed: u64, tracer: &Tracer) -> Input {
    let networks = tracer.span("nets", "build", || workload.networks(seed));
    let reference = Reference::load(workload);
    let fixture = (workload == Workload::ReportRoundtrip)
        .then(|| run_session(workload, &networks, &Tracer::off()));
    Input {
        workload,
        seed,
        networks,
        reference,
        fixture,
    }
}

/// Build a fresh session of the workload (backends behind the tracer)
/// and run it inside a `run` span on the `session` track.
fn run_session(
    workload: Workload,
    networks: &[Network],
    tracer: &Tracer,
) -> (RunReport, Vec<Chip>) {
    let mut builder = Session::builder()
        .threads(crate::THREADS)
        .pipeline(workload.mode())
        .networks(networks.iter().cloned());
    if workload.frames() > 0 {
        builder = builder.pipeline_frames(workload.frames());
    }
    let mut chips = Vec::new();
    for (backend, banked) in workload.backends() {
        chips.push(Chip {
            name: backend.name().to_string(),
            arch: *backend.arch(),
            caps: backend.pipeline_caps(),
            store: backend.decision_store().zip(banked),
        });
        builder = builder.backend_boxed(tracer.wrap(backend));
    }
    let session = builder.build();
    let report = tracer.span("session", "run", || session.run());
    (report, chips)
}

/// What one pass leaves behind for verification.
pub struct PassOutput {
    /// The pass's report (`report_roundtrip`: the decoded one, if it
    /// decoded).
    pub report: Option<RunReport>,
    /// The serialized report, when the pass itself wrote it.
    json: Option<String>,
    /// The chips behind the report.
    pub chips: Vec<Chip>,
    /// Problems the pass found itself (`report_roundtrip`).
    problems: Vec<String>,
    /// Audit violations the pass found itself (`report_roundtrip`).
    violations: usize,
}

impl PassOutput {
    /// The report as JSON: written by the pass, or serialized now.
    pub fn json(&self) -> String {
        match (&self.json, &self.report) {
            (Some(text), _) => text.clone(),
            (None, Some(report)) => report.to_json_string(),
            (None, None) => String::new(),
        }
    }
}

/// Run one pass of the workload, inside a `pass` span on the `bench`
/// track.
pub fn pass(input: &Input, tracer: &Tracer) -> PassOutput {
    tracer.span("bench", "pass", || match &input.fixture {
        None => {
            let (report, chips) = run_session(input.workload, &input.networks, tracer);
            PassOutput {
                report: Some(report),
                json: None,
                chips,
                problems: Vec::new(),
                violations: 0,
            }
        }
        Some((original, chips)) => {
            let json = tracer.span("json", "write", || original.to_json_string());
            let value = tracer.span("json", "parse", || Value::parse(&json));
            let decoded = tracer.span("json", "decode", || {
                value
                    .map_err(|e| e.to_string())
                    .and_then(|v| RunReport::from_json(&v))
            });
            let violations = tracer.span("audit", "report", || {
                audit_document(&json, &report_context(chips))
            });
            let mut problems: Vec<String> = violations.iter().map(|v| format!("{v:?}")).collect();
            match &decoded {
                Ok(report) if report == original => {}
                Ok(_) => problems.push("decoded report differs from the original".into()),
                Err(e) => problems.push(format!("report does not decode: {e}")),
            }
            PassOutput {
                report: decoded.ok(),
                json: Some(json),
                chips: chips.clone(),
                problems,
                violations: violations.len(),
            }
        }
    })
}

/// FNV-1a 64 digest of `text`, as `fnv1a64:<hex>`.
pub fn digest(text: &str) -> String {
    let hash = text.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    format!("fnv1a64:{hash:016x}")
}

/// The outcome of verifying one pass.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Everything that did not match; empty when the pass is correct.
    pub problems: Vec<String>,
    /// Audit violations found (also listed in `problems`).
    pub violations: usize,
    /// Work the pipeline replay did (deep checks only).
    pub replay: ReplayWork,
    /// Schedules whose replay did not reproduce the report.
    pub replay_mismatches: u64,
}

impl Verdict {
    fn check_digest(&mut self, reference: &Reference, key: &str, text: &str) {
        let got = digest(text);
        match reference.digests.get(key) {
            Some(want) if *want == got => {}
            want => self.problems.push(format!(
                "report digest {key}: got {got}, reference {}",
                want.map_or("missing", String::as_str)
            )),
        }
    }

    fn audit(&mut self, what: &str, violations: &[morph_audit::Violation]) {
        self.violations += violations.len();
        self.problems
            .extend(violations.iter().map(|v| format!("{what}: {v:?}")));
    }
}

/// Check a pass against the references. `deep` adds the checks whose
/// outcome is the same for every pass with the same report bytes: the
/// report and store audits and the pipeline replay (each spanned on the
/// `verify` and `pipeline` tracks).
pub fn verify(input: &Input, out: &PassOutput, deep: bool, tracer: &Tracer) -> Verdict {
    let mut verdict = Verdict {
        problems: out.problems.clone(),
        violations: out.violations,
        ..Verdict::default()
    };
    let Some(report) = &out.report else {
        return verdict;
    };
    let json = out.json();
    let reference = &input.reference;
    let workload = input.workload;
    if workload == Workload::StreamLong {
        let zoo_only = RunReport {
            schema: report.schema,
            runs: report
                .runs
                .iter()
                .filter(|r| !seeded::NAMES.contains(&r.network.as_str()))
                .cloned()
                .collect(),
        };
        verdict.check_digest(reference, "stream_long.zoo", &zoo_only.to_json_string());
    }
    if workload != Workload::StreamLong || input.seed == DEFAULT_SEED {
        verdict.check_digest(reference, workload.name(), &json);
    }
    for (backend, network, cycles, total_pj) in &reference.fig9 {
        match report.find(backend, network) {
            Some(run) if run.total.cycles.total == *cycles && run.total.total_pj() == *total_pj => {
            }
            Some(run) => verdict.problems.push(format!(
                "{backend}/{network}: {} cycles and {} pJ, baseline {cycles} and {total_pj}",
                run.total.cycles.total,
                run.total.total_pj()
            )),
            None => verdict
                .problems
                .push(format!("{backend}/{network}: missing run")),
        }
    }
    if workload == Workload::Fig9Search && reference.fig9.len() != 15 {
        verdict.problems.push(format!(
            "baseline.json holds {} of the 15 Fig. 9 entries",
            reference.fig9.len()
        ));
    }
    if !deep {
        return verdict;
    }
    if workload != Workload::ReportRoundtrip {
        let violations = tracer.span("verify", "audit_document", || {
            audit_document(&json, &report_context(&out.chips))
        });
        verdict.audit("report audit", &violations);
    }
    for chip in &out.chips {
        if let Some((store, banked)) = &chip.store {
            let violations = tracer.span("verify", "audit_store", || {
                audit_store(&chip.arch, *banked, store)
            });
            verdict.audit(&format!("{} store audit", chip.name), &violations);
        }
    }
    for run in &report.runs {
        let Some(chip) = out.chips.iter().find(|c| c.name == run.backend) else {
            verdict
                .problems
                .push(format!("{}: no backend of that name", run.backend));
            continue;
        };
        match replay(run, chip.caps, tracer) {
            Ok(work) => verdict.replay = verdict.replay.add(work),
            Err(e) => {
                verdict.replay_mismatches += 1;
                verdict.problems.push(format!("pipeline replay {e}"));
            }
        }
    }
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Ok(w));
        }
        assert!(Workload::parse("fig9").is_err());
    }

    #[test]
    fn baseline_holds_all_fifteen_fig9_totals() {
        let totals = fig9_baseline();
        assert_eq!(totals.len(), 15);
        for backend in ["Eyeriss", "Morph_base", "Morph"] {
            assert_eq!(totals.iter().filter(|t| t.0 == backend).count(), 5);
        }
    }

    #[test]
    fn reference_has_a_digest_per_workload() {
        let reference = Reference::load(Workload::StreamLong);
        for key in Workload::ALL
            .iter()
            .map(|w| w.name())
            .chain(["stream_long.zoo"])
        {
            assert!(reference.digests[key].starts_with("fnv1a64:"), "{key}");
        }
    }

    #[test]
    fn digest_is_fnv1a_64() {
        assert_eq!(digest(""), "fnv1a64:cbf29ce484222325");
        assert_eq!(digest("a"), "fnv1a64:af63dc4c8601ec8c");
    }
}
