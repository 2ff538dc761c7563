//! The traced run: every workload's layers measured one call (or one
//! phase) at a time, from the benchmark's side of each call.
//!
//! It reports apart from the gated, untraced runs: each workload first
//! runs untraced for a quarter of `--seconds`, then a fixed amount of
//! traced work (fixed so that its counts repeat exactly), and the gap
//! between the two is that workload's tracing overhead. The spans go to
//! `.perfbench_out/spans-<workload>-<seed>.jsonl`, the per-layer self
//! times to the notes printed before the result.

use std::path::PathBuf;

use crate::report::Outcome;
use crate::span::Tracer;
use crate::{heap, placement, survey, tenants, WORKLOADS};

/// Where the span file goes, relative to the working directory.
#[must_use]
pub fn span_path(workload: &str, seed: u64) -> PathBuf {
    PathBuf::from(".perfbench_out").join(format!("spans-{workload}-{seed}.jsonl"))
}

/// Runs the traced pass of every workload. `workload` names the run (and
/// its span file); all four are measured so that every per-layer metric
/// is present whichever workload the run is for.
#[must_use]
pub fn run(workload: &str, seed: u64, seconds: f64) -> Outcome {
    let share = seconds / WORKLOADS.len() as f64;
    let mut tracer = Tracer::new();
    let mut out = Outcome::default();
    for (trace, &w) in WORKLOADS.iter().enumerate() {
        tracer.set_trace(trace as u32 + 1);
        let part = match w {
            "heap_churn" => heap::traced(seed, share, &mut tracer),
            "placement_churn" => placement::traced(seed, share, &mut tracer),
            "tenant_population" => tenants::traced(seed, share, &mut tracer),
            _ => survey::traced(seed, share, &mut tracer),
        };
        out.absorb(part);
    }
    out.notes
        .push("per-layer self time (spans from the benchmark's side of each call):".into());
    out.notes.extend(tracer.layer_table());
    let path = span_path(workload, seed);
    match tracer.write_jsonl(&path) {
        Ok(()) => out.notes.push(format!("span file: {}", path.display())),
        Err(e) => out.check(Err(format!("cannot write {}: {e}", path.display()))),
    }
    out
}
