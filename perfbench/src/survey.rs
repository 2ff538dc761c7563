//! `machine_survey`: one `ProgramCfg` program on all seven appendix
//! presets (`machine_by_index`). The program declares more words than
//! the smallest core holds, so every segmented and paged machine
//! faults, but no machine has to refuse a segment.
//!
//! Every run must execute every touch of the program with no allocation
//! failure and no bounds trap, and every run of a preset (each on a
//! freshly built machine) must give the same report as the first. The
//! traced run also attaches a `CountingProbe` and reconciles its totals
//! with the report.

use std::time::Instant;

use dsa_core::access::ProgramOp;
use dsa_machines::presets::{machine_by_index, machine_count};
use dsa_machines::{Machine, MachineReport};
use dsa_probe::CountingProbe;
use dsa_trace::allocstream::SizeDist;
use dsa_trace::program::{ProgramCfg, SyntheticProgram};
use dsa_trace::rng::Rng64;

use crate::report::{median, nanos, Outcome, TimedPhase};
use crate::span::Tracer;

/// Metric-name stems of the presets, in `machine_by_index` order.
pub const PRESETS: [&str; 7] = [
    "atlas", "m44_44x", "b5000", "rice", "b8500", "multics", "model67",
];
/// The traced run's span names, in the same order.
const RUN_SPANS: [&str; 7] = [
    "machines.atlas_run",
    "machines.m44_44x_run",
    "machines.b5000_run",
    "machines.rice_run",
    "machines.b8500_run",
    "machines.multics_run",
    "machines.model67_run",
];
/// Rounds of the traced pass.
const TRACE_ROUNDS: usize = 5;

/// The program: 120 segments of exponential size (mean 700 words,
/// capped at 4000), 60 000 touches in phases of 500 over 6 segments.
#[must_use]
pub fn program_cfg(touches: usize) -> ProgramCfg {
    ProgramCfg {
        segments: 120,
        seg_sizes: SizeDist::Exponential {
            mean: 700.0,
            cap: 4000,
        },
        touches,
        phase_set: 6,
        phase_len: 500,
        write_fraction: 0.3,
        resize_prob: 0.05,
        advice_accuracy: None,
        wild_touch_prob: 0.0,
        compute_between: 3,
    }
}

/// Touches in the gated program.
pub const TOUCHES: usize = 60_000;

/// The report fields two runs of one preset must agree on.
fn signature(r: &MachineReport) -> [u64; 10] {
    [
        r.touches,
        r.faults,
        r.fetched_words,
        r.writeback_words,
        r.fetch_time.as_nanos(),
        r.map_time.as_nanos(),
        r.bounds_caught,
        r.wild_undetected,
        r.alloc_failures,
        r.prefetches,
    ]
}

/// Checks one run: every touch executed, no allocation failure, no
/// bounds trap, and (when given) the same report as the preset's first
/// run.
///
/// # Errors
///
/// Names the first check that fails.
pub fn check_run(
    name: &str,
    program: &SyntheticProgram,
    r: &MachineReport,
    first: Option<&MachineReport>,
) -> Result<(), String> {
    let touches = program.touch_count() as u64;
    if r.touches != touches || r.alloc_failures > 0 {
        return Err(format!(
            "{name}: executed {} of {touches} touches with {} allocation failures",
            r.touches, r.alloc_failures
        ));
    }
    if r.bounds_caught > 0 {
        return Err(format!(
            "{name}: {} bounds traps on a program with none",
            r.bounds_caught
        ));
    }
    if r.faults == 0 {
        return Err(format!(
            "{name}: no fault on a program larger than its core"
        ));
    }
    if let Some(f) = first {
        if signature(f) != signature(r) {
            return Err(format!(
                "{name}: two runs of the preset gave different reports"
            ));
        }
    }
    Ok(())
}

/// Checks a `CountingProbe` attached to a run against the run's report.
///
/// # Errors
///
/// Names the first total that disagrees.
pub fn check_probe(name: &str, r: &MachineReport, c: &CountingProbe) -> Result<(), String> {
    for (what, probe, report) in [
        ("touches", c.touches, r.touches),
        ("faults", c.faults, r.faults),
        ("fetched words", c.fetched_words, r.fetched_words),
        ("write-back words", c.writeback_words, r.writeback_words),
        ("bounds traps", c.bounds_traps, r.bounds_caught),
        ("advice ops", c.advice, r.advice_ops),
        ("prefetches", c.prefetches, r.prefetches),
    ] {
        if probe != report {
            return Err(format!(
                "{name}: probe counts {probe} {what}, the report {report}"
            ));
        }
    }
    if c.fetch_starts != c.fetches {
        return Err(format!(
            "{name}: {} fetch starts but {} fetch completions",
            c.fetch_starts, c.fetches
        ));
    }
    Ok(())
}

/// Runs every preset once on a fresh machine; returns the reports (a
/// failed run is `None`) and each run's wall time in ns.
fn round(ops: &[ProgramOp]) -> Vec<(Option<MachineReport>, u64)> {
    (0..machine_count())
        .map(|i| {
            let mut m = machine_by_index(i);
            let t = Instant::now();
            let r = m.run(ops).ok();
            (r, nanos(t.elapsed()))
        })
        .collect()
}

/// Checks a round's reports into `out`; returns the touches executed.
fn check_round(
    program: &SyntheticProgram,
    results: &[(Option<MachineReport>, u64)],
    first: &[Option<MachineReport>],
    out: &mut Outcome,
) -> u64 {
    let touches = program.touch_count() as u64;
    let mut executed = 0;
    for (i, (r, _)) in results.iter().enumerate() {
        out.attempted += touches;
        match r {
            Some(r) => {
                executed += r.touches;
                out.failed += touches.saturating_sub(r.touches) + r.alloc_failures;
                out.check(check_run(
                    PRESETS[i],
                    program,
                    r,
                    first.get(i).and_then(Option::as_ref),
                ));
            }
            None => {
                out.failed += touches;
                out.check(Err(format!("{}: the run returned an error", PRESETS[i])));
            }
        }
    }
    executed
}

/// What set-up hands to the timed phase.
pub struct Prepared {
    pub program: SyntheticProgram,
    /// Each preset's report from the warm-up round.
    pub first: Vec<Option<MachineReport>>,
    pub warmup: Outcome,
}

/// Generates the program and runs every preset once.
#[must_use]
pub fn prepare(seed: u64, touches: usize) -> Prepared {
    let program = program_cfg(touches).generate(&mut Rng64::new(seed));
    let results = round(&program.ops);
    let mut warmup = Outcome::default();
    check_round(&program, &results, &[], &mut warmup);
    Prepared {
        program,
        first: results.into_iter().map(|(r, _)| r).collect(),
        warmup,
    }
}

/// The gated run.
#[must_use]
pub fn run(seed: u64, seconds: f64) -> Outcome {
    run_sized(seed, seconds, TOUCHES)
}

/// [`run`] with a chosen program length (the tests use short ones).
#[must_use]
pub fn run_sized(seed: u64, seconds: f64, touches: usize) -> Outcome {
    let mut out = Outcome::default();
    let mut phase = TimedPhase::start(seconds);
    while let Some(p) = phase.set_up(|| prepare(seed, touches)) {
        out.violations.extend(p.warmup.violations.clone());
        loop {
            let results = round(&p.program.ops);
            for &(_, ns) in &results {
                phase.record(ns);
            }
            let touches = check_round(&p.program, &results, &p.first, &mut out);
            if !phase.next_round(touches) {
                break;
            }
        }
    }
    phase.finish(&mut out, "one preset's run");
    out
}

/// The traced pass.
#[must_use]
pub fn traced(seed: u64, seconds: f64, tracer: &mut Tracer) -> Outcome {
    let generate_kind = tracer.kind("trace.program_generate");
    let (program, gen_ns) = tracer.time(generate_kind, || {
        program_cfg(TOUCHES).generate(&mut Rng64::new(seed))
    });
    let mut out = Outcome::default();
    out.metric("trace.program_generate_s", gen_ns as f64 / 1e9, "s");
    let first: Vec<Option<MachineReport>> =
        round(&program.ops).into_iter().map(|(r, _)| r).collect();
    check_round(&program, &round(&program.ops), &first, &mut out);

    let untraced_ops_per_s = {
        let (mut n, mut ns) = (0u64, 0u64);
        let mut scratch = Outcome::default();
        while (ns as f64) / 1e9 < seconds {
            let results = round(&program.ops);
            ns += results.iter().map(|(_, t)| t).sum::<u64>();
            n += check_round(&program, &results, &first, &mut scratch);
        }
        out.violations.extend(scratch.violations);
        n as f64 / (ns as f64 / 1e9)
    };

    let run_kinds: Vec<_> = RUN_SPANS.iter().map(|&span| tracer.kind(span)).collect();
    let probed_kind = tracer.kind("probe.machine_counting_run");
    let round_kind = tracer.kind("bench.survey_round");
    let mut run_ns: Vec<Vec<f64>> = vec![Vec::new(); PRESETS.len()];
    let (mut plain_total, mut probed_total) = (0u64, 0u64);
    let touches = program.touch_count() as u64;
    for _ in 0..TRACE_ROUNDS {
        tracer.enter(round_kind);
        for (i, name) in PRESETS.iter().enumerate() {
            let mut m: Box<dyn Machine> = machine_by_index(i);
            let (r, ns) = tracer.time(run_kinds[i], || m.run(&program.ops));
            run_ns[i].push(ns as f64);
            plain_total += ns;
            out.attempted += touches;
            let Ok(r) = r else {
                out.failed += touches;
                out.check(Err(format!("{name}: the run returned an error")));
                continue;
            };
            out.failed += touches.saturating_sub(r.touches) + r.alloc_failures;
            out.check(check_run(name, &program, &r, first[i].as_ref()));
            let mut m: Box<dyn Machine> = machine_by_index(i);
            let mut probe = CountingProbe::new();
            let (pr, ns) = tracer.time(probed_kind, || m.run_probed(&program.ops, &mut probe));
            probed_total += ns;
            match pr {
                Ok(pr) => {
                    out.check(check_probe(name, &pr, &probe));
                    if signature(&pr) != signature(&r) {
                        out.check(Err(format!("{name}: probing changed the run")));
                    }
                }
                Err(_) => out.check(Err(format!("{name}: the probed run returned an error"))),
            }
        }
        tracer.exit();
    }
    // One traced round: the sum of the presets' median run times.
    let mut round_ns = 0.0;
    for (i, name) in PRESETS.iter().enumerate() {
        let ns = median(&mut run_ns[i]);
        round_ns += ns;
        out.metric(
            format!("machines.{name}_touches_per_s"),
            touches as f64 / (ns / 1e9),
            "1/s",
        );
        if let Some(r) = &first[i] {
            out.metric(format!("machines.{name}_faults"), r.faults as f64, "count");
            out.metric(
                format!("machines.{name}_map_time"),
                r.map_time.as_nanos() as f64,
                "modeled_ns",
            );
            out.metric(
                format!("machines.{name}_fetch_time"),
                r.fetch_time.as_nanos() as f64,
                "modeled_ns",
            );
        }
    }
    out.metric(
        "probe.machine_counting_overhead_pct",
        (probed_total as f64 / plain_total as f64 - 1.0) * 100.0,
        "%",
    );
    let traced_ops_per_s = (touches * PRESETS.len() as u64) as f64 / (round_ns / 1e9);
    out.metric(
        "tracing.machine_survey_overhead_pct",
        (untraced_ops_per_s / traced_ops_per_s - 1.0) * 100.0,
        "%",
    );
    out.notes.push(format!(
        "machine_survey: untraced {untraced_ops_per_s:.0} touches/s, traced {traced_ops_per_s:.0} touches/s"
    ));
    out
}
