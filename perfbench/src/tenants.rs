//! `tenant_population`: `EventSim` over a population of stream-backed
//! tenants with a tight pool: one frame per tenant, eight transfer
//! channels. A round runs two cells, `AdmissionPolicy::Open` (time goes
//! to the event queue and channel queueing, most references fault) and
//! `AdmissionPolicy::WorkingSet` (time goes to admission and the
//! compact LRU resident sets).
//!
//! After every run the report is checked against what the benchmark
//! computed apart from the simulator: every tenant executed exactly its
//! trace length; per-tenant faults sum to the total, and each tenant
//! faulted at least once per distinct page of its stream (counted in
//! set-up by draining the stream); `cpu_busy` is references ×
//! `instr_time`; the makespan is at least `cpu_busy` and at least the
//! total fetch time divided by the channels.

use std::time::Instant;

use dsa_core::clock::Cycles;
use dsa_core::error::CoreError;
use dsa_paging::CompactLru;
use dsa_probe::{CountingProbe, NullProbe};
use dsa_sched::{
    estimate_ws, pick_allotment, tenant_sweep, AdmissionPolicy, EventReport, EventSim,
    LoadControlCfg, SimConfig, SweepPoint, TenantSpec, TraceSpec,
};
use dsa_trace::refstring::RefStringCfg;
use dsa_trace::rng::Rng64;
use dsa_trace::stream::RefStream;

use crate::report::{median, nanos, Outcome, TimedPhase};
use crate::span::Tracer;

/// Tenants in the population.
pub const TENANTS: usize = 20_000;
/// Page-transfer channels.
pub const CHANNELS: usize = 8;
/// Frame quota per tenant.
pub const QUOTA: usize = 8;
/// Trace length range, references.
pub const REFS: (u64, u64) = (30, 70);
/// Rounds of the traced pass.
const TRACE_ROUNDS: usize = 2;

/// The simulator configuration: 10 µs per reference, 2 ms per fetch.
#[must_use]
pub fn sim_cfg() -> SimConfig {
    SimConfig {
        instr_time: Cycles::from_micros(10),
        fetch_time: Cycles::from_millis(2),
        page_size: 512,
        quantum_refs: 20,
        fetch_channels: Some(CHANNELS),
    }
}

/// The two cells of a round.
pub const CELLS: [AdmissionPolicy; 2] = [AdmissionPolicy::Open, AdmissionPolicy::WorkingSet];

/// The population and what the benchmark knows about each tenant
/// apart from the simulator.
#[derive(Clone, Debug)]
pub struct Population {
    pub specs: Vec<TenantSpec>,
    /// Trace length of each tenant.
    pub lens: Vec<u64>,
    /// Distinct pages of each tenant's stream.
    pub distinct: Vec<u64>,
}

impl Population {
    /// Draws `n` tenants from `seed`: working-set-phase streams over
    /// 12..=24 pages, 3..=6 pages a phase, 30..=60 references a phase.
    #[must_use]
    pub fn generate(seed: u64, n: usize) -> Population {
        let mut rng = Rng64::new(seed);
        let mut specs = Vec::with_capacity(n);
        let mut lens = Vec::with_capacity(n);
        let mut distinct = Vec::with_capacity(n);
        for i in 0..n {
            let pages = rng.range(12, 24);
            let cfg = RefStringCfg::WorkingSetPhases {
                pages,
                set: rng.range(3, 6),
                phase_len: rng.range(30, 60),
            };
            let len = rng.range(REFS.0, REFS.1);
            let stream_seed = rng.next_u64();
            let mut seen = 0u64;
            for a in cfg.stream(0.0, stream_seed).take(len as usize) {
                seen |= 1 << a.name.value();
            }
            distinct.push(u64::from(seen.count_ones()));
            lens.push(len);
            specs.push(TenantSpec::new(
                i as u32,
                TraceSpec::Stream {
                    cfg,
                    write_fraction: 0.0,
                    seed: stream_seed,
                    len,
                },
                QUOTA,
            ));
        }
        Population {
            specs,
            lens,
            distinct,
        }
    }

    /// A simulator for one cell.
    #[must_use]
    pub fn sim(&self, policy: AdmissionPolicy) -> EventSim {
        EventSim::new(
            sim_cfg(),
            self.specs.len(),
            policy,
            LoadControlCfg::default(),
            self.specs.clone(),
        )
    }
}

/// Checks one cell's report against the population.
///
/// # Errors
///
/// Names the first check that fails.
pub fn check_report(pop: &Population, r: &EventReport) -> Result<(), String> {
    let cfg = sim_cfg();
    if r.tenants.len() != pop.lens.len() {
        return Err(format!(
            "report has {} tenants, the population {}",
            r.tenants.len(),
            pop.lens.len()
        ));
    }
    let mut fault_sum = 0u64;
    for (i, t) in r.tenants.iter().enumerate() {
        if t.references != pop.lens[i] {
            return Err(format!(
                "tenant {i} executed {} of its {} references",
                t.references, pop.lens[i]
            ));
        }
        if t.faults < pop.distinct[i] {
            return Err(format!(
                "tenant {i} faulted {} times on {} distinct pages",
                t.faults, pop.distinct[i]
            ));
        }
        fault_sum += t.faults;
    }
    if fault_sum != r.faults {
        return Err(format!(
            "tenant faults sum to {fault_sum}, the report says {}",
            r.faults
        ));
    }
    let refs: u64 = pop.lens.iter().sum();
    if r.references != refs {
        return Err(format!(
            "report counts {} references, the population holds {refs}",
            r.references
        ));
    }
    if r.cpu_busy.as_nanos() != r.references * cfg.instr_time.as_nanos() {
        return Err(format!(
            "cpu_busy {} is not references x instr_time",
            r.cpu_busy
        ));
    }
    if r.makespan < r.cpu_busy {
        return Err(format!(
            "makespan {} is shorter than cpu_busy {}",
            r.makespan, r.cpu_busy
        ));
    }
    let fetch_ns = u128::from(r.faults) * u128::from(cfg.fetch_time.as_nanos());
    if u128::from(r.makespan.as_nanos()) * (CHANNELS as u128) < fetch_ns {
        return Err(format!(
            "makespan {} is shorter than {} faults' fetch time over {CHANNELS} channels",
            r.makespan, r.faults
        ));
    }
    Ok(())
}

/// Runs one cell through `run` (which times it), checking its report
/// into `out`. Returns the report and the run's time in ns.
fn cell(
    pop: &Population,
    policy: AdmissionPolicy,
    out: &mut Outcome,
    run: impl FnOnce(EventSim) -> (Result<EventReport, CoreError>, u64),
) -> (Option<EventReport>, u64) {
    let (result, ns) = run(pop.sim(policy));
    let refs: u64 = pop.lens.iter().sum();
    out.attempted += refs;
    match result {
        Ok(r) => {
            if let Err(e) = check_report(pop, &r) {
                out.failed += refs.saturating_sub(r.references);
                out.check(Err(format!("{policy:?}: {e}")));
            }
            (Some(r), ns)
        }
        Err(e) => {
            out.failed += refs;
            out.check(Err(format!("{policy:?}: run failed: {e}")));
            (None, ns)
        }
    }
}

/// Runs a simulator silently, timing the run.
fn silent(sim: EventSim) -> (Result<EventReport, CoreError>, u64) {
    let t = Instant::now();
    let r = sim.run(&mut NullProbe);
    (r, nanos(t.elapsed()))
}

/// Draws the population and runs both cells once untimed.
#[must_use]
pub fn prepare(seed: u64, n: usize) -> (Population, Outcome) {
    let pop = Population::generate(seed, n);
    let mut warm = Outcome::default();
    for policy in CELLS {
        cell(&pop, policy, &mut warm, silent);
    }
    (pop, warm)
}

/// The gated run.
#[must_use]
pub fn run(seed: u64, seconds: f64) -> Outcome {
    run_sized(seed, seconds, TENANTS)
}

/// [`run`] with a chosen population (the tests use small ones).
#[must_use]
pub fn run_sized(seed: u64, seconds: f64, n: usize) -> Outcome {
    let mut out = Outcome::default();
    let mut phase = TimedPhase::start(seconds);
    while let Some((pop, warm)) = phase.set_up(|| prepare(seed, n)) {
        out.violations.extend(warm.violations);
        loop {
            let mut refs = 0u64;
            let mut round_ns = 0u64;
            for policy in CELLS {
                let (r, ns) = cell(&pop, policy, &mut out, silent);
                refs += r.map_or(0, |r| r.references);
                round_ns += ns;
            }
            phase.record(round_ns);
            if !phase.next_round(refs) {
                break;
            }
        }
    }
    phase.finish(&mut out, "one round (both cells)");
    out
}

/// The traced pass.
#[must_use]
pub fn traced(seed: u64, seconds: f64, tracer: &mut Tracer) -> Outcome {
    let (pop, mut out) = prepare(seed, TENANTS);
    let refs: u64 = pop.lens.iter().sum();

    // Untraced reference for `seconds`.
    let untraced_ops_per_s = {
        let (mut n, mut ns) = (0u64, 0u64);
        let mut scratch = Outcome::default();
        while (ns as f64) / 1e9 < seconds {
            for policy in CELLS {
                let (r, t) = cell(&pop, policy, &mut scratch, silent);
                n += r.map_or(0, |r| r.references);
                ns += t;
            }
        }
        out.violations.extend(scratch.violations);
        n as f64 / (ns as f64 / 1e9)
    };

    // The two cells, each run under a span.
    let kinds = [
        tracer.kind("sched.open_run"),
        tracer.kind("sched.working_set_run"),
    ];
    let mut run_s = [Vec::new(), Vec::new()];
    let mut reports: Vec<EventReport> = Vec::new();
    for _ in 0..TRACE_ROUNDS {
        for (i, policy) in CELLS.into_iter().enumerate() {
            let (r, ns) = cell(&pop, policy, &mut out, |sim| {
                tracer.time(kinds[i], || sim.run(&mut NullProbe))
            });
            run_s[i].push(ns as f64 / 1e9);
            reports.extend(r);
        }
    }
    let open_s = median(&mut run_s[0]);
    let ws_s = median(&mut run_s[1]);
    out.metric("sched.open_run_s", open_s, "s");
    out.metric("sched.working_set_run_s", ws_s, "s");
    let traced_ops_per_s = (2 * refs) as f64 / (open_s + ws_s);

    // The isolated replays: streams alone, admission alone, LRU alone.
    let lc = LoadControlCfg::default();
    let stream_kind = tracer.kind("trace.stream_drain");
    let admission_kind = tracer.kind("stackdist.admission");
    let lru_kind = tracer.kind("paging.compact_lru_replay");
    let (mut stream_ns, mut admission_ns, mut lru_ns, mut touches) = (0u64, 0u64, 0u64, 0u64);
    let mut pages = Vec::new();
    for spec in &pop.specs {
        let TraceSpec::Stream {
            cfg,
            write_fraction,
            seed,
            len,
        } = &spec.trace
        else {
            continue;
        };
        let ((), ns) = tracer.time(stream_kind, || {
            let mut s = cfg.stream(*write_fraction, *seed);
            while s.position() < *len {
                std::hint::black_box(s.next());
            }
        });
        stream_ns += ns;
        let sample = spec.trace.sample(lc.ws_sample);
        let (allot, ns) = tracer.time(admission_kind, || {
            let est = estimate_ws(&sample, lc.ws_window);
            pick_allotment(&sample, est, spec.quota, lc.target_fault_rate)
        });
        admission_ns += ns;
        pages.clear();
        pages.extend(
            cfg.stream(*write_fraction, *seed)
                .pages()
                .take(*len as usize),
        );
        for frames in [1, allot] {
            let (faults, ns) = tracer.time(lru_kind, || {
                let mut m = CompactLru::new(frames);
                pages.iter().filter(|&&p| m.touch(p)).count()
            });
            std::hint::black_box(faults);
            lru_ns += ns;
            touches += pages.len() as u64;
        }
    }
    let n = pop.specs.len() as f64;
    out.metric(
        "trace.stream_ns_per_ref",
        stream_ns as f64 / refs as f64,
        "ns",
    );
    out.metric(
        "stackdist.admission_us_per_tenant",
        admission_ns as f64 / n / 1e3,
        "us",
    );
    out.metric(
        "paging.compact_lru_ns_per_touch",
        lru_ns as f64 / touches as f64,
        "ns",
    );
    // Each cell drains every stream once and replays its references on
    // the resident sets; the WorkingSet cell also admits every tenant.
    // What is left of the two runs is the scheduler's own time (an
    // estimate: the isolated replays run without the event loop around
    // them).
    let isolated_ns = 2 * stream_ns + admission_ns + lru_ns;
    out.metric(
        "sched.self_ns_per_ref",
        ((open_s + ws_s) * 1e9 - isolated_ns as f64) / (2 * refs) as f64,
        "ns",
    );
    let (faults, admissions, rejects, deactivations, peak) =
        reports
            .iter()
            .take(CELLS.len())
            .fold((0u64, 0u64, 0u64, 0u64, 0usize), |acc, r| {
                (
                    acc.0 + r.faults,
                    acc.1 + r.admissions,
                    acc.2 + r.admission_rejects,
                    acc.3 + r.deactivations,
                    acc.4.max(r.peak_active),
                )
            });
    out.metric("sched.faults", faults as f64, "count");
    out.metric("sched.admissions", admissions as f64, "count");
    out.metric("sched.admission_rejects", rejects as f64, "count");
    out.metric("sched.deactivations", deactivations as f64, "count");
    out.metric("sched.peak_active", peak as f64, "count");

    // The counting probe against the silent run.
    let count_kind = tracer.kind("probe.sched_counting_run");
    let null_kind = tracer.kind("probe.sched_null_run");
    let (mut null_ns, mut count_ns) = (0u64, 0u64);
    for (i, policy) in CELLS.into_iter().enumerate() {
        let sim = pop.sim(policy);
        let (_, ns) = tracer.time(null_kind, || sim.run(&mut NullProbe));
        null_ns += ns;
        let sim = pop.sim(policy);
        let mut probe = CountingProbe::new();
        let (r, ns) = tracer.time(count_kind, || sim.run(&mut probe));
        count_ns += ns;
        if let Ok(r) = r {
            out.check(check_sched_probe(&r, &probe).map_err(|e| format!("{policy:?}: {e}")));
            if Some(r.faults) != reports.get(i).map(|x| x.faults) {
                out.check(Err(format!("{policy:?}: probing changed the run")));
            }
        }
    }
    out.metric(
        "probe.sched_counting_overhead_pct",
        (count_ns as f64 / null_ns as f64 - 1.0) * 100.0,
        "%",
    );

    // Both cells through the sweep engine at 1 and 2 workers.
    let sweep_kind = tracer.kind("exec.tenant_sweep");
    let points: Vec<SweepPoint> = CELLS
        .iter()
        .map(|&policy| SweepPoint {
            tenants: pop.specs.len(),
            frames: pop.specs.len(),
            policy,
        })
        .collect();
    let mut sweep = |jobs: usize| {
        let (cells, ns) = tracer.time(sweep_kind, || {
            tenant_sweep(jobs, points.clone(), sim_cfg(), lc, |_| pop.specs.clone())
        });
        let faults: Vec<u64> = cells
            .into_iter()
            .map(|c| c.map_or(u64::MAX, |c| c.report.faults))
            .collect();
        (faults, ns)
    };
    let (f1, ns1) = sweep(1);
    let (f2, ns2) = sweep(2);
    let expected: Vec<u64> = reports.iter().take(CELLS.len()).map(|r| r.faults).collect();
    if f1 != f2 || f1 != expected {
        out.check(Err(
            "the sweep's reports differ with the worker count".into()
        ));
    }
    out.metric("exec.grid_speedup_2", ns1 as f64 / ns2 as f64, "x");

    out.metric(
        "tracing.tenant_population_overhead_pct",
        (untraced_ops_per_s / traced_ops_per_s - 1.0) * 100.0,
        "%",
    );
    out.notes.push(format!(
        "tenant_population: untraced {untraced_ops_per_s:.0} refs/s, traced {traced_ops_per_s:.0} refs/s; \
         grid speed-up at 2 workers {:.3}x on {} available cpus",
        ns1 as f64 / ns2 as f64,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    ));
    out
}

/// Checks a `CountingProbe` attached to a scheduler run against its
/// report: faults, admissions, rejects and deactivations.
///
/// # Errors
///
/// Names the first total that disagrees.
pub fn check_sched_probe(r: &EventReport, c: &CountingProbe) -> Result<(), String> {
    for (what, probe, report) in [
        ("faults", c.faults, r.faults),
        ("admissions", c.tenants_admitted, r.admissions),
        (
            "admission rejects",
            c.admission_rejects,
            r.admission_rejects,
        ),
        ("deactivations", c.tenants_deactivated, r.deactivations),
    ] {
        if probe != report {
            return Err(format!("probe counts {probe} {what}, the report {report}"));
        }
    }
    Ok(())
}
