//! Smoke-size runs of every workload, and one negative test per output
//! check: each check must reject a tampered output.

use dsa_freelist::Placement;
use dsa_machines::presets::machine_by_index;
use dsa_perfbench::report::Outcome;
use dsa_perfbench::{heap, placement, survey, tenants};
use dsa_probe::{CountingProbe, NullProbe};
use dsa_sched::AdmissionPolicy;
use dsa_trace::rng::Rng64;

const END_TO_END: [&str; 5] = [
    "ops_per_s",
    "setup_s",
    "peak_rss_mb",
    "batch_us_p50",
    "batch_us_p99",
];

fn assert_clean(name: &str, out: &Outcome) {
    assert!(out.correct(), "{name}: {:?}", out.violations);
    assert!(out.attempted > 0, "{name}: nothing attempted");
    assert_eq!(out.failed, 0, "{name}: failed operations");
    let names: Vec<&str> = out.metrics.iter().map(|m| m.name.as_str()).collect();
    assert_eq!(names, END_TO_END, "{name}: end-to-end metrics");
    for m in &out.metrics {
        assert!(
            m.value.is_finite() && m.value > 0.0,
            "{name}: {} = {}",
            m.name,
            m.value
        );
    }
    let manifest = include_str!("../../BENCHMARK.json");
    for m in &out.metrics {
        let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", m.name, m.unit);
        assert!(
            manifest.contains(&entry),
            "{name}: {entry} not in BENCHMARK.json"
        );
    }
}

#[test]
fn heap_churn_smoke() {
    assert_clean("heap_churn", &heap::run_sized(1, 0.01, 5_000));
}

#[test]
fn placement_churn_smoke() {
    assert_clean("placement_churn", &placement::run_sized(1, 0.01, 6_000));
}

#[test]
fn tenant_population_smoke() {
    assert_clean("tenant_population", &tenants::run_sized(1, 0.01, 300));
}

#[test]
fn machine_survey_smoke() {
    assert_clean("machine_survey", &survey::run_sized(1, 0.01, 2_000));
}

#[test]
fn overlapping_blocks_are_rejected() {
    let mut ok = vec![(0x1000, 64), (0x1040, 64), (0x2000, 8)];
    assert!(heap::check_disjoint(&mut ok).is_ok());
    let mut overlapping = vec![(0x1000, 64), (0x1038, 64)];
    let err = heap::check_disjoint(&mut overlapping).unwrap_err();
    assert!(err.contains("overlap"), "{err}");
}

#[test]
fn heap_path_counts_must_match_the_calls() {
    let heap = dsa_alloc::DsaHeap::new(dsa_alloc::HeapConfig::small());
    let stats0 = heap.stats();
    let tel0 = heap.telemetry().counters();
    let script = heap::Script::generate(3, 2_000, 256);
    let mut r = heap::Replayer::new(256);
    {
        let mut b = heap::Cached::new(&heap);
        for &op in &script.ops {
            r.step(&mut b, op);
        }
    }
    let stats = heap::stats_delta(&stats0, &heap.stats());
    let tel = heap.telemetry().delta(&tel0);
    assert_eq!(heap::check_path_counts(&r.tally, &stats, &tel), Ok(()));
    let mut tampered = r.tally;
    tampered.allocs += 1;
    assert!(heap::check_path_counts(&tampered, &stats, &tel).is_err());
    let mut tampered = r.tally;
    tampered.frees -= 1;
    assert!(heap::check_path_counts(&tampered, &stats, &tel).is_err());
}

#[test]
fn a_best_fit_choice_that_is_not_the_smallest_fitting_hole_is_rejected() {
    let holes = placement::RefHoles::with_holes(&[(0, 50), (100, 20), (200, 30), (300, 19)]);
    assert_eq!(holes.check_choice(Placement::BestFit, 20, 100), Ok(()));
    let err = holes.check_choice(Placement::BestFit, 20, 0).unwrap_err();
    assert!(
        err.contains("best-fit") && err.contains("requires 100"),
        "{err}"
    );
    assert!(holes.check_choice(Placement::BestFit, 20, 200).is_err());
    assert_eq!(holes.check_choice(Placement::FirstFit, 20, 0), Ok(()));
    assert!(holes.check_choice(Placement::FirstFit, 20, 100).is_err());
    assert_eq!(holes.check_choice(Placement::WorstFit, 20, 0), Ok(()));
    assert_eq!(
        holes.check_choice(Placement::TwoEnds { threshold: 10 }, 20, 210),
        Ok(())
    );
    assert!(holes.check_choice(Placement::BestFit, 60, 0).is_err());
}

#[test]
fn the_hole_list_follows_allocations_and_coalescing_frees() {
    let mut holes = placement::RefHoles::new(100);
    holes.take(0, 10);
    holes.take(10, 10);
    assert_eq!(holes.expected(Placement::FirstFit, 5), Some(20));
    holes.give(0, 10);
    assert_eq!(holes.expected(Placement::BestFit, 5), Some(0));
    holes.give(10, 10);
    assert_eq!(holes.expected(Placement::FirstFit, 100), Some(0));
    // Next-fit resumes after the last placement and wraps.
    holes.take(0, 90);
    assert_eq!(holes.expected(Placement::NextFit, 5), Some(90));
    assert_eq!(holes.expected(Placement::NextFit, 20), None);
}

#[test]
fn placement_prefix_matches_the_reference_under_every_policy() {
    let s = placement::Stream::generate(5, 4_000);
    for (p, label, _) in placement::policies() {
        let checked = placement::check_prefix(p, &s, 4_000).unwrap_or_else(|e| panic!("{e}"));
        assert!(checked > 1_000, "{label}: only {checked} choices checked");
    }
}

#[test]
fn a_tenant_short_of_its_references_is_rejected() {
    let pop = tenants::Population::generate(4, 200);
    let report = pop
        .sim(AdmissionPolicy::WorkingSet)
        .run(&mut NullProbe)
        .expect("compact resident sets cannot fail");
    assert_eq!(tenants::check_report(&pop, &report), Ok(()));

    let mut short = report.clone();
    short.tenants[7].references -= 1;
    let err = tenants::check_report(&pop, &short).unwrap_err();
    assert!(err.contains("tenant 7 executed"), "{err}");

    let mut faults = report.clone();
    faults.faults += 1;
    assert!(tenants::check_report(&pop, &faults).is_err());

    let mut busy = report.clone();
    busy.makespan = busy.cpu_busy - dsa_core::clock::Cycles::from_nanos(1);
    assert!(tenants::check_report(&pop, &busy).is_err());
}

#[test]
fn a_probe_total_that_disagrees_with_its_report_is_rejected() {
    let program = survey::program_cfg(2_000).generate(&mut Rng64::new(6));
    for i in 0..survey::PRESETS.len() {
        let mut probe = CountingProbe::new();
        let report = machine_by_index(i)
            .run_probed(&program.ops, &mut probe)
            .expect("the survey program runs everywhere");
        let name = survey::PRESETS[i];
        assert_eq!(survey::check_probe(name, &report, &probe), Ok(()));
        let mut tampered = probe.clone();
        tampered.faults += 1;
        let err = survey::check_probe(name, &report, &tampered).unwrap_err();
        assert!(err.contains("faults"), "{err}");
    }
    let pop = tenants::Population::generate(4, 100);
    let mut probe = CountingProbe::new();
    let report = pop
        .sim(AdmissionPolicy::WorkingSet)
        .run(&mut probe)
        .expect("compact resident sets cannot fail");
    assert_eq!(tenants::check_sched_probe(&report, &probe), Ok(()));
    probe.tenants_admitted += 1;
    assert!(tenants::check_sched_probe(&report, &probe).is_err());
}

#[test]
fn a_survey_run_that_differs_from_the_first_is_rejected() {
    let program = survey::program_cfg(2_000).generate(&mut Rng64::new(6));
    let first = machine_by_index(0).run(&program.ops).expect("runs");
    let again = machine_by_index(0).run(&program.ops).expect("runs");
    assert_eq!(
        survey::check_run("atlas", &program, &again, Some(&first)),
        Ok(())
    );
    let mut drifted = again.clone();
    drifted.map_time += dsa_core::clock::Cycles::from_nanos(1);
    assert!(survey::check_run("atlas", &program, &drifted, Some(&first)).is_err());
    let mut short = again;
    short.touches -= 1;
    assert!(survey::check_run("atlas", &program, &short, None).is_err());
}

#[test]
fn no_preset_refuses_a_segment_of_the_survey_program_on_forty_seeds() {
    // Allocation failures depend on the segment count and sizes, not on
    // the number of touches, so a short program stands in for the gated
    // one.
    for seed in 0..40 {
        let program = survey::program_cfg(1_000).generate(&mut Rng64::new(seed));
        for (i, name) in survey::PRESETS.iter().enumerate() {
            let r = machine_by_index(i).run(&program.ops).expect("runs");
            assert_eq!(
                survey::check_run(name, &program, &r, None),
                Ok(()),
                "seed {seed}"
            );
        }
    }
}
