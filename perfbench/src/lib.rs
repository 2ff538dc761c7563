//! The repository benchmark.
//!
//! Four workloads, each timed over whole phases of work in one process
//! on one thread, each checking the program's outputs against
//! computations made apart from the program:
//!
//! * [`heap`] — `heap_churn`, the real allocator's hot path;
//! * [`placement`] — `placement_churn`, the 1967 placement strategies;
//! * [`tenants`] — `tenant_population`, the event-driven scheduler;
//! * [`survey`] — `machine_survey`, the seven appendix machines.
//!
//! [`traced`] is the separate per-layer run: spans around the calls
//! into each layer, recorded by [`span::Tracer`].

pub mod heap;
pub mod placement;
pub mod report;
pub mod span;
pub mod survey;
pub mod tenants;
pub mod traced;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "heap_churn",
    "placement_churn",
    "tenant_population",
    "machine_survey",
];
