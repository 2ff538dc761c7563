//! `placement_churn`: one seeded allocation stream replayed on a
//! `FreeListAllocator` under each of the paper's placement strategies.
//!
//! The store holds [`STORE_WORDS`] words at a live target of 80%, with
//! request sizes exponential around [`MEAN_WORDS`] words, so thousands
//! of holes stand between the live blocks and host-side hole search
//! dominates. A refused request is followed by `compaction::compact`
//! and one retry; only a refusal after compaction counts as failed.
//!
//! A round replays the whole stream under every policy, then frees the
//! blocks still live, so each pass starts from an empty store. After
//! each pass (before those frees) the allocator's own invariant check
//! runs, its allocated words are compared with the benchmark's tally of
//! live request sizes, and its live blocks must be exactly the stream's
//! live ids, inside the store and pairwise disjoint. In set-up, an
//! untimed prefix of the stream checks every placement choice against a
//! plain hole list the benchmark keeps itself.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::time::Instant;

use dsa_core::access::AllocEvent;
use dsa_core::error::AllocError;
use dsa_freelist::{compact, CompactionReport, FreeListAllocator, Placement};
use dsa_trace::allocstream::{AllocStreamCfg, SizeDist};
use dsa_trace::rng::Rng64;

use crate::report::{nanos, Outcome, TimedPhase};
use crate::span::Tracer;

/// Compacts `a`, timing the pass.
fn timed_compact(a: &mut FreeListAllocator) -> (CompactionReport, u64) {
    let t = Instant::now();
    let rep = compact(a, |_, _, _, _| {});
    (rep, nanos(t.elapsed()))
}

/// Store size, words.
pub const STORE_WORDS: u64 = 1 << 20;
/// Mean request size, words.
pub const MEAN_WORDS: f64 = 96.0;
/// Largest request, words.
pub const MAX_WORDS: u64 = 4096;
/// Two-ends split: requests of at least this many words are placed from
/// the high end.
pub const TWO_ENDS_THRESHOLD: u64 = 256;
/// Events in the stream (one round replays it under every policy).
pub const EVENTS: usize = 60_000;
/// Events of the set-up prefix whose placement choices are checked.
pub const CHECKED_PREFIX: usize = 15_000;
/// Requests per timed batch.
pub const BATCH_OPS: usize = 256;
/// Rounds of the traced pass.
const TRACE_ROUNDS: usize = 2;

/// The five policies, in the order a round runs them, with their
/// metric-name stems and the traced run's span names.
#[must_use]
pub fn policies() -> [(Placement, &'static str, &'static str); 5] {
    [
        (Placement::FirstFit, "first_fit", "freelist.first_fit_pass"),
        (Placement::NextFit, "next_fit", "freelist.next_fit_pass"),
        (Placement::BestFit, "best_fit", "freelist.best_fit_pass"),
        (Placement::WorstFit, "worst_fit", "freelist.worst_fit_pass"),
        (
            Placement::TwoEnds {
                threshold: TWO_ENDS_THRESHOLD,
            },
            "two_ends",
            "freelist.two_ends_pass",
        ),
    ]
}

/// One request of the stream, with the size of the block a free
/// releases (so the replay keeps its tally without a lookup).
#[derive(Clone, Copy, Debug)]
pub enum Req {
    Alloc { id: u64, size: u64 },
    Free { id: u64, size: u64 },
}

/// The stream and what the benchmark knows about it apart from the
/// allocator.
#[derive(Clone, Debug)]
pub struct Stream {
    pub reqs: Vec<Req>,
    /// Ids live after the last request, with their sizes.
    pub live_at_end: Vec<(u64, u64)>,
}

impl Stream {
    /// Generates the stream from `seed` through `dsa-trace`.
    #[must_use]
    pub fn generate(seed: u64, events: usize) -> Stream {
        let cfg = AllocStreamCfg {
            sizes: SizeDist::Exponential {
                mean: MEAN_WORDS,
                cap: MAX_WORDS,
            },
            mean_lifetime: 20_000.0,
            target_live_words: STORE_WORDS * 4 / 5,
        };
        let events = cfg.generate(events, &mut Rng64::new(seed));
        let mut sizes: HashMap<u64, u64> = HashMap::new();
        let mut reqs = Vec::with_capacity(events.len());
        for e in events {
            match e {
                AllocEvent::Alloc(r) => {
                    sizes.insert(r.id, r.size);
                    reqs.push(Req::Alloc {
                        id: r.id,
                        size: r.size,
                    });
                }
                AllocEvent::Free { id } => {
                    let size = sizes.remove(&id).expect("the stream frees only live ids");
                    reqs.push(Req::Free { id, size });
                }
            }
        }
        let mut live_at_end: Vec<(u64, u64)> = sizes.into_iter().collect();
        live_at_end.sort_unstable();
        Stream { reqs, live_at_end }
    }
}

/// What one policy pass did.
#[derive(Clone, Copy, Debug, Default)]
pub struct PassCounts {
    pub requests: u64,
    pub failed: u64,
    pub compactions: u64,
    pub words_moved: u64,
    pub compaction_ns: u64,
}

/// Replays the stream on `a` (which must be empty), compacting through
/// `compactor` (which returns the report and the ns it took) and
/// retrying once on refusal; pushes the duration of every
/// [`BATCH_OPS`] requests to `record`. Returns the counts and the
/// benchmark's tally of live words at the end of the stream.
pub fn replay(
    a: &mut FreeListAllocator,
    s: &Stream,
    record: &mut dyn FnMut(u64),
    mut compactor: impl FnMut(&mut FreeListAllocator) -> (CompactionReport, u64),
) -> (PassCounts, u64) {
    let mut c = PassCounts::default();
    let mut live_words = 0u64;
    let mut refused: HashSet<u64> = HashSet::new();
    let mut t0 = Instant::now();
    for chunk in s.reqs.chunks(BATCH_OPS) {
        for &r in chunk {
            c.requests += 1;
            match r {
                Req::Alloc { id, size } => {
                    let ok = match a.alloc(id, size) {
                        Ok(_) => true,
                        Err(AllocError::OutOfStorage { .. }) => {
                            let (rep, ns) = compactor(a);
                            c.compaction_ns += ns;
                            c.compactions += 1;
                            c.words_moved += rep.words_moved;
                            a.alloc(id, size).is_ok()
                        }
                        Err(_) => false,
                    };
                    if ok {
                        live_words += size;
                    } else {
                        c.failed += 1;
                        refused.insert(id);
                    }
                }
                Req::Free { id, size } => {
                    if refused.remove(&id) {
                        // Its alloc already counted as failed; the free
                        // has nothing to release and fails with it.
                        c.failed += 1;
                    } else if a.free(id).is_ok() {
                        live_words -= size;
                    } else {
                        c.failed += 1;
                    }
                }
            }
        }
        let t1 = Instant::now();
        record(nanos(t1 - t0));
        t0 = t1;
    }
    (c, live_words)
}

/// Frees the stream's live-at-end ids; returns (requests, failures).
pub fn drain(a: &mut FreeListAllocator, s: &Stream, record: &mut dyn FnMut(u64)) -> (u64, u64) {
    let mut failed = 0;
    let mut t0 = Instant::now();
    for chunk in s.live_at_end.chunks(BATCH_OPS) {
        for &(id, _) in chunk {
            if a.free(id).is_err() {
                failed += 1;
            }
        }
        let t1 = Instant::now();
        record(nanos(t1 - t0));
        t0 = t1;
    }
    (s.live_at_end.len() as u64, failed)
}

/// The end-of-pass checks: the allocator's invariants, its allocated
/// words against the benchmark's tally, and its live blocks against the
/// stream's live ids, inside the store and pairwise disjoint.
///
/// # Errors
///
/// Names the first check that fails.
pub fn check_pass(
    a: &FreeListAllocator,
    s: &Stream,
    tally_words: u64,
    label: &str,
) -> Result<(), String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| a.check_invariants()))
        .map_err(|_| format!("{label}: check_invariants failed"))?;
    if a.allocated_words() != tally_words {
        return Err(format!(
            "{label}: allocator holds {} words live, the benchmark's tally is {tally_words}",
            a.allocated_words()
        ));
    }
    let blocks: Vec<(u64, u64, u64)> = a
        .allocations_by_address()
        .into_iter()
        .map(|(id, addr, size)| (addr, id, size))
        .collect();
    let mut ids: Vec<u64> = blocks.iter().map(|&(_, id, _)| id).collect();
    ids.sort_unstable();
    let expected: Vec<u64> = s.live_at_end.iter().map(|&(id, _)| id).collect();
    if ids != expected {
        return Err(format!(
            "{label}: {} blocks live, the stream leaves {} live",
            ids.len(),
            expected.len()
        ));
    }
    check_blocks(&blocks, a.capacity()).map_err(|e| format!("{label}: {e}"))
}

/// Checks `(address, id, size)` blocks lie inside `[0, capacity)` and
/// are pairwise disjoint.
///
/// # Errors
///
/// Names the first block outside the store or overlapping pair.
pub fn check_blocks(blocks: &[(u64, u64, u64)], capacity: u64) -> Result<(), String> {
    let mut v: Vec<(u64, u64, u64)> = blocks.to_vec();
    v.sort_unstable();
    for &(addr, id, size) in &v {
        if addr + size > capacity {
            return Err(format!(
                "block {id} at {addr}+{size} lies outside the store"
            ));
        }
    }
    for w in v.windows(2) {
        if w[0].0 + w[0].2 > w[1].0 {
            return Err(format!("blocks {} and {} overlap", w[0].1, w[1].1));
        }
    }
    Ok(())
}

/// A plain address-ordered hole list, kept by the benchmark apart from
/// the allocator, that says where each policy must place a request.
#[derive(Clone, Debug)]
pub struct RefHoles {
    holes: BTreeMap<u64, u64>,
    /// Next-fit's roving pointer: the end of the last placed block.
    rover: u64,
}

impl RefHoles {
    /// One hole covering the whole store.
    #[must_use]
    pub fn new(capacity: u64) -> RefHoles {
        RefHoles {
            holes: BTreeMap::from([(0, capacity)]),
            rover: 0,
        }
    }

    /// A hole list with the given `(address, size)` holes (for tests).
    #[must_use]
    pub fn with_holes(holes: &[(u64, u64)]) -> RefHoles {
        RefHoles {
            holes: holes.iter().copied().collect(),
            rover: 0,
        }
    }

    /// The address `policy` must return for a `size`-word request, by a
    /// linear scan of the hole list; `None` when no hole fits.
    #[must_use]
    pub fn expected(&self, policy: Placement, size: u64) -> Option<u64> {
        let fits = || self.holes.iter().filter(|&(_, &h)| h >= size);
        match policy {
            Placement::FirstFit => fits().next().map(|(&a, _)| a),
            Placement::NextFit => fits()
                .find(|&(&a, _)| a >= self.rover)
                .or_else(|| fits().next())
                .map(|(&a, _)| a),
            Placement::BestFit => fits().min_by_key(|&(&a, &h)| (h, a)).map(|(&a, _)| a),
            Placement::WorstFit => fits()
                .min_by_key(|&(&a, &h)| (std::cmp::Reverse(h), a))
                .map(|(&a, _)| a),
            Placement::TwoEnds { threshold } => {
                if size < threshold {
                    fits().next().map(|(&a, _)| a)
                } else {
                    fits().next_back().map(|(&a, &h)| a + h - size)
                }
            }
        }
    }

    /// Checks the allocator's choice against [`RefHoles::expected`].
    ///
    /// # Errors
    ///
    /// Describes the choice and the one the policy requires.
    pub fn check_choice(&self, policy: Placement, size: u64, got: u64) -> Result<(), String> {
        let want = self.expected(policy, size);
        if want == Some(got) {
            return Ok(());
        }
        let hole = |addr: Option<u64>| {
            addr.and_then(|x| self.holes.range(..=x).next_back())
                .map_or_else(|| "none".to_owned(), |(&a, &h)| format!("{h} words at {a}"))
        };
        Err(format!(
            "{}: a {size}-word request went to {got} (hole of {}); the policy requires {} (hole of {})",
            policy.label(),
            hole(Some(got)),
            want.map_or_else(|| "a refusal".to_owned(), |w| w.to_string()),
            hole(want)
        ))
    }

    /// Records an allocation at `addr`.
    pub fn take(&mut self, addr: u64, size: u64) {
        let (&start, &len) = self
            .holes
            .range(..=addr)
            .next_back()
            .expect("a checked choice lies in a hole");
        self.holes.remove(&start);
        if addr > start {
            self.holes.insert(start, addr - start);
        }
        if addr + size < start + len {
            self.holes.insert(addr + size, start + len - addr - size);
        }
        self.rover = addr + size;
    }

    /// Records a free, coalescing with neighbouring holes.
    pub fn give(&mut self, addr: u64, size: u64) {
        let (mut start, mut end) = (addr, addr + size);
        if let Some((&a, &h)) = self.holes.range(..addr).next_back() {
            if a + h == addr {
                self.holes.remove(&a);
                start = a;
            }
        }
        if let Some(h) = self.holes.remove(&end) {
            end += h;
        }
        self.holes.insert(start, end - start);
    }
}

/// Replays the first `prefix` requests on a fresh allocator under
/// `policy`, checking every placement against [`RefHoles`]. Stops at the
/// first refusal (compaction would move every block).
///
/// # Errors
///
/// The first wrong choice.
pub fn check_prefix(policy: Placement, s: &Stream, prefix: usize) -> Result<u64, String> {
    let mut a = FreeListAllocator::new(STORE_WORDS, policy);
    let mut refs = RefHoles::new(STORE_WORDS);
    let mut at: HashMap<u64, (u64, u64)> = HashMap::new();
    let mut checked = 0;
    for &r in s.reqs.iter().take(prefix) {
        match r {
            Req::Alloc { id, size } => {
                let Ok(addr) = a.alloc(id, size) else {
                    break;
                };
                refs.check_choice(policy, size, addr.0)?;
                refs.take(addr.0, size);
                at.insert(id, (addr.0, size));
                checked += 1;
            }
            Req::Free { id, .. } => {
                a.free(id)
                    .map_err(|e| format!("{}: free {id}: {e}", policy.label()))?;
                let (addr, size) = at.remove(&id).expect("freed ids were placed");
                refs.give(addr, size);
            }
        }
    }
    Ok(checked)
}

/// What set-up hands to the timed phase.
pub struct Prepared {
    pub stream: Stream,
    pub allocators: Vec<FreeListAllocator>,
    /// The prefix checks' outcome (choices checked, or the first wrong
    /// one).
    pub prefix: Result<u64, String>,
}

/// Generates the stream, checks the prefix under every policy, and
/// builds one empty allocator per policy.
#[must_use]
pub fn prepare(seed: u64, events: usize) -> Prepared {
    let stream = Stream::generate(seed, events);
    let mut prefix = Ok(0);
    for (p, _, _) in policies() {
        prefix = prefix.and_then(|n| Ok(n + check_prefix(p, &stream, CHECKED_PREFIX)?));
    }
    let allocators = policies()
        .iter()
        .map(|&(p, _, _)| FreeListAllocator::new(STORE_WORDS, p))
        .collect();
    Prepared {
        stream,
        allocators,
        prefix,
    }
}

/// One pass of the stream on `a` with its end-of-pass checks and the
/// frees that empty the store again.
fn pass(
    a: &mut FreeListAllocator,
    s: &Stream,
    label: &str,
    record: &mut dyn FnMut(u64),
    out: &mut Outcome,
) -> PassCounts {
    let (mut c, tally) = replay(a, s, record, timed_compact);
    out.check(check_pass(a, s, tally, label));
    let (n, failed) = drain(a, s, record);
    c.requests += n;
    c.failed += failed;
    if a.allocated_words() != 0 {
        out.check(Err(format!(
            "{label}: store not empty after the final frees"
        )));
    }
    c
}

/// The gated run.
#[must_use]
pub fn run(seed: u64, seconds: f64) -> Outcome {
    run_sized(seed, seconds, EVENTS)
}

/// [`run`] with a chosen stream length (the tests use short streams).
#[must_use]
pub fn run_sized(seed: u64, seconds: f64, events: usize) -> Outcome {
    let mut out = Outcome::default();
    let mut phase = TimedPhase::start(seconds);
    while let Some(mut p) = phase.set_up(|| prepare(seed, events)) {
        out.check(p.prefix.clone().map(|_| ()));
        loop {
            let requests = out.attempted;
            for (a, (_, label, _)) in p.allocators.iter_mut().zip(policies()) {
                let c = pass(a, &p.stream, label, &mut |ns| phase.record(ns), &mut out);
                out.attempted += c.requests;
                out.failed += c.failed;
            }
            if !phase.next_round(out.attempted - requests) {
                break;
            }
        }
    }
    phase.finish(&mut out, &format!("{BATCH_OPS} requests"));
    out
}

/// The traced pass: untraced reference for `seconds`, then
/// [`TRACE_ROUNDS`] rounds on fresh allocators with a span around each
/// policy pass and each compaction.
#[must_use]
pub fn traced(seed: u64, seconds: f64, tracer: &mut Tracer) -> Outcome {
    let mut p = prepare(seed, EVENTS);
    let mut out = Outcome::default();
    out.check(p.prefix.clone().map(|_| ()));

    let untraced_ops_per_s = {
        let mut scratch = Outcome::default();
        let (mut requests, mut ns) = (0u64, 0u64);
        while (ns as f64) / 1e9 < seconds {
            let t = Instant::now();
            for (a, (_, label, _)) in p.allocators.iter_mut().zip(policies()) {
                requests += pass(a, &p.stream, label, &mut |_| {}, &mut scratch).requests;
            }
            ns += nanos(t.elapsed());
        }
        out.check(if scratch.correct() {
            Ok(())
        } else {
            Err(scratch.violations.join("; "))
        });
        requests as f64 / (ns as f64 / 1e9)
    };

    let round_kind = tracer.kind("bench.placement_round");
    let compact_kind = tracer.kind("freelist.compact");
    let mut totals = PassCounts::default();
    let mut traced_ns = 0u64;
    let mut fresh: Vec<FreeListAllocator> = policies()
        .iter()
        .map(|&(p, _, _)| FreeListAllocator::new(STORE_WORDS, p))
        .collect();
    let kinds: Vec<_> = policies()
        .iter()
        .map(|&(_, _, span)| tracer.kind(span))
        .collect();
    // Per policy: time in its replays and the requests they made (the
    // frees that empty the store afterwards run untraced).
    let mut replay_ns = vec![0u64; kinds.len()];
    let mut replay_requests = vec![0u64; kinds.len()];
    for _ in 0..TRACE_ROUNDS {
        tracer.enter(round_kind);
        for (i, (a, (_, label, _))) in fresh.iter_mut().zip(policies()).enumerate() {
            tracer.enter(kinds[i]);
            let (c, tally) = replay(a, &p.stream, &mut |_| {}, |a| {
                tracer.time(compact_kind, || compact(a, |_, _, _, _| {}))
            });
            replay_ns[i] += tracer.exit();
            replay_requests[i] += c.requests;
            out.check(check_pass(a, &p.stream, tally, label));
            let (n, failed) = drain(a, &p.stream, &mut |_| {});
            totals.requests += c.requests + n;
            totals.failed += c.failed + failed;
            totals.compactions += c.compactions;
            totals.words_moved += c.words_moved;
            totals.compaction_ns += c.compaction_ns;
        }
        traced_ns += tracer.exit();
    }
    out.attempted += totals.requests;
    out.failed += totals.failed;
    for (i, (a, (_, label, _))) in fresh.iter().zip(policies()).enumerate() {
        out.metric(
            format!("freelist.{label}_ns_per_op"),
            replay_ns[i] as f64 / replay_requests[i] as f64,
            "ns",
        );
        out.metric(
            format!("freelist.{label}_probes_per_alloc"),
            a.stats().mean_search(),
            "probes",
        );
    }
    out.metric("freelist.compactions", totals.compactions as f64, "count");
    out.metric(
        "freelist.compaction_words_moved",
        totals.words_moved as f64,
        "words",
    );
    out.metric(
        "freelist.compaction_ms",
        totals.compaction_ns as f64 / 1e6,
        "ms",
    );
    let traced_ops_per_s = totals.requests as f64 / (traced_ns as f64 / 1e9);
    out.metric(
        "tracing.placement_churn_overhead_pct",
        (untraced_ops_per_s / traced_ops_per_s - 1.0) * 100.0,
        "%",
    );
    out.notes.push(format!(
        "placement_churn: untraced {untraced_ops_per_s:.0} requests/s, traced {traced_ops_per_s:.0} requests/s"
    ));
    out
}
