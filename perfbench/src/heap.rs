//! `heap_churn`: mixed-size alloc/free churn through two `ThreadCache`s
//! over one `DsaHeap`, the real-allocator hot path.
//!
//! The script is a window of live slots. Each step frees the block in a
//! random slot (if one is live) and allocates a new block there; at the
//! end of a round every block still live is freed, so each round starts
//! from an empty window. Sizes are mostly jemalloc-ladder sizes
//! (8..=2048 bytes); one request in [`LARGE_ONE_IN`] is past the ladder
//! and takes the arena's large path. One free in [`HANDOFF_ONE_IN`] goes
//! through a second cache on the same thread: the allocator traffic of a
//! hand-off between two mutators, which moves magazines through the
//! depots.
//!
//! Every block gets a tag written into its first and last word; every
//! free checks that both survived. Before each round's final frees, all
//! live blocks are checked for pairwise disjointness, alignment and
//! intact tags, apart from the heap's own books.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use dsa_alloc::{DsaHeap, HeapConfig, HeapStats, ThreadCache};
use dsa_core::sizeclass::SizeClasses;
use dsa_probe::CountingProbe;
use dsa_trace::rng::Rng64;

use crate::report::{nanos, NsHistogram, Outcome, TimedPhase};
use crate::span::{Kind, Tracer};

/// Calls per timed batch.
pub const BATCH_OPS: usize = 256;
/// Live slots in the window.
pub const SLOTS: usize = 1024;
/// Steps per round (each step is a free, if the slot is live, and an
/// alloc).
pub const STEPS: usize = 200_000;
/// One request in this many is past the ladder (2056..=16384 bytes).
pub const LARGE_ONE_IN: u64 = 32;
/// One free in this many goes through the second cache.
pub const HANDOFF_ONE_IN: u64 = 8;
/// One request in this many asks for 64-byte alignment.
pub const ALIGNED_ONE_IN: u64 = 16;
/// The largest ladder size, bytes.
pub const LADDER_MAX: u64 = 2048;
const LARGE_MAX: u64 = 16_384;
/// Rounds of the traced pass (fixed, so its counts repeat exactly).
const TRACE_ROUNDS: usize = 12;

/// One allocator call of the script.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Alloc { slot: u32, size: u32, align: u32 },
    Free { slot: u32, handoff: bool },
}

/// A round of calls. `ops[..checkpoint]` is the churn, `ops[checkpoint..]`
/// frees every block still live.
#[derive(Clone, Debug)]
pub struct Script {
    pub ops: Vec<Op>,
    pub checkpoint: usize,
}

impl Script {
    /// Generates a round from `seed`.
    #[must_use]
    pub fn generate(seed: u64, steps: usize, slots: usize) -> Script {
        let classes = SizeClasses::jemalloc(8, LADDER_MAX);
        let ladder = classes.classes();
        let mut rng = Rng64::new(seed);
        let mut live = vec![false; slots];
        let mut ops = Vec::with_capacity(steps * 2 + slots);
        for _ in 0..steps {
            let slot = rng.below(slots as u64) as usize;
            if live[slot] {
                ops.push(Op::Free {
                    slot: slot as u32,
                    handoff: rng.below(HANDOFF_ONE_IN) == 0,
                });
            }
            let size = if rng.below(LARGE_ONE_IN) == 0 {
                8 * rng.range(LADDER_MAX / 8 + 1, LARGE_MAX / 8)
            } else {
                let c = rng.below(ladder.len() as u64) as usize;
                let lo = if c == 0 { 8 } else { ladder[c - 1] + 8 };
                8 * rng.range(lo / 8, ladder[c] / 8)
            };
            let align = if rng.below(ALIGNED_ONE_IN) == 0 {
                64
            } else {
                8
            };
            ops.push(Op::Alloc {
                slot: slot as u32,
                size: size as u32,
                align,
            });
            live[slot] = true;
        }
        let checkpoint = ops.len();
        for (slot, _) in live.iter().enumerate().filter(|(_, &l)| l) {
            ops.push(Op::Free {
                slot: slot as u32,
                handoff: false,
            });
        }
        Script { ops, checkpoint }
    }
}

/// Where a script's calls go.
pub trait Backend {
    fn alloc(&mut self, layout: Layout) -> *mut u8;
    /// # Safety
    ///
    /// `ptr` must be live and allocated by this backend with `layout`.
    unsafe fn free(&mut self, ptr: *mut u8, layout: Layout, handoff: bool);
}

/// The measured path: two thread caches over one heap.
pub struct Cached<'h> {
    pub a: ThreadCache<'h>,
    pub b: ThreadCache<'h>,
}

impl<'h> Cached<'h> {
    #[must_use]
    pub fn new(heap: &'h DsaHeap) -> Cached<'h> {
        Cached {
            a: ThreadCache::new(heap),
            b: ThreadCache::new(heap),
        }
    }
}

impl Backend for Cached<'_> {
    #[inline]
    fn alloc(&mut self, layout: Layout) -> *mut u8 {
        self.a.alloc(layout)
    }
    #[inline]
    unsafe fn free(&mut self, ptr: *mut u8, layout: Layout, handoff: bool) {
        let cache = if handoff { &mut self.b } else { &mut self.a };
        // SAFETY: forwarded caller contract; both caches front one heap.
        unsafe { cache.dealloc(ptr, layout) }
    }
}

/// The heap without magazines: slab and arena only.
pub struct Direct<'h>(pub &'h DsaHeap);

impl Backend for Direct<'_> {
    #[inline]
    fn alloc(&mut self, layout: Layout) -> *mut u8 {
        self.0.alloc_direct(layout)
    }
    #[inline]
    unsafe fn free(&mut self, ptr: *mut u8, layout: Layout, _handoff: bool) {
        // SAFETY: forwarded caller contract.
        unsafe { self.0.dealloc_direct(ptr, layout) }
    }
}

/// The reference: `std::alloc::System`.
pub struct Sys;

impl Backend for Sys {
    #[inline]
    fn alloc(&mut self, layout: Layout) -> *mut u8 {
        // SAFETY: script layouts have non-zero size.
        unsafe { System.alloc(layout) }
    }
    #[inline]
    unsafe fn free(&mut self, ptr: *mut u8, layout: Layout, _handoff: bool) {
        // SAFETY: forwarded caller contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// The benchmark's own record of a live block.
#[derive(Clone, Copy)]
struct Live {
    ptr: *mut u8,
    layout: Layout,
    tag: u64,
}

const EMPTY: Live = Live {
    ptr: std::ptr::null_mut(),
    layout: Layout::new::<u64>(),
    tag: 0,
};

/// The benchmark's tally of calls and of what it saw come back.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Alloc calls that returned a block.
    pub allocs: u64,
    /// Alloc calls that returned null.
    pub null_allocs: u64,
    pub frees: u64,
    pub misaligned: u64,
    pub tag_mismatches: u64,
    /// Alloc calls for ladder sizes (the magazine-eligible ones).
    pub small_allocs: u64,
}

impl Tally {
    #[must_use]
    pub fn calls(&self) -> u64 {
        self.allocs + self.null_allocs + self.frees
    }
}

/// Replays scripts against a backend, keeping the live window.
pub struct Replayer {
    live: Vec<Live>,
    next_tag: u64,
    pub tally: Tally,
    classes: SizeClasses,
}

/// Whether `layout` is served by the size-class ladder (the heap's own
/// routing rule, restated from the public class geometry).
fn is_ladder(classes: &SizeClasses, layout: Layout) -> bool {
    let (size, align) = (layout.size() as u64, layout.align() as u64);
    if align <= 8 {
        classes.class_of(size).is_some()
    } else {
        classes.aligned_class_of(size, align).is_some()
    }
}

fn layout_of(size: u32, align: u32) -> Layout {
    Layout::from_size_align(size as usize, align as usize).expect("script layouts are valid")
}

impl Replayer {
    #[must_use]
    pub fn new(slots: usize) -> Replayer {
        Replayer {
            live: vec![EMPTY; slots],
            next_tag: 1,
            tally: Tally::default(),
            classes: SizeClasses::jemalloc(8, LADDER_MAX),
        }
    }

    /// Executes one call.
    #[inline]
    pub fn step<B: Backend>(&mut self, b: &mut B, op: Op) {
        match op {
            Op::Alloc { slot, size, align } => {
                let layout = layout_of(size, align);
                if is_ladder(&self.classes, layout) {
                    self.tally.small_allocs += 1;
                }
                let ptr = b.alloc(layout);
                if ptr.is_null() {
                    self.tally.null_allocs += 1;
                    return;
                }
                self.tally.allocs += 1;
                if !(ptr as usize).is_multiple_of(layout.align()) {
                    self.tally.misaligned += 1;
                }
                let tag = self.next_tag;
                self.next_tag += 1;
                // SAFETY: the block is `size >= 8` bytes, 8-aligned, and
                // exclusively ours until freed.
                unsafe { write_tags(ptr, layout.size(), tag) };
                self.live[slot as usize] = Live { ptr, layout, tag };
            }
            Op::Free { slot, handoff } => {
                let l = std::mem::replace(&mut self.live[slot as usize], EMPTY);
                if l.ptr.is_null() {
                    // Its alloc returned null (already counted failed).
                    return;
                }
                // SAFETY: `l` is a live block of `l.layout.size()` bytes.
                if unsafe { !tags_hold(l.ptr, l.layout.size(), l.tag) } {
                    self.tally.tag_mismatches += 1;
                }
                self.tally.frees += 1;
                // SAFETY: allocated by this backend with this layout and
                // not freed since (the slot held it).
                unsafe { b.free(l.ptr, l.layout, handoff) };
            }
        }
    }

    /// Executes `ops`, recording the duration of every [`BATCH_OPS`]
    /// calls.
    pub fn timed<B: Backend>(&mut self, b: &mut B, ops: &[Op], phase: &mut TimedPhase) {
        let mut t0 = Instant::now();
        for chunk in ops.chunks(BATCH_OPS) {
            for &op in chunk {
                self.step(b, op);
            }
            let t1 = Instant::now();
            phase.record(nanos(t1 - t0));
            t0 = t1;
        }
    }

    /// The live blocks as `(address, size)`.
    #[must_use]
    pub fn live_blocks(&self) -> Vec<(usize, usize)> {
        self.live
            .iter()
            .filter(|l| !l.ptr.is_null())
            .map(|l| (l.ptr as usize, l.layout.size()))
            .collect()
    }

    /// The checkpoint: live blocks pairwise disjoint, aligned, tags
    /// intact.
    pub fn check_live(&self) -> Result<(), String> {
        check_disjoint(&mut self.live_blocks())?;
        for l in self.live.iter().filter(|l| !l.ptr.is_null()) {
            if !(l.ptr as usize).is_multiple_of(l.layout.align()) {
                return Err(format!(
                    "block {:p} misses alignment {}",
                    l.ptr,
                    l.layout.align()
                ));
            }
            // SAFETY: a live block of `size` bytes.
            if unsafe { !tags_hold(l.ptr, l.layout.size(), l.tag) } {
                return Err(format!("block {:p} lost its tag while live", l.ptr));
            }
        }
        Ok(())
    }

    /// The per-call counts the replay checks: no misaligned block and
    /// no lost tag.
    pub fn check_tally(&self) -> Result<(), String> {
        if self.tally.misaligned > 0 {
            return Err(format!(
                "{} blocks missed their alignment",
                self.tally.misaligned
            ));
        }
        if self.tally.tag_mismatches > 0 {
            return Err(format!(
                "{} blocks lost a tag before their free",
                self.tally.tag_mismatches
            ));
        }
        Ok(())
    }
}

/// # Safety
///
/// `ptr` must be valid for writes of `size >= 8` bytes and 8-aligned.
#[inline]
unsafe fn write_tags(ptr: *mut u8, size: usize, tag: u64) {
    // SAFETY: caller contract; `size / 8 - 1` is the last whole word
    // (the first one, for an 8-byte block, which keeps the head tag).
    unsafe {
        ptr.cast::<u64>().add(size / 8 - 1).write(!tag);
        ptr.cast::<u64>().write(tag);
    }
}

/// # Safety
///
/// As [`write_tags`], for reads.
#[inline]
unsafe fn tags_hold(ptr: *mut u8, size: usize, tag: u64) -> bool {
    // SAFETY: caller contract.
    unsafe {
        ptr.cast::<u64>().read() == tag
            && (size < 16 || ptr.cast::<u64>().add(size / 8 - 1).read() == !tag)
    }
}

/// Checks that no two `(address, size)` blocks overlap.
///
/// # Errors
///
/// Names the first overlapping pair.
pub fn check_disjoint(blocks: &mut [(usize, usize)]) -> Result<(), String> {
    blocks.sort_unstable();
    for w in blocks.windows(2) {
        let ((a, sa), (b, _)) = (w[0], w[1]);
        if a + sa > b {
            return Err(format!(
                "live blocks overlap: [{a:#x}, +{sa}) and [{b:#x}, ...)"
            ));
        }
    }
    Ok(())
}

/// Checks that the heap's path counts account for every call the
/// benchmark made: allocs = magazine hits + slab pops + arena large
/// allocs + `System` fallbacks; frees = magazine frees + large frees +
/// `System` frees. Slab pops and arena allocs are the telemetry probe's
/// `allocs`; magazine counts are valid after both caches flush.
///
/// # Errors
///
/// Names the identity that does not hold.
pub fn check_path_counts(
    tally: &Tally,
    stats: &HeapStats,
    telemetry: &CountingProbe,
) -> Result<(), String> {
    let served = stats.magazine_allocs + telemetry.allocs + stats.system_allocs;
    if served != tally.allocs {
        return Err(format!(
            "alloc paths sum to {served} (magazine {} + backend {} + system {}), benchmark made {}",
            stats.magazine_allocs, telemetry.allocs, stats.system_allocs, tally.allocs
        ));
    }
    let freed = stats.magazine_frees + stats.large_frees + stats.system_frees + stats.bad_frees;
    if freed != tally.frees {
        return Err(format!(
            "free paths sum to {freed} (magazine {} + large {} + system {} + bad {}), benchmark made {}",
            stats.magazine_frees, stats.large_frees, stats.system_frees, stats.bad_frees, tally.frees
        ));
    }
    if stats.bad_frees > 0 {
        return Err(format!("{} frees were not recognised", stats.bad_frees));
    }
    Ok(())
}

/// The counter increments from `a` to `b`.
#[must_use]
pub fn stats_delta(a: &HeapStats, b: &HeapStats) -> HeapStats {
    HeapStats {
        magazine_allocs: b.magazine_allocs - a.magazine_allocs,
        magazine_frees: b.magazine_frees - a.magazine_frees,
        depot_exchanges: b.depot_exchanges - a.depot_exchanges,
        slab_exhausted: b.slab_exhausted - a.slab_exhausted,
        large_allocs: b.large_allocs - a.large_allocs,
        large_frees: b.large_frees - a.large_frees,
        system_allocs: b.system_allocs - a.system_allocs,
        system_frees: b.system_frees - a.system_frees,
        bad_frees: b.bad_frees - a.bad_frees,
    }
}

/// What set-up hands to the timed phase.
pub struct Prepared {
    pub script: Script,
    pub heap: Box<DsaHeap>,
    /// Violations found by the exact overlap check of the warm-up round.
    pub warmup: Result<(), String>,
}

/// Builds the script and the heap, and runs one warm-up round through
/// the caches with an exact interval check on every alloc.
#[must_use]
pub fn prepare(seed: u64, steps: usize) -> Prepared {
    let script = Script::generate(seed, steps, SLOTS);
    let heap = Box::new(DsaHeap::new(HeapConfig::DEFAULT));
    let warmup = {
        let mut b = Cached::new(&heap);
        let mut r = Replayer::new(SLOTS);
        let mut intervals: BTreeMap<usize, usize> = BTreeMap::new();
        let mut result = Ok(());
        for &op in &script.ops {
            if let Op::Free { slot, .. } = op {
                if let Some(l) = r.live.get(slot as usize).filter(|l| !l.ptr.is_null()) {
                    intervals.remove(&(l.ptr as usize));
                }
            }
            r.step(&mut b, op);
            if let Op::Alloc { slot, .. } = op {
                let l = r.live[slot as usize];
                if l.ptr.is_null() {
                    continue;
                }
                let (start, end) = (l.ptr as usize, l.ptr as usize + l.layout.size());
                let below = intervals.range(..=start).next_back().map(|(_, &e)| e);
                let above = intervals.range(start..).next().map(|(&s, _)| s);
                if below.is_some_and(|e| e > start) || above.is_some_and(|s| s < end) {
                    result = Err(format!(
                        "warm-up: block at {start:#x} overlaps a live block"
                    ));
                }
                intervals.insert(start, end);
            }
        }
        result.and(r.check_tally())
    };
    Prepared {
        script,
        heap,
        warmup,
    }
}

/// The gated run: [`TimedPhase::EPOCHS`] epochs of set-up and whole
/// rounds, `seconds` in all.
#[must_use]
pub fn run(seed: u64, seconds: f64) -> Outcome {
    run_sized(seed, seconds, STEPS)
}

/// [`run`] with a chosen round size (the tests use small rounds).
#[must_use]
pub fn run_sized(seed: u64, seconds: f64, steps: usize) -> Outcome {
    let mut out = Outcome::default();
    let mut phase = TimedPhase::start(seconds);
    while let Some(p) = phase.set_up(|| prepare(seed, steps)) {
        out.check(p.warmup.clone());
        let heap = &*p.heap;
        let stats0 = heap.stats();
        let tel0 = heap.telemetry().counters();
        let mut backend = Cached::new(heap);
        let mut r = Replayer::new(SLOTS);
        let (churn, drain) = p.script.ops.split_at(p.script.checkpoint);
        loop {
            let calls = r.tally.calls();
            r.timed(&mut backend, churn, &mut phase);
            out.check(r.check_live());
            r.timed(&mut backend, drain, &mut phase);
            if !phase.next_round(r.tally.calls() - calls) {
                break;
            }
        }
        backend.a.flush();
        backend.b.flush();
        drop(backend);
        let stats = stats_delta(&stats0, &heap.stats());
        let tel = heap.telemetry().delta(&tel0);
        out.check(r.check_tally());
        out.check(check_path_counts(&r.tally, &stats, &tel));
        out.check(
            catch_unwind(AssertUnwindSafe(|| heap.check_reconciliation()))
                .map_err(|_| "heap books do not reconcile".to_owned()),
        );
        out.attempted += r.tally.calls();
        out.failed += r.tally.null_allocs + stats.bad_frees;
    }
    phase.finish(&mut out, &format!("{BATCH_OPS} heap calls"));
    out
}

/// Span kinds of the traced heap pass.
struct Kinds {
    cache_alloc: Kind,
    cache_free: Kind,
    large_alloc: Kind,
    large_free: Kind,
}

/// The cached path with a span around every call; per-call durations
/// go to four histograms (ladder/large × alloc/free).
struct TracedCached<'h, 't> {
    inner: Cached<'h>,
    tracer: &'t mut Tracer,
    kinds: Kinds,
    classes: SizeClasses,
    samples: [NsHistogram; 4],
}

impl Backend for TracedCached<'_, '_> {
    fn alloc(&mut self, layout: Layout) -> *mut u8 {
        let (kind, i) = if is_ladder(&self.classes, layout) {
            (self.kinds.cache_alloc, 0)
        } else {
            (self.kinds.large_alloc, 2)
        };
        let inner = &mut self.inner;
        let (p, ns) = self.tracer.time(kind, || inner.alloc(layout));
        self.samples[i].record(ns);
        p
    }
    unsafe fn free(&mut self, ptr: *mut u8, layout: Layout, handoff: bool) {
        let (kind, i) = if is_ladder(&self.classes, layout) {
            (self.kinds.cache_free, 1)
        } else {
            (self.kinds.large_free, 3)
        };
        let inner = &mut self.inner;
        // SAFETY: forwarded caller contract.
        let ((), ns) = self
            .tracer
            .time(kind, || unsafe { inner.free(ptr, layout, handoff) });
        self.samples[i].record(ns);
    }
}

/// Replays `rounds` rounds of `script` through `b`; returns the wall
/// time in ns and the replayer (its tally counts the calls).
fn replay_rounds<B: Backend>(b: &mut B, script: &Script, rounds: usize) -> (u64, Replayer) {
    let mut r = Replayer::new(SLOTS);
    let t = Instant::now();
    for _ in 0..rounds {
        for &op in &script.ops {
            r.step(b, op);
        }
    }
    (nanos(t.elapsed()), r)
}

/// The traced pass: untraced reference for `seconds`, then a fixed
/// number of rounds with a span around every call, then the same script
/// through `alloc_direct` and through `System`.
#[must_use]
pub fn traced(seed: u64, seconds: f64, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let p = prepare(seed, STEPS);
    out.check(p.warmup.clone());

    // Untraced reference, whole rounds until `seconds`.
    let untraced_ops_per_s = {
        let heap = DsaHeap::new(HeapConfig::DEFAULT);
        let mut b = Cached::new(&heap);
        let mut calls = 0u64;
        let mut ns = 0u64;
        while (ns as f64) / 1e9 < seconds {
            let (n, r) = replay_rounds(&mut b, &p.script, 1);
            calls += r.tally.calls();
            ns += n;
        }
        calls as f64 / (ns as f64 / 1e9)
    };

    let heap = &*p.heap;
    let stats0 = heap.stats();
    let tel0 = heap.telemetry().counters();
    let kinds = Kinds {
        cache_alloc: tracer.kind("alloc.cache_alloc"),
        cache_free: tracer.kind("alloc.cache_free"),
        large_alloc: tracer.kind("alloc.large_alloc"),
        large_free: tracer.kind("alloc.large_free"),
    };
    let round_kind = tracer.kind("bench.heap_round");
    let pass_kind = tracer.kind("bench.heap_traced_pass");
    tracer.enter(pass_kind);
    let mut tb = TracedCached {
        inner: Cached::new(heap),
        tracer,
        kinds,
        classes: SizeClasses::jemalloc(8, LADDER_MAX),
        samples: Default::default(),
    };
    let mut r = Replayer::new(SLOTS);
    for _ in 0..TRACE_ROUNDS {
        tb.tracer.enter(round_kind);
        for &op in &p.script.ops {
            r.step(&mut tb, op);
        }
        tb.tracer.exit();
    }
    let TracedCached {
        mut inner,
        tracer,
        samples,
        ..
    } = tb;
    let traced_ns = tracer.exit();
    inner.a.flush();
    inner.b.flush();
    drop(inner);
    let stats = stats_delta(&stats0, &heap.stats());
    let tel = heap.telemetry().delta(&tel0);
    out.check(r.check_tally());
    out.check(check_path_counts(&r.tally, &stats, &tel));
    out.attempted += r.tally.calls();
    out.failed += r.tally.null_allocs + stats.bad_frees;
    let traced_ops_per_s = r.tally.calls() as f64 / (traced_ns as f64 / 1e9);

    let names = [
        "alloc.cache_alloc_ns",
        "alloc.cache_free_ns",
        "alloc.large_alloc_ns",
        "alloc.large_free_ns",
    ];
    for (name, s) in names.into_iter().zip(&samples) {
        out.metric(format!("{name}_p50"), s.quantile(0.5), "ns");
        out.metric(format!("{name}_p99"), s.quantile(0.99), "ns");
    }
    out.metric(
        "alloc.magazine_hit_ratio",
        stats.magazine_allocs as f64 / r.tally.small_allocs.max(1) as f64,
        "ratio",
    );
    out.metric(
        "alloc.depot_exchanges",
        stats.depot_exchanges as f64,
        "count",
    );
    out.metric("alloc.slab_exhausted", stats.slab_exhausted as f64, "count");
    out.metric("alloc.system_allocs", stats.system_allocs as f64, "count");
    out.metric(
        "arena.backend_ops",
        (tel.allocs + tel.frees) as f64,
        "count",
    );
    out.metric("arena.alloc_searched", tel.alloc_searched as f64, "count");

    // The same rounds without magazines, and through System.
    let direct_heap = DsaHeap::new(HeapConfig::DEFAULT);
    let direct_kind = tracer.kind("alloc.direct_pass");
    let system_kind = tracer.kind("system.heap_pass");
    let ((_, direct), direct_ns) = tracer.time(direct_kind, || {
        replay_rounds(&mut Direct(&direct_heap), &p.script, TRACE_ROUNDS)
    });
    let ((_, system), system_ns) = tracer.time(system_kind, || {
        replay_rounds(&mut Sys, &p.script, TRACE_ROUNDS)
    });
    for (name, r, ns) in [
        ("alloc.direct_ns_per_op", direct, direct_ns),
        ("alloc.system_ns_per_op", system, system_ns),
    ] {
        out.check(r.check_tally());
        out.attempted += r.tally.calls();
        out.failed += r.tally.null_allocs;
        out.metric(name, ns as f64 / r.tally.calls() as f64, "ns");
    }

    out.metric(
        "tracing.heap_churn_overhead_pct",
        (untraced_ops_per_s / traced_ops_per_s - 1.0) * 100.0,
        "%",
    );
    out.notes.push(format!(
        "heap_churn: untraced {untraced_ops_per_s:.0} calls/s, traced {traced_ops_per_s:.0} calls/s"
    ));
    out
}
