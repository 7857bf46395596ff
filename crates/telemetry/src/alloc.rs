//! Process-wide heap accounting: a counting [`GlobalAlloc`] wrapper around
//! the system allocator, with a runtime on/off toggle mirroring
//! [`Telemetry::spans_enabled`](crate::Telemetry::spans_enabled).
//!
//! The wrapper itself is installed (or not) by each *binary* via
//! `#[global_allocator]` — a library cannot install one without forcing it on
//! every downstream user. All counters live in this module as process-global
//! atomics so the accounting works no matter which binary installed the
//! wrapper, and each thread also counts its own share (see
//! [`thread_stats`]):
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: tvnep_telemetry::CountingAlloc = tvnep_telemetry::CountingAlloc;
//!
//! tvnep_telemetry::alloc::set_counting(true);
//! let probe = tvnep_telemetry::alloc::MemProbe::start();
//! // ... build a model, run a solve ...
//! let peak = probe.finish(); // peak live bytes while the probe was open
//! ```
//!
//! Cost model: with counting **off** every allocation pays one relaxed
//! atomic load and a branch on top of the system allocator — the same
//! "cached bool" discipline as the span profiler, asserted against a <2%
//! budget by `bench/src/bin/introspection.rs`. With counting **on** each
//! allocation/deallocation performs a handful of relaxed atomic adds plus a
//! `fetch_max` for the live-bytes high-water mark, and updates two
//! thread-local counters.
//!
//! Counting enabled mid-process is well-defined but approximate: frees of
//! blocks allocated before enabling are counted while their allocations were
//! not, so the live-bytes counter is clamped at zero instead of going
//! negative. Enable counting before the workload of interest and read deltas
//! through [`MemProbe`] / [`AllocStats`] for exact attribution, or through
//! [`thread_stats`] while other threads allocate too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

use crate::json::Json;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static DEALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES_ALLOCATED: AtomicU64 = AtomicU64::new(0);
static BYTES_FREED: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

thread_local! {
    /// This thread's allocations and the bytes it allocated minus the bytes
    /// it freed. Constant-initialized without a destructor, so reading it
    /// from the allocator never allocates.
    static THREAD: Cell<(u64, i64)> = const { Cell::new((0, 0)) };
}

/// Counting wrapper around [`System`]. Install with `#[global_allocator]`
/// in a binary; counting starts only after [`set_counting`]`(true)`.
pub struct CountingAlloc;

#[inline]
fn on_alloc(size: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES_ALLOCATED.fetch_add(size as u64, Ordering::Relaxed);
    let live = LIVE.fetch_add(size as i64, Ordering::Relaxed) + size as i64;
    PEAK.fetch_max(live, Ordering::Relaxed);
    let _ = THREAD.try_with(|t| {
        let (allocs, net) = t.get();
        t.set((allocs + 1, net + size as i64));
    });
}

#[inline]
fn on_dealloc(size: usize) {
    DEALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES_FREED.fetch_add(size as u64, Ordering::Relaxed);
    // Clamp at zero: frees of pre-enable allocations must not drive the
    // live counter negative (see module docs).
    let prev = LIVE.fetch_sub(size as i64, Ordering::Relaxed);
    if prev < size as i64 {
        LIVE.fetch_max(0, Ordering::Relaxed);
    }
    let _ = THREAD.try_with(|t| {
        let (allocs, net) = t.get();
        t.set((allocs, net - size as i64));
    });
}

// SAFETY: delegates every allocation verbatim to `System`; the bookkeeping
// only touches lock-free atomics and never allocates itself.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() && COUNTING.load(Ordering::Relaxed) {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() && COUNTING.load(Ordering::Relaxed) {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        if COUNTING.load(Ordering::Relaxed) {
            on_dealloc(layout.size());
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() && COUNTING.load(Ordering::Relaxed) {
            // Count the grow/shrink as one alloc of the new block plus one
            // free of the old, so alloc/dealloc totals stay balanced.
            on_alloc(new_size);
            on_dealloc(layout.size());
        }
        p
    }
}

/// Turns heap accounting on or off at runtime (off by default). Counting
/// only has an effect in binaries that installed [`CountingAlloc`].
pub fn set_counting(enabled: bool) {
    COUNTING.store(enabled, Ordering::Relaxed);
}

/// True when heap accounting is currently enabled.
pub fn counting_enabled() -> bool {
    COUNTING.load(Ordering::Relaxed)
}

/// Point-in-time copy of the process-wide allocation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AllocStats {
    /// Allocations observed (incl. the alloc half of every realloc).
    pub allocs: u64,
    /// Deallocations observed (incl. the free half of every realloc).
    pub deallocs: u64,
    /// Total bytes handed out.
    pub bytes_allocated: u64,
    /// Total bytes returned.
    pub bytes_freed: u64,
    /// Bytes currently live (allocated − freed, clamped at 0).
    pub live_bytes: u64,
    /// High-water mark of `live_bytes` since the last [`reset_peak`].
    pub peak_bytes: u64,
}

impl AllocStats {
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("counting".into(), Json::from(counting_enabled())),
            ("allocs".into(), Json::from(self.allocs)),
            ("deallocs".into(), Json::from(self.deallocs)),
            ("bytes_allocated".into(), Json::from(self.bytes_allocated)),
            ("bytes_freed".into(), Json::from(self.bytes_freed)),
            ("live_bytes".into(), Json::from(self.live_bytes)),
            ("peak_bytes".into(), Json::from(self.peak_bytes)),
        ])
    }
}

/// Reads the current counters. All zeros until a binary installs
/// [`CountingAlloc`] and calls [`set_counting`]`(true)`.
pub fn stats() -> AllocStats {
    AllocStats {
        allocs: ALLOCS.load(Ordering::Relaxed),
        deallocs: DEALLOCS.load(Ordering::Relaxed),
        bytes_allocated: BYTES_ALLOCATED.load(Ordering::Relaxed),
        bytes_freed: BYTES_FREED.load(Ordering::Relaxed),
        live_bytes: LIVE.load(Ordering::Relaxed).max(0) as u64,
        peak_bytes: PEAK.load(Ordering::Relaxed).max(0) as u64,
    }
}

/// The calling thread's own share of the counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ThreadAllocStats {
    /// Allocations this thread made (incl. the alloc half of every realloc).
    pub allocs: u64,
    /// Bytes this thread allocated minus the bytes it freed, whichever
    /// thread allocated them; only its deltas mean anything.
    pub net_bytes: i64,
}

/// Reads the calling thread's counters. A delta of these attributes what
/// ran on this thread exactly, whatever other threads (a test harness's
/// own, say) allocate meanwhile; [`stats`] counts every thread.
pub fn thread_stats() -> ThreadAllocStats {
    let (allocs, net_bytes) = THREAD.with(Cell::get);
    ThreadAllocStats { allocs, net_bytes }
}

/// Cumulative bytes allocated so far — the monotone counter used for
/// per-span attribution (cheap single load).
#[inline]
pub fn bytes_allocated() -> u64 {
    BYTES_ALLOCATED.load(Ordering::Relaxed)
}

/// Resets the live-bytes high-water mark to the current live level, so the
/// next [`stats`] reports the peak *since this call* (per-cell peaks in the
/// campaign runner).
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// RAII-less probe for "peak live bytes while X ran": resets the high-water
/// mark at [`MemProbe::start`], reads it back at [`MemProbe::finish`].
/// Returns 0 when counting is disabled, so callers need no branching.
#[derive(Debug, Clone, Copy)]
pub struct MemProbe {
    active: bool,
}

impl MemProbe {
    pub fn start() -> Self {
        let active = counting_enabled();
        if active {
            reset_peak();
        }
        MemProbe { active }
    }

    /// Peak live bytes since [`MemProbe::start`] (0 when counting was off).
    pub fn finish(self) -> u64 {
        if self.active {
            stats().peak_bytes
        } else {
            0
        }
    }
}

/// Peak resident-set size of this process in bytes, from the OS (`VmHWM` in
/// `/proc/self/status` on Linux). `None` when the platform offers no cheap
/// source — callers fall back to [`stats`]`().peak_bytes`.
pub fn peak_rss_bytes() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        let text = std::fs::read_to_string("/proc/self/status").ok()?;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("VmHWM:") {
                let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
                return Some(kb * 1024);
            }
        }
        None
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Note: the unit-test binary does not install `CountingAlloc`, so this
    // exercises the toggle, counter math, and probe plumbing — not live
    // counting. The end-to-end check lives in `tvnep-core/tests/memory.rs`,
    // whose test binary installs the wrapper. One test function: the
    // counters are process-global, and the default test harness runs tests
    // in the same binary concurrently.

    #[test]
    fn toggle_counters_and_probe() {
        assert!(!counting_enabled());
        set_counting(true);
        assert!(counting_enabled());
        set_counting(false);
        assert!(!counting_enabled());

        // Probe without counting is a transparent zero.
        let probe = MemProbe::start();
        let _v: Vec<u64> = (0..1000).collect();
        assert_eq!(probe.finish(), 0);

        // Drive the internal hooks directly (the wrapper is not installed
        // here): a free larger than live must clamp, not underflow.
        on_alloc(100);
        on_dealloc(100);
        on_dealloc(1 << 20);
        assert_eq!(stats().live_bytes, 0);
        let mine = thread_stats();
        on_alloc(64);
        assert_eq!(
            thread_stats(),
            ThreadAllocStats {
                allocs: mine.allocs + 1,
                net_bytes: mine.net_bytes + 64
            }
        );
        let s = stats();
        assert!(s.live_bytes >= 64);
        assert!(s.peak_bytes >= 100);
        assert_eq!(s.allocs, 2);
        assert_eq!(s.deallocs, 2);
        on_dealloc(64);

        let doc = stats().to_json();
        for key in [
            "counting",
            "allocs",
            "deallocs",
            "bytes_allocated",
            "bytes_freed",
            "live_bytes",
            "peak_bytes",
        ] {
            assert!(doc.get(key).is_some(), "missing {key}");
        }
    }
}
