//! Summary statistics, and the wall-clock, CPU and heap measurements.

use std::alloc::{GlobalAlloc, Layout, System};
use std::os::raw::{c_int, c_long};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Wall-clock and process CPU time of one measured interval, seconds.
#[derive(Clone, Copy)]
pub struct Cost {
    pub wall: f64,
    pub cpu: f64,
}

/// A measurement started by [`Meter::start`].
pub struct Meter {
    wall: Instant,
    cpu: f64,
}

impl Meter {
    pub fn start() -> Meter {
        Meter {
            wall: Instant::now(),
            cpu: cpu_seconds(),
        }
    }

    pub fn stop(&self) -> Cost {
        Cost {
            wall: self.wall.elapsed().as_secs_f64(),
            cpu: cpu_seconds() - self.cpu,
        }
    }
}

/// CPU time of the whole process (every thread, live or ended), seconds.
/// On a virtual machine it excludes time the hypervisor gave to other
/// guests, which wall-clock time does not.
fn cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    }
    const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
    let mut t = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `t` is a live, writable `struct timespec` (two C longs on
    // Linux) that the call only writes through, and the clock id is a
    // valid constant.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut t) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    t.tv_sec as f64 + t.tv_nsec as f64 * 1e-9
}

/// The `q`-quantile (0..=1) of `samples` by linear interpolation
/// between closest ranks; `None` when there are no samples.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// The system allocator, counting the bytes live in allocations of at
/// least [`COUNTED`] bytes and their peak. Unlike the resident set size,
/// which keeps whatever pages the allocator retains from earlier work,
/// this measures what the measured code holds at once. Small
/// allocations are frequent and hold little, and counting them on shared
/// atomics slowed warm re-runs by about 15% on a 2-CPU VM, so they are
/// left out.
pub struct CountingAlloc;

/// Smallest allocation counted.
pub const COUNTED: usize = 4096;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    if bytes < COUNTED {
        return;
    }
    let now = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    if bytes < COUNTED {
        return;
    }
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System` upholds the allocator contract; the counters
// are statistics that no allocation depends on.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            shrank(layout.size());
            grew(new_size);
        }
        new
    }
}

/// Restart the peak from the bytes live now.
pub fn reset_peak_heap() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Peak live heap since the last [`reset_peak_heap`], in MiB.
pub fn peak_heap_mb() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}
