//! Host speed, measured by a fixed reference kernel run alongside the
//! workload.
//!
//! The benchmark runs on a few cores of a shared host whose speed drifts
//! by up to half again within seconds as other tenants load it, each core
//! on its own: on a 2-core VM the two cores' speeds were uncorrelated. A
//! run-long median does not remove that drift. So the batch workloads
//! time a fixed reference kernel (the benchmark's own code, which no
//! change to the program touches) alongside their operations, and divide
//! each operation's host time by the host's slowdown over it: the mean
//! ratio of the kernel's time to its time on a quiet host, over the
//! samples from the bracket before the operation to the one after it.
//! Times so scaled read as seconds on a quiet host ("reference seconds").
//!
//! A [`HostClock`] takes its samples two ways:
//!
//! - on the thread that runs the operations, after each one (a bracket of
//!   [`BRACKET`] samples, which also opens the next operation). This
//!   tracks operations shorter than the pause between sampler samples;
//! - from a sampler thread of its own, every [`SAMPLE_EVERY`], during the
//!   operations. This tracks the drift within long operations. The
//!   sampler must share the cores the workload runs on: `run.py` pins the
//!   single-threaded workloads to one core, where the sampler takes turns
//!   with the simulation, and the pool at `nproc` jobs keeps every core
//!   busy, so the sampler lands on each in turn. It takes about 2% of one
//!   core.
//!
//! The kernel is a small set-associative LRU cache model driven by a
//! synthetic address stream, the same kind of work the simulator does, so
//! neighbours that slow the simulator slow the kernel alike.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Time of one kernel access on a quiet host (a 2-core x86-64 VM at
/// 2.1 GHz with no other load). Only the ratio to it matters: it fixes the
/// scale of every scaled time and is the same for every commit measured.
const QUIET_ACCESS_S: f64 = 11.6e-9;

/// Accesses of one burst: short, so that a burst mostly runs without
/// being preempted.
const BURST: u64 = 50_000;
/// Bursts per sample; the sample is the fastest, so a burst the scheduler
/// preempted does not count.
const BURSTS: usize = 3;
/// Samples per bracket.
const BRACKET: usize = 3;
/// Pause between two sampler samples.
const SAMPLE_EVERY: Duration = Duration::from_millis(97);
const SETS: usize = 256;
const WAYS: usize = 4;
/// Bytes of the kernel's backing array (the "memory" its misses touch).
const BACKING: usize = 1 << 21;

/// The reference kernel's state, allocated once so a burst does no
/// allocation.
struct Kernel {
    tags: Vec<u64>,
    age: Vec<u32>,
    backing: Vec<u8>,
}

impl Kernel {
    fn new() -> Self {
        Self {
            tags: vec![u64::MAX; SETS * WAYS],
            age: vec![0; SETS * WAYS],
            backing: vec![0; BACKING],
        }
    }

    /// One burst of `accesses` cache-model accesses, three in four to a
    /// 16 KiB hot loop and the rest spread over the backing array. Returns
    /// its wall time in seconds.
    fn burst(&mut self, accesses: u64) -> f64 {
        let t = Instant::now();
        let mut z: u64 = 0x1234_5678_9ABC_DEF1;
        let mut hits = 0u64;
        for k in 0..accesses {
            z ^= z << 13;
            z ^= z >> 7;
            z ^= z << 17;
            let addr = if z % 4 < 3 { (k * 8) % 16_384 } else { z % BACKING as u64 };
            let byte = &mut self.backing[addr as usize];
            *byte = byte.wrapping_add(1);
            let line = addr >> 6;
            let base = (line as usize % SETS) * WAYS;
            let tag = line / SETS as u64;
            let way = match (0..WAYS).find(|&w| self.tags[base + w] == tag) {
                Some(w) => {
                    hits += 1;
                    w
                }
                None => {
                    let victim =
                        (0..WAYS).max_by_key(|&w| (self.age[base + w], w)).unwrap_or_default();
                    self.tags[base + victim] = tag;
                    victim
                }
            };
            for w in 0..WAYS {
                self.age[base + w] = self.age[base + w].saturating_add(1);
            }
            self.age[base + way] = 0;
        }
        std::hint::black_box((hits, &self.backing));
        t.elapsed().as_secs_f64()
    }

    /// The host's slowdown now: the fastest of a few bursts of `accesses`
    /// over their time on a quiet host.
    fn slowdown(&mut self, accesses: u64) -> f64 {
        let fastest = (0..BURSTS).map(|_| self.burst(accesses)).fold(f64::INFINITY, f64::min);
        fastest / (accesses as f64 * QUIET_ACCESS_S)
    }
}

/// Samples, each with the instant in the middle of it and the slowdown.
type Samples = Arc<Mutex<Vec<(Instant, f64)>>>;

/// Times operations in reference seconds.
pub struct HostClock {
    kernel: Kernel,
    samples: Samples,
    stop: Arc<AtomicBool>,
    sampler: Option<JoinHandle<()>>,
    /// When the last bracket began.
    bracketed: Instant,
    /// Every slowdown [`HostClock::time`] applied, for the report.
    pub applied: Vec<f64>,
}

/// Takes one sample with `kernel` and adds it to `samples`.
fn sample(kernel: &mut Kernel, samples: &Samples) {
    let t = Instant::now();
    let s = kernel.slowdown(BURST);
    let mid = t + t.elapsed() / 2;
    samples.lock().unwrap_or_else(PoisonError::into_inner).push((mid, s));
}

impl HostClock {
    /// Starts the sampler thread and takes a bracket, so the first
    /// operation can start.
    pub fn start() -> Self {
        let samples = Samples::default();
        let stop = Arc::new(AtomicBool::new(false));
        let sampler = {
            let (samples, stop) = (Arc::clone(&samples), Arc::clone(&stop));
            std::thread::spawn(move || {
                let mut kernel = Kernel::new();
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(SAMPLE_EVERY);
                    sample(&mut kernel, &samples);
                }
            })
        };
        let mut clock = Self {
            kernel: Kernel::new(),
            samples,
            stop,
            sampler: Some(sampler),
            bracketed: Instant::now(),
            applied: Vec::new(),
        };
        clock.bracket();
        clock
    }

    fn samples(&self) -> MutexGuard<'_, Vec<(Instant, f64)>> {
        self.samples.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Takes a bracket on this thread: the samples after one operation and
    /// before the next. Call it before an operation that does not follow
    /// the last one timed directly.
    pub fn bracket(&mut self) {
        self.bracketed = Instant::now();
        for _ in 0..BRACKET {
            sample(&mut self.kernel, &self.samples);
        }
    }

    /// Runs `f`, which starts right after a bracket, and returns its value,
    /// its host time in seconds and the host's slowdown over it: the mean
    /// of the samples from the bracket before `f` to the one after it. The
    /// host time over the slowdown is `f`'s time in reference seconds.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64, f64) {
        let from = self.bracketed;
        let start = Instant::now();
        let v = f();
        let host_s = start.elapsed().as_secs_f64();
        self.bracket();
        let slowdown = {
            let next = self.bracketed;
            let mut samples = self.samples();
            let over: Vec<f64> =
                samples.iter().filter(|(t, _)| *t >= from).map(|&(_, s)| s).collect();
            // Keep the bracket just taken: it opens the next operation.
            samples.retain(|(t, _)| *t >= next);
            over.iter().sum::<f64>() / over.len() as f64
        };
        self.applied.push(slowdown);
        (v, host_s, slowdown)
    }
}

impl Drop for HostClock {
    /// Stops the sampler thread and waits for it to end.
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(sampler) = self.sampler.take() {
            let _ = sampler.join();
        }
    }
}
