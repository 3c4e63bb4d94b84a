//! Per-connection backpressure: a bounded response queue drained by a
//! dedicated writer thread.
//!
//! Workers completing a deduplicated job fan one result out to
//! subscribers on many connections. With writes performed inline (the
//! pre-backpressure design), one stalled reader — a peer that stops
//! draining its socket — blocked the worker mid-fan-out and starved every
//! *other* subscriber of the same job. A [`ConnHandle`] decouples that:
//! enqueueing a response line never blocks, the per-connection writer
//! thread absorbs a slow peer, and when the bounded queue overflows the
//! connection is **condemned** — queue cleared, socket shut down, reader
//! woken — shedding exactly that one peer while everyone else gets their
//! row.
//!
//! The writer seam evaluates the `serve.conn.write` failpoint (tagged
//! with the connection label) before each line, so a chaos schedule can
//! stall or fail one connection's writes deterministically; stalls are
//! cancellable by condemnation, so even a `stall`-held writer dies with
//! its connection instead of leaking.

use std::collections::VecDeque;
use std::io::Write;
use std::sync::{Arc, Condvar, Mutex, PoisonError};

use bitline_failpoint::Action;
use bitline_obs::counter;

/// Callback that forces the connection's socket closed (both directions),
/// waking a reader blocked in `read(2)`. Must be idempotent.
pub type ShutdownFn = Box<dyn Fn() + Send + Sync>;

struct QueueState {
    lines: VecDeque<String>,
    /// Graceful close: no further enqueues; the writer drains then exits.
    closed: bool,
    /// Condemned: the connection is gone; pending lines were dropped.
    dead: bool,
    /// Responses dropped by condemnation or post-close enqueues.
    dropped: u64,
}

struct Shared {
    label: String,
    capacity: usize,
    state: Mutex<QueueState>,
    cond: Condvar,
    shutdown: ShutdownFn,
}

impl Shared {
    fn lock(&self) -> std::sync::MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Idempotently kills the connection: pending responses are dropped,
    /// the writer and any stalled failpoint are released, and the socket
    /// is shut down so a blocked reader wakes with EOF.
    fn condemn(&self, why: &str) {
        let mut s = self.lock();
        if s.dead {
            return;
        }
        s.dead = true;
        let dropped = s.lines.len() as u64;
        s.dropped += dropped;
        s.lines.clear();
        drop(s);
        self.cond.notify_all();
        (self.shutdown)();
        counter!("serve.dropped_responses").add(dropped);
        eprintln!(
            "bitline-serve: disconnecting {} ({why}; {dropped} queued response(s) dropped)",
            self.label
        );
    }
}

/// Condemns the connection if the writer thread dies without a clean
/// drain — including by an injected `serve.conn.write=panic`.
struct CondemnOnDrop {
    shared: Arc<Shared>,
    clean: bool,
}

impl Drop for CondemnOnDrop {
    fn drop(&mut self) {
        if !self.clean {
            self.shared.condemn("writer thread died");
        }
    }
}

/// Shared handle to one connection's response queue. Clones are cheap
/// (one `Arc`); the reader thread and every worker fanning out to this
/// connection hold one.
#[derive(Clone)]
pub struct ConnHandle(Arc<Shared>);

impl ConnHandle {
    /// Builds the queue and spawns the dedicated writer thread over
    /// `writer`. `capacity` bounds the queued lines (min 1); `shutdown`
    /// force-closes the socket when the connection is condemned.
    ///
    /// If the writer thread cannot be spawned the handle is returned
    /// already condemned — enqueues fail, and the caller's reader loop
    /// sees a dead connection rather than a panic.
    pub fn spawn(
        label: impl Into<String>,
        writer: Box<dyn Write + Send>,
        capacity: usize,
        shutdown: ShutdownFn,
    ) -> ConnHandle {
        let shared = Arc::new(Shared {
            label: label.into(),
            capacity: capacity.max(1),
            state: Mutex::new(QueueState {
                lines: VecDeque::new(),
                closed: false,
                dead: false,
                dropped: 0,
            }),
            cond: Condvar::new(),
            shutdown,
        });
        let handle = ConnHandle(Arc::clone(&shared));
        let spawned = std::thread::Builder::new()
            .name(format!("serve-write-{}", shared.label))
            .spawn(move || writer_loop(&shared, writer));
        if let Err(e) = spawned {
            handle.0.condemn(&format!("could not spawn writer thread: {e}"));
        }
        handle
    }

    /// Queues one response line without blocking. Returns `false` when
    /// the line was *not* accepted: the connection is already closed or
    /// dead, or the bounded queue overflowed — in which case this slow
    /// reader is condemned (disconnected) on the spot, shedding exactly
    /// this connection while other subscribers are unaffected.
    pub fn enqueue(&self, line: String) -> bool {
        let mut s = self.0.lock();
        if s.dead || s.closed {
            s.dropped += 1;
            drop(s);
            counter!("serve.dropped_responses").incr();
            return false;
        }
        if s.lines.len() >= self.0.capacity {
            drop(s);
            counter!("serve.slow_disconnects").incr();
            self.0.condemn("slow reader: response queue full");
            return false;
        }
        s.lines.push_back(line);
        drop(s);
        self.0.cond.notify_one();
        true
    }

    /// Graceful close: already-queued responses are still written, then
    /// the writer exits and drops its socket half. Further enqueues fail.
    pub fn close(&self) {
        let mut s = self.0.lock();
        s.closed = true;
        drop(s);
        self.0.cond.notify_all();
    }

    /// Whether the connection has been condemned.
    #[must_use]
    pub fn is_dead(&self) -> bool {
        self.0.lock().dead
    }

    /// The connection label (used as the `serve.conn.*` failpoint tag).
    #[must_use]
    pub fn label(&self) -> &str {
        &self.0.label
    }

    /// Responses dropped on this connection (condemnation or post-close).
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.0.lock().dropped
    }
}

fn writer_loop(shared: &Arc<Shared>, mut writer: Box<dyn Write + Send>) {
    let mut guard = CondemnOnDrop { shared: Arc::clone(shared), clean: false };
    loop {
        let line = {
            let mut s = shared.lock();
            loop {
                if s.dead {
                    return; // guard fires, condemn is idempotent
                }
                if let Some(line) = s.lines.pop_front() {
                    break line;
                }
                if s.closed {
                    guard.clean = true;
                    return;
                }
                s = shared.cond.wait(s).unwrap_or_else(PoisonError::into_inner);
            }
        };
        // The write seam: delay/stall model a backed-up peer, err models a
        // broken pipe, panic exercises the CondemnOnDrop path.
        match bitline_failpoint::eval_tagged("serve.conn.write", &shared.label) {
            None => {}
            Some(Action::Delay(d)) => std::thread::sleep(d),
            Some(Action::Stall(limit)) => {
                let s2 = Arc::clone(shared);
                bitline_failpoint::stall_while("serve.conn.write", limit, move || s2.lock().dead);
                if shared.lock().dead {
                    return;
                }
            }
            Some(Action::Err(errno)) => {
                shared.condemn(&format!(
                    "injected write error: {}",
                    std::io::Error::from_raw_os_error(errno)
                ));
                counter!("serve.write_errors").incr();
                return;
            }
            Some(Action::ShortWrite(_)) => {}
            Some(Action::Panic) => panic!("failpoint `serve.conn.write` fired: panic"),
        }
        let outcome = writer
            .write_all(line.as_bytes())
            .and_then(|()| writer.write_all(b"\n"))
            .and_then(|()| writer.flush());
        if let Err(e) = outcome {
            // A disconnected client is not the daemon's problem: the run
            // result is journaled regardless, and the next identical
            // request replays it. Condemn so queued lines stop piling up.
            counter!("serve.write_errors").incr();
            shared.condemn(&format!("write failed: {e}"));
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    /// A writer the test can block and unblock, modelling a stalled peer.
    struct GatedWriter {
        gate: Arc<AtomicBool>,
        out: Arc<Mutex<Vec<u8>>>,
    }

    impl Write for GatedWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            while self.gate.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(1));
            }
            self.out.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
        for _ in 0..2000 {
            if done() {
                return;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        panic!("timed out waiting for {what}");
    }

    #[test]
    fn enqueued_lines_are_written_in_order() {
        let out = Arc::new(Mutex::new(Vec::new()));
        let gate = Arc::new(AtomicBool::new(false));
        let w = GatedWriter { gate, out: Arc::clone(&out) };
        let conn = ConnHandle::spawn("t-order", Box::new(w), 8, Box::new(|| {}));
        assert!(conn.enqueue("one".into()));
        assert!(conn.enqueue("two".into()));
        wait_until("both lines written", || out.lock().unwrap().len() == 8);
        assert_eq!(out.lock().unwrap().as_slice(), b"one\ntwo\n");
        conn.close();
        assert!(!conn.enqueue("three".into()), "closed connections refuse new lines");
    }

    #[test]
    fn overflow_condemns_the_connection_and_fires_shutdown() {
        let out = Arc::new(Mutex::new(Vec::new()));
        let gate = Arc::new(AtomicBool::new(true)); // peer stalled
        let w = GatedWriter { gate: Arc::clone(&gate), out: Arc::clone(&out) };
        let fired = Arc::new(AtomicBool::new(false));
        let fired2 = Arc::clone(&fired);
        let conn = ConnHandle::spawn(
            "t-overflow",
            Box::new(w),
            2,
            Box::new(move || fired2.store(true, Ordering::Relaxed)),
        );
        // The writer thread blocks on the stalled peer; the bounded queue
        // (capacity 2) then fills, and the overflowing enqueue condemns
        // instead of blocking.
        let mut accepted = 0;
        while conn.enqueue(format!("fill-{accepted}")) {
            accepted += 1;
            assert!(accepted < 16, "a capacity-2 queue cannot accept this much");
        }
        assert!(conn.is_dead(), "overflow condemns");
        assert!(fired.load(Ordering::Relaxed), "shutdown callback fired");
        assert!(conn.dropped() > 0, "queued lines were dropped");
        gate.store(false, Ordering::Relaxed); // unblock the writer thread
        assert!(!conn.enqueue("late".into()), "condemned connections refuse lines");
    }

    #[test]
    fn a_stalled_write_failpoint_is_cancelled_by_condemnation() {
        bitline_failpoint::arm("serve.conn.write[t-stall]=stall").unwrap();
        let out = Arc::new(Mutex::new(Vec::new()));
        let gate = Arc::new(AtomicBool::new(false));
        let w = GatedWriter { gate, out: Arc::clone(&out) };
        let conn = ConnHandle::spawn("t-stall", Box::new(w), 4, Box::new(|| {}));
        assert!(conn.enqueue("held".into()));
        std::thread::sleep(Duration::from_millis(20));
        assert!(out.lock().unwrap().is_empty(), "the stall held the line back");
        // Overflow the queue: condemnation must release the stalled writer.
        while conn.enqueue("fill".into()) {}
        wait_until("condemnation observed", || conn.is_dead());
        bitline_failpoint::disarm("serve.conn.write");
        assert!(out.lock().unwrap().is_empty(), "no line escapes a condemned stall");
    }
}
