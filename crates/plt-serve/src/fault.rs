//! Deterministic fault injection for the serving stack.
//!
//! A [`FaultPlan`] is built from a `u64` seed plus probability knobs and
//! threaded (as `Arc<FaultPlan>`) through the server connection loop, the
//! frame codec, the snapshot builder, and the client. Each injection
//! *site* owns its own monotonically increasing draw counter, and every
//! decision is a pure function of `(seed, site, draw index)` — so a seeded
//! chaos run is bit-reproducible: the n-th decision at a site is the same
//! whatever the thread interleaving, and two plans with the same seed and
//! knobs produce identical fault sequences.
//!
//! The plan can inject:
//!
//! * **torn frames** — a frame truncated mid-payload, then the connection
//!   errors out (exercises `read_exact` failure paths and deadlines);
//! * **oversized frames** — a length header past the frame limit
//!   (exercises pre-allocation rejection);
//! * **short reads/writes** — an I/O call moves a single byte (exercises
//!   buffering and `read_exact`/`write_all` loops);
//! * **stalls** — an I/O call sleeps first (exercises deadlines);
//! * **builder panics** — a re-mine panics at a deterministic point
//!   (exercises graceful degradation to the last good snapshot);
//! * **holds** — [`FaultPlan::hold_io`] parks every later I/O call until
//!   [`FaultPlan::release_io`], so a test can pin the server in a stalled
//!   state without racing a timer.
//!
//! Everything is `std`-only. Injected faults are recorded in a bounded
//! in-memory log ([`FaultPlan::events`]) so tests can assert the exact
//! sequence.

use std::io::{Read, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Where a fault decision is being drawn. Each site has an independent
/// deterministic draw sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Site {
    /// Server-side reads from a connection.
    ServerRead,
    /// Server-side frame writes to a connection.
    ServerWrite,
    /// Client-side reads of responses.
    ClientRead,
    /// Client-side frame writes of requests.
    ClientWrite,
    /// The snapshot builder's rebuild step.
    Builder,
}

const SITES: usize = 5;

impl Site {
    fn index(self) -> usize {
        match self {
            Site::ServerRead => 0,
            Site::ServerWrite => 1,
            Site::ClientRead => 2,
            Site::ClientWrite => 3,
            Site::Builder => 4,
        }
    }

    pub fn as_str(self) -> &'static str {
        match self {
            Site::ServerRead => "server-read",
            Site::ServerWrite => "server-write",
            Site::ClientRead => "client-read",
            Site::ClientWrite => "client-write",
            Site::Builder => "builder",
        }
    }
}

/// Probability knobs for a plan. All probabilities are in `[0, 1]`; a
/// knob of `0.0` disables that fault entirely.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Seed for every deterministic draw.
    pub seed: u64,
    /// Probability a written frame is torn (truncated mid-frame, then the
    /// writer errors).
    pub torn_frame: f64,
    /// Probability a written frame claims a length past the frame limit.
    pub oversized_frame: f64,
    /// Probability an I/O call is shortened to a single byte.
    pub short_io: f64,
    /// Probability an I/O call stalls for [`stall_ms`](Self::stall_ms)
    /// before proceeding.
    pub stall: f64,
    /// Stall duration in milliseconds.
    pub stall_ms: u64,
    /// Probability one rebuild of the snapshot builder panics.
    pub builder_panic: f64,
}

impl FaultConfig {
    /// All faults off (still deterministic — draws happen, nothing fires).
    pub fn disabled(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            torn_frame: 0.0,
            oversized_frame: 0.0,
            short_io: 0.0,
            stall: 0.0,
            stall_ms: 0,
            builder_panic: 0.0,
        }
    }

    /// The default chaos mix used by `serve --fault-seed`: frequent short
    /// I/O, occasional stalls and torn/oversized frames, no builder
    /// panics (enable those explicitly).
    pub fn chaos(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            torn_frame: 0.05,
            oversized_frame: 0.02,
            short_io: 0.25,
            stall: 0.05,
            stall_ms: 15,
            builder_panic: 0.0,
        }
    }
}

/// A frame-level fault chosen for one outgoing frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameFault {
    /// Write only the first `keep` bytes of the encoded frame, then fail.
    Torn { keep: usize },
    /// Write a length header exceeding the receiver's frame limit.
    Oversized,
}

/// An I/O-level fault chosen for one read/write call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoFault {
    /// Move at most one byte.
    Short,
    /// Sleep before the call.
    Stall(Duration),
}

/// One recorded injection, for reproducibility assertions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEvent {
    pub site: &'static str,
    /// Draw index at the site (0-based).
    pub seq: u64,
    /// What was injected, e.g. `"torn(17)"`, `"stall"`, `"panic"`.
    pub kind: String,
}

/// Cap on the event log so long chaos runs stay bounded.
const MAX_EVENTS: usize = 4096;

/// A seed-deterministic fault plan. Cheap to share (`Arc`); all state is
/// per-site atomic counters plus the bounded event log.
#[derive(Debug)]
pub struct FaultPlan {
    config: FaultConfig,
    counters: [AtomicU64; SITES],
    events: Mutex<Vec<FaultEvent>>,
    gate: IoGate,
}

const GATE_POISONED: &str = "a thread panicked while parked at the fault gate";

/// The gate behind [`FaultPlan::hold_io`]: while `closed`, every I/O
/// fault draw parks on `changed`. `closed` is cleared only under the
/// `parked` lock, so a parked call cannot miss the wakeup.
#[derive(Debug, Default)]
struct IoGate {
    /// Checked before any locking, so an open gate costs one load.
    closed: AtomicBool,
    /// I/O calls parked at the gate right now.
    parked: Mutex<usize>,
    changed: Condvar,
}

/// SplitMix64: a well-distributed 64-bit mix, `std`-only.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// Maps a draw to a uniform float in `[0, 1)`.
fn unit(v: u64) -> f64 {
    (v >> 11) as f64 / (1u64 << 53) as f64
}

impl FaultPlan {
    pub fn new(config: FaultConfig) -> FaultPlan {
        FaultPlan {
            config,
            counters: Default::default(),
            events: Mutex::new(Vec::new()),
            gate: IoGate::default(),
        }
    }

    /// Convenience: a shared plan.
    pub fn shared(config: FaultConfig) -> Arc<FaultPlan> {
        Arc::new(FaultPlan::new(config))
    }

    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// One deterministic draw at `site`: value is a pure function of
    /// `(seed, site, per-site sequence number)`.
    fn draw(&self, site: Site) -> (u64, u64) {
        let seq = self.counters[site.index()].fetch_add(1, Ordering::Relaxed);
        let v = splitmix64(
            self.config
                .seed
                .wrapping_add((site.index() as u64 + 1).wrapping_mul(0xa076_1d64_78bd_642f))
                .wrapping_add(seq.wrapping_mul(0xe703_7ed1_a0b4_28db)),
        );
        (seq, v)
    }

    fn record(&self, site: Site, seq: u64, kind: String) {
        let mut log = self.events.lock().unwrap();
        if log.len() < MAX_EVENTS {
            log.push(FaultEvent {
                site: site.as_str(),
                seq,
                kind,
            });
        }
    }

    /// Decides the fate of one outgoing frame of `frame_len` encoded
    /// bytes at `site`.
    pub fn frame_fault(&self, site: Site, frame_len: usize) -> Option<FrameFault> {
        let (seq, v) = self.draw(site);
        let u = unit(v);
        if u < self.config.torn_frame {
            // Re-mix for the cut point so it is independent of the
            // fire/no-fire decision; keep at least the first byte so the
            // peer sees a partial frame, not a clean close.
            let keep = 1 + (splitmix64(v) as usize) % frame_len.max(2).saturating_sub(1);
            self.record(site, seq, format!("torn({keep})"));
            Some(FrameFault::Torn { keep })
        } else if u < self.config.torn_frame + self.config.oversized_frame {
            self.record(site, seq, "oversized".to_string());
            Some(FrameFault::Oversized)
        } else {
            None
        }
    }

    /// Decides the fate of one I/O call at `site`. Parks first while the
    /// plan is held (see [`hold_io`](Self::hold_io)).
    pub fn io_fault(&self, site: Site) -> Option<IoFault> {
        if self.gate.closed.load(Ordering::Acquire) {
            let mut parked = self.gate.parked.lock().expect(GATE_POISONED);
            *parked += 1;
            self.gate.changed.notify_all();
            while self.gate.closed.load(Ordering::Acquire) {
                parked = self.gate.changed.wait(parked).expect(GATE_POISONED);
            }
            *parked -= 1;
        }
        if self.config.short_io == 0.0 && self.config.stall == 0.0 {
            // Fast path: keep the counter advancing is unnecessary when
            // nothing can fire — and skipping the draw keeps fault-free
            // servers at full speed.
            return None;
        }
        let (seq, v) = self.draw(site);
        let u = unit(v);
        if u < self.config.stall {
            self.record(site, seq, "stall".to_string());
            Some(IoFault::Stall(Duration::from_millis(self.config.stall_ms)))
        } else if u < self.config.stall + self.config.short_io {
            self.record(site, seq, "short".to_string());
            Some(IoFault::Short)
        } else {
            None
        }
    }

    /// Panics (deterministically) if this rebuild was chosen to fail.
    /// Call at the builder's injection point; the builder catches the
    /// unwind and degrades.
    pub fn maybe_builder_panic(&self) {
        let (seq, v) = self.draw(Site::Builder);
        if unit(v) < self.config.builder_panic {
            self.record(Site::Builder, seq, "panic".to_string());
            panic!("fault injection: builder panic (seed {})", self.config.seed);
        }
    }

    /// Closes the gate: every later I/O call through this plan parks
    /// until [`release_io`](Self::release_io). For tests that need the
    /// server held mid-I/O for as long as they take.
    pub fn hold_io(&self) {
        self.gate.closed.store(true, Ordering::Release);
    }

    /// Opens the gate and wakes every parked I/O call.
    pub fn release_io(&self) {
        let _parked = self.gate.parked.lock().expect(GATE_POISONED);
        self.gate.closed.store(false, Ordering::Release);
        self.gate.changed.notify_all();
    }

    /// Waits until at least one I/O call is parked at the closed gate;
    /// `false` if none arrived within `timeout`.
    pub fn wait_parked(&self, timeout: Duration) -> bool {
        let parked = self.gate.parked.lock().expect(GATE_POISONED);
        let (parked, _) = self
            .gate
            .changed
            .wait_timeout_while(parked, timeout, |n| *n == 0)
            .expect(GATE_POISONED);
        *parked > 0
    }

    /// The injected-fault log so far (bounded, see `MAX_EVENTS`).
    pub fn events(&self) -> Vec<FaultEvent> {
        self.events.lock().unwrap().clone()
    }
}

/// A stream wrapper that applies a plan's I/O faults (short ops, stalls)
/// to every read/write. Framing faults live in the codec
/// ([`write_frame_with`](crate::proto::write_frame_with)), not here.
#[derive(Debug)]
pub struct FaultyStream<S> {
    inner: S,
    plan: Arc<FaultPlan>,
    site: Site,
}

impl<S> FaultyStream<S> {
    pub fn new(inner: S, plan: Arc<FaultPlan>, site: Site) -> FaultyStream<S> {
        FaultyStream { inner, plan, site }
    }

    pub fn get_ref(&self) -> &S {
        &self.inner
    }
}

impl<S: Read> Read for FaultyStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self.plan.io_fault(self.site) {
            Some(IoFault::Stall(d)) => std::thread::sleep(d),
            Some(IoFault::Short) if !buf.is_empty() => {
                return self.inner.read(&mut buf[..1]);
            }
            _ => {}
        }
        self.inner.read(buf)
    }
}

impl<S: Write> Write for FaultyStream<S> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self.plan.io_fault(self.site) {
            Some(IoFault::Stall(d)) => std::thread::sleep(d),
            Some(IoFault::Short) if !buf.is_empty() => {
                return self.inner.write(&buf[..1]);
            }
            _ => {}
        }
        self.inner.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(plan: &FaultPlan, draws: usize) -> Vec<FaultEvent> {
        for _ in 0..draws {
            let _ = plan.frame_fault(Site::ServerWrite, 64);
            let _ = plan.io_fault(Site::ServerRead);
            let _ = plan.io_fault(Site::ClientWrite);
        }
        plan.events()
    }

    #[test]
    fn same_seed_same_sequence() {
        let config = FaultConfig {
            builder_panic: 0.0,
            ..FaultConfig::chaos(0xfeed)
        };
        let a = drain(&FaultPlan::new(config), 300);
        let b = drain(&FaultPlan::new(config), 300);
        assert!(!a.is_empty(), "chaos knobs must fire within 300 draws");
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = drain(&FaultPlan::new(FaultConfig::chaos(1)), 300);
        let b = drain(&FaultPlan::new(FaultConfig::chaos(2)), 300);
        assert_ne!(a, b);
    }

    #[test]
    fn per_site_sequences_ignore_interleaving() {
        // Whatever order sites are visited in, the n-th draw at a site is
        // fixed — draw ServerWrite alone, then interleaved, same answers.
        let config = FaultConfig::chaos(42);
        let solo = FaultPlan::new(config);
        let solo_decisions: Vec<_> = (0..100)
            .map(|_| solo.frame_fault(Site::ServerWrite, 64))
            .collect();
        let mixed = FaultPlan::new(config);
        let mixed_decisions: Vec<_> = (0..100)
            .map(|_| {
                let _ = mixed.io_fault(Site::ClientRead);
                let _ = mixed.io_fault(Site::ServerRead);
                mixed.frame_fault(Site::ServerWrite, 64)
            })
            .collect();
        assert_eq!(solo_decisions, mixed_decisions);
    }

    #[test]
    fn disabled_plan_never_fires() {
        let plan = FaultPlan::new(FaultConfig::disabled(9));
        for _ in 0..500 {
            assert_eq!(plan.frame_fault(Site::ClientWrite, 32), None);
            assert_eq!(plan.io_fault(Site::ServerRead), None);
            plan.maybe_builder_panic();
        }
        assert!(plan.events().is_empty());
    }

    #[test]
    fn builder_panic_fires_at_probability_one() {
        let plan = FaultPlan::new(FaultConfig {
            builder_panic: 1.0,
            ..FaultConfig::disabled(7)
        });
        let caught =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| plan.maybe_builder_panic()));
        assert!(caught.is_err());
        assert_eq!(plan.events()[0].kind, "panic");
    }

    #[test]
    fn faulty_stream_preserves_bytes() {
        // Short ops reorder nothing: the payload survives byte-for-byte.
        let plan = FaultPlan::shared(FaultConfig {
            short_io: 0.8,
            ..FaultConfig::disabled(3)
        });
        let payload: Vec<u8> = (0u16..512).map(|i| (i % 251) as u8).collect();
        let mut sink = Vec::new();
        {
            let mut w = FaultyStream::new(&mut sink, plan.clone(), Site::ServerWrite);
            w.write_all(&payload).unwrap();
            w.flush().unwrap();
        }
        assert_eq!(sink, payload);
        let mut r = FaultyStream::new(std::io::Cursor::new(&sink), plan, Site::ServerRead);
        let mut back = Vec::new();
        r.read_to_end(&mut back).unwrap();
        assert_eq!(back, payload);
    }

    #[test]
    fn held_io_parks_until_released() {
        let plan = FaultPlan::shared(FaultConfig::disabled(3));
        assert!(!plan.wait_parked(Duration::from_millis(1)), "open gate");
        plan.hold_io();
        let worker = {
            let plan = plan.clone();
            std::thread::spawn(move || plan.io_fault(Site::ServerRead))
        };
        assert!(
            plan.wait_parked(Duration::from_secs(10)),
            "call never parked"
        );
        assert!(!worker.is_finished(), "parked call returned while held");
        plan.release_io();
        assert_eq!(worker.join().unwrap(), None, "no fault once released");
        assert!(plan.events().is_empty());
    }
}
