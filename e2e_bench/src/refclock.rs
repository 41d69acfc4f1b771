//! The reference clock: a dependent multiply chain timed in short chunks.
//!
//! The benchmark host is shared, and the speed it gives a core drifts by
//! a third over minutes as its co-tenants come and go. The drift moves
//! the fastest construct+mine pass of a run and the fastest chunk of this
//! chain by the same factor, so every end-to-end time figure is stated at
//! a fixed reference speed: the measured time times
//! [`REF_NS_PER_ITER`] over the fastest nanoseconds per chain iteration
//! the same run measured. The raw figures go to the report line.

use std::hint::black_box;
use std::time::Instant;

/// The reference speed: nanoseconds per iteration of the chain.
pub const REF_NS_PER_ITER: f64 = 1.25;

/// Iterations per timed chunk (about 2.5 ms at the reference speed).
const CHUNK_ITERS: u64 = 1 << 21;

/// Times one chunk of the chain, in nanoseconds per iteration. Each
/// iteration waits on the previous one's multiply, so the chunk measures
/// the core's speed, not the memory system's.
fn chunk_ns_per_iter() -> f64 {
    let started = Instant::now();
    let mut x = black_box(0x9e37_79b9_7f4a_7c15u64);
    for i in 0..CHUNK_ITERS {
        x = x.wrapping_mul(0x5851_f42d_4c95_7f2d).wrapping_add(i) ^ (x >> 17);
    }
    black_box(x);
    started.elapsed().as_nanos() as f64 / CHUNK_ITERS as f64
}

/// The fastest chunk seen so far.
#[derive(Debug, Clone, Copy, Default)]
pub struct RefClock {
    best_ns_per_iter: Option<f64>,
    chunks: u64,
}

impl RefClock {
    /// Times `chunks` more chunks.
    pub fn sample(&mut self, chunks: usize) {
        for _ in 0..chunks {
            self.observe(chunk_ns_per_iter());
        }
    }

    fn observe(&mut self, ns_per_iter: f64) {
        self.chunks += 1;
        self.best_ns_per_iter = Some(
            self.best_ns_per_iter
                .map_or(ns_per_iter, |b| b.min(ns_per_iter)),
        );
    }

    /// The faster of two clocks, with both sample counts.
    pub fn merge(self, other: RefClock) -> RefClock {
        let best = match (self.best_ns_per_iter, other.best_ns_per_iter) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        RefClock {
            best_ns_per_iter: best,
            chunks: self.chunks + other.chunks,
        }
    }

    /// The fastest nanoseconds per iteration measured (0 before any).
    pub fn best_ns_per_iter(&self) -> f64 {
        self.best_ns_per_iter.unwrap_or(0.0)
    }

    pub fn chunks(&self) -> u64 {
        self.chunks
    }

    /// The factor that states a time measured in this run at the
    /// reference speed (1 before any sample).
    pub fn scale(&self) -> f64 {
        self.best_ns_per_iter
            .map_or(1.0, |best| REF_NS_PER_ITER / best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_follows_the_fastest_chunk() {
        let mut c = RefClock::default();
        assert_eq!(c.scale(), 1.0);
        c.observe(2.5);
        c.observe(5.0);
        assert_eq!(c.best_ns_per_iter(), 2.5);
        assert_eq!(c.scale(), 0.5);
        let mut d = RefClock::default();
        d.observe(1.25);
        let m = c.merge(d);
        assert_eq!(m.scale(), 1.0);
        assert_eq!(m.chunks(), 3);
        assert_eq!(c.merge(RefClock::default()).chunks(), 2);
    }

    #[test]
    fn a_chunk_takes_time() {
        let mut c = RefClock::default();
        c.sample(2);
        assert_eq!(c.chunks(), 2);
        assert!(c.best_ns_per_iter() > 0.0 && c.scale() > 0.0);
    }
}
