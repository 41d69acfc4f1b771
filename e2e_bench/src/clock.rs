//! The open-loop due-time clock.
//!
//! An open loop sends request `i` when it falls due at `i / rate` seconds
//! after the start, whether or not earlier replies have arrived. Latency
//! is timed from the due time, not the send time, so a stall that delays
//! later sends is charged to those requests too. The clock also records
//! how late the generator itself ran, which the report states.

use std::time::Duration;

use crate::stats::Summary;

#[derive(Debug, Clone)]
pub struct OpenLoop {
    interval: Duration,
    /// How late each send was against its due time, in microseconds.
    lateness_us: Vec<f64>,
}

impl OpenLoop {
    /// A clock issuing `rate_per_s` requests per second.
    pub fn new(rate_per_s: f64) -> OpenLoop {
        assert!(rate_per_s > 0.0, "rate must be positive");
        OpenLoop {
            interval: Duration::from_secs_f64(1.0 / rate_per_s),
            lateness_us: Vec::new(),
        }
    }

    /// Offset from the start at which request `i` falls due.
    pub fn due(&self, i: u64) -> Duration {
        self.interval.mul_f64(i as f64)
    }

    /// Records that request `i` was sent at offset `sent`; returns how
    /// late that was (zero when sent on time or early).
    pub fn record_send(&mut self, i: u64, sent: Duration) -> Duration {
        let late = sent.saturating_sub(self.due(i));
        self.lateness_us.push(late.as_secs_f64() * 1e6);
        late
    }

    /// Latency of a reply received at offset `received` to request `i`,
    /// timed from its due time.
    pub fn latency(&self, i: u64, received: Duration) -> Duration {
        received.saturating_sub(self.due(i))
    }

    /// Lateness of the generator's sends, in microseconds.
    pub fn lateness(&self) -> Summary {
        Summary::new(self.lateness_us.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_follow_the_rate() {
        let c = OpenLoop::new(1000.0);
        assert_eq!(c.due(0), Duration::ZERO);
        assert_eq!(c.due(1), Duration::from_millis(1));
        assert_eq!(c.due(2500), Duration::from_millis(2500));
    }

    #[test]
    fn latency_counts_from_the_due_time_not_the_send() {
        let mut c = OpenLoop::new(100.0); // due every 10 ms
                                          // Request 3 is due at 30 ms but the generator stalled to 45 ms.
        let late = c.record_send(3, Duration::from_millis(45));
        assert_eq!(late, Duration::from_millis(15));
        // Its reply at 47 ms has waited 17 ms since it fell due.
        assert_eq!(
            c.latency(3, Duration::from_millis(47)),
            Duration::from_millis(17)
        );
    }

    #[test]
    fn lateness_report_summarises_every_send() {
        let mut c = OpenLoop::new(100.0);
        for i in 0..30u64 {
            // Every send on time except a 5 ms stall on the last ten.
            let extra = if i >= 20 { 5 } else { 0 };
            c.record_send(i, c.due(i) + Duration::from_millis(extra));
        }
        // Early sends count as on time.
        c.record_send(30, Duration::from_millis(299));
        let l = c.lateness();
        assert_eq!(l.len(), 31);
        assert_eq!(l.median(), 0.0);
        assert!((l.quantile(1.0) - 5000.0).abs() < 1e-6);
    }
}
