//! Edge-to-cloud network substrate.
//!
//! The paper's testbed connects Jetson edge devices to the cloud server
//! over a Wi-Fi router, throttled to 20/40/80 Mbps for the end-to-end
//! experiments (Fig. 12). [`Link`] models that uplink as a FIFO
//! store-and-forward queue: messages serialise onto the wire in arrival
//! order at the configured bandwidth, plus propagation delay, and the
//! link can be taken down for failure injection.
//!
//! # Example
//!
//! ```
//! use tangram_net::{Link, LinkConfig};
//! use tangram_types::time::SimTime;
//! use tangram_types::units::{Bandwidth, Bytes};
//!
//! let mut link = Link::new(LinkConfig::mbps(80.0));
//! // Two back-to-back 1 MB uploads serialise on the wire.
//! let first = link.enqueue(SimTime::ZERO, Bytes::new(1_000_000));
//! let second = link.enqueue(SimTime::ZERO, Bytes::new(1_000_000));
//! assert!(second > first);
//! ```

use tangram_types::time::{SimDuration, SimTime};
use tangram_types::units::{Bandwidth, Bytes};

/// One-way propagation delay added after serialisation: the testbed's
/// ~2 ms Wi-Fi hop.
const PROPAGATION: SimDuration = SimDuration::from_millis(2);

/// Static configuration of a link.
#[derive(Debug, Clone)]
pub struct LinkConfig {
    /// Wire rate.
    pub bandwidth: Bandwidth,
}

impl LinkConfig {
    /// A link at the given Mbps (plus the testbed's ~2 ms propagation
    /// delay).
    #[must_use]
    pub fn mbps(mbps: f64) -> Self {
        Self {
            bandwidth: Bandwidth::from_mbps(mbps),
        }
    }
}

/// Counters describing everything a link has carried.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Total payload bytes accepted.
    pub bytes: Bytes,
    /// Number of messages accepted.
    pub messages: u64,
    /// Wire time spent transmitting them (outages and idle gaps excluded).
    pub busy: SimDuration,
}

/// A FIFO store-and-forward uplink shared by all cameras of one site.
#[derive(Debug, Clone)]
pub struct Link {
    config: LinkConfig,
    busy_until: SimTime,
    stats: LinkStats,
}

impl Link {
    /// Creates an idle link.
    #[must_use]
    pub fn new(config: LinkConfig) -> Self {
        Self {
            config,
            busy_until: SimTime::ZERO,
            stats: LinkStats::default(),
        }
    }

    /// The link configuration.
    #[must_use]
    pub fn config(&self) -> &LinkConfig {
        &self.config
    }

    /// Cumulative traffic counters.
    #[must_use]
    pub fn stats(&self) -> LinkStats {
        self.stats
    }

    /// When the wire becomes free.
    #[must_use]
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Accepts a message at `now`; returns its delivery time at the cloud.
    ///
    /// Messages serialise in FIFO order: transmission starts when both the
    /// sender is ready (`now`) and the wire is free.
    pub fn enqueue(&mut self, now: SimTime, size: Bytes) -> SimTime {
        let start = self.busy_until.max(now);
        let transmission = self.config.bandwidth.transmission_time(size);
        let end = start + transmission;
        self.busy_until = end;
        self.stats.bytes += size;
        self.stats.messages += 1;
        self.stats.busy += transmission;
        end + PROPAGATION
    }

    /// Failure injection: the wire carries nothing until `until` (an
    /// outage or a congestion event). Already-queued messages finish late.
    pub fn outage_until(&mut self, until: SimTime) {
        self.busy_until = self.busy_until.max(until);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn transmission_time_matches_bandwidth() {
        // 1 MB at 80 Mbps = 0.1 s + 2 ms propagation.
        let mut link = Link::new(LinkConfig::mbps(80.0));
        let delivery = link.enqueue(SimTime::ZERO, Bytes::new(1_000_000));
        assert_eq!(delivery, t(102_000));
    }

    #[test]
    fn fifo_serialisation() {
        let mut link = Link::new(LinkConfig::mbps(80.0));
        let a = link.enqueue(SimTime::ZERO, Bytes::new(1_000_000));
        let b = link.enqueue(SimTime::ZERO, Bytes::new(1_000_000));
        // Second message waits for the first: 0.2 s + propagation.
        assert_eq!(a, t(102_000));
        assert_eq!(b, t(202_000));
    }

    #[test]
    fn idle_gap_resets_queueing() {
        let mut link = Link::new(LinkConfig::mbps(80.0));
        let _ = link.enqueue(SimTime::ZERO, Bytes::new(100_000)); // done at 10 ms
        let late = link.enqueue(t(500_000), Bytes::new(100_000));
        assert_eq!(late, t(512_000), "wire was idle; no queueing");
    }

    #[test]
    fn slower_links_take_proportionally_longer() {
        let mut fast = Link::new(LinkConfig::mbps(80.0));
        let mut slow = Link::new(LinkConfig::mbps(20.0));
        let payload = Bytes::new(2_000_000);
        let f = fast.enqueue(SimTime::ZERO, payload);
        let s = slow.enqueue(SimTime::ZERO, payload);
        let ratio = (s.as_micros() - 2_000) as f64 / (f.as_micros() - 2_000) as f64;
        assert!((ratio - 4.0).abs() < 1e-9);
    }

    #[test]
    fn stats_accumulate() {
        let mut link = Link::new(LinkConfig::mbps(20.0));
        let _ = link.enqueue(SimTime::ZERO, Bytes::new(1000));
        let _ = link.enqueue(SimTime::ZERO, Bytes::new(2000));
        assert_eq!(
            link.stats(),
            LinkStats {
                bytes: Bytes::new(3000),
                messages: 2,
                busy: Bandwidth::from_mbps(20.0).transmission_time(Bytes::new(3000)),
            }
        );
    }

    #[test]
    fn busy_sums_the_transmission_times_and_an_outage_adds_nothing() {
        let bandwidth = Bandwidth::from_mbps(40.0);
        let mut link = Link::new(LinkConfig::mbps(40.0));
        let sizes = [120_000, 7, 64_000, 1_000_000, 33_333];
        let mut expected = SimDuration::ZERO;
        for (i, &size) in sizes.iter().enumerate() {
            if i == 2 {
                link.outage_until(t(5_000_000));
            }
            let _ = link.enqueue(t(i as u64 * 1_000), Bytes::new(size));
            expected += bandwidth.transmission_time(Bytes::new(size));
        }
        assert!(link.busy_until() > t(5_000_000), "the outage held the wire");
        assert_eq!(link.stats().busy, expected);
    }

    #[test]
    fn outage_delays_following_traffic() {
        let mut link = Link::new(LinkConfig::mbps(80.0));
        link.outage_until(t(1_000_000));
        let delivery = link.enqueue(SimTime::ZERO, Bytes::new(100_000));
        assert_eq!(delivery, t(1_012_000));
    }
}
