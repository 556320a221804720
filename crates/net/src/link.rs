//! Bidirectional point-to-point links with rate, delay and drop-tail queues.
//!
//! Queueing is modeled analytically: each direction tracks the time its
//! transmitter becomes free (`busy_until`) and the number of packets
//! enqueued but not yet fully serialized. A packet offered at time `t`
//! departs at `max(t, busy_until) + size/rate` or is dropped if the queue is
//! full. This is exact for FIFO drop-tail without needing per-byte events —
//! the EPC "buffer bloat" effect (§4.2) falls straight out of it.

use dlte_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Identifies a link in the network.
pub type LinkId = usize;

/// Static link parameters.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct LinkConfig {
    /// One-way propagation delay.
    pub delay: SimDuration,
    /// Serialization rate, bits/s.
    pub rate_bps: f64,
    /// Drop-tail queue capacity, packets (per direction).
    pub queue_pkts: usize,
    /// Independent random loss probability per packet.
    pub loss: f64,
}

impl LinkConfig {
    /// A generous LAN-ish link: 1 Gbit/s, 0.1 ms, deep queue.
    pub fn lan() -> LinkConfig {
        LinkConfig {
            delay: SimDuration::from_micros(100),
            rate_bps: 1e9,
            queue_pkts: 1000,
            loss: 0.0,
        }
    }

    /// A rural backhaul link: 50 Mbit/s, 10 ms, modest queue — the paper's
    /// deployment has VSAT/long-haul wireless backhaul.
    pub fn rural_backhaul() -> LinkConfig {
        LinkConfig {
            delay: SimDuration::from_millis(10),
            rate_bps: 50e6,
            queue_pkts: 200,
            loss: 0.0,
        }
    }

    /// Wide-area Internet transit: 10 Gbit/s, configurable delay.
    pub fn wan(delay: SimDuration) -> LinkConfig {
        LinkConfig {
            delay,
            rate_bps: 10e9,
            queue_pkts: 10_000,
            loss: 0.0,
        }
    }

    /// Serialization time of a packet of `bytes`.
    pub fn serialization(&self, bytes: u32) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 * 8.0 / self.rate_bps)
    }
}

/// Per-direction dynamic state.
#[derive(Clone, Copy, Debug, Default)]
pub struct DirState {
    pub busy_until: SimTime,
    /// Packets accepted but whose serialization has not finished.
    pub queued: usize,
    // Stats.
    pub tx_packets: u64,
    pub tx_bytes: u64,
    pub drops_queue: u64,
    pub drops_loss: u64,
    /// Packets offered while the link was administratively down.
    pub drops_down: u64,
    /// Sum of queueing delays (excluding serialization), for mean queue delay.
    pub queue_delay_sum: SimDuration,
}

/// Transient parameter overrides applied on top of a link's [`LinkConfig`]
/// without losing the static configuration — fault injection installs these
/// for loss bursts, latency/jitter storms and rate throttles, then clears
/// them to restore the configured behaviour.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LinkOverride {
    /// Replaces the configured loss probability while set.
    pub loss: Option<f64>,
    /// Added to the configured one-way propagation delay.
    pub extra_delay: Option<SimDuration>,
    /// Uniform per-packet jitter amplitude added on top of the delay
    /// (scaled by a pre-drawn uniform [0,1)).
    pub jitter: Option<SimDuration>,
    /// Replaces the configured serialization rate while set.
    pub rate_bps: Option<f64>,
}

impl LinkOverride {
    /// True when no field overrides anything.
    pub fn is_empty(&self) -> bool {
        *self == LinkOverride::default()
    }
}

/// A link instance: endpoints plus per-direction state. Direction 0 is
/// a→b, direction 1 is b→a.
#[derive(Clone, Debug)]
pub struct Link {
    pub a: usize,
    pub b: usize,
    pub config: LinkConfig,
    pub dirs: [DirState; 2],
    /// Administrative/physical state: a down link drops everything offered
    /// to it (backhaul-failure experiments flip this at runtime).
    pub up: bool,
    /// Transient fault-injection overrides (None = configured behaviour).
    pub transient: Option<LinkOverride>,
}

/// Outcome of offering a packet to a link direction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Offer {
    /// Accepted; packet arrives at the far end at this time.
    Accepted {
        arrives_at: SimTime,
        departs_at: SimTime,
    },
    /// Dropped: queue full.
    DroppedQueueFull,
    /// Dropped: random loss.
    DroppedLoss,
    /// Dropped: the link is down.
    DroppedLinkDown,
}

impl Link {
    pub fn new(a: usize, b: usize, config: LinkConfig) -> Link {
        Link {
            a,
            b,
            config,
            dirs: [DirState::default(), DirState::default()],
            up: true,
            transient: None,
        }
    }

    /// Install a transient override (replacing any previous one).
    pub fn set_override(&mut self, ov: LinkOverride) {
        self.transient = if ov.is_empty() { None } else { Some(ov) };
    }

    /// Remove the transient override, restoring configured behaviour.
    pub fn clear_override(&mut self) {
        self.transient = None;
    }

    /// Direction index for a transmission from node `from`.
    pub fn dir_from(&self, from: usize) -> Option<usize> {
        if from == self.a {
            Some(0)
        } else if from == self.b {
            Some(1)
        } else {
            None
        }
    }

    /// The far-end node for a transmission from `from`.
    pub fn other(&self, from: usize) -> usize {
        if from == self.a {
            self.b
        } else {
            self.a
        }
    }

    /// The loss probability in force: the override's while one is set, else
    /// the configured one. `offer` reads its loss draw only when this is
    /// positive.
    pub(crate) fn loss(&self) -> f64 {
        self.transient
            .and_then(|ov| ov.loss)
            .unwrap_or(self.config.loss)
    }

    /// Whether a jitter override is active — the only case in which
    /// `offer` reads its jitter draw.
    pub(crate) fn jitters(&self) -> bool {
        self.transient.is_some_and(|ov| ov.jitter.is_some())
    }

    /// Offer a packet for transmission. `lossy_draw` and `jitter_draw` are
    /// pre-drawn uniforms [0,1) used for random loss and (when a jitter
    /// override is active) per-packet jitter — kept outside so the link
    /// stays RNG-agnostic and deterministic to test.
    pub fn offer(
        &mut self,
        dir: usize,
        now: SimTime,
        bytes: u32,
        lossy_draw: f64,
        jitter_draw: f64,
    ) -> Offer {
        let cfg = self.config;
        let loss = self.loss();
        let ov = self.transient.unwrap_or_default();
        let d = &mut self.dirs[dir];
        if !self.up {
            d.drops_down += 1;
            return Offer::DroppedLinkDown;
        }
        if d.queued >= cfg.queue_pkts {
            d.drops_queue += 1;
            return Offer::DroppedQueueFull;
        }
        if lossy_draw < loss {
            d.drops_loss += 1;
            return Offer::DroppedLoss;
        }
        let rate_bps = ov.rate_bps.unwrap_or(cfg.rate_bps);
        let ser = SimDuration::from_secs_f64(bytes as f64 * 8.0 / rate_bps);
        let start = d.busy_until.max(now);
        let departs_at = start + ser;
        d.queue_delay_sum += start.saturating_since(now);
        d.busy_until = departs_at;
        d.queued += 1;
        d.tx_packets += 1;
        d.tx_bytes += bytes as u64;
        let mut delay = cfg.delay + ov.extra_delay.unwrap_or(SimDuration::ZERO);
        if let Some(jitter) = ov.jitter {
            delay += SimDuration::from_secs_f64(jitter.as_secs_f64() * jitter_draw);
        }
        Offer::Accepted {
            arrives_at: departs_at + delay,
            departs_at,
        }
    }

    /// Called when a previously accepted packet finishes serializing.
    pub fn departed(&mut self, dir: usize) {
        let d = &mut self.dirs[dir];
        debug_assert!(d.queued > 0, "departure without queued packet");
        d.queued = d.queued.saturating_sub(1);
    }

    /// Mean queueing delay (excluding serialization) over accepted packets.
    pub fn mean_queue_delay(&self, dir: usize) -> SimDuration {
        let d = &self.dirs[dir];
        match d.queue_delay_sum.as_nanos().checked_div(d.tx_packets) {
            Some(mean) => SimDuration::from_nanos(mean),
            None => SimDuration::ZERO,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link() -> Link {
        Link::new(
            0,
            1,
            LinkConfig {
                delay: SimDuration::from_millis(5),
                rate_bps: 8e6, // 1 byte/µs
                queue_pkts: 2,
                loss: 0.0,
            },
        )
    }

    #[test]
    fn serialization_and_delay_compose() {
        let mut l = link();
        // 1000 bytes at 8 Mbit/s = 1 ms serialization + 5 ms propagation.
        match l.offer(0, SimTime::ZERO, 1000, 1.0, 0.0) {
            Offer::Accepted {
                arrives_at,
                departs_at,
            } => {
                assert_eq!(departs_at.as_millis(), 1);
                assert_eq!(arrives_at.as_millis(), 6);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn back_to_back_packets_queue() {
        let mut l = link();
        let first = l.offer(0, SimTime::ZERO, 1000, 1.0, 0.0);
        let second = l.offer(0, SimTime::ZERO, 1000, 1.0, 0.0);
        match (first, second) {
            (Offer::Accepted { departs_at: d1, .. }, Offer::Accepted { departs_at: d2, .. }) => {
                assert_eq!(d1.as_millis(), 1);
                assert_eq!(d2.as_millis(), 2, "second waits for first");
            }
            other => panic!("{other:?}"),
        }
        // Queue capacity 2 → third drops.
        assert_eq!(
            l.offer(0, SimTime::ZERO, 1000, 1.0, 0.0),
            Offer::DroppedQueueFull
        );
        assert_eq!(l.dirs[0].drops_queue, 1);
        // After a departure there is room again.
        l.departed(0);
        assert!(matches!(
            l.offer(0, SimTime::ZERO, 1000, 1.0, 0.0),
            Offer::Accepted { .. }
        ));
    }

    #[test]
    fn idle_link_resets_queueing() {
        let mut l = link();
        l.offer(0, SimTime::ZERO, 1000, 1.0, 0.0);
        l.departed(0);
        // Much later the transmitter is idle: no queueing delay.
        match l.offer(0, SimTime::from_secs(1), 1000, 1.0, 0.0) {
            Offer::Accepted { departs_at, .. } => {
                assert_eq!(
                    departs_at,
                    SimTime::from_secs(1) + SimDuration::from_millis(1)
                );
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(l.mean_queue_delay(0), SimDuration::ZERO);
    }

    #[test]
    fn queue_delay_accounting() {
        let mut l = link();
        l.offer(0, SimTime::ZERO, 1000, 1.0, 0.0); // no wait
        l.offer(0, SimTime::ZERO, 1000, 1.0, 0.0); // waits 1 ms
                                                   // Mean queue delay = 0.5 ms.
        assert_eq!(l.mean_queue_delay(0).as_micros(), 500);
    }

    #[test]
    fn random_loss_uses_draw() {
        let mut l = link();
        l.config.loss = 0.5;
        assert_eq!(l.offer(0, SimTime::ZERO, 100, 0.4, 0.0), Offer::DroppedLoss);
        assert!(matches!(
            l.offer(0, SimTime::ZERO, 100, 0.6, 0.0),
            Offer::Accepted { .. }
        ));
        assert_eq!(l.dirs[0].drops_loss, 1);
    }

    #[test]
    fn directions_are_independent() {
        let mut l = link();
        l.offer(0, SimTime::ZERO, 1000, 1.0, 0.0);
        // Reverse direction is unaffected by forward queueing.
        match l.offer(1, SimTime::ZERO, 1000, 1.0, 0.0) {
            Offer::Accepted { departs_at, .. } => assert_eq!(departs_at.as_millis(), 1),
            other => panic!("{other:?}"),
        }
        assert_eq!(l.dir_from(0), Some(0));
        assert_eq!(l.dir_from(1), Some(1));
        assert_eq!(l.dir_from(9), None);
        assert_eq!(l.other(0), 1);
        assert_eq!(l.other(1), 0);
    }

    #[test]
    fn down_link_counts_drops_per_direction() {
        let mut l = link();
        l.up = false;
        assert_eq!(
            l.offer(0, SimTime::ZERO, 1000, 1.0, 0.0),
            Offer::DroppedLinkDown
        );
        assert_eq!(
            l.offer(1, SimTime::ZERO, 1000, 1.0, 0.0),
            Offer::DroppedLinkDown
        );
        assert_eq!(
            l.offer(1, SimTime::ZERO, 1000, 1.0, 0.0),
            Offer::DroppedLinkDown
        );
        assert_eq!(l.dirs[0].drops_down, 1);
        assert_eq!(l.dirs[1].drops_down, 2);
        // Down drops never perturb the other counters or queue state.
        assert_eq!(l.dirs[0].drops_queue, 0);
        assert_eq!(l.dirs[0].queued, 0);
        l.up = true;
        assert!(matches!(
            l.offer(0, SimTime::ZERO, 1000, 1.0, 0.0),
            Offer::Accepted { .. }
        ));
    }

    #[test]
    fn loss_override_replaces_configured_loss() {
        let mut l = link();
        // Configured lossless; a burst override makes the same draw drop.
        assert!(matches!(
            l.offer(0, SimTime::ZERO, 100, 0.4, 0.0),
            Offer::Accepted { .. }
        ));
        l.set_override(LinkOverride {
            loss: Some(0.5),
            ..Default::default()
        });
        assert_eq!(l.offer(0, SimTime::ZERO, 100, 0.4, 0.0), Offer::DroppedLoss);
        l.clear_override();
        assert!(matches!(
            l.offer(0, SimTime::ZERO, 100, 0.4, 0.0),
            Offer::Accepted { .. }
        ));
    }

    #[test]
    fn rate_and_latency_overrides_compose() {
        let mut l = link();
        l.set_override(LinkOverride {
            rate_bps: Some(0.8e6), // 10× slower: 1000 B → 10 ms
            extra_delay: Some(SimDuration::from_millis(20)),
            jitter: Some(SimDuration::from_millis(10)),
            ..Default::default()
        });
        match l.offer(0, SimTime::ZERO, 1000, 1.0, 0.5) {
            Offer::Accepted {
                arrives_at,
                departs_at,
            } => {
                assert_eq!(departs_at.as_millis(), 10, "throttled serialization");
                // 10 ser + 5 base + 20 extra + 0.5×10 jitter = 40 ms.
                assert_eq!(arrives_at.as_millis(), 40);
            }
            other => panic!("{other:?}"),
        }
        l.clear_override();
        assert!(l.transient.is_none());
        match l.offer(0, SimTime::from_secs(1), 1000, 1.0, 0.5) {
            Offer::Accepted { arrives_at, .. } => {
                assert_eq!(arrives_at.as_millis(), 1006, "configured behaviour back")
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn empty_override_is_not_installed() {
        let mut l = link();
        l.set_override(LinkOverride::default());
        assert!(l.transient.is_none());
        assert!(LinkOverride::default().is_empty());
    }
}
