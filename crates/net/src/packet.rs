//! Packets.
//!
//! A [`Packet`] carries addressing, accounting metadata (creation time, hop
//! count) and a [`Payload`]. Control-plane layers (NAS, X2, transport
//! handshakes) attach typed messages via `Payload::control`, which upper
//! crates downcast — the substrate never needs to know their shape.
//!
//! Memory discipline (the §13 fast path): the tunnel stack keeps its first
//! [`TUNNEL_INLINE_DEPTH`] headers in a fixed array, touching the heap only
//! for deeper stacking, and a control message is one shared `Arc`, so
//! cloning a packet never deep-copies the message. Cloning is instrumented
//! — every clone credits its wire size to the thread's `bytes_copied` tally
//! — so the benchmark (`net.bytes_copied`) can prove the forwarding path
//! stopped copying.

use crate::addr::Addr;
use dlte_sim::SimTime;
use std::any::Any;
use std::fmt;
use std::sync::Arc;

/// Flow identifier used by traffic generators and the latency tracer.
pub type FlowId = u64;

/// Packet payload.
#[derive(Clone)]
pub enum Payload {
    /// Pure filler (size still counts on the wire).
    Empty,
    /// User-plane data belonging to a traced flow.
    Flow { flow: FlowId, seq: u64 },
    /// A typed control message. `Arc` keeps clones cheap and lets packets
    /// cross shard boundaries (the sharded engine moves events between
    /// worker threads).
    Control(Arc<dyn Any + Send + Sync>),
}

impl Payload {
    /// Wrap a typed control message.
    pub fn control<T: Any + Send + Sync>(msg: T) -> Payload {
        Payload::Control(Arc::new(msg))
    }

    /// Downcast a control payload to `&T`.
    pub fn as_control<T: Any>(&self) -> Option<&T> {
        match self {
            Payload::Control(rc) => rc.downcast_ref::<T>(),
            _ => None,
        }
    }

    /// The flow id, if this is flow data.
    pub fn flow_id(&self) -> Option<FlowId> {
        match self {
            Payload::Flow { flow, .. } => Some(*flow),
            _ => None,
        }
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Payload::Empty => write!(f, "Empty"),
            Payload::Flow { flow, seq } => write!(f, "Flow({flow}#{seq})"),
            Payload::Control(_) => write!(f, "Control(..)"),
        }
    }
}

/// A tunnel header pushed by GTP-U encapsulation (see [`crate::gtp`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TunnelHeader {
    /// Tunnel endpoint identifier.
    pub teid: u32,
    /// Inner (original) source/destination restored at decapsulation.
    pub inner_src: Addr,
    pub inner_dst: Addr,
}

impl TunnelHeader {
    const EMPTY: TunnelHeader = TunnelHeader {
        teid: 0,
        inner_src: Addr::UNSPECIFIED,
        inner_dst: Addr::UNSPECIFIED,
    };
}

/// How many tunnel headers a packet holds without touching the heap. Two
/// covers every topology in the repo: S1-U (one layer) and S5/S8 stacking
/// (two layers); deeper experiments spill transparently.
pub const TUNNEL_INLINE_DEPTH: usize = 2;

/// A stack of tunnel encapsulations, innermost last pushed.
///
/// The first [`TUNNEL_INLINE_DEPTH`] headers live in a fixed inline array —
/// pushing and popping a tunnel is a few stores, no allocation. Past that
/// depth the whole stack moves to a heap `Vec` (`spill`) and stays there
/// until it empties; the representation is invisible through the API.
#[derive(Clone)]
pub struct TunnelStack {
    inline: [TunnelHeader; TUNNEL_INLINE_DEPTH],
    inline_len: u8,
    // Boxed so the common unspilled case pays one pointer, not a full
    // Vec header — this keeps `Packet` a cache line smaller. The extra
    // indirection only costs on the rare deep-stacking spill path.
    #[allow(clippy::box_collection)]
    spill: Option<Box<Vec<TunnelHeader>>>,
}

impl TunnelStack {
    pub const fn new() -> TunnelStack {
        TunnelStack {
            inline: [TunnelHeader::EMPTY; TUNNEL_INLINE_DEPTH],
            inline_len: 0,
            spill: None,
        }
    }

    fn spilled(&self) -> Option<&Vec<TunnelHeader>> {
        match &self.spill {
            Some(v) if !v.is_empty() => Some(v),
            _ => None,
        }
    }

    pub fn len(&self) -> usize {
        if let Some(v) = self.spilled() {
            v.len()
        } else {
            self.inline_len as usize
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Push a header on top of the stack (it becomes the outermost tunnel).
    pub fn push(&mut self, h: TunnelHeader) {
        if self.spilled().is_some() {
            self.spill.as_mut().expect("just checked").push(h);
        } else if self.inline_len as usize == TUNNEL_INLINE_DEPTH {
            // Move the inline prefix to the heap, then grow there.
            let mut v = Vec::with_capacity(self.inline_len as usize + 1);
            v.extend_from_slice(&self.inline[..self.inline_len as usize]);
            v.push(h);
            self.spill = Some(Box::new(v));
            self.inline_len = 0;
        } else {
            self.inline[self.inline_len as usize] = h;
            self.inline_len += 1;
        }
    }

    /// Pop the outermost (most recently pushed) header.
    pub fn pop(&mut self) -> Option<TunnelHeader> {
        if self.spilled().is_some() {
            self.spill.as_mut().expect("just checked").pop()
        } else if self.inline_len > 0 {
            self.inline_len -= 1;
            Some(self.inline[self.inline_len as usize])
        } else {
            None
        }
    }

    /// The outermost header, if any.
    pub fn last(&self) -> Option<&TunnelHeader> {
        if let Some(v) = self.spilled() {
            v.last()
        } else if self.inline_len > 0 {
            Some(&self.inline[self.inline_len as usize - 1])
        } else {
            None
        }
    }

    /// Header at `i`, counted from the bottom (first pushed) of the stack.
    pub fn get(&self, i: usize) -> Option<&TunnelHeader> {
        if let Some(v) = self.spilled() {
            v.get(i)
        } else if i < self.inline_len as usize {
            Some(&self.inline[i])
        } else {
            None
        }
    }

    /// Iterate bottom (first pushed) to top (outermost).
    pub fn iter(&self) -> impl Iterator<Item = &TunnelHeader> {
        let slice: &[TunnelHeader] = if let Some(v) = self.spilled() {
            v
        } else {
            &self.inline[..self.inline_len as usize]
        };
        slice.iter()
    }

    /// Whether the stack currently lives on the heap (test observability).
    #[doc(hidden)]
    pub fn is_spilled(&self) -> bool {
        self.spilled().is_some()
    }
}

impl Default for TunnelStack {
    fn default() -> TunnelStack {
        TunnelStack::new()
    }
}

impl std::ops::Index<usize> for TunnelStack {
    type Output = TunnelHeader;
    fn index(&self, i: usize) -> &TunnelHeader {
        self.get(i).expect("tunnel index out of bounds")
    }
}

/// Inline and spilled stacks holding the same headers compare equal — the
/// storage representation is not observable.
impl PartialEq for TunnelStack {
    fn eq(&self, other: &TunnelStack) -> bool {
        self.len() == other.len() && self.iter().zip(other.iter()).all(|(a, b)| a == b)
    }
}
impl Eq for TunnelStack {}

impl fmt::Debug for TunnelStack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A network packet.
#[derive(Debug)]
pub struct Packet {
    /// Unique id for tracing.
    pub id: u64,
    pub src: Addr,
    pub dst: Addr,
    /// Current on-wire size including any tunnel overhead, bytes.
    pub size_bytes: u32,
    pub created_at: SimTime,
    pub payload: Payload,
    /// Stack of tunnel encapsulations (innermost last pushed).
    pub tunnels: TunnelStack,
    /// Router hops traversed so far.
    pub hops: u32,
    /// TTL — packets are dropped when it reaches zero (guards against
    /// routing loops in experiment topologies).
    pub ttl: u8,
}

/// Cloning a packet duplicates its wire bytes; the fast path should almost
/// never do it (forwarding moves handles — see [`crate::pool`]). Every clone
/// credits `size_bytes` to the thread's `bytes_copied` tally so the benchmark
/// and the fan-out regression test can count copies.
impl Clone for Packet {
    fn clone(&self) -> Packet {
        dlte_sim::report::note_copy(self.size_bytes as u64);
        Packet {
            id: self.id,
            src: self.src,
            dst: self.dst,
            size_bytes: self.size_bytes,
            created_at: self.created_at,
            payload: self.payload.clone(),
            tunnels: self.tunnels.clone(),
            hops: self.hops,
            ttl: self.ttl,
        }
    }
}

impl Packet {
    /// Default TTL.
    pub const DEFAULT_TTL: u8 = 64;

    pub fn new(id: u64, src: Addr, dst: Addr, size_bytes: u32, now: SimTime) -> Packet {
        Packet {
            id,
            src,
            dst,
            size_bytes,
            created_at: now,
            payload: Payload::Empty,
            tunnels: TunnelStack::new(),
            hops: 0,
            ttl: Self::DEFAULT_TTL,
        }
    }

    /// Builder-style payload attachment.
    pub fn with_payload(mut self, payload: Payload) -> Packet {
        self.payload = payload;
        self
    }

    /// True if currently tunnel-encapsulated.
    pub fn is_tunneled(&self) -> bool {
        !self.tunnels.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Addr;

    #[derive(Debug, PartialEq)]
    struct FakeNas {
        imsi: u64,
    }

    #[test]
    fn control_payload_downcasts() {
        let p = Packet::new(
            1,
            Addr::new(10, 0, 0, 1),
            Addr::new(10, 0, 0, 2),
            100,
            SimTime::ZERO,
        )
        .with_payload(Payload::control(FakeNas { imsi: 42 }));
        let msg = p.payload.as_control::<FakeNas>().expect("downcast");
        assert_eq!(msg.imsi, 42);
        // Wrong type → None.
        assert!(p.payload.as_control::<String>().is_none());
        assert_eq!(p.payload.flow_id(), None);
    }

    #[test]
    fn flow_payload_exposes_id() {
        let payload = Payload::Flow { flow: 7, seq: 3 };
        assert_eq!(payload.flow_id(), Some(7));
        assert!(payload.as_control::<FakeNas>().is_none());
    }

    #[test]
    fn clone_shares_control_arc() {
        let p = Payload::control(FakeNas { imsi: 1 });
        let q = p.clone();
        assert_eq!(
            p.as_control::<FakeNas>().unwrap(),
            q.as_control::<FakeNas>().unwrap()
        );
    }

    #[test]
    fn tunnel_stack_inline_until_depth_then_spills() {
        let h = |teid| TunnelHeader {
            teid,
            inner_src: Addr::new(1, 0, 0, 1),
            inner_dst: Addr::new(2, 0, 0, 2),
        };
        let mut s = TunnelStack::new();
        assert!(s.is_empty());
        s.push(h(1));
        s.push(h(2));
        assert!(!s.is_spilled(), "depth 2 stays inline");
        assert_eq!(s.len(), 2);
        assert_eq!(s.last().unwrap().teid, 2);
        assert_eq!(s[0].teid, 1);
        s.push(h(3));
        assert!(s.is_spilled(), "depth 3 moves to the heap");
        assert_eq!(s.len(), 3);
        assert_eq!(s.last().unwrap().teid, 3);
        // Pops come back in LIFO order across the spill boundary.
        assert_eq!(s.pop().unwrap().teid, 3);
        assert_eq!(s.pop().unwrap().teid, 2);
        assert_eq!(s.pop().unwrap().teid, 1);
        assert_eq!(s.pop(), None);
        assert!(s.is_empty());
    }

    #[test]
    fn tunnel_stack_eq_ignores_representation() {
        let h = |teid| TunnelHeader {
            teid,
            inner_src: Addr::UNSPECIFIED,
            inner_dst: Addr::UNSPECIFIED,
        };
        // Build one stack that spilled (went to depth 3 and back down) and
        // one that never left the inline array.
        let mut spilled = TunnelStack::new();
        spilled.push(h(1));
        spilled.push(h(2));
        spilled.push(h(3));
        spilled.pop();
        assert!(spilled.is_spilled());
        let mut inline = TunnelStack::new();
        inline.push(h(1));
        inline.push(h(2));
        assert!(!inline.is_spilled());
        assert_eq!(spilled, inline);
        assert_eq!(format!("{spilled:?}"), format!("{inline:?}"));
    }

    #[test]
    fn packet_clone_counts_bytes_copied() {
        let ((), report) = dlte_sim::report::scope(|| {
            let p = Packet::new(
                1,
                Addr::new(10, 0, 0, 1),
                Addr::new(10, 0, 0, 2),
                700,
                SimTime::ZERO,
            );
            let q = p.clone();
            let _r = q.clone();
        });
        assert_eq!(report.bytes_copied, 1400, "two clones of a 700 B packet");
    }

    #[test]
    fn debug_formats() {
        assert_eq!(format!("{:?}", Payload::Empty), "Empty");
        assert_eq!(
            format!("{:?}", Payload::Flow { flow: 1, seq: 2 }),
            "Flow(1#2)"
        );
        assert_eq!(
            format!("{:?}", Payload::control(FakeNas { imsi: 0 })),
            "Control(..)"
        );
    }
}
