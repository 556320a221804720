//! IPv4-style addressing.
//!
//! dLTE's mobility story (§4.2) hinges on addresses: clients get a *new
//! publicly routable IP* at every AP instead of a tunneled stable one. The
//! substrate therefore needs real prefixes, pools and longest-prefix
//! matching, not opaque node ids.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A 32-bit network address, rendered dotted-quad.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Addr(pub u32);

impl Addr {
    /// Build from dotted-quad octets.
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Addr {
        Addr(((a as u32) << 24) | ((b as u32) << 16) | ((c as u32) << 8) | d as u32)
    }

    /// The unspecified address (0.0.0.0), used as "no address yet".
    pub const UNSPECIFIED: Addr = Addr(0);

    pub fn is_unspecified(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Debug for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}.{}.{}.{}",
            (self.0 >> 24) & 0xff,
            (self.0 >> 16) & 0xff,
            (self.0 >> 8) & 0xff,
            self.0 & 0xff
        )
    }
}

/// A CIDR prefix.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct Prefix {
    pub addr: Addr,
    pub len: u8,
}

// Manual so that a prefix read from JSON gets the same checks as
// `Prefix::new`: a length past 32 (which `mask_of` would underflow on) is
// a typed error naming the field, and host bits are masked off.
impl Deserialize for Prefix {
    fn deserialize_value(v: &serde::value::Value) -> Result<Self, serde::de::Error> {
        let err = |msg: String| serde::de::Error::custom(format!("Prefix: {msg}"));
        let field = |name| {
            v.get(name)
                .ok_or_else(|| err(format!("missing field `{name}`")))
        };
        let addr = Addr::deserialize_value(field("addr")?)?;
        match u8::deserialize_value(field("len")?) {
            Ok(len) if len <= 32 => Ok(Prefix::new(addr, len)),
            _ => Err(err("field `len` must be an integer in 0..=32".into())),
        }
    }
}

impl Prefix {
    pub fn new(addr: Addr, len: u8) -> Prefix {
        assert!(len <= 32, "prefix length {len} > 32");
        Prefix {
            addr: Addr(addr.0 & Self::mask_of(len)),
            len,
        }
    }

    /// The default route 0.0.0.0/0.
    pub const DEFAULT: Prefix = Prefix {
        addr: Addr(0),
        len: 0,
    };

    pub(crate) fn mask_of(len: u8) -> u32 {
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - len as u32)
        }
    }

    pub fn mask(&self) -> u32 {
        Self::mask_of(self.len)
    }

    pub fn contains(&self, a: Addr) -> bool {
        (a.0 & self.mask()) == self.addr.0
    }

    /// Number of host addresses in the prefix (saturating).
    pub fn size(&self) -> u64 {
        1u64 << (32 - self.len as u32)
    }
}

impl fmt::Debug for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.addr, self.len)
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.addr, self.len)
    }
}

/// A sequential allocator over a prefix — the address pool a P-GW (or a dLTE
/// local core) assigns client addresses from. Released addresses are
/// recycled LIFO.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AddrPool {
    prefix: Prefix,
    next_offset: u64,
    free: Vec<Addr>,
}

impl AddrPool {
    /// Pool over `prefix`, skipping the network address (offset 0).
    pub fn new(prefix: Prefix) -> AddrPool {
        AddrPool {
            prefix,
            next_offset: 1,
            free: Vec::new(),
        }
    }

    pub fn prefix(&self) -> Prefix {
        self.prefix
    }

    /// Allocate the next address; `None` when exhausted.
    pub fn alloc(&mut self) -> Option<Addr> {
        if let Some(a) = self.free.pop() {
            return Some(a);
        }
        if self.next_offset >= self.prefix.size() {
            return None;
        }
        let a = Addr(self.prefix.addr.0 + self.next_offset as u32);
        self.next_offset += 1;
        Some(a)
    }

    /// Return an address to the pool. Addresses outside the prefix are
    /// rejected (debug assert) and ignored.
    pub fn release(&mut self, a: Addr) {
        debug_assert!(self.prefix.contains(a), "release of foreign address {a}");
        if self.prefix.contains(a) {
            self.free.push(a);
        }
    }

    /// Addresses currently allocatable without recycling.
    pub fn remaining(&self) -> u64 {
        self.prefix.size() - self.next_offset + self.free.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_round_trip() {
        let a = Addr::new(10, 42, 0, 7);
        assert_eq!(a.to_string(), "10.42.0.7");
        assert_eq!(Addr::UNSPECIFIED.to_string(), "0.0.0.0");
        assert!(Addr::UNSPECIFIED.is_unspecified());
    }

    #[test]
    fn prefix_contains() {
        let p = Prefix::new(Addr::new(10, 1, 2, 0), 24);
        assert!(p.contains(Addr::new(10, 1, 2, 200)));
        assert!(!p.contains(Addr::new(10, 1, 3, 1)));
        assert_eq!(p.size(), 256);
        assert_eq!(p.to_string(), "10.1.2.0/24");
    }

    #[test]
    fn prefix_normalizes_host_bits() {
        let p = Prefix::new(Addr::new(10, 1, 2, 99), 24);
        assert_eq!(p.addr, Addr::new(10, 1, 2, 0));
    }

    #[test]
    fn default_route_matches_everything() {
        assert!(Prefix::DEFAULT.contains(Addr::new(1, 2, 3, 4)));
        assert!(Prefix::DEFAULT.contains(Addr::new(255, 255, 255, 255)));
        assert_eq!(Prefix::DEFAULT.mask(), 0);
    }

    #[test]
    fn pool_allocates_and_recycles() {
        let mut pool = AddrPool::new(Prefix::new(Addr::new(100, 64, 0, 0), 30));
        // /30 has 4 addresses, offset 0 skipped → 3 allocatable.
        let a1 = pool.alloc().unwrap();
        let a2 = pool.alloc().unwrap();
        let a3 = pool.alloc().unwrap();
        assert_eq!(pool.alloc(), None, "pool exhausted");
        assert_ne!(a1, a2);
        assert_ne!(a2, a3);
        pool.release(a2);
        assert_eq!(pool.alloc(), Some(a2), "recycled");
        assert_eq!(pool.alloc(), None);
    }

    #[test]
    fn pool_remaining() {
        let mut pool = AddrPool::new(Prefix::new(Addr::new(10, 0, 0, 0), 24));
        assert_eq!(pool.remaining(), 255);
        let a = pool.alloc().unwrap();
        assert_eq!(pool.remaining(), 254);
        pool.release(a);
        assert_eq!(pool.remaining(), 255);
    }

    /// A prefix read from JSON gets `Prefix::new`'s checks: a length past
    /// 32 is an error naming the field, and host bits are masked.
    #[test]
    fn prefix_json_rejects_long_lengths_and_masks_host_bits() {
        let prefix = |addr: u32, len: u32| {
            serde_json::from_str::<Prefix>(&format!(r#"{{"addr":{addr},"len":{len}}}"#))
        };
        for len in [33, 40, 255, 256] {
            let err = prefix(0x0A02_0000, len)
                .expect_err("length past 32")
                .to_string();
            assert!(err.contains("field `len`"), "{len}: {err}");
        }
        let host_bits = prefix(0x0A02_0304, 16).expect("valid /16");
        assert_eq!(host_bits, Prefix::new(Addr::new(10, 2, 0, 0), 16));
        assert_eq!(host_bits.addr, Addr::new(10, 2, 0, 0));
    }

    #[test]
    #[should_panic(expected = "prefix length")]
    fn bad_prefix_len_panics() {
        Prefix::new(Addr::new(1, 2, 3, 4), 33);
    }
}
