//! GTP path management, shared by the MME, the S-GW and the P-GW.
//!
//! TS 29.281 §7.2–7.3: each endpoint answers echo requests with its restart
//! counter, and one that runs path management echoes its peer on a timer,
//! declaring it lost after too many misses or at once when its restart
//! counter changes (it rebooted and lost every bearer). A G-PDU for a TEID
//! with no context is answered with an error indication so the sender tears
//! its side down. [`PathMgmt`] is the periodic driver around
//! [`dlte_net::gtp::PathMonitor`]; [`answer_echo`] and
//! [`error_indication`] are the two replies every gateway sends.

use crate::messages::Teid;
use crate::obs;
use dlte_net::gtp::{GtpEcho, GtpErrorIndication, PathEvent, PathMonitor};
use dlte_net::gtp::{GTP_ECHO_BYTES, GTP_ERROR_BYTES};
use dlte_net::{Addr, NodeCtx, Payload};
use dlte_obs::Event;
use dlte_sim::SimDuration;

/// Timer tag of the path tick (disjoint from the processor's tags, which
/// grow upward from 0, and from the MME's resync guards).
const TAG_PATH_TICK: u64 = 8_900_000;

/// Echo path management toward one peer. Off until [`PathMgmt::enable`]d:
/// it adds periodic traffic, so topologies opt in explicitly (which keeps
/// fault-free experiment seeds undisturbed).
#[derive(Default)]
pub struct PathMgmt(Option<PathMonitor>);

impl PathMgmt {
    /// Echo `peer` every `interval`, declaring it lost after `max_misses`
    /// unanswered requests (or at once on a restart-counter change).
    pub fn enable(&mut self, peer: Addr, interval: SimDuration, max_misses: u32) {
        self.0 = Some(PathMonitor::new(peer, interval, max_misses));
    }

    /// Arm the first tick (at start, and again after a restart).
    pub fn start(&self, ctx: &mut NodeCtx<'_>) {
        if let Some(m) = &self.0 {
            ctx.set_timer(m.interval, TAG_PATH_TICK);
        }
    }

    /// Forget the peer's echo history: the node lost its state.
    pub fn reset(&mut self) {
        if let Some(m) = &self.0 {
            self.0 = Some(PathMonitor::new(m.peer, m.interval, m.max_misses));
        }
    }

    /// Handle timer `tag` if it is the path tick: echo the peer with this
    /// node's `restart_counter` and re-arm. Returns the tick interval and
    /// whether this tick declared the peer lost; `None` for other tags.
    pub fn on_timer(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        tag: u64,
        restart_counter: u32,
    ) -> Option<(SimDuration, bool)> {
        let m = self.0.as_mut().filter(|_| tag == TAG_PATH_TICK)?;
        let (echo, edge) = m.tick(restart_counter);
        let event = Event::GtpEcho {
            peer: m.peer.to_string(),
            restart_counter,
        };
        obs::emit(ctx, event);
        let req = ctx.make_packet(m.peer, GTP_ECHO_BYTES);
        ctx.forward(req.with_payload(Payload::control(echo)));
        ctx.set_timer(m.interval, TAG_PATH_TICK);
        let lost = edge == Some(PathEvent::PeerDead);
        if lost {
            dlte_obs::metrics::counter_add("gtp_path_down", 1);
            let peer = m.peer.to_string();
            obs::emit(ctx, Event::GtpPathDown { peer });
        }
        Some((m.interval, lost))
    }

    /// An echo from `from`: answer a request with `restart_counter`.
    /// Returns whether a response shows the monitored peer restarted.
    pub fn on_echo(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        echo: GtpEcho,
        from: Addr,
        restart_counter: u32,
    ) -> bool {
        if answer_echo(ctx, echo, from, restart_counter) {
            return false;
        }
        let Some(m) = &mut self.0 else {
            return false;
        };
        let restarted = from == m.peer && m.on_response(echo) == PathEvent::PeerRestarted;
        if restarted {
            dlte_obs::metrics::counter_add("gtp_peer_restart", 1);
            let peer = from.to_string();
            obs::emit(ctx, Event::GtpPeerRestart { peer });
        }
        restarted
    }
}

/// Answer `echo` with `restart_counter` if it is a request, as every GTP
/// endpoint does whether or not it monitors anyone. Returns whether it was.
pub fn answer_echo(ctx: &mut NodeCtx<'_>, echo: GtpEcho, from: Addr, restart_counter: u32) -> bool {
    if echo.is_request {
        let mut reply = echo;
        (reply.restart_counter, reply.is_request) = (restart_counter, false);
        let p = ctx.make_packet(from, GTP_ECHO_BYTES);
        ctx.forward(p.with_payload(Payload::control(reply)));
    }
    echo.is_request
}

/// Tell `to` that `teid` has no context here, so it tears its side down:
/// count it in `sent`, trace it, and send a GTP-U error indication.
pub fn error_indication(ctx: &mut NodeCtx<'_>, sent: &mut u64, to: Addr, teid: Teid) {
    *sent += 1;
    dlte_obs::metrics::counter_add("gtp_error_indications", 1);
    obs::emit(ctx, Event::GtpErrorIndication { teid: teid as u64 });
    let p = ctx.make_packet(to, GTP_ERROR_BYTES);
    ctx.forward(p.with_payload(Payload::control(GtpErrorIndication { teid })));
}
