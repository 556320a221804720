//! Observability helpers shared by the EPC node handlers.
//!
//! Thin wrappers around [`dlte_obs::emit`] that stamp events with the
//! handler's simulation time and node id, plus [`HarqTracer`] — a
//! trace-only radio HARQ model that rides on the user-plane forwarding
//! paths of [`crate::EnbNode`] and [`crate::LocalCoreNode`].
//!
//! Everything here is gated on [`dlte_obs::tracing_enabled`] (directly or
//! inside `emit`), and the HARQ tracer draws from its **own** dedicated
//! RNG stream, so enabling `--trace` never perturbs packet outcomes,
//! authentication vectors, or any golden-checked result.

use dlte_auth::Imsi;
use dlte_net::NodeCtx;
use dlte_obs::{AkaStep, Event, NasProc};
use dlte_phy::harq::{HarqConfig, HarqProcessModel};
use dlte_phy::mcs::CQI_TABLE;
use dlte_sim::SimRng;

/// Emit `event` stamped with the handler's current time and node.
pub(crate) fn emit(ctx: &NodeCtx<'_>, event: Event) {
    dlte_obs::emit(ctx.now.as_nanos(), ctx.node as u64, event);
}

pub(crate) fn nas_start(ctx: &NodeCtx<'_>, proc: NasProc, imsi: Imsi) {
    emit(ctx, Event::NasStart { proc, imsi });
}

pub(crate) fn nas_end(ctx: &NodeCtx<'_>, proc: NasProc, imsi: Imsi, ok: bool) {
    emit(ctx, Event::NasEnd { proc, imsi, ok });
}

pub(crate) fn aka(ctx: &NodeCtx<'_>, step: AkaStep, imsi: Imsi) {
    emit(ctx, Event::Aka { step, imsi });
}

/// Trace-only per-block HARQ model.
///
/// The packet-level EPC has no radio PHY: links deliver or drop whole
/// packets. When tracing is on, every user-plane block crossing an
/// eNB/local-core radio interface is additionally run through the
/// [`dlte_phy::harq::HarqProcessModel`] at a fixed weak-signal operating
/// point, producing `HarqTx`/`HarqRetx`/`HarqFail` events (and `harq_*`
/// counters) that expose the §3.2 retransmission behaviour in the event
/// stream. The simulated outcome is *observational*: the packet's fate was
/// already decided by the link model.
pub struct HarqTracer {
    model: HarqProcessModel,
    sinr_db: f64,
    cqi_index: usize,
    rng: SimRng,
}

impl HarqTracer {
    /// Tracer at the default operating point: CQI 9, 1.5 dB below its
    /// 10%-BLER threshold — weak enough that retransmissions show up, good
    /// enough that chase combining almost always delivers.
    pub fn new(rng: SimRng) -> Self {
        let cqi_index = 8;
        HarqTracer {
            model: HarqProcessModel::new(HarqConfig::default()),
            sinr_db: CQI_TABLE[cqi_index].sinr_threshold_db - 1.5,
            cqi_index,
            rng,
        }
    }

    /// Run one block through the HARQ process and emit its attempt trail.
    /// No-op (and no RNG draw) unless tracing is enabled.
    pub fn observe_block(&mut self, ctx: &NodeCtx<'_>, ue: Imsi) {
        if !dlte_obs::tracing_enabled() {
            return;
        }
        let cqi = &CQI_TABLE[self.cqi_index];
        let o = self.model.simulate_block(self.sinr_db, cqi, &mut self.rng);
        let (t_ns, node) = (ctx.now.as_nanos(), ctx.node as u64);
        dlte_obs::harq_block(t_ns, node, ue, o.transmissions, o.delivered);
    }
}
