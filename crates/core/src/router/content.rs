//! Protocol 3 — answering a request from the content store — and
//! Protocol 4's Data side: every pending requester answered in PIT-record
//! order, an aggregated one only once its own tag is checked.
//!
//! Both go through one [`TacticRouter::answer`], which decides through
//! one [`TacticRouter::authorize`]: the pre-check, then the `F` coin, then
//! the filter or the signature, in that order on every path. A requester
//! aggregated behind another is authorised exactly as if it had hit the
//! content store itself.

use std::borrow::Cow;
use std::sync::Arc;

use tactic_ndn::face::FaceId;
use tactic_ndn::packet::{Data, NackReason, Packet};
use tactic_sim::cost::Op;
use tactic_telemetry::{
    PrecheckStage, PrecheckVerdict, ProtocolObserver, RejectReason, RevalidationOutcome,
};

use super::{clone_unless_last, Step, TacticRouter};
use crate::access::AccessLevel;
use crate::ext;
use crate::precheck::{content_precheck, edge_precheck};
use crate::tag::SignedTag;

/// One planned reply to a pending requester (see
/// [`TacticRouter::on_data`]).
pub(super) enum Reply {
    /// Forward the incoming Data as-is.
    Plain(FaceId),
    /// Forward a re-annotated copy.
    Annotated(FaceId, Data),
}

impl TacticRouter {
    /// Protocols 3 and 4's one reply to a request carrying `tag` and the
    /// flag `f`, arriving on `face`, for `data`:
    ///
    /// - public (NULL) content as it is, no tag needed;
    /// - [authorised](Self::authorize) content carrying the request's tag
    ///   and its `F` (lines 2, 8, 13), so the edge router knows whether to
    ///   insert the tag into its own filter;
    /// - otherwise nothing toward a client, whose request then expires on
    ///   its own (DESIGN.md §5), and content + NACK (§5.B) carrying the tag
    ///   toward a router when `content_nack_enabled`, so a router
    ///   downstream still satisfies its aggregated valid requests.
    ///
    /// Takes the content as a [`Cow`]: the copy the content store hands
    /// out is annotated in place, and a Data in flight is copied only when
    /// the reply differs from it.
    pub(super) fn answer<'d, O: ProtocolObserver>(
        &mut self,
        data: Cow<'d, Data>,
        tag: Option<&Arc<SignedTag>>,
        f: f64,
        face: FaceId,
        step: &mut Step<'_, '_, O>,
    ) -> Option<Cow<'d, Data>> {
        let al = ext::data_access_level(&data);
        if al.is_public() {
            return Some(data);
        }
        let authorized = self.authorize(tag.map(Arc::as_ref), f, &data, al, step);
        if !authorized && (self.is_downstream(face) || !self.config.content_nack_enabled) {
            return None;
        }
        let mut d = data.into_owned();
        if let Some(st) = tag {
            ext::set_data_tag(&mut d, st.clone());
        }
        if authorized {
            ext::set_data_flag_f(&mut d, f);
        } else {
            ext::set_data_nack(&mut d, NackReason::InvalidTag);
            self.counters.nacks += 1;
            step.obs.on_nack(step.hop, NackReason::InvalidTag);
        }
        Some(Cow::Owned(d))
    }

    /// Whether a request carrying `tag` and the flag `f` may have `data`,
    /// protected at level `al`. Always in this order:
    ///
    /// 1. Protocol 1, both halves: the tag may have expired while its
    ///    request was pending, and the edge half again at a cache hit is
    ///    harmless. A failure counts into `precheck_rejections`.
    /// 2. With `F ≠ 0`, the `F` coin: with probability `1 − F` the edge
    ///    router's validation is trusted (lines 11–12).
    /// 3. Otherwise the filter or the signature decides
    ///    ([`validate_tag`](Self::validate_tag)), as a re-validation when
    ///    `F ≠ 0`.
    fn authorize<O: ProtocolObserver>(
        &mut self,
        tag: Option<&SignedTag>,
        f: f64,
        data: &Data,
        al: AccessLevel,
        step: &mut Step<'_, '_, O>,
    ) -> bool {
        let hop = step.hop;
        let Some(st) = tag else {
            let missing = PrecheckVerdict::Rejected(RejectReason::MissingTag);
            step.obs.on_precheck(hop, PrecheckStage::Content, missing);
            return false;
        };
        step.charge(Op::PreCheck);
        let key_loc = ext::data_key_locator(data).unwrap_or_default();
        let pre_ok = self.precheck(step, PrecheckStage::Edge, || {
            edge_precheck(&st.tag, data.name(), hop.now)
        }) && self.precheck(step, PrecheckStage::Content, || {
            content_precheck(&st.tag, al, &key_loc)
        });
        if !pre_ok {
            self.counters.precheck_rejections += 1;
            return false;
        }
        let reval = f != 0.0;
        if reval && !step.ctx.rng.chance(f) {
            step.obs.on_revalidation(hop, RevalidationOutcome::Trusted);
            return true;
        }
        let valid = self.validate_tag(step, st, reval);
        if reval {
            let outcome = if valid {
                RevalidationOutcome::Verified
            } else {
                RevalidationOutcome::Rejected
            };
            step.obs.on_revalidation(hop, outcome);
        }
        valid
    }

    /// An incoming Data packet: a registration response is relayed as
    /// Protocol 2 directs; anything else is cached and answers every
    /// pending requester — the one whose tag it echoes as it is, each
    /// aggregated one (Protocol 4 lines 11–25) through
    /// [`answer`](Self::answer).
    pub(super) fn on_data<O: ProtocolObserver>(
        &mut self,
        data: Data,
        step: &mut Step<'_, '_, O>,
        send: &mut dyn FnMut(FaceId, Packet),
    ) {
        self.counters.data += 1;
        if let Some(new_tag) = ext::data_new_tag(&data) {
            return self.relay_registration(data, &new_tag, step, send);
        }

        let echoed = ext::data_tag(&data);
        let nacked = ext::data_nack(&data).is_some();
        let f_in_d = ext::data_flag_f(&data);

        let Some(entry) = step.timed("pit_ops", || self.tables.pit.take(data.name())) else {
            return; // Unsolicited: drop, don't cache (NFD policy).
        };

        // Cache the content (the store keeps no annotations); it is
        // genuine even when a NACK rides along.
        self.tables.cs.insert_at(data.clone(), step.hop.now);

        // Replies are *decided* in PIT-record order (RNG draws, counters,
        // and observer calls all happen in the decision loop) and
        // *materialised* afterwards, so the last unannotated reply can take
        // `data` by move — clones happen only on genuine fan-out.
        let mut plan = std::mem::take(&mut self.plan);

        let echoed_key = echoed.as_deref().map(SignedTag::bloom_key);
        for rec in entry.into_records() {
            let (face, tag) = (rec.face, rec.note.tag.as_ref());
            if tag.map(|t| t.bloom_key()) != echoed_key {
                let reply = self.answer(Cow::Borrowed(&data), tag, rec.note.f, face, step);
                plan.extend(reply.map(|d| match d {
                    Cow::Borrowed(_) => Reply::Plain(face),
                    Cow::Owned(d) => Reply::Annotated(face, d),
                }));
            } else if self.answers_echo(&rec, nacked, f_in_d, step) {
                plan.push(Reply::Plain(face));
            }
        }

        let last_plain = plan.iter().rposition(|r| matches!(r, Reply::Plain(_)));
        let mut data = Some(data);
        for (idx, reply) in plan.drain(..).enumerate() {
            let (face, d) = match reply {
                Reply::Annotated(face, d) => (face, d),
                Reply::Plain(face) => (face, clone_unless_last(&mut data, Some(idx) == last_plain)),
            };
            send(face, Packet::Data(d));
        }
        self.plan = plan;
    }
}
