//! Protocol 3 — answering a request from the content store — and
//! Protocol 4's Data side: every pending requester answered in PIT-record
//! order, an aggregated one only once its own tag is checked.

use std::sync::Arc;

use tactic_ndn::face::FaceId;
use tactic_ndn::packet::{Data, NackReason, Packet};
use tactic_ndn::pit::InRecord;
use tactic_sim::cost::Op;
use tactic_telemetry::{
    PrecheckStage, PrecheckVerdict, ProtocolObserver, RejectReason, RevalidationOutcome,
};

use super::{clone_unless_last, Step, TacticRouter, TagNote};
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

/// How a probabilistic re-validation came out.
fn revalidation(valid: bool) -> RevalidationOutcome {
    if valid {
        RevalidationOutcome::Verified
    } else {
        RevalidationOutcome::Rejected
    }
}

/// A copy of `data` carrying `tag` and the flag `f` back downstream.
fn annotated(data: &Data, tag: Arc<SignedTag>, f: f64) -> Data {
    let mut d = data.clone();
    ext::set_data_tag(&mut d, tag);
    ext::set_data_flag_f(&mut d, f);
    d
}

impl TacticRouter {
    /// Protocol 3: answers a request for cached content, returning what
    /// goes back to the requester, if anything.
    ///
    /// Takes the content by value — the copy the CS hands out is the only
    /// one the serve path makes; annotations are written onto it in place.
    pub(super) fn serve_content<O: ProtocolObserver>(
        &mut self,
        mut cached: Data,
        tag: Option<&Arc<SignedTag>>,
        flag_f: f64,
        from_client: bool,
        step: &mut Step<'_, '_, O>,
    ) -> Option<Data> {
        let hop = step.hop;
        let al = ext::data_access_level(&cached);
        // Public (NULL) content needs no tag verification at all.
        if al.is_public() {
            return Some(cached);
        }
        let valid = match tag {
            None => {
                let missing = PrecheckVerdict::Rejected(RejectReason::MissingTag);
                step.obs.on_precheck(hop, PrecheckStage::Content, missing);
                false
            }
            Some(st) => {
                // Protocol 1, content half.
                step.charge(Op::PreCheck);
                let key_loc = ext::data_key_locator(&cached).unwrap_or_default();
                let check = || content_precheck(&st.tag, al, &key_loc);
                if self.precheck(step, PrecheckStage::Content, check) {
                    let valid = self.validate_served(st, flag_f, step);
                    ext::set_data_tag(&mut cached, st.clone());
                    // Mirror the request's F into D (lines 2, 8, 13) so the
                    // edge router knows whether to insert the tag into its
                    // own filter.
                    ext::set_data_flag_f(&mut cached, flag_f);
                    valid
                } else {
                    self.counters.precheck_rejections += 1;
                    ext::set_data_tag(&mut cached, st.clone());
                    false
                }
            }
        };
        if valid {
            Some(cached)
        } else if from_client || !self.config.content_nack_enabled {
            // Never hand unauthorized content to a client; drop silently
            // so the attacker is throttled by its own request expiry.
            None
        } else {
            Some(self.content_nack(cached, step))
        }
    }

    /// Protocol 3's validation of a pre-checked tag: in full when the
    /// request carries `F = 0`, otherwise re-validated with probability
    /// `F` and trusted to the edge router's validation the rest of the
    /// time.
    fn validate_served<O: ProtocolObserver>(
        &mut self,
        st: &SignedTag,
        flag_f: f64,
        step: &mut Step<'_, '_, O>,
    ) -> bool {
        if flag_f == 0.0 {
            // Lines 1-10: BF lookup; verify + insert on miss.
            self.validate_tag(step, st, false)
        } else if step.ctx.rng.chance(flag_f) {
            // Lines 11-12: probabilistic re-validation guards against the
            // edge filter's false positives.
            self.counters.revalidations += 1;
            step.charge(Op::SigVerify);
            let valid = step.timed("sig_verify", || self.verify_signature(st));
            step.obs.on_sig_verify(step.hop, valid, true);
            step.obs.on_revalidation(step.hop, revalidation(valid));
            valid
        } else {
            step.obs
                .on_revalidation(step.hop, RevalidationOutcome::Trusted);
            true // Trust the edge router's validation.
        }
    }

    /// Marks `d` as content + NACK (§5.B), so a router downstream still
    /// satisfies its aggregated valid requests while this one is refused.
    fn content_nack<O: ProtocolObserver>(
        &mut self,
        mut d: Data,
        step: &mut Step<'_, '_, O>,
    ) -> Data {
        ext::set_data_nack(&mut d, NackReason::InvalidTag);
        self.counters.nacks += 1;
        step.obs.on_nack(step.hop, NackReason::InvalidTag);
        d
    }

    /// An incoming Data packet: a registration response is relayed as
    /// Protocol 2 directs; anything else is cached and answers every
    /// pending requester — the one whose tag it echoes as it is, the
    /// aggregated ones after their own check.
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
        let al = ext::data_access_level(&data);

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
            let is_echo = rec.note.tag.as_deref().map(SignedTag::bloom_key) == echoed_key;
            if !is_echo {
                plan.extend(self.answer_aggregated(rec, &data, al, step));
            } else if self.answers_echo(&rec, nacked, f_in_d, step) {
                plan.push(Reply::Plain(rec.face));
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

    /// Protocol 4 lines 11-25 / Protocol 2 lines 22-23: a requester
    /// aggregated behind the one whose tag `data` echoes. `None`: it gets
    /// nothing.
    fn answer_aggregated<O: ProtocolObserver>(
        &mut self,
        rec: InRecord<TagNote>,
        data: &Data,
        al: AccessLevel,
        step: &mut Step<'_, '_, O>,
    ) -> Option<Reply> {
        let face = rec.face;
        let to_client = self.is_downstream(face);
        let nacks_downstream = !to_client && self.config.content_nack_enabled;
        let Some(rt) = rec.note.tag else {
            // Untagged aggregated request: only public content flows.
            return if al.is_public() {
                Some(Reply::Plain(face))
            } else if nacks_downstream {
                Some(Reply::Annotated(
                    face,
                    self.content_nack(data.clone(), step),
                ))
            } else {
                None
            };
        };
        let flag_f = if self.config.flag_f_enabled {
            rec.note.f
        } else {
            0.0
        };
        // Unlike Protocol 3's serve path, this one flips the F coin before
        // the pre-check, so an edge-validated tag whose level is too low is
        // trusted here — the F-trust bypass, ROADMAP.md item 1. Reordering
        // the two would reorder the run's draws.
        if flag_f != 0.0 && !step.ctx.rng.chance(flag_f) {
            // Trust the edge router's prior validation.
            step.obs
                .on_revalidation(step.hop, RevalidationOutcome::Trusted);
            return Some(Reply::Annotated(face, annotated(data, rt, flag_f)));
        }
        let reval = flag_f != 0.0;
        // Validate: pre-check (both halves apply here — the tag may have
        // expired while pending), then BF/signature.
        step.charge(Op::PreCheck);
        let key_loc = ext::data_key_locator(data).unwrap_or_default();
        let now = step.hop.now;
        let pre_ok = self.precheck(step, PrecheckStage::Edge, || {
            edge_precheck(&rt.tag, data.name(), now)
        }) && self.precheck(step, PrecheckStage::Content, || {
            content_precheck(&rt.tag, al, &key_loc)
        });
        let valid = pre_ok && self.validate_tag(step, &rt, reval);
        if reval {
            step.obs.on_revalidation(step.hop, revalidation(valid));
        }
        if valid {
            Some(Reply::Annotated(face, annotated(data, rt, 0.0)))
        } else if to_client {
            // Edge: "forward D to w if valid and drop otherwise".
            if !pre_ok {
                self.counters.precheck_rejections += 1;
            }
            None
        } else if nacks_downstream {
            let mut d = data.clone();
            ext::set_data_tag(&mut d, rt);
            Some(Reply::Annotated(face, self.content_nack(d, step)))
        } else {
            None
        }
    }
}
