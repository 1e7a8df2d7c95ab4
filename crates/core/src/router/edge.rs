//! Protocol 2 — the edge router: access-path authentication and the edge
//! pre-check on a client's Interest, the cooperation flag `F` set from the
//! validation cache, and the cache inserts on the way back: the tag an
//! upstream router vouched for, and a registration's fresh tag.

use tactic_ndn::face::FaceId;
use tactic_ndn::packet::{Data, Interest, Nack, NackReason, Packet};
use tactic_ndn::pit::InRecord;
use tactic_sim::cost::Op;
use tactic_telemetry::{PrecheckStage, PrecheckVerdict, ProtocolObserver, RejectReason};

use super::{clone_unless_last, RouterRole, Step, TacticRouter, TagNote};
use crate::ext;
use crate::precheck::edge_precheck;
use crate::tag::SignedTag;

impl TacticRouter {
    /// Protocol 2, Interest side, for a request on a client face: the
    /// Interest to carry on with, its `F` set; `None` when it was dropped
    /// or NACKed back through `send`.
    pub(super) fn edge_interest<O: ProtocolObserver>(
        &mut self,
        mut interest: Interest,
        tag: Option<&SignedTag>,
        in_face: FaceId,
        step: &mut Step<'_, '_, O>,
        send: &mut dyn FnMut(FaceId, Packet),
    ) -> Option<Interest> {
        let Some(st) = tag else {
            ext::set_interest_flag_f(&mut interest, 0.0);
            return Some(interest);
        };
        let hop = step.hop;
        if self.config.record_sightings {
            let path = ext::interest_access_path(&interest);
            self.sightings.push((st.client_identity(), path, hop.now));
        }
        if self.config.access_path_enabled {
            step.charge(Op::AccessPathCheck);
            if ext::interest_access_path(&interest) != st.tag.access_path {
                // Lines 1-2: drop and NACK the client.
                self.counters.ap_rejections += 1;
                self.counters.nacks += 1;
                let mismatch = PrecheckVerdict::Rejected(RejectReason::AccessPathMismatch);
                step.obs.on_precheck(hop, PrecheckStage::Edge, mismatch);
                step.obs.on_nack(hop, NackReason::AccessPathMismatch);
                send(
                    in_face,
                    Packet::Nack(Nack::new(interest, NackReason::AccessPathMismatch)),
                );
                return None;
            }
        }
        // Protocol 1, edge half. Failures are dropped *silently* (no
        // NACK): the requester's window slot frees only via its 1 s
        // request expiry, which is the paper's "request-based DoS
        // prevention" (§8.B).
        step.charge(Op::PreCheck);
        let check = || edge_precheck(&st.tag, interest.name(), hop.now);
        if !self.precheck(step, PrecheckStage::Edge, check) {
            self.counters.precheck_rejections += 1;
            return None;
        }
        // Lines 4-8: set F from the BF.
        let f = if self.bf_contains(step, st.partition_key(), &st.bloom_key(), false) {
            // A hit with a pristine filter still means "validated": floor
            // the flag so it stays distinguishable from 0.
            self.cache.estimated_fpp().max(1e-9)
        } else {
            0.0
        };
        ext::set_interest_flag_f(&mut interest, f);
        Some(interest)
    }

    /// Protocol 2 lines 11-21 / Protocol 4 lines 6-10: the requester whose
    /// tag the Data echoes. `true` when it gets the Data as it arrived.
    pub(super) fn answers_echo<O: ProtocolObserver>(
        &mut self,
        rec: &InRecord<TagNote>,
        nacked: bool,
        f_in_d: f64,
        step: &mut Step<'_, '_, O>,
    ) -> bool {
        let to_client = self.is_downstream(rec.face);
        if nacked {
            // Edge: drop the nacked request (lines 19-20); the client's
            // window frees via timeout.
            return !to_client;
        }
        if to_client && f_in_d == 0.0 {
            // Lines 14-15: upstream vouched; insert.
            if let Some(rt) = &rec.note.tag {
                self.bf_insert(step, rt.partition_key(), &rt.bloom_key());
            }
        }
        true
    }

    /// Protocol 2 lines 11-12: a registration response. An edge router
    /// inserts the fresh tag for each client it returns to; every router
    /// forwards it without caching.
    pub(super) fn relay_registration<O: ProtocolObserver>(
        &mut self,
        data: Data,
        new_tag: &SignedTag,
        step: &mut Step<'_, '_, O>,
        send: &mut dyn FnMut(FaceId, Packet),
    ) {
        let Some(entry) = step.timed("pit_ops", || self.tables.pit.take(data.name())) else {
            return;
        };
        let recs = entry.into_records();
        let last = recs.len().saturating_sub(1);
        let mut data = Some(data);
        for (idx, rec) in recs.iter().enumerate() {
            if self.config.role == RouterRole::Edge && self.is_downstream(rec.face) {
                self.bf_insert(step, new_tag.partition_key(), &new_tag.bloom_key());
            }
            send(
                rec.face,
                Packet::Data(clone_unless_last(&mut data, idx == last)),
            );
        }
    }
}
