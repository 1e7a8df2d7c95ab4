//! Protocol 1 — the tag pre-check.
//!
//! A "low-cost tag pre-check ... employed by routers in `R_E` and `R_C^c`
//! to validate the received tag using the tag's `AL_u`, expiry time, and
//! provider's name prefix *before* the more expensive BF lookup and
//! signature verification operations" (§5).

use tactic_ndn::name::Name;
use tactic_sim::time::SimTime;
use tactic_telemetry::{Hop, PrecheckStage, PrecheckVerdict, ProtocolObserver};

use crate::access::AccessLevel;
use crate::tag::Tag;

/// Why a tag failed the pre-check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PreCheckError {
    /// Edge: `N(Pub_p^T) != N(D)` — the tag belongs to another provider
    /// (Protocol 1, lines 1–2).
    PrefixMismatch {
        /// The provider prefix in the tag.
        tag_prefix: Name,
        /// The prefix of the requested content.
        content_prefix: Name,
    },
    /// Edge: `T_e < T_current` — the tag expired (lines 3–4); expiry is
    /// the revocation mechanism.
    Expired {
        /// When the tag expired.
        expiry: SimTime,
        /// The current time.
        now: SimTime,
    },
    /// Content router: `AL_D > AL_u^T` — insufficient access level
    /// (lines 8–9).
    InsufficientAccessLevel {
        /// The content's required level.
        required: AccessLevel,
        /// The level granted by the tag.
        granted: AccessLevel,
    },
    /// Content router: `Pub_p^D != Pub_p^T` — the provider key locator in
    /// the content does not match the tag's (lines 10–11).
    ProviderKeyMismatch,
}

impl std::fmt::Display for PreCheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PreCheckError::PrefixMismatch {
                tag_prefix,
                content_prefix,
            } => {
                write!(
                    f,
                    "tag prefix {tag_prefix} does not match content prefix {content_prefix}"
                )
            }
            PreCheckError::Expired { expiry, now } => {
                write!(f, "tag expired at {expiry} (now {now})")
            }
            PreCheckError::InsufficientAccessLevel { required, granted } => {
                write!(f, "content requires {required} but tag grants {granted}")
            }
            PreCheckError::ProviderKeyMismatch => write!(f, "provider key locator mismatch"),
        }
    }
}

impl std::error::Error for PreCheckError {}

impl PreCheckError {
    /// The payload-free telemetry label for this rejection (the hook
    /// vocabulary lives below `tactic` in the crate graph, so it cannot
    /// carry the `Name`/`SimTime` details).
    pub fn telemetry_reason(&self) -> tactic_telemetry::RejectReason {
        use tactic_telemetry::RejectReason as R;
        match self {
            PreCheckError::PrefixMismatch { .. } => R::PrefixMismatch,
            PreCheckError::Expired { .. } => R::Expired,
            PreCheckError::InsufficientAccessLevel { .. } => R::InsufficientAccessLevel,
            PreCheckError::ProviderKeyMismatch => R::ProviderKeyMismatch,
        }
    }
}

/// The edge-router half of Protocol 1: provider-prefix match and expiry.
///
/// # Errors
///
/// [`PreCheckError::PrefixMismatch`] or [`PreCheckError::Expired`].
pub fn edge_precheck(tag: &Tag, content_name: &Name, now: SimTime) -> Result<(), PreCheckError> {
    // `N(Pub_p)` against `N(D)`, component by component: the prefixes
    // are built only to report a mismatch.
    if !tag.provider_key_locator.same_prefix(content_name, 1) {
        return Err(PreCheckError::PrefixMismatch {
            tag_prefix: tag.provider_prefix(),
            content_prefix: content_name.prefix(1),
        });
    }
    if tag.is_expired(now) {
        return Err(PreCheckError::Expired {
            expiry: tag.expiry,
            now,
        });
    }
    Ok(())
}

/// The content-router half of Protocol 1: access level and provider key
/// locator against the (signed) fields embedded in the content.
///
/// # Errors
///
/// [`PreCheckError::InsufficientAccessLevel`] or
/// [`PreCheckError::ProviderKeyMismatch`].
pub fn content_precheck(
    tag: &Tag,
    content_access_level: AccessLevel,
    content_key_locator: &Name,
) -> Result<(), PreCheckError> {
    if !tag.access_level.satisfies(content_access_level) {
        return Err(PreCheckError::InsufficientAccessLevel {
            required: content_access_level,
            granted: tag.access_level,
        });
    }
    if content_key_locator != &tag.provider_key_locator {
        return Err(PreCheckError::ProviderKeyMismatch);
    }
    Ok(())
}

/// Tells `obs` the verdict of the pre-check half `stage`, passing it on.
pub(crate) fn report<O: ProtocolObserver>(
    obs: &mut O,
    hop: Hop,
    stage: PrecheckStage,
    verdict: Result<(), PreCheckError>,
) -> Result<(), PreCheckError> {
    let seen = match &verdict {
        Ok(()) => PrecheckVerdict::Accepted,
        Err(e) => PrecheckVerdict::Rejected(e.telemetry_reason()),
    };
    obs.on_precheck(hop, stage, seen);
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access_path::AccessPath;

    fn tag() -> Tag {
        Tag {
            provider_key_locator: "/prov0/KEY/1".parse().unwrap(),
            access_level: AccessLevel::Level(2),
            client_key_locator: "/prov0/users/u/KEY".parse().unwrap(),
            access_path: AccessPath::EMPTY,
            expiry: SimTime::from_secs(10),
        }
    }

    #[test]
    fn edge_accepts_valid() {
        let name: Name = "/prov0/obj1/3".parse().unwrap();
        assert!(edge_precheck(&tag(), &name, SimTime::from_secs(5)).is_ok());
    }

    #[test]
    fn edge_rejects_cross_provider_use() {
        // Threat: "a client using a valid tag of Provider A to retrieve a
        // content from Provider B" (§6.A).
        let name: Name = "/prov1/obj1/3".parse().unwrap();
        let err = edge_precheck(&tag(), &name, SimTime::from_secs(5)).unwrap_err();
        assert!(matches!(err, PreCheckError::PrefixMismatch { .. }));
    }

    #[test]
    fn edge_rejects_expired() {
        let name: Name = "/prov0/obj1/3".parse().unwrap();
        let err = edge_precheck(&tag(), &name, SimTime::from_secs(10)).unwrap_err();
        assert!(matches!(err, PreCheckError::Expired { .. }));
    }

    #[test]
    fn prefix_checked_before_expiry() {
        // Protocol 1 orders the checks: prefix first.
        let name: Name = "/prov9/obj1/3".parse().unwrap();
        let err = edge_precheck(&tag(), &name, SimTime::from_secs(99)).unwrap_err();
        assert!(matches!(err, PreCheckError::PrefixMismatch { .. }));
    }

    #[test]
    fn content_accepts_sufficient_level() {
        let loc: Name = "/prov0/KEY/1".parse().unwrap();
        assert!(content_precheck(&tag(), AccessLevel::Level(2), &loc).is_ok());
        assert!(content_precheck(&tag(), AccessLevel::Level(0), &loc).is_ok());
        assert!(content_precheck(&tag(), AccessLevel::Public, &loc).is_ok());
    }

    #[test]
    fn content_rejects_higher_requirement() {
        let loc: Name = "/prov0/KEY/1".parse().unwrap();
        let err = content_precheck(&tag(), AccessLevel::Level(3), &loc).unwrap_err();
        assert_eq!(
            err,
            PreCheckError::InsufficientAccessLevel {
                required: AccessLevel::Level(3),
                granted: AccessLevel::Level(2)
            }
        );
    }

    #[test]
    fn content_rejects_key_mismatch() {
        let loc: Name = "/prov0/KEY/2".parse().unwrap();
        let err = content_precheck(&tag(), AccessLevel::Level(1), &loc).unwrap_err();
        assert_eq!(err, PreCheckError::ProviderKeyMismatch);
    }

    #[test]
    fn errors_display() {
        let e = PreCheckError::Expired {
            expiry: SimTime::from_secs(1),
            now: SimTime::from_secs(2),
        };
        assert!(e.to_string().contains("expired"));
        assert!(PreCheckError::ProviderKeyMismatch
            .to_string()
            .contains("mismatch"));
    }
}
