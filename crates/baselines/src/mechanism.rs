//! The baseline access-control mechanisms TACTIC is motivated against.

/// A baseline mechanism class from the paper's §1–§2 taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mechanism {
    /// No access control at all: vanilla NDN. The upper bound on cache
    /// utilisation, the lower bound on security.
    NoAccessControl,
    /// Client-side (decryption-delegated) enforcement, à la Misra \[3]/\[7]
    /// and Mangili \[5]: *everyone* can retrieve the encrypted content from
    /// caches; only authorised clients hold decryption keys. Unauthorized
    /// retrievals waste bandwidth and enable the DDoS vector the paper
    /// warns about (§1).
    ClientSideAc,
    /// Provider-side enforcement, à la Wood \[14] and Li \[16]: an
    /// always-online provider authenticates every request, so protected
    /// content cannot be served from caches (sessions are per-client:
    /// unique names, no aggregation, no cache reuse).
    ProviderAuthAc,
}

impl Mechanism {
    /// All baselines, in comparison order.
    pub const ALL: [Mechanism; 3] = [
        Mechanism::NoAccessControl,
        Mechanism::ClientSideAc,
        Mechanism::ProviderAuthAc,
    ];

    /// The mechanism's name in tables, CSVs and labels.
    pub fn name(self) -> &'static str {
        match self {
            Mechanism::NoAccessControl => "no-access-control",
            Mechanism::ClientSideAc => "client-side-ac",
            Mechanism::ProviderAuthAc => "provider-auth-ac",
        }
    }

    /// Whether caches may serve protected content under this mechanism.
    pub fn caches_protected_content(self) -> bool {
        !matches!(self, Mechanism::ProviderAuthAc)
    }

    /// Whether the provider must authenticate every request.
    pub fn per_request_provider_auth(self) -> bool {
        matches!(self, Mechanism::ProviderAuthAc)
    }
}

impl std::fmt::Display for Mechanism {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cacheability_matches_design() {
        assert!(Mechanism::NoAccessControl.caches_protected_content());
        assert!(Mechanism::ClientSideAc.caches_protected_content());
        assert!(!Mechanism::ProviderAuthAc.caches_protected_content());
    }

    #[test]
    fn only_provider_auth_authenticates_per_request() {
        assert!(Mechanism::ProviderAuthAc.per_request_provider_auth());
        assert!(!Mechanism::ClientSideAc.per_request_provider_auth());
    }

    #[test]
    fn display_names() {
        assert_eq!(Mechanism::ClientSideAc.to_string(), "client-side-ac");
    }
}
