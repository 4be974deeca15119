//! The policy model: rules over high-level identifiers.
//!
//! Paper §III-B: "Policy rules themselves are tuples consisting of
//! *(Action, Flow Properties, Source, Destination)*. Action can be Allow or
//! Deny, and Flow Properties include EtherType and IP protocol values.
//! Source and Destination describe the endpoints of flows matching this
//! rule as tuples over the following identifiers: username, hostname, IP
//! address, TCP/UDP port, MAC address, switch port, and switch DPID. Each
//! field can be either a specific value or a wildcard."

use dfi_packet::MacAddr;
use std::fmt;
use std::net::Ipv4Addr;

/// A policy field: a specific value, an inclusive interval, or a wildcard.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Wild<T> {
    /// Matches anything.
    #[default]
    Any,
    /// Matches exactly this value.
    Is(T),
    /// Matches any value in the inclusive interval `[lo, hi]`.
    ///
    /// Invariant: `lo < hi` strictly. Build intervals through
    /// [`Wild::range`], which normalizes swapped bounds and collapses a
    /// degenerate interval to [`Wild::Is`], so that two fields admit the
    /// same value set iff they compare equal.
    In(T, T),
}

impl<T: PartialOrd + Copy> Wild<T> {
    /// An inclusive interval field. Swapped bounds are normalized and a
    /// single-point interval collapses to [`Wild::Is`].
    pub fn range(lo: T, hi: T) -> Wild<T> {
        let (lo, hi) = if hi < lo { (hi, lo) } else { (lo, hi) };
        if lo == hi {
            Wild::Is(lo)
        } else {
            Wild::In(lo, hi)
        }
    }

    /// `true` when a concrete value satisfies this field.
    pub fn admits(&self, value: Option<T>) -> bool {
        match self {
            Wild::Any => true,
            Wild::Is(v) => value == Some(*v),
            Wild::In(lo, hi) => value.is_some_and(|v| *lo <= v && v <= *hi),
        }
    }

    /// `true` when the sets matched by `self` and `other` can intersect
    /// (used for conflict detection: wildcards overlap everything).
    pub fn overlaps(&self, other: &Wild<T>) -> bool {
        match (self, other) {
            (Wild::Any, _) | (_, Wild::Any) => true,
            (Wild::Is(a), Wild::Is(b)) => a == b,
            (Wild::Is(v), Wild::In(lo, hi)) | (Wild::In(lo, hi), Wild::Is(v)) => lo <= v && v <= hi,
            (Wild::In(a, b), Wild::In(c, d)) => a <= d && c <= b,
        }
    }

    /// The concrete value, if pinned to exactly one (`None` for wildcards
    /// *and* intervals — index layers treat an interval like a wildcard).
    pub fn value(&self) -> Option<T> {
        match self {
            Wild::Any | Wild::In(..) => None,
            Wild::Is(v) => Some(*v),
        }
    }

    /// The smallest admitted value, when the field constrains at all —
    /// the analyzer's minimal-witness construction uses this.
    pub fn low(&self) -> Option<T> {
        match self {
            Wild::Any => None,
            Wild::Is(v) => Some(*v),
            Wild::In(lo, _) => Some(*lo),
        }
    }

    /// The admitted set as an inclusive interval, `None` for wildcards.
    pub fn bounds(&self) -> Option<(T, T)> {
        match self {
            Wild::Any => None,
            Wild::Is(v) => Some((*v, *v)),
            Wild::In(lo, hi) => Some((*lo, *hi)),
        }
    }

    /// `true` when every value admitted by `other` is admitted by `self`
    /// (set inclusion; the static analyzer's domination check).
    pub fn subsumes(&self, other: &Wild<T>) -> bool {
        match (self, other) {
            (Wild::Any, _) => true,
            (_, Wild::Any) => false,
            (Wild::Is(a), Wild::Is(b)) => a == b,
            (Wild::Is(v), Wild::In(lo, hi)) => v <= lo && hi <= v,
            (Wild::In(lo, hi), Wild::Is(v)) => lo <= v && v <= hi,
            (Wild::In(a, b), Wild::In(c, d)) => a <= c && d <= b,
        }
    }

    /// The field matching exactly the values both fields admit, or `None`
    /// when the admitted sets are disjoint.
    pub fn intersect(&self, other: &Wild<T>) -> Option<Wild<T>> {
        match (self, other) {
            (Wild::Any, o) => Some(*o),
            (s, Wild::Any) => Some(*s),
            (Wild::Is(a), Wild::Is(b)) if a == b => Some(Wild::Is(*a)),
            (Wild::Is(v), Wild::In(lo, hi)) | (Wild::In(lo, hi), Wild::Is(v))
                if lo <= v && v <= hi =>
            {
                Some(Wild::Is(*v))
            }
            (Wild::In(a, b), Wild::In(c, d)) => {
                let lo = if a < c { *c } else { *a };
                let hi = if b < d { *b } else { *d };
                if hi < lo {
                    None
                } else {
                    Some(Wild::range(lo, hi))
                }
            }
            _ => None,
        }
    }
}

impl Wild<Ipv4Addr> {
    /// An IP-prefix field: admits exactly the addresses in
    /// `base/prefix_len` (CIDR notation). `/0` is the wildcard, `/32` pins
    /// the single address, and anything in between is the inclusive
    /// interval `[network, broadcast]` — which [`Wild::range`] keeps in
    /// the canonical `Is`/`In` shape, so the analyzer's interval
    /// refinement and the minimal-witness construction apply unchanged.
    ///
    /// Host bits in `base` are masked off, so `10.0.0.7/24` and
    /// `10.0.0.0/24` build the same field.
    #[must_use]
    pub fn cidr(base: Ipv4Addr, prefix_len: u8) -> Wild<Ipv4Addr> {
        if prefix_len == 0 {
            return Wild::Any;
        }
        let bits = u32::from(base);
        let mask = u32::MAX << (32 - u32::from(prefix_len.min(32)));
        let lo = bits & mask;
        let hi = lo | !mask;
        Wild::range(Ipv4Addr::from(lo), Ipv4Addr::from(hi))
    }
}

/// String-valued policy field (usernames, hostnames). Separate from
/// [`Wild`] so matching can be case-insensitive, as Windows identifiers are.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Default)]
pub enum WildName {
    /// Matches anything.
    #[default]
    Any,
    /// Matches this name (ASCII case-insensitive).
    Is(String),
}

impl WildName {
    /// A pinned name.
    pub fn is(name: impl Into<String>) -> WildName {
        WildName::Is(name.into())
    }

    /// `true` when any of the concrete candidates satisfies this field.
    #[must_use]
    pub fn admits_any(&self, values: &[String]) -> bool {
        match self {
            WildName::Any => true,
            WildName::Is(want) => values.iter().any(|v| v.eq_ignore_ascii_case(want)),
        }
    }

    /// `true` when the matched sets can intersect.
    #[must_use]
    pub fn overlaps(&self, other: &WildName) -> bool {
        match (self, other) {
            (WildName::Any, _) | (_, WildName::Any) => true,
            (WildName::Is(a), WildName::Is(b)) => a.eq_ignore_ascii_case(b),
        }
    }

    /// `true` when every view admitted by `other` is admitted by `self`
    /// (ASCII case-insensitive, matching [`WildName::admits_any`]).
    #[must_use]
    pub fn subsumes(&self, other: &WildName) -> bool {
        match (self, other) {
            (WildName::Any, _) => true,
            (WildName::Is(_), WildName::Any) => false,
            (WildName::Is(a), WildName::Is(b)) => a.eq_ignore_ascii_case(b),
        }
    }

    /// The field matching exactly the names both fields admit (`None` when
    /// disjoint). When both pin the same name under different cases, the
    /// spelling of `self` is kept — the admitted set is identical either
    /// way.
    #[must_use]
    pub fn intersect(&self, other: &WildName) -> Option<WildName> {
        match (self, other) {
            (WildName::Any, o) => Some(o.clone()),
            (s, WildName::Any) => Some(s.clone()),
            (WildName::Is(a), WildName::Is(b)) if a.eq_ignore_ascii_case(b) => {
                Some(WildName::Is(a.clone()))
            }
            _ => None,
        }
    }
}

/// Allow or deny.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PolicyAction {
    /// Permit matching flows.
    Allow,
    /// Block matching flows.
    Deny,
}

impl fmt::Display for PolicyAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicyAction::Allow => write!(f, "Allow"),
            PolicyAction::Deny => write!(f, "Deny"),
        }
    }
}

/// Flow-level properties a rule can constrain.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Default)]
pub struct FlowProperties {
    /// EtherType (e.g. `0x0800` for IPv4).
    pub ethertype: Wild<u16>,
    /// IP protocol number (6 = TCP, 17 = UDP).
    pub ip_proto: Wild<u8>,
}

impl FlowProperties {
    /// Matches any flow.
    #[must_use]
    pub fn any() -> FlowProperties {
        FlowProperties::default()
    }

    /// `true` when every flow admitted by `other` is admitted by `self`.
    #[must_use]
    pub fn subsumes(&self, other: &FlowProperties) -> bool {
        self.ethertype.subsumes(&other.ethertype) && self.ip_proto.subsumes(&other.ip_proto)
    }

    /// Field-wise intersection (`None` when some field pair is disjoint).
    #[must_use]
    pub fn intersect(&self, other: &FlowProperties) -> Option<FlowProperties> {
        Some(FlowProperties {
            ethertype: self.ethertype.intersect(&other.ethertype)?,
            ip_proto: self.ip_proto.intersect(&other.ip_proto)?,
        })
    }

    /// TCP flows only.
    #[must_use]
    pub fn tcp() -> FlowProperties {
        FlowProperties {
            ethertype: Wild::Is(0x0800),
            ip_proto: Wild::Is(6),
        }
    }

    /// UDP flows only.
    #[must_use]
    pub fn udp() -> FlowProperties {
        FlowProperties {
            ethertype: Wild::Is(0x0800),
            ip_proto: Wild::Is(17),
        }
    }

    /// IPv4 flows whose protocol number lies in `[lo, hi]` (inclusive) —
    /// e.g. `ip_proto_range(6, 17)` covers TCP through UDP.
    #[must_use]
    pub fn ip_proto_range(lo: u8, hi: u8) -> FlowProperties {
        FlowProperties {
            ethertype: Wild::Is(0x0800),
            ip_proto: Wild::range(lo, hi),
        }
    }
}

/// One endpoint (source or destination) pattern: the paper's 7-identifier
/// tuple.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Default)]
pub struct EndpointPattern {
    /// Username bound to the endpoint host.
    pub username: WildName,
    /// Hostname of the endpoint.
    pub hostname: WildName,
    /// IP address in the packet.
    pub ip: Wild<Ipv4Addr>,
    /// TCP/UDP port in the packet.
    pub port: Wild<u16>,
    /// MAC address in the packet.
    pub mac: Wild<MacAddr>,
    /// Physical switch port the endpoint is attached to.
    pub switch_port: Wild<u32>,
    /// Datapath id of the switch the endpoint is attached to.
    pub switch_dpid: Wild<u64>,
}

impl EndpointPattern {
    /// The all-wildcard endpoint.
    #[must_use]
    pub fn any() -> EndpointPattern {
        EndpointPattern::default()
    }

    /// An endpoint pinned to a username (the paper's Alice→Bob example).
    #[must_use]
    pub fn user(name: &str) -> EndpointPattern {
        EndpointPattern {
            username: WildName::is(name),
            ..EndpointPattern::any()
        }
    }

    /// An endpoint pinned to a hostname.
    #[must_use]
    pub fn host(name: &str) -> EndpointPattern {
        EndpointPattern {
            hostname: WildName::is(name),
            ..EndpointPattern::any()
        }
    }

    /// An endpoint pinned to a hostname and L4 port (e.g. "TCP 22 on h2").
    #[must_use]
    pub fn host_port(name: &str, port: u16) -> EndpointPattern {
        EndpointPattern {
            hostname: WildName::is(name),
            port: Wild::Is(port),
            ..EndpointPattern::any()
        }
    }

    /// An endpoint pinned to a hostname and an inclusive L4 port range
    /// (e.g. "the ephemeral ports on h2").
    #[must_use]
    pub fn host_port_range(name: &str, lo: u16, hi: u16) -> EndpointPattern {
        EndpointPattern {
            hostname: WildName::is(name),
            port: Wild::range(lo, hi),
            ..EndpointPattern::any()
        }
    }

    /// An endpoint pinned to an IP prefix (CIDR) — e.g. "the guest
    /// subnet". See [`Wild::cidr`] for the prefix semantics.
    #[must_use]
    pub fn ip_cidr(base: Ipv4Addr, prefix_len: u8) -> EndpointPattern {
        EndpointPattern {
            ip: Wild::cidr(base, prefix_len),
            ..EndpointPattern::any()
        }
    }

    /// An endpoint pinned to an inclusive datapath-id range — e.g. "any
    /// host attached to the quarantine leaves".
    #[must_use]
    pub fn dpid_range(lo: u64, hi: u64) -> EndpointPattern {
        EndpointPattern {
            switch_dpid: Wild::range(lo, hi),
            ..EndpointPattern::any()
        }
    }

    /// `true` when every field admits the corresponding concrete view.
    #[must_use]
    pub fn admits(&self, view: &EndpointView) -> bool {
        self.username.admits_any(&view.usernames)
            && self.hostname.admits_any(&view.hostnames)
            && self.ip.admits(view.ip)
            && self.port.admits(view.port)
            && self.mac.admits(view.mac)
            && self.switch_port.admits(view.switch_port)
            && self.switch_dpid.admits(view.switch_dpid)
    }

    /// `true` when every endpoint view admitted by `other` is admitted by
    /// `self` — i.e. `self` is the same pattern or a field-wise widening.
    #[must_use]
    pub fn subsumes(&self, other: &EndpointPattern) -> bool {
        self.username.subsumes(&other.username)
            && self.hostname.subsumes(&other.hostname)
            && self.ip.subsumes(&other.ip)
            && self.port.subsumes(&other.port)
            && self.mac.subsumes(&other.mac)
            && self.switch_port.subsumes(&other.switch_port)
            && self.switch_dpid.subsumes(&other.switch_dpid)
    }

    /// Field-wise intersection of two patterns: the pattern admitting
    /// exactly the endpoints both admit, or `None` when some field pair is
    /// disjoint (in which case [`EndpointPattern::overlaps`] is `false`).
    #[must_use]
    pub fn intersect(&self, other: &EndpointPattern) -> Option<EndpointPattern> {
        Some(EndpointPattern {
            username: self.username.intersect(&other.username)?,
            hostname: self.hostname.intersect(&other.hostname)?,
            ip: self.ip.intersect(&other.ip)?,
            port: self.port.intersect(&other.port)?,
            mac: self.mac.intersect(&other.mac)?,
            switch_port: self.switch_port.intersect(&other.switch_port)?,
            switch_dpid: self.switch_dpid.intersect(&other.switch_dpid)?,
        })
    }

    /// `true` when the endpoint sets matched by two patterns can intersect.
    #[must_use]
    pub fn overlaps(&self, other: &EndpointPattern) -> bool {
        self.username.overlaps(&other.username)
            && self.hostname.overlaps(&other.hostname)
            && self.ip.overlaps(&other.ip)
            && self.port.overlaps(&other.port)
            && self.mac.overlaps(&other.mac)
            && self.switch_port.overlaps(&other.switch_port)
            && self.switch_dpid.overlaps(&other.switch_dpid)
    }
}

/// A complete policy rule.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct PolicyRule {
    /// Allow or deny.
    pub action: PolicyAction,
    /// Flow-level constraints.
    pub flow: FlowProperties,
    /// Source endpoint pattern.
    pub src: EndpointPattern,
    /// Destination endpoint pattern.
    pub dst: EndpointPattern,
}

impl PolicyRule {
    /// An allow rule between two endpoint patterns over any protocol.
    #[must_use]
    pub fn allow(src: EndpointPattern, dst: EndpointPattern) -> PolicyRule {
        PolicyRule {
            action: PolicyAction::Allow,
            flow: FlowProperties::any(),
            src,
            dst,
        }
    }

    /// A deny rule between two endpoint patterns over any protocol.
    #[must_use]
    pub fn deny(src: EndpointPattern, dst: EndpointPattern) -> PolicyRule {
        PolicyRule {
            action: PolicyAction::Deny,
            flow: FlowProperties::any(),
            src,
            dst,
        }
    }

    /// The paper's §V default: allow everything (the baseline condition).
    #[must_use]
    pub fn allow_all() -> PolicyRule {
        PolicyRule::allow(EndpointPattern::any(), EndpointPattern::any())
    }

    /// `true` when the rule matches an enriched flow view.
    #[must_use]
    pub fn matches(&self, flow: &FlowView) -> bool {
        self.flow.ethertype.admits(Some(flow.ethertype))
            && self.flow.ip_proto.admits(flow.ip_proto)
            && self.src.admits(&flow.src)
            && self.dst.admits(&flow.dst)
    }

    /// `true` when every flow matched by `other` is matched by `self`
    /// (match-space inclusion; actions are ignored). This is the static
    /// analyzer's domination test: a higher-precedence subsuming rule makes
    /// `other` unreachable.
    #[must_use]
    pub fn subsumes(&self, other: &PolicyRule) -> bool {
        self.flow.subsumes(&other.flow)
            && self.src.subsumes(&other.src)
            && self.dst.subsumes(&other.dst)
    }

    /// Conservative overlap test used for conflict detection (paper
    /// §III-B): two rules conflict-candidate when every field pair can
    /// intersect.
    #[must_use]
    pub fn overlaps(&self, other: &PolicyRule) -> bool {
        self.flow.ethertype.overlaps(&other.flow.ethertype)
            && self.flow.ip_proto.overlaps(&other.flow.ip_proto)
            && self.src.overlaps(&other.src)
            && self.dst.overlaps(&other.dst)
    }
}

/// A concrete endpoint after Entity Resolution Manager enrichment.
///
/// Identifier bindings are many-to-many, so the high-level names are sets:
/// a host can have several users logged on; an IP can (transiently) map to
/// several hostnames.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EndpointView {
    /// Users currently bound to the endpoint's host(s).
    pub usernames: Vec<String>,
    /// Hostnames bound to the endpoint's IP.
    pub hostnames: Vec<String>,
    /// IP address observed in the packet.
    pub ip: Option<Ipv4Addr>,
    /// L4 port observed in the packet.
    pub port: Option<u16>,
    /// MAC address observed in the packet.
    pub mac: Option<MacAddr>,
    /// Switch port (known for the packet's ingress side).
    pub switch_port: Option<u32>,
    /// Switch datapath id (known for the packet's ingress side).
    pub switch_dpid: Option<u64>,
}

/// A fully enriched flow: what the Policy Compilation Point hands to the
/// Policy Manager for a decision.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlowView {
    /// EtherType of the packet.
    pub ethertype: u16,
    /// IP protocol, when L3 is IPv4.
    pub ip_proto: Option<u8>,
    /// Enriched source endpoint.
    pub src: EndpointView,
    /// Enriched destination endpoint.
    pub dst: EndpointView,
}

impl Default for FlowView {
    fn default() -> Self {
        FlowView {
            ethertype: 0x0800,
            ip_proto: None,
            src: EndpointView::default(),
            dst: EndpointView::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(users: &[&str], hosts: &[&str]) -> EndpointView {
        EndpointView {
            usernames: users.iter().map(std::string::ToString::to_string).collect(),
            hostnames: hosts.iter().map(std::string::ToString::to_string).collect(),
            ip: Some(Ipv4Addr::new(10, 0, 0, 1)),
            port: Some(445),
            mac: Some(MacAddr::from_index(1)),
            switch_port: Some(3),
            switch_dpid: Some(7),
        }
    }

    #[test]
    fn wildcard_admits_everything() {
        let p = EndpointPattern::any();
        assert!(p.admits(&view(&[], &[])));
        assert!(p.admits(&EndpointView::default()));
    }

    #[test]
    fn username_match_is_case_insensitive() {
        let p = EndpointPattern::user("Alice");
        assert!(p.admits(&view(&["alice"], &["h1"])));
        assert!(!p.admits(&view(&["bob"], &["h1"])));
        assert!(!p.admits(&view(&[], &["h1"])), "no user bound → no match");
    }

    #[test]
    fn multiple_bound_users_any_can_match() {
        let p = EndpointPattern::user("bob");
        assert!(p.admits(&view(&["alice", "bob"], &["h1"])));
    }

    #[test]
    fn host_port_pattern() {
        let p = EndpointPattern::host_port("h2", 22);
        let mut v = view(&[], &["h2"]);
        v.port = Some(22);
        assert!(p.admits(&v));
        v.port = Some(23);
        assert!(!p.admits(&v));
    }

    #[test]
    fn ip_and_mac_fields() {
        let p = EndpointPattern {
            ip: Wild::Is(Ipv4Addr::new(10, 0, 0, 1)),
            mac: Wild::Is(MacAddr::from_index(1)),
            ..EndpointPattern::any()
        };
        assert!(p.admits(&view(&[], &[])));
        let p2 = EndpointPattern {
            ip: Wild::Is(Ipv4Addr::new(10, 0, 0, 99)),
            ..EndpointPattern::any()
        };
        assert!(!p2.admits(&view(&[], &[])));
    }

    #[test]
    fn rule_matches_enriched_flow() {
        // The paper's example: Alice's machine may talk to Bob's machine
        // over any protocol.
        let rule = PolicyRule::allow(EndpointPattern::user("alice"), EndpointPattern::user("bob"));
        let flow = FlowView {
            ethertype: 0x0800,
            ip_proto: Some(6),
            src: view(&["alice"], &["alice-laptop"]),
            dst: view(&["bob"], &["bob-desktop"]),
        };
        assert!(rule.matches(&flow));
        let flow_reversed = FlowView {
            src: flow.dst.clone(),
            dst: flow.src.clone(),
            ..flow.clone()
        };
        assert!(!rule.matches(&flow_reversed), "rules are directional");
    }

    #[test]
    fn flow_properties_constrain_protocol() {
        let mut rule = PolicyRule::allow(EndpointPattern::any(), EndpointPattern::any());
        rule.flow = FlowProperties::tcp();
        let mut flow = FlowView {
            ethertype: 0x0800,
            ip_proto: Some(6),
            ..FlowView::default()
        };
        assert!(rule.matches(&flow));
        flow.ip_proto = Some(17);
        assert!(!rule.matches(&flow));
        flow.ethertype = 0x0806;
        flow.ip_proto = None;
        assert!(!rule.matches(&flow));
    }

    #[test]
    fn overlap_detection() {
        let alice_to_bob =
            PolicyRule::allow(EndpointPattern::user("alice"), EndpointPattern::user("bob"));
        let mut anyone_to_bob =
            PolicyRule::deny(EndpointPattern::any(), EndpointPattern::user("bob"));
        assert!(alice_to_bob.overlaps(&anyone_to_bob));
        assert!(anyone_to_bob.overlaps(&alice_to_bob));
        anyone_to_bob.dst = EndpointPattern::user("carol");
        assert!(!alice_to_bob.overlaps(&anyone_to_bob));
    }

    #[test]
    fn disjoint_protocols_do_not_overlap() {
        let mut tcp = PolicyRule::allow_all();
        tcp.flow = FlowProperties::tcp();
        let mut udp = PolicyRule::allow_all();
        udp.flow = FlowProperties::udp();
        assert!(!tcp.overlaps(&udp));
        assert!(tcp.overlaps(&PolicyRule::allow_all()));
    }

    #[test]
    fn policy_action_displays() {
        assert_eq!(PolicyAction::Allow.to_string(), "Allow");
        assert_eq!(PolicyAction::Deny.to_string(), "Deny");
    }

    #[test]
    fn wildname_empty_string_is_a_real_pin() {
        // An empty name is a legal (if odd) pinned value: it admits only a
        // view carrying the empty string, never a view with no names.
        let p = WildName::is("");
        assert!(p.admits_any(&[String::new()]));
        assert!(!p.admits_any(&[]));
        assert!(!p.admits_any(&["alice".into()]));
        assert!(p.overlaps(&WildName::is("")));
        assert!(!p.overlaps(&WildName::is("alice")));
        assert!(WildName::Any.subsumes(&p));
        assert!(!p.subsumes(&WildName::Any));
        assert_eq!(p.intersect(&WildName::is("")), Some(WildName::is("")));
        assert_eq!(p.intersect(&WildName::is("x")), None);
    }

    #[test]
    fn wildname_case_insensitivity_is_consistent_across_operations() {
        let lower = WildName::is("alice");
        let upper = WildName::is("ALICE");
        let mixed = WildName::is("AlIcE");
        // admits / overlaps / subsumes / intersect must all agree that the
        // three spellings denote the same matched set.
        for a in [&lower, &upper, &mixed] {
            assert!(a.admits_any(&["aLiCe".into()]));
            for b in [&lower, &upper, &mixed] {
                assert!(a.overlaps(b));
                assert!(a.subsumes(b));
                assert!(b.subsumes(a));
                let i = a.intersect(b).expect("same set intersects");
                assert!(i.admits_any(&["alice".into()]));
            }
        }
        // Non-ASCII case is NOT folded: matching is ASCII-only by design
        // (Windows identifier semantics).
        let unicode_upper = WildName::is("ÄLICE");
        let unicode_lower = WildName::is("älice");
        assert!(!unicode_upper.overlaps(&unicode_lower));
        assert_eq!(unicode_upper.intersect(&unicode_lower), None);
    }

    #[test]
    fn subsumption_and_intersection_on_patterns() {
        let any = EndpointPattern::any();
        let alice = EndpointPattern::user("alice");
        let alice_at_h1 = EndpointPattern {
            hostname: WildName::is("h1"),
            ..EndpointPattern::user("alice")
        };
        assert!(any.subsumes(&alice));
        assert!(alice.subsumes(&alice_at_h1));
        assert!(!alice_at_h1.subsumes(&alice));
        assert!(!alice.subsumes(&any));
        // Intersection narrows field-wise.
        let i = alice
            .intersect(&EndpointPattern::host("h1"))
            .expect("compatible");
        assert_eq!(i, alice_at_h1);
        // Disjoint pins kill the intersection.
        assert_eq!(alice.intersect(&EndpointPattern::user("bob")), None);
        // Wild<T> numeric fields participate too.
        let p1 = EndpointPattern {
            port: Wild::Is(80),
            ..EndpointPattern::any()
        };
        let p2 = EndpointPattern {
            port: Wild::Is(443),
            ..EndpointPattern::any()
        };
        assert_eq!(p1.intersect(&p2), None);
        assert!(Wild::<u16>::Any.subsumes(&Wild::Is(80)));
        assert!(!Wild::Is(80).subsumes(&Wild::<u16>::Any));
        assert_eq!(Wild::Is(80).intersect(&Wild::Any), Some(Wild::Is(80)));
    }

    #[test]
    fn range_field_normalization_and_admission() {
        // Swapped bounds normalize; a degenerate interval collapses to Is,
        // so equal value sets compare equal.
        assert_eq!(Wild::range(443u16, 80), Wild::In(80, 443));
        assert_eq!(Wild::range(80u16, 80), Wild::Is(80));
        let r = Wild::range(1000u16, 2000);
        assert!(r.admits(Some(1000)) && r.admits(Some(1500)) && r.admits(Some(2000)));
        assert!(!r.admits(Some(999)) && !r.admits(Some(2001)));
        assert!(!r.admits(None), "an interval is a real pin");
        assert_eq!(r.value(), None, "intervals are not single pins");
        assert_eq!(r.low(), Some(1000));
        assert_eq!(r.bounds(), Some((1000, 2000)));
    }

    #[test]
    fn range_field_set_algebra() {
        let r = Wild::range(100u16, 200);
        // Overlap against points, intervals, and wildcards.
        assert!(r.overlaps(&Wild::Is(150)) && Wild::Is(150).overlaps(&r));
        assert!(!r.overlaps(&Wild::Is(99)));
        assert!(r.overlaps(&Wild::range(200, 300)), "touching endpoints");
        assert!(!r.overlaps(&Wild::range(201, 300)));
        assert!(r.overlaps(&Wild::Any));
        // Subsumption is interval containment.
        assert!(r.subsumes(&Wild::Is(100)) && r.subsumes(&Wild::range(120, 180)));
        assert!(!r.subsumes(&Wild::range(150, 250)) && !r.subsumes(&Wild::Any));
        assert!(Wild::Any.subsumes(&r));
        assert!(!Wild::Is(150u16).subsumes(&r));
        // Intersection narrows to the overlap, collapsing to Is at a point.
        assert_eq!(
            r.intersect(&Wild::range(150, 300)),
            Some(Wild::In(150, 200))
        );
        assert_eq!(r.intersect(&Wild::range(200, 300)), Some(Wild::Is(200)));
        assert_eq!(r.intersect(&Wild::range(201, 300)), None);
        assert_eq!(r.intersect(&Wild::Is(150)), Some(Wild::Is(150)));
        assert_eq!(r.intersect(&Wild::Is(99)), None);
        assert_eq!(r.intersect(&Wild::Any), Some(r));
    }

    #[test]
    fn port_range_rule_matches_flows_in_range() {
        let mut rule = PolicyRule::allow(
            EndpointPattern::any(),
            EndpointPattern::host_port_range("srv", 8000, 8080),
        );
        rule.flow = FlowProperties::ip_proto_range(6, 17);
        let mut flow = FlowView {
            ethertype: 0x0800,
            ip_proto: Some(6),
            dst: view(&[], &["srv"]),
            ..FlowView::default()
        };
        flow.dst.port = Some(8040);
        assert!(rule.matches(&flow));
        flow.dst.port = Some(8081);
        assert!(!rule.matches(&flow));
        flow.dst.port = Some(8000);
        flow.ip_proto = Some(17);
        assert!(rule.matches(&flow));
        flow.ip_proto = Some(1);
        assert!(!rule.matches(&flow), "ICMP outside the protocol range");
    }

    #[test]
    fn rule_subsumption_ignores_action() {
        let wide = PolicyRule::deny(EndpointPattern::any(), EndpointPattern::any());
        let narrow = PolicyRule::allow(EndpointPattern::user("alice"), EndpointPattern::any());
        assert!(wide.subsumes(&narrow));
        assert!(!narrow.subsumes(&wide));
        let mut tcp_narrow = narrow.clone();
        tcp_narrow.flow = FlowProperties::tcp();
        assert!(narrow.subsumes(&tcp_narrow));
        assert!(!tcp_narrow.subsumes(&narrow));
    }
}
