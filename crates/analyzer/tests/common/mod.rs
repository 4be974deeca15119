//! Shared per-packet forwarding oracle for the reachability test suites.
//!
//! An independent re-implementation of the data-plane semantics — rule
//! matching, installed-chain routing, per-hop arbitration, punt-to-policy
//! — deliberately *not* built from the symbolic engine under test. The
//! class-constancy suite (`proptest_reach.rs`) holds the engine's
//! per-class verdicts to this oracle packet by packet; the repair
//! convergence suite (`proptest_repair.rs`) holds *repaired* worlds to it,
//! so a certified fix is vouched for by a simulator that never saw the
//! plan.

#![allow(dead_code)] // each test binary uses its own slice of the oracle

use dfi_analyze::{ReachSpec, TableZeroRule, TableZeroSnapshot};
use dfi_core::policy::{EndpointView, FlowView, PolicyAction, PolicyManager};
use std::cmp::Reverse;

/// Covers every interval the generated rules and installs can cut: rule
/// port bounds live in `1..5`, install pins in `1..5`, and 0 / 5 probe
/// the open ends.
pub const PORT_GRID: [u16; 6] = [0, 1, 2, 3, 4, 5];

/// The concrete probe flow for host pair `(src, dst)` of `spec`, as the
/// linear-scan policy oracle sees it.
pub fn probe_flow(
    spec: &ReachSpec,
    src: usize,
    dst: usize,
    proto: u8,
    sp: u16,
    dp: u16,
) -> FlowView {
    let side = |i: usize, port: u16| {
        let h = &spec.hosts[i];
        EndpointView {
            usernames: h.users.clone(),
            hostnames: vec![h.hostname.clone()],
            ip: Some(h.ip),
            port: Some(port),
            mac: Some(h.mac),
            switch_port: Some(h.port),
            switch_dpid: Some(h.dpid),
        }
    };
    FlowView {
        ethertype: 0x0800,
        ip_proto: Some(proto),
        src: side(src, sp),
        dst: side(dst, dp),
    }
}

/// Whether an installed rule matches one concrete packet, under the same
/// canonicality gate the engine applies: MAC pins and ingress port are
/// mandatory, the IP/L4 fields wildcard when absent.
#[allow(clippy::too_many_arguments)]
pub fn rule_matches(
    r: &TableZeroRule,
    spec: &ReachSpec,
    src: usize,
    dst: usize,
    ingress: u32,
    proto: u8,
    sp: u16,
    dp: u16,
) -> bool {
    let (s, d) = (&spec.hosts[src], &spec.hosts[dst]);
    let m = &r.mat;
    m.eth_type == Some(0x0800)
        && m.in_port == Some(ingress)
        && m.eth_src == Some(s.mac)
        && m.eth_dst == Some(d.mac)
        && m.ipv4_src.is_none_or(|ip| ip == s.ip)
        && m.ipv4_dst.is_none_or(|ip| ip == d.ip)
        && m.ip_proto.is_none_or(|p| p == proto)
        && m.tcp_src.is_none_or(|p| p == sp)
        && m.tcp_dst.is_none_or(|p| p == dp)
}

/// The independent re-implementation of the engine's routing rule: a
/// *complete* installed chain (source switch matching on the host port,
/// then smallest-dpid unvisited neighbors matching on the inter-switch
/// ingress, all the way to the destination's switch) steers the packet;
/// anything less falls back to the topology's deterministic BFS path.
#[allow(clippy::too_many_arguments)]
pub fn oracle_chain(
    spec: &ReachSpec,
    snaps: &[TableZeroSnapshot],
    src: usize,
    dst: usize,
    proto: u8,
    sp: u16,
    dp: u16,
) -> Option<Vec<u64>> {
    let (s, d) = (&spec.hosts[src], &spec.hosts[dst]);
    let has = |dpid: u64, ingress: u32| {
        snaps
            .iter()
            .find(|x| x.dpid == dpid)
            .expect("dense dpids")
            .rules
            .iter()
            .any(|r| rule_matches(r, spec, src, dst, ingress, proto, sp, dp))
    };
    if !has(s.dpid, s.port) {
        return None;
    }
    let mut chain = vec![s.dpid];
    let mut visited = std::collections::BTreeSet::from([s.dpid]);
    let mut current = s.dpid;
    while current != d.dpid {
        let next = spec
            .adjacency
            .neighbors(current)
            .filter(|&n| !visited.contains(&n))
            .filter(|&n| {
                spec.adjacency
                    .port_towards(n, current)
                    .is_some_and(|ingress| has(n, ingress))
            })
            .min()?;
        visited.insert(next);
        chain.push(next);
        current = next;
    }
    Some(chain)
}

/// The independent per-packet simulation: walk the routed path hop by
/// hop (installed chain when complete, BFS otherwise — see
/// [`oracle_chain`]), arbitrating installed rules exactly like a switch
/// (highest priority, deny beats allow, lowest cookie) and punting table
/// misses to the linear-scan policy oracle. Returns whether the packet
/// is delivered.
#[allow(clippy::too_many_arguments)]
pub fn oracle_delivered(
    spec: &ReachSpec,
    pm: &PolicyManager,
    snaps: &[TableZeroSnapshot],
    src: usize,
    dst: usize,
    proto: u8,
    sp: u16,
    dp: u16,
) -> bool {
    let (s, d) = (&spec.hosts[src], &spec.hosts[dst]);
    let path = match oracle_chain(spec, snaps, src, dst, proto, sp, dp) {
        Some(chain) => chain,
        None => match spec.adjacency.path(s.dpid, d.dpid) {
            Some(p) => p,
            None => return false,
        },
    };
    let policy_allows = pm
        .query_linear(&probe_flow(spec, src, dst, proto, sp, dp))
        .action
        == PolicyAction::Allow;
    for (i, &hop) in path.iter().enumerate() {
        let ingress = if i == 0 {
            s.port
        } else {
            spec.adjacency
                .port_towards(hop, path[i - 1])
                .expect("path hops are adjacent")
        };
        let snap = snaps.iter().find(|x| x.dpid == hop).expect("dense dpids");
        let best = snap
            .rules
            .iter()
            .filter(|r| rule_matches(r, spec, src, dst, ingress, proto, sp, dp))
            .min_by_key(|r| (Reverse(r.priority), u8::from(r.allow), r.cookie));
        if !best.map_or(policy_allows, |r| r.allow) {
            return false;
        }
    }
    true
}
