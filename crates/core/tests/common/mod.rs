//! The differential-trace harness: one seeded script of flows, policy
//! mutations (each a live snapshot swap), DHCP moves, and session toggles,
//! the per-step decision delta, and the unsharded oracle world that
//! `threaded_oracle.rs` replays the script through.

use dfi_controller::Controller;
use dfi_core::events::{topic, DfiEvent};
use dfi_core::policy::{EndpointPattern, PolicyId, PolicyRule, Wild};
use dfi_core::{Dfi, DfiConfig};
use dfi_dataplane::{Network, Switch, Tx};
use dfi_packet::headers::build;
use dfi_packet::MacAddr;
use dfi_simnet::topo::{TopoKind, TopoParams, Topology};
use dfi_simnet::{Dist, Sim, SimRng};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::rc::Rc;
use std::time::Duration;

/// Access- and fabric-link latency used by every world.
pub const LAT: Duration = Duration::from_micros(50);

pub fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Deterministic low-variance calibration so every system under test pays
/// identical per-stage costs (decision equivalence must not hinge on rng
/// stream alignment across differently-clocked worlds).
pub fn test_config() -> DfiConfig {
    DfiConfig {
        proxy_latency: Dist::constant_ms(0.16),
        pcp_service: Dist::constant_ms(0.39),
        binding_query: Dist::constant_ms(2.41),
        policy_query: Dist::constant_ms(2.52),
        bus_latency: Dist::constant_ms(0.3),
        ..DfiConfig::default()
    }
}

/// A single-spine leaf-spine fabric: genuinely multi-switch and
/// multi-path-length, but loop-free so the learning controller's floods
/// terminate.
pub fn fabric(seed: u64) -> Topology {
    Topology::generate(
        &TopoParams {
            kind: TopoKind::LeafSpine {
                spines: 1,
                leaves: 8,
            },
            hosts: 16,
            users_per_host: 1,
        },
        seed,
    )
}

/// One step of the shared trace.
#[derive(Clone, Debug)]
pub enum Step {
    /// Host `src` sends a TCP SYN to host `dst`.
    Flow { src: usize, dst: usize, dport: u16 },
    /// Insert a policy rule (always a snapshot swap).
    Insert {
        allow: bool,
        src_pat: Pat,
        dst_pat: Pat,
        priority: u32,
    },
    /// Revoke the k-th live inserted rule (mod live count).
    Revoke { k: usize },
    /// DHCP + DNS move host to a fresh IP.
    Move { host: usize },
    /// Toggle the host's user session (log-off / log-on alternating).
    Toggle { host: usize },
}

/// An endpoint pattern choice, resolved against the topology at replay.
#[derive(Clone, Copy, Debug)]
pub enum Pat {
    Any,
    User(usize),
    Host(usize),
    Ip(usize),
}

/// Generates the shared trace. Pure function of the seed: every system
/// replays the identical list.
pub fn trace(seed: u64, steps: usize, n_hosts: usize) -> Vec<Step> {
    let mut rng = SimRng::new(seed ^ 0x0AC1E);
    let mut live_inserts = 0usize;
    (0..steps)
        .map(|_| {
            let roll = rng.next_f64();
            if roll < 0.40 {
                let src = rng.index(n_hosts);
                let mut dst = rng.index(n_hosts);
                if dst == src {
                    dst = (dst + 1) % n_hosts;
                }
                Step::Flow {
                    src,
                    dst,
                    dport: *rng.choose(&[80, 445, 22]).unwrap(),
                }
            } else if roll < 0.62 || live_inserts == 0 {
                live_inserts += 1;
                let pat = |r: &mut SimRng| match r.index(4) {
                    0 => Pat::Any,
                    1 => Pat::User(r.index(n_hosts)),
                    2 => Pat::Host(r.index(n_hosts)),
                    _ => Pat::Ip(r.index(n_hosts)),
                };
                Step::Insert {
                    allow: rng.chance(0.7),
                    src_pat: pat(&mut rng),
                    dst_pat: pat(&mut rng),
                    priority: 10 * (1 + rng.range_u64(0, 4) as u32),
                }
            } else if roll < 0.77 {
                live_inserts = live_inserts.saturating_sub(1);
                Step::Revoke {
                    k: rng.index(1 << 16),
                }
            } else if roll < 0.89 {
                Step::Move {
                    host: rng.index(n_hosts),
                }
            } else {
                Step::Toggle {
                    host: rng.index(n_hosts),
                }
            }
        })
        .collect()
}

/// Resolves a [`Pat`] against the topology and the replay's current
/// per-host IPs.
pub fn pattern(topo: &Topology, host_ip: &[Ipv4Addr], p: &Pat) -> EndpointPattern {
    match p {
        Pat::Any => EndpointPattern::any(),
        Pat::User(i) => EndpointPattern::user(&topo.hosts[*i].users[0]),
        Pat::Host(i) => EndpointPattern::host(&topo.hosts[*i].hostname),
        Pat::Ip(i) => EndpointPattern {
            ip: Wild::Is(host_ip[*i]),
            ..EndpointPattern::any()
        },
    }
}

/// Builds the rule an [`Step::Insert`] step inserts.
pub fn insert_rule(
    topo: &Topology,
    host_ip: &[Ipv4Addr],
    allow: bool,
    src_pat: &Pat,
    dst_pat: &Pat,
) -> PolicyRule {
    let src = pattern(topo, host_ip, src_pat);
    let dst = pattern(topo, host_ip, dst_pat);
    if allow {
        PolicyRule::allow(src, dst)
    } else {
        PolicyRule::deny(src, dst)
    }
}

/// The TCP SYN a [`Step::Flow`] step injects.
pub fn syn_frame(
    topo: &Topology,
    host_ip: &[Ipv4Addr],
    src: usize,
    dst: usize,
    dport: u16,
) -> Vec<u8> {
    build::tcp_syn(
        MacAddr::from_index(topo.hosts[src].mac_index),
        MacAddr::from_index(topo.hosts[dst].mac_index),
        host_ip[src],
        host_ip[dst],
        50_000,
        dport,
    )
}

/// The decision-visible state after one step, compared across systems.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct StepDelta {
    pub allowed: u64,
    pub denied: u64,
    pub spoof_denied: u64,
    pub by_policy: BTreeMap<u64, u64>,
    pub deliveries: Vec<u64>,
}

impl StepDelta {
    /// Reads the cumulative decision-visible state from a metrics snapshot
    /// plus per-host delivery counters.
    #[must_use]
    pub fn cumulative(m: &dfi_core::DfiMetrics, deliveries: Vec<u64>) -> StepDelta {
        StepDelta {
            allowed: m.allowed,
            denied: m.denied,
            spoof_denied: m.spoof_denied,
            by_policy: m.decisions_by_policy.clone(),
            deliveries,
        }
    }

    /// The delta from `last` to `now` (counters are cumulative; by-policy
    /// attribution keeps only the ids that grew).
    #[must_use]
    pub fn since(now: &StepDelta, last: &StepDelta) -> StepDelta {
        StepDelta {
            allowed: now.allowed - last.allowed,
            denied: now.denied - last.denied,
            spoof_denied: now.spoof_denied - last.spoof_denied,
            by_policy: now
                .by_policy
                .iter()
                .filter_map(|(id, n)| {
                    let before = last.by_policy.get(id).copied().unwrap_or(0);
                    (*n > before).then_some((*id, n - before))
                })
                .collect(),
            deliveries: now
                .deliveries
                .iter()
                .zip(last.deliveries.iter().chain(std::iter::repeat(&0)))
                .map(|(a, b)| a - b)
                .collect(),
        }
    }
}

/// The unsharded oracle's replay world, on one thread and one clock.
pub struct World {
    pub sim: Sim,
    pub dfi: Dfi,
    pub switches: Vec<Switch>,
    pub tx: Vec<Tx>,
    pub rx: Vec<Rc<RefCell<u64>>>,
    /// Replay-tracked current IP per host (moves re-lease).
    pub host_ip: Vec<Ipv4Addr>,
    /// Replay-tracked session state per host (toggles alternate).
    pub logged_on: Vec<bool>,
    /// Fresh-IP counter for moves.
    pub next_fresh: u32,
    /// Live inserted policy ids, in insertion order.
    pub inserted: Vec<PolicyId>,
    /// Metric readings at the last step boundary.
    pub last: StepDelta,
}

/// The boot event sequence for one host: lease + name + session, exactly
/// what the real sensors would emit.
pub fn boot_events(h: &dfi_simnet::topo::HostSpec) -> [(&'static str, DfiEvent); 3] {
    let mac = MacAddr::from_index(h.mac_index);
    [
        (
            topic::LEASES,
            DfiEvent::Lease {
                mac,
                ip: h.ip,
                hostname: Some(h.hostname.clone()),
                released: false,
            },
        ),
        (
            topic::NAMES,
            DfiEvent::Name {
                hostname: h.hostname.clone(),
                ip: h.ip,
                removed: false,
            },
        ),
        (
            topic::SESSIONS,
            DfiEvent::Session {
                user: h.users[0].clone(),
                host: h.hostname.clone(),
                logged_on: true,
            },
        ),
    ]
}

/// The lease + name churn a [`Step::Move`] emits: release the old IP,
/// lease the new one, retarget the hostname.
pub fn move_events(
    h: &dfi_simnet::topo::HostSpec,
    old: Ipv4Addr,
    new: Ipv4Addr,
) -> [(&'static str, DfiEvent); 4] {
    let mac = MacAddr::from_index(h.mac_index);
    [
        (
            topic::LEASES,
            DfiEvent::Lease {
                mac,
                ip: old,
                hostname: Some(h.hostname.clone()),
                released: true,
            },
        ),
        (
            topic::LEASES,
            DfiEvent::Lease {
                mac,
                ip: new,
                hostname: Some(h.hostname.clone()),
                released: false,
            },
        ),
        (
            topic::NAMES,
            DfiEvent::Name {
                hostname: h.hostname.clone(),
                ip: old,
                removed: true,
            },
        ),
        (
            topic::NAMES,
            DfiEvent::Name {
                hostname: h.hostname.clone(),
                ip: new,
                removed: false,
            },
        ),
    ]
}

/// The fresh RFC-free 11.x.y.z address the `next_fresh`-th move leases.
#[must_use]
pub fn fresh_ip(next_fresh: u32) -> Ipv4Addr {
    Ipv4Addr::new(
        11,
        (next_fresh >> 16) as u8,
        ((next_fresh >> 8) & 0xFF) as u8,
        (next_fresh & 0xFF) as u8,
    )
}

pub fn build_world(seed: u64) -> World {
    let topo = fabric(seed);
    let mut sim = Sim::new(seed);
    let mut net = Network::new();
    let switches = net.build_topology(&topo, LAT);
    let mut tx = Vec::new();
    let mut rx: Vec<Rc<RefCell<u64>>> = Vec::new();
    for h in &topo.hosts {
        let count = Rc::new(RefCell::new(0u64));
        let c = count.clone();
        let sw = &switches[h.dpid as usize - 1];
        tx.push(net.attach_host(
            sw,
            h.port,
            LAT,
            Rc::new(move |_, _f: &[u8]| *c.borrow_mut() += 1),
        ));
        rx.push(count);
    }
    let ctrl = Controller::reactive();
    let dfi = Dfi::new(test_config());
    for sw in &switches {
        let c = ctrl.clone();
        dfi.interpose(&mut sim, sw, move |sim, sink| c.connect(sim, sink));
    }
    // Boot: lease + name + session for every host, through the bus like
    // the real sensors.
    for h in &topo.hosts {
        for (t, ev) in boot_events(h) {
            dfi.bus().publish(&mut sim, t, ev);
        }
    }
    sim.run();
    let host_ip = topo.hosts.iter().map(|h| h.ip).collect();
    let logged_on = vec![true; topo.hosts.len()];
    World {
        sim,
        dfi,
        switches,
        tx,
        rx,
        host_ip,
        logged_on,
        next_fresh: 0,
        inserted: Vec::new(),
        last: StepDelta::default(),
    }
}

impl World {
    /// Applies one step, runs to quiescence, returns the decision delta.
    pub fn apply(&mut self, topo: &Topology, step: &Step) -> StepDelta {
        match step {
            Step::Flow { src, dst, dport } => {
                let frame = syn_frame(topo, &self.host_ip, *src, *dst, *dport);
                self.tx[*src].send(&mut self.sim, frame);
            }
            Step::Insert {
                allow,
                src_pat,
                dst_pat,
                priority,
            } => {
                let rule = insert_rule(topo, &self.host_ip, *allow, src_pat, dst_pat);
                let id = self
                    .dfi
                    .insert_policy(&mut self.sim, rule, *priority, "oracle-trace");
                self.inserted.push(id);
            }
            Step::Revoke { k } => {
                if !self.inserted.is_empty() {
                    let id = self.inserted.remove(k % self.inserted.len());
                    self.dfi.revoke_policy(&mut self.sim, id);
                }
            }
            Step::Move { host } => {
                let h = &topo.hosts[*host];
                let old = self.host_ip[*host];
                let new = fresh_ip(self.next_fresh);
                self.next_fresh += 1;
                self.host_ip[*host] = new;
                for (t, ev) in move_events(h, old, new) {
                    self.dfi.bus().publish(&mut self.sim, t, ev);
                }
            }
            Step::Toggle { host } => {
                let h = &topo.hosts[*host];
                let on = !self.logged_on[*host];
                self.logged_on[*host] = on;
                self.dfi.bus().publish(
                    &mut self.sim,
                    topic::SESSIONS,
                    DfiEvent::Session {
                        user: h.users[0].clone(),
                        host: h.hostname.clone(),
                        logged_on: on,
                    },
                );
            }
        }
        self.sim.run();
        let deliveries: Vec<u64> = self.rx.iter().map(|c| *c.borrow()).collect();
        let now = StepDelta::cumulative(&self.dfi.metrics(), deliveries);
        let delta = StepDelta::since(&now, &self.last);
        self.last = now;
        delta
    }

    /// Per-dpid sorted Table-0 cookie sets.
    pub fn cookie_sets(&self) -> Vec<(u64, Vec<u64>)> {
        self.switches
            .iter()
            .map(|sw| {
                let mut c = sw.table0_cookies();
                c.sort_unstable();
                c.dedup();
                (sw.dpid(), c)
            })
            .collect()
    }
}
