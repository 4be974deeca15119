//! `fleet`: the 1000-switch leaf-spine (~1.25 M bindings, 512-rule ACL,
//! no controller) behind the threaded `ParallelShardedDfi`.
//!
//! Open loop: a diurnal new-flow offer (a quarter of the flows are
//! three-packet UDP bursts that punt more than once) interleaved with
//! DHCP/session churn batches, below the modelled knee. Closed loop: one
//! flow, one churn batch or one quarantine insert/revoke at a time, each
//! run to `drain()`. Correctness: the per-probe decision deltas, the
//! per-policy attribution and epoch agreement equal the unsharded oracle.

use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dfi_core::erm::Binding;
use dfi_core::pdp::priority;
use dfi_core::policy::{EndpointPattern, PolicyRule};
use dfi_core::{
    BindingBatch, BindingOp, Dfi, DfiConfig, DfiMetrics, ObserveFn, ParallelShardedDfi,
    WorkerWorld, WorldBuilder,
};
use dfi_dataplane::{ByteSink, Network, Switch, SwitchConfig, Tx};
use dfi_packet::headers::build;
use dfi_packet::MacAddr;
use dfi_simnet::churn::{diurnal_intensity, generate_churn, ChurnOp, ChurnParams};
use dfi_simnet::topo::{shard_of, TopoKind, TopoParams, Topology};
use dfi_simnet::{Sim, SimRng, SimTime, Summary};

use crate::layers::{policy_insert_us, push_host_bindings, ratio, replay_flow_layers, Capture};
use crate::metrics::Values;
use crate::report::{block_percentile, median, percentile, time_per_call, us_since, Report};
use crate::trace::{self, LayerRow, Sink};
use crate::Plant;

struct Size {
    spines: u32,
    leaves: u32,
    hosts: u32,
    pool: usize,
    rules: usize,
    probes: usize,
    window_flows: usize,
    /// Fresh fleets per run; the work is split over them. A dropped
    /// fleet's memory is not returned (~1 GB each), so more rounds raise
    /// the peak resident set.
    rounds: usize,
    /// Work per 10 s of `--seconds`.
    closed_flows: usize,
    windows: usize,
    /// Quarantine cycles per run (in the last rounds), whatever
    /// `--seconds`: each is ~2 s of cookie flushes on 1000 switches.
    cycles: usize,
}

fn size(toy: bool) -> Size {
    if toy {
        Size {
            spines: 2,
            leaves: 8,
            hosts: 400,
            pool: 64,
            rules: 32,
            probes: 32,
            window_flows: 400,
            rounds: 2,
            closed_flows: 400,
            windows: 6,
            cycles: 1,
        }
    } else {
        Size {
            spines: 40,
            leaves: 960,
            hosts: 250_000,
            pool: 2048,
            rules: 512,
            probes: 512,
            window_flows: 20_000,
            rounds: 3,
            closed_flows: 1500,
            windows: 4,
            cycles: 1,
        }
    }
}

/// Peak offered flows/s per worker. With burst re-punts (1.5 punts per
/// flow) this is ~600 punts/s, under half the modelled per-shard knee
/// (~1.3 k punts/s), so shard imbalance and the diurnal peak drop nothing.
const PEAK_FLOWS_PER_WORKER: f64 = 400.0;
/// Packets in a UDP burst, and their spacing (inside the setup window).
const BURST: usize = 3;
const BURST_GAP: f64 = 50e-6;
/// Closed-loop samples per block of `block_percentile`.
const FLOW_BLOCK: usize = 250;
/// Closed-loop flows per churn batch.
const FLOWS_PER_CYCLE: usize = 8;
/// Churn-batch samples per block of `block_percentile`.
const BINDING_BLOCK: usize = 50;

fn binding_ops(topo: &Topology) -> Vec<BindingOp> {
    let mut ops = Vec::with_capacity(topo.binding_count() + topo.hosts.len());
    for h in &topo.hosts {
        let mac = MacAddr::from_index(h.mac_index);
        push_host_bindings(&mut ops, &h.hostname, &h.users, h.ip, mac, (h.dpid, h.port));
    }
    ops
}

/// The hostname ACL: destination-keyed allows over the pool's hosts, a
/// deny in every 7th slot, four priority bands.
fn acl_rules(topo: &Topology, pool: &[usize], n_rules: usize) -> Vec<(PolicyRule, u32)> {
    (0..n_rules)
        .map(|k| {
            let dst = &topo.hosts[pool[k % pool.len()]].hostname;
            let rule = if k % 7 == 3 {
                PolicyRule::deny(EndpointPattern::any(), EndpointPattern::host(dst))
            } else {
                PolicyRule::allow(EndpointPattern::any(), EndpointPattern::host(dst))
            };
            (
                rule,
                10 * (1 + (k.wrapping_mul(2_654_435_761) >> 16) as u32 % 4),
            )
        })
        .collect()
}

fn churn_binding_ops(topo: &Topology, op: ChurnOp) -> Vec<BindingOp> {
    match op {
        ChurnOp::LeaseMove {
            host,
            mac_index,
            old_ip,
            new_ip,
        } => {
            let hostname = topo.hosts[host as usize].hostname.clone();
            let mac = MacAddr::from_index(mac_index);
            vec![
                BindingOp::Unbind(Binding::IpMac { ip: old_ip, mac }),
                BindingOp::Bind(Binding::IpMac { ip: new_ip, mac }),
                BindingOp::Unbind(Binding::HostIp {
                    host: hostname.clone(),
                    ip: old_ip,
                }),
                BindingOp::Bind(Binding::HostIp {
                    host: hostname,
                    ip: new_ip,
                }),
            ]
        }
        ChurnOp::LogOn { user, host } => vec![BindingOp::Bind(Binding::UserHost {
            user,
            host: topo.hosts[host as usize].hostname.clone(),
        })],
        ChurnOp::LogOff { user, host } => vec![BindingOp::Unbind(Binding::UserHost {
            user,
            host: topo.hosts[host as usize].hostname.clone(),
        })],
    }
}

/// A flow between two pool hosts: a TCP SYN, or (`udp`) a UDP datagram.
/// Each phase and window uses its own destination port, so no flow repeats
/// an earlier one's exact match (and skips the punt).
fn flow_frame(
    topo: &Topology,
    pool: &[usize],
    src: usize,
    dst: usize,
    sport: u16,
    dport: u16,
    udp: bool,
) -> Vec<u8> {
    let s = &topo.hosts[pool[src]];
    let d = &topo.hosts[pool[dst]];
    let (smac, dmac) = (
        MacAddr::from_index(s.mac_index),
        MacAddr::from_index(d.mac_index),
    );
    if udp {
        build::udp(smac, dmac, s.ip, d.ip, sport, dport, vec![0; 32])
    } else {
        build::tcp_syn(smac, dmac, s.ip, d.ip, sport, dport)
    }
}

fn pick_pair(rng: &mut SimRng, p: usize) -> (usize, usize) {
    let src = rng.index(p);
    let mut dst = rng.index(p);
    if dst == src {
        dst = (dst + 1) % p;
    }
    (src, dst)
}

/// The fabric every configuration shares.
struct Fabric {
    topo: Arc<Topology>,
    pool: Arc<Vec<usize>>,
}

/// The fabric is one fixed site (scalegate's seed); `--seed` drives the
/// pool, the ACL and all traffic through it.
const FABRIC_SEED: u64 = 2019;

fn generate(sz: &Size, seed: u64, workers: usize) -> Fabric {
    let topo = Topology::generate(
        &TopoParams {
            kind: TopoKind::LeafSpine {
                spines: sz.spines,
                leaves: sz.leaves,
            },
            hosts: sz.hosts,
            users_per_host: 2,
        },
        FABRIC_SEED,
    );
    // Pool hosts are drawn in turn for each worker's shard, so every
    // worker homes the same number of them.
    let mut rng = SimRng::new(seed ^ 0xB00);
    let mut pool = Vec::with_capacity(sz.pool);
    while pool.len() < sz.pool.min(topo.hosts.len()) {
        let i = rng.index(topo.hosts.len());
        if shard_of(topo.hosts[i].dpid, workers) == pool.len() % workers {
            pool.push(i);
        }
    }
    Fabric {
        topo: Arc::new(topo),
        pool: Arc::new(pool),
    }
}

/// Worker `w`'s world: its shard's switches behind a null upstream, the
/// pool hosts homed on them. Traced runs wrap the switch control ingress
/// and the proxy's switch-facing sink.
fn builder(topo: Arc<Topology>, pool: Arc<Vec<usize>>, w: usize, n: usize) -> WorldBuilder {
    Box::new(move |sim, dfi, _outbox| {
        let mut net = Network::new();
        let null: ByteSink = Rc::new(|_, _| {});
        let mut local: HashMap<u64, Switch> = HashMap::new();
        for spec in &topo.switches {
            if shard_of(spec.dpid, n) == w {
                let sw = net.add_switch(SwitchConfig::new(spec.dpid));
                let conn = dfi.attach_switch_channel(
                    trace::wrap(Sink::Dataplane, sw.control_ingress()),
                    spec.dpid,
                );
                sw.connect_control(sim, trace::wrap(Sink::Proxy, dfi.from_switch_sink(conn)));
                dfi.set_controller_sink(conn, null.clone());
                local.insert(spec.dpid, sw);
            }
        }
        let mut taps = Vec::new();
        for &i in pool.iter() {
            let h = &topo.hosts[i];
            if let Some(sw) = local.get(&h.dpid) {
                taps.push(net.attach_silent_host(sw, h.port, Duration::from_micros(50)));
            }
        }
        let observe: ObserveFn = Box::new(|_sim| (Vec::new(), Vec::new()));
        WorkerWorld {
            taps,
            boundaries: Vec::new(),
            observe,
        }
    })
}

struct Fleet {
    fleet: ParallelShardedDfi,
    /// Per pool index: `(worker, tap index inside that worker)`.
    tap_of: Vec<(usize, u32)>,
}

impl Fleet {
    fn punt(&mut self, src: usize, frame: Vec<u8>) {
        let (w, tap) = self.tap_of[src];
        self.fleet.punt(w, tap, frame);
    }
}

fn build_fleet(fab: &Fabric, sz: &Size, seed: u64, workers: usize) -> Fleet {
    let builders: Vec<WorldBuilder> = (0..workers)
        .map(|w| builder(Arc::clone(&fab.topo), Arc::clone(&fab.pool), w, workers))
        .collect();
    let mut fleet = ParallelShardedDfi::new(&DfiConfig::default(), seed, builders, HashMap::new());
    let mut next_tap = vec![0u32; workers];
    let tap_of = fab
        .pool
        .iter()
        .map(|&i| {
            let w = shard_of(fab.topo.hosts[i].dpid, workers);
            let t = next_tap[w];
            next_tap[w] += 1;
            (w, t)
        })
        .collect();
    let mut ops = binding_ops(&fab.topo);
    while !ops.is_empty() {
        let rest = ops.split_off(ops.len().min(65_536));
        fleet.apply_binding_ops(ops);
        ops = rest;
    }
    for (rule, prio) in acl_rules(&fab.topo, &fab.pool, sz.rules) {
        fleet.insert_policy(rule, prio, "perfbench");
    }
    fleet.drain();
    Fleet { fleet, tap_of }
}

/// The unsharded oracle over the whole fabric.
struct Oracle {
    sim: Sim,
    dfi: Dfi,
    net: Network,
    tx: Vec<Tx>,
}

fn build_oracle(fab: &Fabric, sz: &Size, seed: u64) -> Oracle {
    let topo = &fab.topo;
    let mut sim = Sim::new(seed);
    let mut net = Network::new();
    let switches = net.build_topology(topo, Duration::from_micros(50));
    let null: ByteSink = Rc::new(|_, _| {});
    let dfi = Dfi::new(DfiConfig::default());
    for sw in &switches {
        let n = null.clone();
        dfi.interpose(&mut sim, sw, move |_, _| n);
    }
    let tx = fab
        .pool
        .iter()
        .map(|&i| {
            let h = &topo.hosts[i];
            net.attach_silent_host(
                &switches[h.dpid as usize - 1],
                h.port,
                Duration::from_micros(50),
            )
        })
        .collect();
    let _fresh = dfi.apply_binding_batch(&BindingBatch {
        epoch: 0,
        ops: binding_ops(topo),
    });
    for (rule, prio) in acl_rules(topo, &fab.pool, sz.rules) {
        dfi.insert_policy(&mut sim, rule, prio, "perfbench");
    }
    sim.run();
    Oracle { sim, dfi, net, tx }
}

fn decided(m: &DfiMetrics) -> (u64, u64, u64) {
    (m.allowed, m.denied, m.spoof_denied)
}

fn probe(fab: &Fabric, i: usize) -> (usize, Vec<u8>) {
    let p = fab.pool.len();
    let src = i % p;
    let mut dst = (i * 7 + 3) % p;
    if dst == src {
        dst = (dst + 1) % p;
    }
    let dport = if i.is_multiple_of(2) { 445 } else { 80 };
    (
        src,
        flow_frame(
            &fab.topo,
            &fab.pool,
            src,
            dst,
            40_000_u16.wrapping_add(i as u16),
            dport,
            false,
        ),
    )
}

/// The oracle's answer to the probe replay: per-probe decision deltas and
/// the final per-policy attribution.
struct Expected {
    deltas: Vec<(u64, u64, u64)>,
    by_policy: std::collections::BTreeMap<u64, u64>,
}

fn oracle_trace(fab: &Fabric, sz: &Size, oracle: &mut Oracle) -> Expected {
    let mut last = decided(&oracle.dfi.metrics());
    let mut deltas = Vec::with_capacity(sz.probes);
    for i in 0..sz.probes {
        let (src, frame) = probe(fab, i);
        oracle.tx[src].send(&mut oracle.sim, frame);
        oracle.sim.run();
        let now = decided(&oracle.dfi.metrics());
        deltas.push((now.0 - last.0, now.1 - last.1, now.2 - last.2));
        last = now;
    }
    Expected {
        deltas,
        by_policy: oracle.dfi.metrics().decisions_by_policy,
    }
}

/// The equivalence check: per-probe decision deltas, per-policy
/// attribution and epoch agreement, fleet against the oracle's trace.
fn check_equivalence(
    fab: &Fabric,
    want: &Expected,
    fl: &mut Fleet,
    plant: Plant,
) -> Result<(), String> {
    if plant == Plant::WrongDecision {
        // A deny the oracle never saw: the fleet now decides the probes to
        // one destination differently.
        let dst = &fab.topo.hosts[fab.pool[3 % fab.pool.len()]].hostname;
        fl.fleet.insert_policy(
            PolicyRule::deny(EndpointPattern::any(), EndpointPattern::host(dst)),
            priority::QUARANTINE,
            "planted",
        );
    }
    let mut last = decided(&fl.fleet.drain().metrics);
    let mut by_policy = Default::default();
    for (i, want_delta) in want.deltas.iter().enumerate() {
        let (src, frame) = probe(fab, i);
        fl.punt(src, frame);
        let r = fl.fleet.drain();
        let now = decided(&r.metrics);
        let got = (now.0 - last.0, now.1 - last.1, now.2 - last.2);
        if got != *want_delta {
            return Err(format!(
                "fleet probe {i}: sharded (allow, deny, spoof) delta {got:?} != oracle {want_delta:?}"
            ));
        }
        last = now;
        by_policy = r.metrics.decisions_by_policy;
    }
    if by_policy != want.by_policy {
        return Err("fleet: per-policy attribution differs from the oracle".into());
    }
    if !fl.fleet.epochs_agree() {
        return Err("fleet: workers serve different snapshot epochs".into());
    }
    Ok(())
}

/// One open-loop window's offer: `(t secs, pool src, frame)` per packet,
/// the flow count, and the horizon.
fn offer(
    fab: &Fabric,
    flows: usize,
    peak: f64,
    seed: u64,
    dport: u16,
) -> (Vec<(f64, usize, Vec<u8>)>, Duration) {
    let mut rng = SimRng::new(seed);
    let day = Duration::from_secs_f64(flows as f64 / peak);
    let mut t = 0.0f64;
    let mut out = Vec::with_capacity(flows * 2);
    let mut made = 0;
    while made < flows {
        t += rng.exponential(1.0 / (peak * 1.8));
        let at = SimTime::from_nanos((t * 1e9) as u64);
        if !rng.chance(diurnal_intensity(at, day) / 1.8) {
            continue;
        }
        made += 1;
        let (src, dst) = pick_pair(&mut rng, fab.pool.len());
        let sport = 1024 + (made % 60_000) as u16;
        let udp = rng.chance(0.25);
        let frame = flow_frame(&fab.topo, &fab.pool, src, dst, sport, dport, udp);
        let copies = if udp { BURST } else { 1 };
        for k in 0..copies {
            out.push((t + k as f64 * BURST_GAP, src, frame.clone()));
        }
    }
    (out, Duration::from_secs_f64(t + 1e-3))
}

struct WindowResult {
    packets: u64,
    decided: u64,
    dropped: u64,
    abandoned: u64,
    wall_s: f64,
    ttfb: Vec<f64>,
    events: u64,
    /// Layer call counts inside the window: packet-ins, memo misses,
    /// batched installs.
    packet_ins: u64,
    misses: u64,
    installs: u64,
}

/// One open-loop window: the offer punted at absolute worker times,
/// churn batches applied in sim-time order, timed to the drain fixpoint.
fn run_window(fl: &mut Fleet, fab: &Fabric, flows: usize, seed: u64, dport: u16) -> WindowResult {
    let workers = fl.fleet.shard_count();
    let before = fl.fleet.drain();
    let base: Vec<usize> = before.per_shard.iter().map(|m| m.overall.count()).collect();
    let t0 = before.clocks.iter().copied().max().unwrap_or_default() + Duration::from_millis(1);
    let peak = PEAK_FLOWS_PER_WORKER * workers as f64;
    let (packets, horizon) = offer(fab, flows, peak, seed, dport);
    let churn = generate_churn(
        &fab.topo,
        &ChurnParams {
            day: horizon,
            horizon,
            lease_moves_per_host_day: 100.0 / f64::from(fab.topo.hosts.len() as u32),
            session_toggles_per_user_day: 50.0 / f64::from(fab.topo.hosts.len() as u32),
        },
        seed ^ 0xC4,
    );
    let n_packets = packets.len() as u64;
    let wall = Instant::now();
    for (t, src, frame) in packets {
        let (w, tap) = fl.tap_of[src];
        fl.fleet
            .punt_at(w, tap, frame, t0 + Duration::from_secs_f64(t));
    }
    for ev in churn {
        fl.fleet
            .advance_all(t0 + Duration::from_nanos(ev.at.as_nanos()));
        fl.fleet
            .apply_binding_ops(churn_binding_ops(&fab.topo, ev.op));
    }
    let after = fl.fleet.drain();
    let wall_s = wall.elapsed().as_secs_f64();
    let (a0, a1) = (decided(&before.metrics), decided(&after.metrics));
    let mut ttfb = Vec::new();
    for (m, skip) in after.per_shard.iter().zip(&base) {
        ttfb.extend_from_slice(&m.overall.samples()[*skip..]);
    }
    WindowResult {
        packets: n_packets,
        decided: (a1.0 - a0.0) + (a1.1 - a0.1) + (a1.2 - a0.2),
        dropped: after.metrics.dropped - before.metrics.dropped,
        abandoned: after.metrics.install_failures - before.metrics.install_failures,
        wall_s,
        ttfb,
        events: after.events_executed - before.events_executed,
        packet_ins: after.metrics.packet_ins - before.metrics.packet_ins,
        misses: after.metrics.decision_cache_misses - before.metrics.decision_cache_misses,
        installs: after.metrics.flow_mods_batched - before.metrics.flow_mods_batched,
    }
}

/// Closed-loop samples (µs) and counts.
#[derive(Default)]
struct Closed {
    flow_us: Vec<f64>,
    binding_us: Vec<f64>,
    policy_us: Vec<f64>,
    flows: u64,
    undecided: u64,
    updates: u64,
    epoch_disagreements: u64,
}

/// Closed-loop flows `ks`, one churn batch after every [`FLOWS_PER_CYCLE`]:
/// each flow (all of a burst's packets) and each batch timed to `drain()`.
fn run_closed_flows(
    fl: &mut Fleet,
    fab: &Fabric,
    rng: &mut SimRng,
    churn: &mut std::vec::IntoIter<Vec<BindingOp>>,
    ks: std::ops::Range<usize>,
    out: &mut Closed,
) {
    let mut last = decided(&fl.fleet.drain().metrics);
    for k in ks {
        let (src, dst) = pick_pair(rng, fab.pool.len());
        let sport = 1024 + (k % 60_000) as u16;
        let udp = rng.chance(0.25);
        let frame = flow_frame(&fab.topo, &fab.pool, src, dst, sport, 1999, udp);
        let copies = if udp { BURST } else { 1 };
        let t0 = Instant::now();
        for _ in 1..copies {
            fl.punt(src, frame.clone());
        }
        fl.punt(src, frame);
        let r = fl.fleet.drain();
        out.flow_us.push(us_since(t0));
        let now = decided(&r.metrics);
        let got = (now.0 - last.0) + (now.1 - last.1) + (now.2 - last.2);
        out.flows += 1;
        if got != copies as u64 {
            out.undecided += 1;
        }
        last = now;
        if k % FLOWS_PER_CYCLE == FLOWS_PER_CYCLE - 1 {
            if let Some(ops) = churn.next() {
                let t0 = Instant::now();
                fl.fleet.apply_binding_ops(ops);
                last = decided(&fl.fleet.drain().metrics);
                out.binding_us.push(us_since(t0));
            }
        }
    }
}

/// One quarantine cycle: both deny rules for a pool host inserted, run to
/// `drain()`, then both revoked and run to `drain()`; timed as one update.
fn run_quarantine_cycle(fl: &mut Fleet, fab: &Fabric, rng: &mut SimRng, out: &mut Closed) {
    let host = &fab.topo.hosts[fab.pool[rng.index(fab.pool.len())]].hostname;
    let t0 = Instant::now();
    let ids = [
        fl.fleet.insert_policy(
            PolicyRule::deny(EndpointPattern::host(host), EndpointPattern::any()),
            priority::QUARANTINE,
            "quarantine",
        ),
        fl.fleet.insert_policy(
            PolicyRule::deny(EndpointPattern::any(), EndpointPattern::host(host)),
            priority::QUARANTINE,
            "quarantine",
        ),
    ];
    fl.fleet.drain();
    if !fl.fleet.epochs_agree() {
        out.epoch_disagreements += 1;
    }
    for id in ids {
        let _revoked = fl.fleet.revoke_policy(id);
    }
    fl.fleet.drain();
    out.policy_us.push(us_since(t0));
    out.updates += 1;
    if !fl.fleet.epochs_agree() {
        out.epoch_disagreements += 1;
    }
}

/// The fixed work of one run, scaled by `--seconds` (same seconds, same
/// work, whatever the machine): closed-loop flows, open-loop windows (at
/// least one per round) and quarantine cycles.
fn plan(sz: &Size, seconds: f64) -> (usize, usize, usize) {
    let k = (seconds / 10.0).max(0.1);
    let flows = ((sz.closed_flows as f64 * k) as usize).max(16);
    let windows = ((sz.windows as f64 * k).round() as usize).max(sz.rounds);
    (flows, windows, sz.cycles)
}

/// Everything the rounds of one run measured.
#[derive(Default)]
struct Acc {
    setup_s: Vec<f64>,
    closed: Closed,
    traced: Traced,
    rates: Vec<f64>,
    window_wall_s: f64,
    ttfb: Summary,
    packets: u64,
    decided: u64,
    dropped: u64,
    abandoned: u64,
}

/// One round on a freshly built fleet: set-up (timed), the equivalence
/// check, then closed-loop flows, quarantine cycles and open-loop windows.
/// A run splits its work over several rounds so each metric is sampled
/// at several points of the run, and the proxy's per-sample metric history
/// (cloned on every `drain()`) stays as short as one round's.
#[allow(clippy::too_many_arguments)]
fn round(
    sz: &Size,
    seed: u64,
    workers: usize,
    want: &Expected,
    plant: Plant,
    (n_flows, n_windows, n_cycles): (usize, usize, usize),
    k: usize,
    rng: &mut SimRng,
    acc: &mut Acc,
) -> Result<(Fabric, Fleet), String> {
    let t0 = Instant::now();
    let fab = generate(sz, seed, workers);
    let mut fl = build_fleet(&fab, sz, seed, workers);
    acc.setup_s.push(t0.elapsed().as_secs_f64());

    // Correctness before numbers.
    check_equivalence(&fab, want, &mut fl, plant)?;

    // Each closed-loop churn batch is one DHCP lease move and one session
    // toggle, so every batch is the same size of work.
    let (leases, toggles): (Vec<ChurnOp>, Vec<ChurnOp>) = generate_churn(
        &fab.topo,
        &ChurnParams {
            day: Duration::from_secs(3600),
            horizon: Duration::from_secs(3600),
            lease_moves_per_host_day: 0.05,
            session_toggles_per_user_day: 0.05,
        },
        seed ^ 0xC4C4 ^ ((k as u64) << 32),
    )
    .into_iter()
    .map(|e| e.op)
    .partition(|op| matches!(op, ChurnOp::LeaseMove { .. }));
    let mut churn = leases
        .into_iter()
        .zip(toggles)
        .map(|(lease, toggle)| {
            let mut ops = churn_binding_ops(&fab.topo, lease);
            ops.extend(churn_binding_ops(&fab.topo, toggle));
            ops
        })
        .collect::<Vec<_>>()
        .into_iter();

    // Closed-loop flows on the fresh fleet, then the quarantine cycles,
    // then the open-loop windows: every `drain()` copies the history the
    // round has built so far, and a quarantine's cookie flushes grow with
    // the entries the windows install, so this order keeps each metric
    // about its own operation.
    run_closed_flows(&mut fl, &fab, rng, &mut churn, 0..n_flows, &mut acc.closed);

    let fanout0 = fl.fleet.fanout_metrics();
    let m0 = fl.fleet.drain().metrics;
    for _ in 0..n_cycles {
        run_quarantine_cycle(&mut fl, &fab, rng, &mut acc.closed);
    }
    let m1 = fl.fleet.drain().metrics;
    acc.traced.snapshots += fl.fleet.fanout_metrics().snapshot_fanouts - fanout0.snapshot_fanouts;
    acc.traced.flowmods += m1.flow_mods_batched - m0.flow_mods_batched;
    acc.traced.invalidations += m1.decision_cache_invalidations - m0.decision_cache_invalidations;

    for window in 0..n_windows as u64 {
        // Traced runs alternate traced and untraced windows, so the tracing
        // overhead is measured on one world; the phase flips every round, so
        // the rate's drift over a round's windows falls on both sides.
        let on = trace::tracing() && (window + k as u64) % 2 == 1;
        trace::set_sinks(on);
        let a0 = trace::allocs();
        let wseed = seed ^ (window << 20) ^ ((k as u64) << 40) ^ 0x5CA1E;
        let w = run_window(&mut fl, &fab, sz.window_flows, wseed, 2000 + window as u16);
        trace::set_sinks(false);
        acc.packets += w.packets;
        acc.decided += w.decided;
        acc.dropped += w.dropped;
        acc.abandoned += w.abandoned;
        acc.rates.push(w.decided as f64 / w.wall_s);
        acc.window_wall_s += w.wall_s;
        for s in &w.ttfb {
            acc.ttfb.push(*s);
        }
        let t = &mut acc.traced;
        if on {
            t.walls.push(w.wall_s);
            t.packets += w.packets;
            t.packet_ins += w.packet_ins;
            t.misses += w.misses;
            t.installs += w.installs;
            t.events += w.events;
            t.allocs += trace::allocs() - a0;
        } else {
            t.untraced_walls.push(w.wall_s);
            t.untraced_events += w.events;
        }
    }
    if !fl.fleet.epochs_agree() || acc.closed.epoch_disagreements > 0 {
        return Err("fleet: workers disagree on the served snapshot epoch".into());
    }
    Ok((fab, fl))
}

pub fn run(
    seed: u64,
    seconds: f64,
    toy: bool,
    plant: Plant,
    r: &mut Report,
    v: &mut Values,
) -> Result<(), String> {
    let sz = size(toy);
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let workers = nproc.min(2);

    // The oracle's answers first; it is dropped before the fleet is built
    // (traced runs keep it for the layer replays).
    let fab = generate(&sz, seed, workers);
    let bindings = fab.topo.binding_count() + fab.topo.hosts.len();
    let mut oracle = build_oracle(&fab, &sz, seed);
    let want = oracle_trace(&fab, &sz, &mut oracle);
    let table0_rules: usize = oracle.net.switches().iter().map(|s| s.table_len(0)).sum();
    let mut oracle = trace::tracing().then_some(oracle);
    drop(fab);

    let (n_flows, n_windows, n_cycles) = plan(&sz, seconds);
    let mut acc = Acc::default();
    let mut rng = SimRng::new(seed ^ 0xC1_05ED);
    let mut last = None;
    for k in 0..sz.rounds {
        drop(last.take());
        let share = |n: usize| (n * (k + 1)) / sz.rounds - (n * k) / sz.rounds;
        let work = (share(n_flows), share(n_windows), share(n_cycles));
        last = Some(round(
            &sz, seed, workers, &want, plant, work, k, &mut rng, &mut acc,
        )?);
    }
    let (fab, mut fl) = last.expect("at least one round");
    let fin = fl.fleet.drain();
    let Acc {
        mut setup_s,
        closed,
        mut traced,
        rates,
        window_wall_s,
        ttfb,
        packets,
        decided: decided_n,
        dropped,
        abandoned,
    } = acc;

    r.attempted = packets + closed.flows + closed.updates + closed.binding_us.len() as u64;
    r.failed = (packets - decided_n.min(packets)) + dropped + abandoned + closed.undecided;
    r.prov("failed_undecided_packets", packets - decided_n.min(packets));
    r.prov("failed_model_drops", dropped);
    r.prov("failed_abandoned_installs", abandoned);
    r.prov("failed_closed_loop_undecided", closed.undecided);
    r.prov("switches", fab.topo.switches.len());
    r.prov("hosts", fab.topo.hosts.len());
    r.prov("bindings", bindings);
    r.prov("acl_rules", sz.rules);
    r.prov("workers", workers);
    r.prov("window_flows", sz.window_flows);
    r.prov("probes", sz.probes);
    let flow_setup_rate = decided_n as f64 / window_wall_s;
    r.prov("flow_setup_rate", format!("{flow_setup_rate:.1}"));
    r.prov(
        "policy_update_us_p50",
        format!("{:.1}", percentile(&mut closed.policy_us.clone(), 0.5)),
    );
    r.prov(
        "policy_update_us_p90",
        format!("{:.1}", percentile(&mut closed.policy_us.clone(), 0.9)),
    );
    r.prov(
        "ttfb_model_ms_p99",
        format!("{:.4}", ttfb.percentile(0.99) * 1e3),
    );
    r.sample_count("setup", setup_s.len());
    r.sample_count("open_loop_windows", rates.len());
    r.sample_count("flow_setup", closed.flow_us.len());
    r.sample_count("binding_update", closed.binding_us.len());
    r.sample_count("policy_update", closed.policy_us.len());
    r.sample_count("ttfb_model", ttfb.count());

    v.insert("setup_s", median(&mut setup_s));
    // Flows per wall second over all windows: window rates fall as a
    // fleet's tables and histories grow, so the aggregate is steadier than
    // any one window.
    v.insert("bulk_rate", flow_setup_rate);
    v.insert(
        "op_us_p50",
        block_percentile(&closed.flow_us, 0.50, FLOW_BLOCK),
    );
    v.insert(
        "op_us_p90",
        block_percentile(&closed.flow_us, 0.90, FLOW_BLOCK),
    );
    v.insert(
        "update_us_p50",
        block_percentile(&closed.binding_us, 0.50, BINDING_BLOCK),
    );
    v.insert(
        "update_us_p90",
        block_percentile(&closed.binding_us, 0.90, BINDING_BLOCK),
    );

    if let Some(oracle) = oracle.as_mut() {
        traced.ttfb_p99_ms = ttfb.percentile(0.99) * 1e3;
        traced.table0_rules = table0_rules;
        traced.bindings = bindings;
        traced.workers = workers;
        trace_layers(
            r,
            v,
            &fab,
            oracle,
            &mut fl,
            &fin.metrics,
            &closed,
            &traced,
            seed,
        );
    }
    fl.fleet.shutdown();
    Ok(())
}

/// What the traced windows saw.
#[derive(Default)]
struct Traced {
    walls: Vec<f64>,
    untraced_walls: Vec<f64>,
    packets: u64,
    packet_ins: u64,
    misses: u64,
    installs: u64,
    events: u64,
    untraced_events: u64,
    allocs: u64,
    /// Over the quarantine cycles: snapshots fanned out, install/flush
    /// FlowMods sent, memo entries invalidated.
    snapshots: u64,
    flowmods: u64,
    invalidations: u64,
    ttfb_p99_ms: f64,
    table0_rules: usize,
    bindings: usize,
    workers: usize,
}

#[allow(clippy::too_many_arguments)]
fn trace_layers(
    r: &mut Report,
    v: &mut Values,
    fab: &Fabric,
    oracle: &mut Oracle,
    fl: &mut Fleet,
    m: &DfiMetrics,
    closed: &Closed,
    t: &Traced,
    seed: u64,
) {
    // Replays on a captured offer against the loaded oracle.
    let (pkts, _) = offer(fab, 512, 1000.0, seed ^ 0xCA97, 1998);
    let caps: Vec<Capture> = pkts
        .into_iter()
        .map(|(_, src, frame)| {
            let h = &fab.topo.hosts[fab.pool[src]];
            Capture {
                dpid: h.dpid,
                in_port: h.port,
                frame,
            }
        })
        .collect();
    let c = replay_flow_layers(&oracle.dfi, &caps);
    let insert_us = oracle.dfi.with_pm(|pm| policy_insert_us(pm));
    // The epoch barrier with nothing pending (it still merges and copies
    // the run's whole metric history), and a bare enqueue.
    let drain_us = time_per_call(64, 0.1, |_| {
        fl.fleet.drain();
    }) / 1e3;
    let mut rng = SimRng::new(seed ^ 0x9E7);
    let punt_us = time_per_call(64, 0.05, |i| {
        let (src, dst) = pick_pair(&mut rng, fab.pool.len());
        let frame = flow_frame(
            &fab.topo,
            &fab.pool,
            src,
            dst,
            1024 + (i % 60_000) as u16,
            1997,
            false,
        );
        fl.punt(src, frame);
    }) / 1e3;
    fl.fleet.drain();

    let (dp_calls, dp_ns) = trace::sink_totals(Sink::Dataplane);
    let (px_calls, px_ns) = trace::sink_totals(Sink::Proxy);
    let traced_wall = median(&mut t.walls.clone());
    let untraced_wall = median(&mut t.untraced_walls.clone());
    let overhead = traced_wall / untraced_wall - 1.0;
    let budget_ns = t.walls.iter().sum::<f64>() * 1e9 * t.workers as f64;
    let row = |layer, calls: u64, per_call_ns: f64| LayerRow {
        layer,
        calls,
        self_ns: calls as f64 * per_call_ns,
        how: "replay",
    };
    let rows = [
        LayerRow {
            layer: "dataplane (switch control sink)",
            calls: dp_calls,
            self_ns: dp_ns as f64,
            how: "direct",
        },
        LayerRow {
            layer: "proxy intake (switch-facing sink)",
            calls: px_calls,
            self_ns: px_ns as f64,
            how: "direct",
        },
        row("packet.parse", t.packet_ins, c.parse_ns),
        row("memo.probe", t.packet_ins, c.memo_probe_ns),
        row("erm.resolve", t.misses, c.resolve_ns),
        row("policy.classify", t.misses, c.classify_ns),
        row("openflow.encode", t.installs, c.encode_ns),
    ];
    let residual = trace::layer_table(r, &rows, budget_ns, "traced open-loop windows x workers");
    r.table.push(format!(
        "nested in proxy intake (not summed): openflow.decode {:.1} ns/call, openflow.splice {:.1} ns/call",
        c.decode_ns, c.splice_ns
    ));
    r.table.push(format!(
        "tracing overhead: traced window {traced_wall:.4} s vs untraced {untraced_wall:.4} s (median, {:+.2}%)",
        100.0 * overhead
    ));
    let flows = t.packets.max(1) as f64;
    let updates = closed.updates.max(1) as f64;
    v.insert("openflow.decode_ns", c.decode_ns);
    v.insert("openflow.encode_ns", c.encode_ns);
    v.insert("packet.parse_ns", c.parse_ns);
    v.insert("openflow.ctrl_bytes_per_flow", c.ctrl_bytes_per_flow);
    v.insert("openflow.splice_ns", c.splice_ns);
    v.insert(
        "openflow.splice_fast_ratio",
        ratio(m.frames_spliced, m.frames_spliced + m.frames_fallback),
    );
    v.insert("erm.resolve_ns", c.resolve_ns);
    v.insert("erm.bindings", t.bindings as f64);
    v.insert("policy.classify_ns", c.classify_ns);
    v.insert("policy.compile_us", c.compile_us);
    v.insert("policy.insert_us", insert_us);
    v.insert("policy.snapshots_per_update", t.snapshots as f64 / updates);
    v.insert("memo.probe_ns", c.memo_probe_ns);
    v.insert(
        "memo.hit_ratio",
        ratio(
            m.decision_cache_hits,
            m.decision_cache_hits + m.decision_cache_misses,
        ),
    );
    v.insert(
        "memo.invalidations_per_update",
        t.invalidations as f64 / updates,
    );
    v.insert("pcp.flowmods_per_flow", ratio(t.installs, t.packet_ins));
    v.insert("pcp.install_retries", m.install_retries as f64);
    v.insert(
        "pool.reuse_ratio",
        ratio(m.pool_reused, m.pool_reused + m.pool_minted),
    );
    v.insert("alloc.per_flow", t.allocs as f64 / flows);
    v.insert("flush.flowmods_per_update", t.flowmods as f64 / updates);
    v.insert("par.drain_us", drain_us);
    v.insert("par.punt_us", punt_us);
    v.insert(
        "shard.binding_batches",
        fl.fleet.fanout_metrics().binding_batches as f64,
    );
    v.insert(
        "shard.binding_update_us",
        percentile(&mut closed.binding_us.clone(), 0.5),
    );
    v.insert("dataplane.control_us_per_flow", c.dataplane_ns / 1e3);
    v.insert("dataplane.table0_rules", t.table0_rules as f64);
    v.insert("sim.events_per_flow", t.events as f64 / flows);
    let untraced_s: f64 = t.untraced_walls.iter().sum();
    v.insert(
        "sim.ns_per_event",
        untraced_s * 1e9 * t.workers as f64 / t.untraced_events.max(1) as f64,
    );
    v.insert("sim.residual_share", residual);
    v.insert("model.ttfb_ms_p99", t.ttfb_p99_ms);
    v.insert("trace.overhead_share", overhead);
}
