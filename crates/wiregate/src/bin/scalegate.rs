//! Fleet-scale gate: the sharded proxy against the unsharded oracle on a
//! generated 1000-switch leaf-spine fabric carrying ~1M ERM bindings.
//!
//! Phases, in order:
//!
//! 1. **Build** — `dfi_simnet::topo` generates the fabric (40 spines ×
//!    960 leaves, 250 000 hosts × 2 users ⇒ exactly 1 000 000 topology
//!    bindings, plus one MAC-location binding per attached host). The
//!    unsharded oracle materializes every switch with
//!    `Network::build_topology`; the sharded fleet is a
//!    [`ParallelShardedDfi`] per shard count {1, 2, 4, 8}, each worker
//!    thread building its own shard's switches. Every switch is
//!    interposed behind a null upstream sink (no controller; the DFI's
//!    Table-0 pipeline runs regardless). Bindings load through the
//!    epoch-stamped batch path (`apply_binding_ops` /
//!    `apply_binding_batch`), and a ~512-rule hostname ACL is inserted
//!    through the front-end.
//! 2. **Equivalence (before any timing)** — the same seeded probe flows
//!    are replayed one-at-a-time through the oracle and through every
//!    fleet; the per-probe (allowed, denied, spoof-denied) deltas, the
//!    end-of-phase per-policy attribution and the served epochs must
//!    agree. A mismatch hard-fails the gate: it can never certify a
//!    wrong-answer speedup.
//! 3. **Timing** — on the same fleet: a diurnally modulated open-loop
//!    flow offer (thinned exponential arrivals at `SCALE_RATE` f/s peak,
//!    punted at absolute worker-sim times) races a compressed-day churn
//!    schedule (`dfi_simnet::churn`: DHCP re-leases + session toggles,
//!    applied as epoch-stamped binding batches mid-run). Reports accepted
//!    flows/sec (sim time), wall-clock flows/sec (first enqueue through
//!    the final drain fixpoint), and TTFB p50/p99 from the timed window's
//!    decision-latency samples only.
//!
//! Two opt-in phases extend the report:
//!
//! 4. **`--wall`** — gates the timing phase's wall clock: wall scaling
//!    must be monotone in thread count (strictly, step over step, while
//!    threads fit on physical cores; oversubscribed points only have to
//!    hold the no-collapse floor against the 1-thread run) and the
//!    8-thread/1-thread ratio must clear a hardware-aware threshold: 3×
//!    where ≥ 8 cores are available, `min(3, 0.6·cores)` on smaller
//!    hosts, and a no-collapse floor on a single core (where a literal 3×
//!    is physically impossible; the measured core count and applied
//!    threshold are recorded in the report).
//! 5. **`--sweep`** — the Fig-4 saturation sweep on the same fleet:
//!    constant offered rates 1k→16k f/s per shard count, reporting
//!    accepted rate and TTFB p50/p99 per point (the paper's Fig. 4 axes).
//!
//! Prints a JSON report to stdout (captured into `BENCH_scale.json` by
//! `scripts/check.sh --scale` / `--par`), including every knob value used
//! and the git revision. With `--gate N` it exits non-zero unless
//! equivalence held and the 8-shard fleet accepts at least `N`× the
//! 1-shard fleet's flows (sim time), plus the wall gates above when
//! `--wall` is given.
//!
//! Knobs: `SCALE_ITERS` (offered flows per timed config, default 12 000),
//! `SCALE_HOSTS`, `SCALE_LEAVES`, `SCALE_SPINES`, `SCALE_PROBES`,
//! `SCALE_RATE`, `SCALE_POOL`, `SCALE_SEED`, `SCALE_SWEEP_ITERS`,
//! `SCALE_WALL_GATE`, `SCALE_WALL_TOL`.

use std::collections::HashMap;
use std::process::ExitCode;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dfi_core::erm::Binding;
use dfi_core::policy::{EndpointPattern, PolicyRule};
use dfi_core::{
    BindingBatch, BindingOp, Dfi, DfiConfig, DfiMetrics, FleetReport, ObserveFn,
    ParallelShardedDfi, WorkerWorld, WorldBuilder,
};
use dfi_dataplane::{ByteSink, Network, Switch, SwitchConfig, Tx};
use dfi_packet::headers::build;
use dfi_packet::MacAddr;
use dfi_simnet::churn::{diurnal_intensity, generate_churn, ChurnOp, ChurnParams};
use dfi_simnet::topo::{shard_of, TopoKind, TopoParams, Topology};
use dfi_simnet::{Sim, SimRng, SimTime, Summary};

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Every topology binding plus one MAC-location per host, as one batch of
/// idempotent ops (epoch-stamped by the caller).
fn binding_ops(topo: &Topology) -> Vec<BindingOp> {
    let mut ops = Vec::with_capacity(topo.binding_count() + topo.hosts.len());
    for h in &topo.hosts {
        let mac = MacAddr::from_index(h.mac_index);
        ops.push(BindingOp::Bind(Binding::IpMac { ip: h.ip, mac }));
        ops.push(BindingOp::Bind(Binding::HostIp {
            host: h.hostname.clone(),
            ip: h.ip,
        }));
        for u in &h.users {
            ops.push(BindingOp::Bind(Binding::UserHost {
                user: u.clone(),
                host: h.hostname.clone(),
            }));
        }
        ops.push(BindingOp::Bind(Binding::MacLocation {
            mac,
            dpid: h.dpid,
            port: h.port,
        }));
    }
    ops
}

/// The ~512-rule hostname ACL: destination-keyed allows over the probe
/// pool's hosts, a deny in every 7th slot, four priority bands.
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

/// The unsharded oracle over the whole fabric, on one thread.
struct Oracle {
    sim: Sim,
    dfi: Dfi,
    /// Keeps the switch fabric alive.
    _net: Network,
    /// Injection handles for the probe pool, pool order.
    tx: Vec<Tx>,
}

impl Oracle {
    fn decided(&self) -> (u64, u64, u64) {
        let m = self.dfi.metrics();
        (m.allowed, m.denied, m.spoof_denied)
    }
}

fn build_oracle(topo: &Topology, pool: &[usize], seed: u64) -> Oracle {
    let mut sim = Sim::new(seed);
    let mut net = Network::new();
    let switches = net.build_topology(topo, Duration::from_micros(50));
    let null: ByteSink = Rc::new(|_, _| {});
    let dfi = Dfi::new(DfiConfig::default());
    for sw in &switches {
        let n = null.clone();
        dfi.interpose(&mut sim, sw, move |_, _| n);
    }
    let tx = pool
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
    // Bindings through the batch path, policy through the front door.
    let _fresh = dfi.apply_binding_batch(&BindingBatch {
        epoch: 0,
        ops: binding_ops(topo),
    });
    for (rule, priority) in acl_rules(topo, pool, 512) {
        dfi.insert_policy(&mut sim, rule, priority, "scalegate");
    }
    sim.run();
    Oracle {
        sim,
        dfi,
        _net: net,
        tx,
    }
}

/// One probe flow: pool[src] → pool[dst], unique source port.
fn probe_frame(topo: &Topology, pool: &[usize], i: usize) -> (usize, Vec<u8>) {
    let p = pool.len();
    let src = i % p;
    let mut dst = (i * 7 + 3) % p;
    if dst == src {
        dst = (dst + 1) % p;
    }
    let s = &topo.hosts[pool[src]];
    let d = &topo.hosts[pool[dst]];
    let frame = build::tcp_syn(
        MacAddr::from_index(s.mac_index),
        MacAddr::from_index(d.mac_index),
        s.ip,
        d.ip,
        40_000_u16.wrapping_add(i as u16),
        if i.is_multiple_of(2) { 445 } else { 80 },
    );
    (src, frame)
}

/// Replays the probes one at a time through the oracle, returning the
/// per-probe decision deltas every fleet must reproduce.
fn probe_trace(
    cfg: &mut Oracle,
    topo: &Topology,
    pool: &[usize],
    probes: usize,
) -> Vec<(u64, u64, u64)> {
    let mut out = Vec::with_capacity(probes);
    let mut last = cfg.decided();
    for i in 0..probes {
        let (src, frame) = probe_frame(topo, pool, i);
        cfg.tx[src].send(&mut cfg.sim, frame);
        cfg.sim.run();
        let now = cfg.decided();
        out.push((now.0 - last.0, now.1 - last.1, now.2 - last.2));
        last = now;
    }
    out
}

/// The binding-batch ops one churn event expands to.
fn churn_binding_ops(topo: &Topology, op: ChurnOp) -> Vec<BindingOp> {
    match op {
        ChurnOp::LeaseMove {
            host,
            mac_index,
            old_ip,
            new_ip,
        } => {
            let hostname = topo.hosts[host as usize].hostname.clone();
            vec![
                BindingOp::Unbind(Binding::IpMac {
                    ip: old_ip,
                    mac: MacAddr::from_index(mac_index),
                }),
                BindingOp::Bind(Binding::IpMac {
                    ip: new_ip,
                    mac: MacAddr::from_index(mac_index),
                }),
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

/// The diurnally thinned open-loop flow offer as `(t_secs, pool src index,
/// frame)` per flow, plus the horizon. One seed produces one schedule, so
/// every shard count replays the identical offer.
fn offer_schedule(
    topo: &Topology,
    pool: &[usize],
    offered: usize,
    peak_rate: f64,
    seed: u64,
) -> (Vec<(f64, usize, Vec<u8>)>, Duration) {
    let mut rng = SimRng::new(seed ^ 0x5CA1E);
    let day = Duration::from_secs_f64(offered as f64 / peak_rate);
    let mut t = 0.0f64;
    let mut out = Vec::with_capacity(offered);
    while out.len() < offered {
        t += rng.exponential(1.0 / (peak_rate * 1.8));
        let at = SimTime::from_nanos((t * 1e9) as u64);
        if !rng.chance(diurnal_intensity(at, day) / 1.8) {
            continue;
        }
        let i = out.len();
        let p = pool.len();
        let src = rng.index(p);
        let mut dst = rng.index(p);
        if dst == src {
            dst = (dst + 1) % p;
        }
        let s = &topo.hosts[pool[src]];
        let d = &topo.hosts[pool[dst]];
        let frame = build::tcp_syn(
            MacAddr::from_index(s.mac_index),
            MacAddr::from_index(d.mac_index),
            s.ip,
            d.ip,
            1024_u16.wrapping_add(i as u16),
            if i.is_multiple_of(2) { 445 } else { 80 },
        );
        out.push((t, src, frame));
    }
    (out, Duration::from_secs_f64(t))
}

/// The worker-thread fleet plus its pool-order injection map.
struct ParFleet {
    fleet: ParallelShardedDfi,
    /// Per pool index: `(worker, tap index inside that worker)`.
    tap_of: Vec<(usize, u32)>,
}

/// Worker `w`'s world: its shard's switches behind a null upstream sink
/// (the oracle's no-controller build) and the pool hosts homed on them.
/// No inter-switch links are wired — with a null controller nothing
/// forwards, so no boundary relays exist and the workers share nothing
/// but snapshots and binding batches.
fn worker_builder(topo: Arc<Topology>, pool: Arc<Vec<usize>>, w: usize, n: usize) -> WorldBuilder {
    Box::new(move |sim, dfi, _outbox| {
        let mut net = Network::new();
        let null: ByteSink = Rc::new(|_, _| {});
        let mut local: HashMap<u64, Switch> = HashMap::new();
        for spec in &topo.switches {
            if shard_of(spec.dpid, n) == w {
                let sw = net.add_switch(SwitchConfig::new(spec.dpid));
                let sink = null.clone();
                dfi.interpose(sim, &sw, move |_, _| sink);
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

/// Builds and loads a [`ParallelShardedDfi`] over `threads` worker
/// threads: the oracle's bindings (chunked so no command channel
/// balloons) and the oracle's ACL.
fn build_parallel(
    topo: &Arc<Topology>,
    pool: &Arc<Vec<usize>>,
    seed: u64,
    threads: usize,
) -> ParFleet {
    let builders: Vec<WorldBuilder> = (0..threads)
        .map(|w| worker_builder(Arc::clone(topo), Arc::clone(pool), w, threads))
        .collect();
    let mut fleet = ParallelShardedDfi::new(&DfiConfig::default(), seed, builders, HashMap::new());
    let mut next_tap = vec![0u32; threads];
    let tap_of: Vec<(usize, u32)> = pool
        .iter()
        .map(|&i| {
            let w = shard_of(topo.hosts[i].dpid, threads);
            let t = next_tap[w];
            next_tap[w] += 1;
            (w, t)
        })
        .collect();
    let mut ops = binding_ops(topo);
    while !ops.is_empty() {
        let rest = ops.split_off(ops.len().min(65_536));
        fleet.apply_binding_ops(ops);
        ops = rest;
    }
    for (rule, priority) in acl_rules(topo, pool, 512) {
        fleet.insert_policy(rule, priority, "scalegate");
    }
    fleet.drain();
    ParFleet { fleet, tap_of }
}

/// The equivalence trace against a fleet: one probe at a
/// time through the owning worker, per-probe decision deltas plus the
/// final merged metrics (for attribution comparison).
fn probe_trace_parallel(
    pf: &mut ParFleet,
    topo: &Topology,
    pool: &[usize],
    probes: usize,
) -> (Vec<(u64, u64, u64)>, DfiMetrics) {
    let mut out = Vec::with_capacity(probes);
    let r = pf.fleet.drain();
    let mut last = (r.metrics.allowed, r.metrics.denied, r.metrics.spoof_denied);
    let mut metrics = r.metrics;
    for i in 0..probes {
        let (src, frame) = probe_frame(topo, pool, i);
        let (w, tap) = pf.tap_of[src];
        pf.fleet.punt(w, tap, frame);
        let r = pf.fleet.drain();
        let now = (r.metrics.allowed, r.metrics.denied, r.metrics.spoof_denied);
        out.push((now.0 - last.0, now.1 - last.1, now.2 - last.2));
        last = now;
        metrics = r.metrics;
    }
    (out, metrics)
}

/// Fleet readings at the start of a measured window.
struct Window {
    /// Decision-latency samples each worker had recorded, shard order.
    samples: Vec<usize>,
    decided: u64,
    dropped: u64,
    /// The latest worker clock (clocks drift: only workers with events
    /// advance).
    latest: SimTime,
}

/// What one measured window saw.
struct Measured {
    offered: usize,
    accepted: u64,
    dropped: u64,
    sim_secs: f64,
    ttfb_p50_ms: f64,
    ttfb_p99_ms: f64,
}

fn decisions(m: &DfiMetrics) -> u64 {
    m.allowed + m.denied + m.spoof_denied
}

impl Window {
    fn open(fleet: &mut ParallelShardedDfi) -> Window {
        let r = fleet.drain();
        Window {
            samples: r.per_shard.iter().map(|m| m.overall.count()).collect(),
            decided: decisions(&r.metrics),
            dropped: r.metrics.dropped,
            latest: r.clocks.iter().copied().max().unwrap_or_default(),
        }
    }

    /// The window from `start` to the drained fixpoint `after`: decisions
    /// and drops since opening, the sim span up to the last worker's
    /// clock, and the TTFB tail over the window's samples only.
    fn measure(&self, after: &FleetReport, start: SimTime, offered: usize) -> Measured {
        let end = after.clocks.iter().copied().max().unwrap_or(start);
        let mut ttfb = Summary::new();
        for (m, skip) in after.per_shard.iter().zip(&self.samples) {
            for s in &m.overall.samples()[*skip..] {
                ttfb.push(*s);
            }
        }
        Measured {
            offered,
            accepted: decisions(&after.metrics) - self.decided,
            dropped: after.metrics.dropped - self.dropped,
            sim_secs: end.saturating_duration_since(start).as_secs_f64(),
            ttfb_p50_ms: ttfb.percentile(0.50) * 1e3,
            ttfb_p99_ms: ttfb.percentile(0.99) * 1e3,
        }
    }
}

struct Timing {
    m: Measured,
    wall_secs: f64,
    binding_batches: u64,
}

/// The timed window: the diurnal offer punted as absolute-time
/// injections across the worker threads, racing the churn schedule
/// applied as fleet-wide binding batches. The wall timer spans first
/// enqueue through the final drain fixpoint.
fn run_timed(
    pf: &mut ParFleet,
    topo: &Topology,
    pool: &[usize],
    offered: usize,
    peak_rate: f64,
    seed: u64,
) -> Timing {
    let window = Window::open(&mut pf.fleet);
    // Anchor the window past every worker clock so absolute injection
    // times are in every worker's future.
    let t0 = window.latest + Duration::from_millis(1);

    let (offer, horizon) = offer_schedule(topo, pool, offered, peak_rate, seed);
    let day = Duration::from_secs_f64(offered as f64 / peak_rate);
    let scheduled = offer.len();
    let churn = generate_churn(
        topo,
        &ChurnParams {
            day,
            horizon,
            lease_moves_per_host_day: 0.02,
            session_toggles_per_user_day: 0.01,
        },
        seed,
    );
    eprintln!(
        "  timed window: {scheduled} flows over {:.2} sim-s, {} churn events",
        horizon.as_secs_f64(),
        churn.len()
    );

    let wall = Instant::now();
    for (t, src, frame) in offer {
        let (w, tap) = pf.tap_of[src];
        pf.fleet
            .punt_at(w, tap, frame, t0 + Duration::from_secs_f64(t));
    }
    for ev in churn {
        pf.fleet
            .advance_all(t0 + Duration::from_nanos(ev.at.as_nanos()));
        pf.fleet.apply_binding_ops(churn_binding_ops(topo, ev.op));
    }
    let after = pf.fleet.drain();
    let wall_secs = wall.elapsed().as_secs_f64();
    Timing {
        m: window.measure(&after, t0, scheduled),
        wall_secs,
        binding_batches: pf.fleet.fanout_metrics().binding_batches,
    }
}

/// The Fig-4 saturation sweep: constant-rate exponential arrivals at each
/// offered rate, drained to the fixpoint, reporting the accepted rate and
/// the TTFB tail per point. Saturation shows up as `dropped` climbing and
/// the accepted rate flattening below the offer.
fn run_sweep(
    pf: &mut ParFleet,
    topo: &Topology,
    pool: &[usize],
    rates: &[f64],
    flows: usize,
    seed: u64,
) -> Vec<(f64, Measured)> {
    let mut sport = 20_000u16;
    let mut out = Vec::with_capacity(rates.len());
    for (ri, &rate) in rates.iter().enumerate() {
        let window = Window::open(&mut pf.fleet);
        let start = window.latest;
        let mut rng = SimRng::new(seed ^ 0xF164 ^ ((ri as u64) << 32));
        let mut t = 0.0f64;
        for i in 0..flows {
            t += rng.exponential(1.0 / rate);
            let p = pool.len();
            let src = rng.index(p);
            let mut dst = rng.index(p);
            if dst == src {
                dst = (dst + 1) % p;
            }
            let s = &topo.hosts[pool[src]];
            let d = &topo.hosts[pool[dst]];
            let frame = build::tcp_syn(
                MacAddr::from_index(s.mac_index),
                MacAddr::from_index(d.mac_index),
                s.ip,
                d.ip,
                sport,
                if i.is_multiple_of(2) { 445 } else { 80 },
            );
            sport = sport.wrapping_add(1);
            let (w, tap) = pf.tap_of[src];
            pf.fleet
                .punt_at(w, tap, frame, start + Duration::from_secs_f64(t));
        }
        let after = pf.fleet.drain();
        out.push((rate, window.measure(&after, start, flows)));
    }
    out
}

/// The git revision the binary runs from (`-dirty` when the work tree
/// differs), or `unknown` outside a checkout.
fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--abbrev=12"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |r| r.trim().to_string())
}

fn main() -> ExitCode {
    let mut gate: Option<f64> = None;
    let mut do_sweep = false;
    let mut do_wall = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--gate" => {
                let v = args.next().and_then(|v| v.parse().ok());
                let Some(v) = v else {
                    eprintln!("--gate requires a numeric throughput-scaling factor");
                    return ExitCode::FAILURE;
                };
                gate = Some(v);
            }
            "--sweep" => do_sweep = true,
            "--wall" => do_wall = true,
            other => {
                eprintln!(
                    "unknown argument: {other}\n\
                     usage: dfi-scalegate [--gate N] [--sweep] [--wall]"
                );
                return ExitCode::FAILURE;
            }
        }
    }
    let seed = env_usize("SCALE_SEED", 2019) as u64;
    let offered = env_usize("SCALE_ITERS", 12_000);
    let probes = env_usize("SCALE_PROBES", 512);
    let hosts = env_usize("SCALE_HOSTS", 250_000) as u32;
    let leaves = env_usize("SCALE_LEAVES", 960) as u32;
    let spines = env_usize("SCALE_SPINES", 40) as u32;
    let pool_size = env_usize("SCALE_POOL", 2048);
    let peak_rate = env_f64("SCALE_RATE", 6000.0);
    let sweep_flows = env_usize("SCALE_SWEEP_ITERS", 2500);
    let sweep_rates = [1000.0, 2000.0, 4000.0, 8000.0, 16000.0];
    let shard_counts = [1usize, 2, 4, 8];

    // The wall gate derates with the hardware: demanding a literal 3x on a
    // single-core container proves nothing but that the box is small. The
    // measured core count and the applied threshold go into the report.
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let wall_gate = env_f64(
        "SCALE_WALL_GATE",
        if cores >= 8 {
            3.0
        } else if cores >= 2 {
            (0.6 * cores as f64).min(3.0)
        } else {
            0.7
        },
    );
    let wall_tol = env_f64("SCALE_WALL_TOL", if cores >= 8 { 0.95 } else { 0.7 });

    eprintln!(
        "generating topology ({} switches, {hosts} hosts)...",
        spines + leaves
    );
    let topo = Arc::new(Topology::generate(
        &TopoParams {
            kind: TopoKind::LeafSpine { spines, leaves },
            hosts,
            users_per_host: 2,
        },
        seed,
    ));
    let bindings = topo.binding_count() + topo.hosts.len();
    let mut rng = SimRng::new(seed ^ 0xB00);
    let pool: Arc<Vec<usize>> = Arc::new(
        (0..pool_size.min(topo.hosts.len()))
            .map(|_| rng.index(topo.hosts.len()))
            .collect(),
    );

    eprintln!("oracle: loading {bindings} bindings...");
    let mut oracle = build_oracle(&topo, &pool, seed);
    let want = probe_trace(&mut oracle, &topo, &pool, probes);
    let oracle_by_policy = oracle.dfi.metrics().decisions_by_policy;
    drop(oracle);

    let mut equivalent = true;
    let mut results: Vec<(usize, Timing)> = Vec::new();
    let mut sweeps: Vec<(usize, Vec<(f64, Measured)>)> = Vec::new();
    for &n in &shard_counts {
        eprintln!("shards={n}: loading {bindings} bindings...");
        let mut pf = build_parallel(&topo, &pool, seed, n);
        let (got, metrics) = probe_trace_parallel(&mut pf, &topo, &pool, probes);
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            if g != w {
                eprintln!(
                    "EQUIVALENCE FAIL shards={n} probe={i}: sharded={g:?} oracle={w:?} \
                     (repro: SCALE_SEED={seed} SCALE_PROBES={probes})"
                );
                equivalent = false;
            }
        }
        if metrics.decisions_by_policy != oracle_by_policy {
            eprintln!(
                "EQUIVALENCE FAIL shards={n}: per-policy attribution diverged \
                 (repro: SCALE_SEED={seed} SCALE_PROBES={probes})"
            );
            equivalent = false;
        }
        if !pf.fleet.epochs_agree() {
            eprintln!("EQUIVALENCE FAIL shards={n}: workers serve different epochs");
            equivalent = false;
        }
        if !equivalent {
            pf.fleet.shutdown();
            break;
        }
        let t = run_timed(&mut pf, &topo, &pool, offered, peak_rate, seed);
        results.push((n, t));
        if do_sweep {
            eprintln!("shards={n}: sweeping {sweep_rates:?} f/s...");
            let pts = run_sweep(&mut pf, &topo, &pool, &sweep_rates, sweep_flows, seed);
            sweeps.push((n, pts));
        }
        pf.fleet.shutdown();
    }

    let sim_fps = |t: &Timing| t.m.accepted as f64 / t.m.sim_secs;
    let wall_fps = |t: &Timing| t.m.accepted as f64 / t.wall_secs;
    let (ratio, wall_ratio) = match (results.first(), results.last()) {
        (Some((1, one)), Some((8, eight))) if one.m.accepted > 0 => (
            sim_fps(eight) / sim_fps(one),
            wall_fps(eight) / wall_fps(one),
        ),
        _ => (0.0, 0.0),
    };
    // Monotonicity is only meaningful while threads fit on real cores:
    // past that point added workers cannot add parallelism and step-to-step
    // deltas measure the scheduler, not the sharding. Oversubscribed points
    // are instead held to the no-collapse floor against the 1-thread run.
    let wall_base = results.first().map_or(0.0, |(_, t)| wall_fps(t));
    let wall_monotone = results.windows(2).all(|w| {
        if w[1].0 <= cores {
            wall_fps(&w[1].1) >= wall_tol * wall_fps(&w[0].1)
        } else {
            wall_fps(&w[1].1) >= wall_tol * wall_base
        }
    });
    let wall_pass = !do_wall
        || (equivalent
            && results.len() == shard_counts.len()
            && wall_ratio >= wall_gate
            && wall_monotone);
    let pass = equivalent && gate.is_none_or(|g| ratio >= g) && wall_pass;

    println!("{{");
    println!("  \"git_revision\": \"{}\",", git_revision());
    println!(
        "  \"knobs\": {{\"SCALE_SEED\": {seed}, \"SCALE_ITERS\": {offered}, \
         \"SCALE_PROBES\": {probes}, \"SCALE_HOSTS\": {hosts}, \"SCALE_LEAVES\": {leaves}, \
         \"SCALE_SPINES\": {spines}, \"SCALE_POOL\": {pool_size}, \"SCALE_RATE\": {peak_rate}, \
         \"SCALE_SWEEP_ITERS\": {sweep_flows}, \"SCALE_WALL_GATE\": {wall_gate}, \
         \"SCALE_WALL_TOL\": {wall_tol}}},"
    );
    println!(
        "  \"topology\": {{\"switches\": {}, \"hosts\": {}, \"bindings\": {bindings}}},",
        topo.switches.len(),
        topo.hosts.len()
    );
    println!(
        "  \"probes\": {probes}, \"equivalent\": {equivalent}, \"peak_rate\": {peak_rate:.0},"
    );
    println!(
        "  \"hardware\": {{\"cores\": {cores}, \"wall_gate\": {wall_gate:.2}, \
         \"wall_tol\": {wall_tol:.2}}},"
    );
    println!("  \"parallel\": [");
    for (i, (n, t)) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        println!(
            "    {{\"threads\": {n}, \"offered\": {}, \"accepted\": {}, \"dropped\": {}, \
             \"sim_flows_per_sec\": {:.0}, \"wall_flows_per_sec_parallel\": {:.0}, \
             \"ttfb_ms\": {{\"p50\": {:.3}, \"p99\": {:.3}}}, \"binding_batches\": {}}}{comma}",
            t.m.offered,
            t.m.accepted,
            t.m.dropped,
            sim_fps(t),
            wall_fps(t),
            t.m.ttfb_p50_ms,
            t.m.ttfb_p99_ms,
            t.binding_batches,
        );
    }
    println!("  ],");
    println!("  \"sweep\": [");
    let n_points: usize = sweeps.iter().map(|(_, pts)| pts.len()).sum();
    let mut emitted = 0usize;
    for (n, pts) in &sweeps {
        for (rate, p) in pts {
            emitted += 1;
            let comma = if emitted < n_points { "," } else { "" };
            println!(
                "    {{\"shards\": {n}, \"offered_rate\": {rate:.0}, \"offered\": {}, \
                 \"accepted\": {}, \"dropped\": {}, \"accepted_rate\": {:.0}, \
                 \"ttfb_ms\": {{\"p50\": {:.3}, \"p99\": {:.3}}}}}{comma}",
                p.offered,
                p.accepted,
                p.dropped,
                p.accepted as f64 / p.sim_secs,
                p.ttfb_p50_ms,
                p.ttfb_p99_ms,
            );
        }
    }
    println!("  ],");
    println!(
        "  \"gate\": {{\"required_scaling\": {}, \"scaling_8v1\": {ratio:.2}, \
         \"parallel_wall_8v1\": {wall_ratio:.2}, \"parallel_wall_monotone\": {wall_monotone}, \
         \"pass\": {pass}}}",
        gate.map_or_else(|| "null".to_string(), |g| format!("{g:.1}"))
    );
    println!("}}");

    if !equivalent {
        eprintln!("GATE FAIL: sharded decisions diverged from the unsharded oracle");
        return ExitCode::FAILURE;
    }
    if let Some(g) = gate {
        if ratio < g {
            eprintln!("GATE FAIL: 8-shard/1-shard accepted-throughput scaling {ratio:.2}x < required {g:.1}x");
            return ExitCode::FAILURE;
        }
        eprintln!("gate ok: equivalence held over {probes} probes; 8-shard scaling {ratio:.2}x");
    }
    if do_wall {
        if !wall_pass {
            eprintln!(
                "GATE FAIL: parallel wall scaling 8v1 {wall_ratio:.2}x (required \
                 {wall_gate:.2}x on {cores} cores, monotone={wall_monotone})"
            );
            return ExitCode::FAILURE;
        }
        eprintln!(
            "wall gate ok: parallel 8v1 {wall_ratio:.2}x >= {wall_gate:.2}x on {cores} cores, \
             monotone in thread count"
        );
    }
    ExitCode::SUCCESS
}
