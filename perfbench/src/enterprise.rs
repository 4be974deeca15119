//! `enterprise`: the paper's §V-B testbed (14 switches, 92 hosts, reactive
//! controller, DHCP/DNS/SIEM sensors) under AT-RBAC. Log-ons from 00:00,
//! the worm released at 09:00 and observed for 70 min; then, in a quiet
//! state, closed-loop connection attempts and one quarantine/release cycle
//! per host, infected hosts first. Correctness: each closed-loop flow's
//! fresh Table-0 installs agree with `resolve_flow` + `query_linear`, and
//! seed `0x5EED` reproduces Fig. 5a.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::atomic::Ordering::Relaxed;
use std::time::{Duration, Instant};

use dfi_controller::Controller;
use dfi_core::pdp::QuarantinePdp;
use dfi_core::policy::{
    FlowView, PolicyAction, PolicyId, PolicyManager, PolicySnapshot, DEFAULT_DENY_ID,
};
use dfi_core::{Dfi, DfiMetrics};
use dfi_dataplane::ByteSink;
use dfi_openflow::{Instruction, Match, Message, OfMessage, PacketIn};
use dfi_packet::headers::{build, PacketHeaders};
use dfi_simnet::{Sim, SimRng, SimTime};
use dfi_worm::worm::{WormInstance, WormWorld};
use dfi_worm::{Condition, Testbed, TestbedConfig, WormConfig};

use crate::layers::{policy_insert_us, ratio, replay_flow_layers, Capture};
use crate::metrics::Values;
use crate::report::{block_percentile, median, time_per_call, us_since, Report};
use crate::trace::{self, LayerRow};
use crate::Plant;

/// Fig. 5a under AT-RBAC, seed `0x5EED`: infected hosts of 92.
const FIG5A_INFECTED: usize = 83;
const FIG5A_HOSTS: usize = 92;
/// Day `r` of every run simulates seed `PAPER_SEED + r`: the days are the
/// same work in every run (day 0 is the paper's Fig. 5a day), and
/// `--seed` drives the closed loop. Days differ widely in policy churn and
/// worm traffic, so seeding them per run would make `bulk_rate` a property
/// of the seed rather than of the program.
const PAPER_SEED: u64 = 0x5EED;

/// Closed-loop samples per block of `block_percentile`.
const FLOW_BLOCK: usize = 100;
/// Quarantine-cycle samples per block of `block_percentile` (a quarter
/// of a day's hosts).
const CYCLE_BLOCK: usize = 23;
/// Closed-loop flows per repetition.
const CLOSED_FLOWS: usize = 500;
/// Simulated chunks between timed spare testbed builds.
const SETUP_EVERY: usize = 8;
/// Simulated chunks between shares of the previous day's closed loop.
const CLOSED_EVERY: usize = 6;
/// Nominal wall seconds of one repetition (a day, and the previous day's
/// closed loop beside it) on the reference machine; the repetition count
/// is `--seconds` divided by this, so equal `--seconds` always means equal
/// work.
const NOMINAL_REP_S: f64 = 5.0;

struct Day {
    sim: Sim,
    tb: Testbed,
    world: Rc<WormWorld>,
    setup_s: f64,
}

fn build(seed: u64, toy: bool) -> Day {
    let t0 = Instant::now();
    let mut sim = Sim::new(seed);
    let config = if toy {
        TestbedConfig::small()
    } else {
        TestbedConfig::default()
    };
    let tb = Testbed::build(&mut sim, &config, Condition::AtRbac);
    tb.schedule_logons(&mut sim);
    let setup_s = t0.elapsed().as_secs_f64();
    let world = Rc::new(WormWorld {
        hosts: tb.hosts.clone(),
        directory: tb.directory.clone(),
        config: WormConfig::default(),
        infections: RefCell::new(Vec::new()),
        on_infect: RefCell::new(None),
    });
    {
        let w = world.clone();
        *world.on_infect.borrow_mut() = Some(Box::new(move |sim, idx| {
            WormInstance::spawn(sim, w.clone(), idx);
        }));
    }
    Day {
        sim,
        tb,
        world,
        setup_s,
    }
}

/// One simulated day's measurements.
struct DayRun {
    /// Wall seconds inside the simulation (sampling excluded).
    wall: f64,
    decided: u64,
    events: u64,
    allocs: u64,
    m0: DfiMetrics,
    m1: DfiMetrics,
    /// With sampling: `(policy state, snapshots published in the ten
    /// simulated minutes that ended there)`.
    policy: Vec<(PolicyManager, u64)>,
}

/// Simulated ten-minute chunks in a day (00:00 → 10:10).
const DAY_CHUNKS: usize = 61;

/// Runs 00:00 → 10:10: log-ons, the foothold at 09:00, 70 min of spread,
/// in ten-minute chunks so `sample` can record the policy state between
/// them, and `between(k)` runs after chunk `k` (both outside the timed
/// chunks).
fn run_day(
    d: &mut Day,
    sample: bool,
    between: &mut dyn FnMut(usize) -> Result<(), String>,
) -> Result<DayRun, String> {
    let foothold_at = SimTime::from_secs(9 * 3600);
    {
        let w = d.world.clone();
        d.sim.schedule_at(foothold_at, move |sim| w.infect(sim, 0));
    }
    d.sim.set_event_limit(2_000_000_000);
    let end = foothold_at + Duration::from_secs(70 * 60);
    let m0 = d.tb.dfi.metrics();
    let (e0, a0) = (d.sim.events_executed(), trace::allocs());
    let mut published = m0.snapshots_published;
    let (mut wall, mut policy) = (0.0, Vec::new());
    let mut t = d.sim.now();
    let mut chunk = 0;
    while t < end {
        t = (t + Duration::from_secs(600)).min(end);
        let t0 = Instant::now();
        d.sim.run_until(t);
        wall += t0.elapsed().as_secs_f64();
        if sample {
            let now = d.tb.dfi.metrics().snapshots_published;
            policy.push((d.tb.dfi.with_pm(|pm| pm.clone()), now - published));
            published = now;
        }
        between(chunk)?;
        chunk += 1;
    }
    let (events, allocs) = (d.sim.events_executed() - e0, trace::allocs() - a0);
    let m1 = d.tb.dfi.metrics();
    let decided =
        (m1.allowed + m1.denied + m1.spoof_denied) - (m0.allowed + m0.denied + m0.spoof_denied);
    Ok(DayRun {
        wall,
        decided,
        events,
        allocs,
        m0,
        m1,
        policy,
    })
}

/// Brings the testbed to a quiet, seed-independent state for the closed
/// loop: past 11:15 every worm has stopped (lifetimes end by 11:10), and
/// every user is logged on, so AT-RBAC serves the same rule set whatever
/// the day's scripts were.
fn quiesce(d: &mut Day) {
    d.sim.run_until(SimTime::from_secs(11 * 3600 + 15 * 60));
    for h in &d.tb.hosts {
        if let Some(user) = h.with(|n| n.primary_user.clone()) {
            d.tb.siem.log_on(&mut d.sim, &user, &h.hostname());
        }
    }
    let t = d.sim.now() + Duration::from_secs(1);
    d.sim.run_until(t);
}

/// Steps the simulation until the proxy has no install in flight and the
/// caller's `done` holds, or `limit` of simulated time has passed.
fn settle(sim: &mut Sim, dfi: &Dfi, limit: Duration, done: impl Fn() -> bool) {
    let until = sim.now() + limit;
    loop {
        if dfi.in_flight_installs().is_empty() && done() {
            return;
        }
        match sim.peek_time() {
            Some(t) if t <= until => {
                sim.step();
            }
            _ => return,
        }
    }
}

/// Table-0 entries for traffic from `src` to `dst` MAC, per switch.
fn entries_between(
    tb: &Testbed,
    src: dfi_packet::MacAddr,
    dst: dfi_packet::MacAddr,
) -> Vec<(u64, Match, u64, bool)> {
    let mut out = Vec::new();
    for sw in &tb.switches {
        sw.with_table(0, |t| {
            for e in t.iter() {
                if e.mat.eth_src == Some(src) && e.mat.eth_dst == Some(dst) {
                    let allow = e
                        .instructions
                        .iter()
                        .any(|i| matches!(i, Instruction::GotoTable(_)));
                    out.push((sw.dpid(), e.mat.clone(), e.cookie, allow));
                }
            }
        });
    }
    out
}

/// Rebuilds the punted TCP packet an exact-match install was derived from.
fn frame_of(m: &Match) -> Option<Vec<u8>> {
    Some(build::tcp_syn(
        m.eth_src?,
        m.eth_dst?,
        m.ipv4_src?,
        m.ipv4_dst?,
        m.tcp_src?,
        m.tcp_dst?,
    ))
}

/// The oracle's decision for a fresh install: `resolve_flow` +
/// `query_linear`; `Err` when the install disagrees.
fn check_install(
    dfi: &Dfi,
    dpid: u64,
    m: &Match,
    cookie: u64,
    allow: bool,
) -> Result<Capture, String> {
    let frame = frame_of(m).ok_or("install is not an exact TCP match")?;
    let in_port = m.in_port.ok_or("install has no in_port")?;
    let h = PacketHeaders::parse(&frame).map_err(|e| format!("{e:?}"))?;
    let (src, dst) = dfi.with_erm(|erm| erm.resolve_flow(&h, dpid, in_port));
    let flow = FlowView {
        ethertype: h.ethertype.to_u16(),
        ip_proto: h.ip_proto.map(|p| p.0),
        src,
        dst,
    };
    let want = dfi.with_pm(|pm| pm.query_linear(&flow));
    let want_allow = want.action == PolicyAction::Allow;
    if want.policy.0 != cookie || want_allow != allow {
        return Err(format!(
            "install on dpid {dpid}: cookie {cookie} allow={allow}, oracle says policy {} allow={want_allow}",
            want.policy.0
        ));
    }
    Ok(Capture {
        dpid,
        in_port,
        frame,
    })
}

#[derive(Default)]
struct Samples {
    setup_s: Vec<f64>,
    flow_us: Vec<f64>,
    cycle_us: Vec<f64>,
    days: usize,
    decided: u64,
    day_wall: f64,
    flows: u64,
    undecided: u64,
    cycles: u64,
    verified_installs: u64,
    infected: Vec<usize>,
    /// Snapshots published, install/flush FlowMods sent and memo entries
    /// invalidated by the cycles.
    cycle_snapshots: u64,
    cycle_flowmods: u64,
    cycle_invalidations: u64,
}

/// Closed-loop flows: one connection attempt at a time, timed until its
/// SYN-ACK returns (allowed) or its installs are acknowledged (denied);
/// each fresh install is checked against the oracle. Every fourth flow
/// stays inside the source's department (allowed: the controller path and
/// the SYN-ACK back), the rest cross departments (denied at the first
/// hop), so the mix is the same for every seed.
fn closed_flows(
    d: &mut Day,
    rng: &mut SimRng,
    n: usize,
    plant: Plant,
    s: &mut Samples,
    caps: &mut Vec<Capture>,
) -> Result<(), String> {
    let hosts = d.tb.hosts.clone();
    let dept: Vec<Option<String>> = hosts
        .iter()
        .map(|h| h.with(|n| n.enclave.clone()))
        .collect();
    let pick = |rng: &mut SimRng, same: bool| -> (usize, usize) {
        loop {
            let a = rng.index(hosts.len());
            let b = rng.index(hosts.len());
            // Servers (no department) stay out, so the allowed share is
            // fixed by the schedule alone.
            let both = dept[a].is_some() && dept[b].is_some();
            if a != b && both && (dept[a] == dept[b]) == same {
                return (a, b);
            }
        }
    };
    for k in 0..n {
        // Prefer a pair with no Table-0 state yet: a reused source port
        // would match an earlier exact rule and never punt.
        let (mut a, mut b) = pick(rng, k % 4 == 0);
        let mut before = entries_between(&d.tb, hosts[a].mac(), hosts[b].mac());
        for _ in 0..16 {
            if before.is_empty() {
                break;
            }
            (a, b) = pick(rng, k % 4 == 0);
            before = entries_between(&d.tb, hosts[a].mac(), hosts[b].mac());
        }
        let (ha, hb) = (&hosts[a], &hosts[b]);
        let decided0 = decisions(&d.tb.dfi);
        let done = Rc::new(Cell::new(false));
        let flag = done.clone();
        let t0 = Instant::now();
        ha.connect(&mut d.sim, hb.ip(), 445, move |_, ok| {
            flag.set(ok || flag.get())
        });
        settle_connect(&mut d.sim, &d.tb.dfi, &done);
        s.flow_us.push(us_since(t0));
        s.flows += 1;
        let after = entries_between(&d.tb, ha.mac(), hb.mac());
        let mut fresh: Vec<_> = after.into_iter().filter(|e| !before.contains(e)).collect();
        if plant == Plant::WrongDecision {
            // As if the proxy had installed the opposite verdict.
            if let Some(e) = fresh.first_mut() {
                e.3 = !e.3;
            }
        }
        // A fresh install can be flushed again by a concurrent log-off
        // before it is read back; the decision count still shows it.
        if decisions(&d.tb.dfi) == decided0 && before.is_empty() {
            s.undecided += 1;
        }
        for (dpid, m, cookie, allow) in &fresh {
            caps.push(check_install(&d.tb.dfi, *dpid, m, *cookie, *allow)?);
            s.verified_installs += 1;
        }
    }
    Ok(())
}

/// Steps a fresh connection attempt to completion: a denied SYN once its
/// drop rule is acknowledged, an allowed one once the SYN-ACK is back.
fn settle_connect(sim: &mut Sim, dfi: &Dfi, done: &Cell<bool>) {
    let until = sim.now() + Duration::from_millis(500);
    // The first-hop decision: the first install the proxy puts in flight.
    let cookie = loop {
        if let Some(&(_, cookie, _)) = dfi.in_flight_installs().first() {
            break cookie;
        }
        match sim.peek_time() {
            Some(t) if t <= until => {
                sim.step();
            }
            _ => return,
        }
    };
    let denied = cookie == DEFAULT_DENY_ID.0
        || dfi.with_pm(|pm| {
            pm.get(PolicyId(cookie))
                .is_some_and(|p| p.rule.action == PolicyAction::Deny)
        });
    if denied {
        settle(sim, dfi, Duration::from_millis(500), || true);
    } else {
        settle(sim, dfi, Duration::from_millis(500), || done.get());
    }
}

fn decisions(dfi: &Dfi) -> u64 {
    let m = dfi.metrics();
    m.allowed + m.denied + m.spoof_denied
}

/// A day's testbed after `quiesce`, serving its closed-loop work (the
/// connection attempts and one quarantine/release cycle per host) a share
/// at a time while the next day is simulated.
struct Quiet {
    d: Day,
    /// Hosts to cycle, the infected ones first.
    order: Vec<String>,
    flows: usize,
    cycles: usize,
}

fn quiet(mut d: Day) -> Quiet {
    quiesce(&mut d);
    let mut order: Vec<String> = d
        .world
        .infections
        .borrow()
        .iter()
        .map(|(_, h)| h.clone())
        .collect();
    for h in &d.tb.hosts {
        if !order.contains(&h.hostname()) {
            order.push(h.hostname());
        }
    }
    Quiet {
        d,
        order,
        flows: 0,
        cycles: 0,
    }
}

/// Runs the quiet testbed's closed-loop work up to `share` of the whole,
/// flows and cycles interleaved evenly.
fn advance(
    q: &mut Quiet,
    share: f64,
    rng: &mut SimRng,
    plant: Plant,
    s: &mut Samples,
    caps: &mut Vec<Capture>,
) -> Result<(), String> {
    let flows_to = (CLOSED_FLOWS as f64 * share).round() as usize;
    let cycles_to = (q.order.len() as f64 * share).round() as usize;
    loop {
        let flow_behind =
            q.flows * q.order.len() <= q.cycles * CLOSED_FLOWS || q.cycles >= cycles_to;
        if q.flows < flows_to && flow_behind {
            closed_flows(&mut q.d, rng, 1, plant, s, caps)?;
            q.flows += 1;
        } else if q.cycles < cycles_to {
            let host = q.order[q.cycles].clone();
            quarantine_cycle(&mut q.d, &host, s);
            q.cycles += 1;
        } else {
            return Ok(());
        }
    }
}

/// One quarantine/release cycle of `host` through `QuarantinePdp`, timed
/// until its flushes are acknowledged by the switches. Cycling every host
/// keeps the sample set the same for every seed (the infected set is not).
fn quarantine_cycle(d: &mut Day, host: &str, s: &mut Samples) {
    let mut pdp = QuarantinePdp::new();
    let m0 = d.tb.dfi.metrics();
    let t0 = Instant::now();
    pdp.quarantine(&mut d.sim, &d.tb.dfi, host);
    settle(&mut d.sim, &d.tb.dfi, Duration::from_secs(1), || true);
    pdp.release(&mut d.sim, &d.tb.dfi, host);
    settle(&mut d.sim, &d.tb.dfi, Duration::from_secs(1), || true);
    s.cycle_us.push(us_since(t0));
    s.cycles += 1;
    let m1 = d.tb.dfi.metrics();
    s.cycle_snapshots += m1.snapshots_published - m0.snapshots_published;
    s.cycle_flowmods += m1.flow_mods_batched - m0.flow_mods_batched;
    s.cycle_invalidations += m1.decision_cache_invalidations - m0.decision_cache_invalidations;
}

pub fn run(
    seed: u64,
    seconds: f64,
    toy: bool,
    plant: Plant,
    r: &mut Report,
    v: &mut Values,
) -> Result<(), String> {
    let reps = ((seconds / NOMINAL_REP_S).round() as usize).max(3);
    let mut s = Samples::default();
    let mut caps = Vec::new();
    let mut rng = SimRng::new(seed ^ 0xE7E);
    // Day `rep` is simulated while day `rep - 1`'s quiet testbed serves
    // its closed loop between the chunks, and a spare testbed is built
    // (timed set-up) every `SETUP_EVERY` chunks, so every metric is sampled
    // all through the run. The last day serves no closed loop.
    let mut prev: Option<Quiet> = None;
    for rep in 0..reps {
        let mut d = build(PAPER_SEED + rep as u64, toy);
        s.setup_s.push(d.setup_s);
        let mut between = |k: usize| {
            if k % SETUP_EVERY == 0 {
                s.setup_s
                    .push(build(PAPER_SEED + (rep * DAY_CHUNKS + k) as u64, toy).setup_s);
            }
            match prev.as_mut() {
                Some(q) if (k + 1) % CLOSED_EVERY == 0 => {
                    let share = (k + 1) as f64 / DAY_CHUNKS as f64;
                    advance(q, share, &mut rng, plant, &mut s, &mut caps)
                }
                _ => Ok(()),
            }
        };
        let day = run_day(&mut d, false, &mut between)?;
        if let Some(q) = prev.as_mut() {
            advance(q, 1.0, &mut rng, plant, &mut s, &mut caps)?;
        }
        if rep == 0 && !toy {
            // Day 0 is the paper's: it must reproduce Fig. 5a.
            let infected = d.world.infected_count();
            if infected != FIG5A_INFECTED || d.tb.total_hosts() != FIG5A_HOSTS {
                return Err(format!(
                    "Fig. 5a: seed 0x5EED infected {infected}/{}, expected {FIG5A_INFECTED}/{FIG5A_HOSTS}",
                    d.tb.total_hosts()
                ));
            }
        }
        s.days += 1;
        s.decided += day.decided;
        s.day_wall += day.wall;
        s.infected.push(d.world.infected_count());
        prev = Some(quiet(d));
    }
    let d = prev.expect("at least one repetition").d;

    r.attempted = s.decided + s.flows + s.cycles;
    r.failed = s.undecided;
    r.prov("switches", d.tb.switches.len());
    r.prov("hosts", d.tb.total_hosts());
    r.prov("repetitions", reps);
    r.prov("closed_flows_per_rep", CLOSED_FLOWS);
    r.prov("verified_installs", s.verified_installs);
    r.prov_str("infected_per_rep", &format!("{:?}", s.infected));
    r.prov(
        "flow_setup_rate",
        format!("{:.1}", s.decided as f64 / s.day_wall),
    );
    r.sample_count("setup", s.setup_s.len());
    r.sample_count("days", s.days);
    r.sample_count("flow_setup", s.flow_us.len());
    r.sample_count("policy_update", s.cycle_us.len());

    v.insert("setup_s", median(&mut s.setup_s));
    // Decisions per wall second over all simulated days, each weighed by
    // its work.
    v.insert("bulk_rate", s.decided as f64 / s.day_wall);
    v.insert("op_us_p50", block_percentile(&s.flow_us, 0.50, FLOW_BLOCK));
    v.insert("op_us_p90", block_percentile(&s.flow_us, 0.90, FLOW_BLOCK));
    v.insert(
        "update_us_p50",
        block_percentile(&s.cycle_us, 0.50, CYCLE_BLOCK),
    );
    v.insert(
        "update_us_p90",
        block_percentile(&s.cycle_us, 0.90, CYCLE_BLOCK),
    );

    if trace::tracing() {
        trace_layers(r, v, &d, &caps, &s, seed, toy);
    }
    Ok(())
}

/// Traced run: day 0 once with the counting allocator off (the untraced
/// baseline) and once with it on, sampling the policy state every ten
/// simulated minutes; then replays on the captured installs against this
/// testbed's `Dfi`. Snapshot compiles are replayed at each sampled policy
/// state, weighted by the publications of its chunk, because their cost
/// follows the rule count through the day.
fn trace_layers(
    r: &mut Report,
    v: &mut Values,
    d: &Day,
    caps: &[Capture],
    s: &Samples,
    seed: u64,
    toy: bool,
) {
    trace::TRACING.store(false, Relaxed);
    let none = &mut |_| Ok(());
    let base = run_day(&mut build(PAPER_SEED, toy), false, none).expect("untraced day");
    trace::TRACING.store(true, Relaxed);
    let mut day = build(PAPER_SEED, toy);
    let traced = run_day(&mut day, true, none).expect("traced day");
    let (m0, m) = (&traced.m0, &traced.m1);
    let overhead = traced.wall / base.wall - 1.0;

    let c = replay_flow_layers(&d.tb.dfi, caps);
    let (mut compiles, mut compile_ns) = (0u64, 0.0);
    for (k, (pm, published)) in traced.policy.iter().enumerate() {
        if *published > 0 {
            let ns = time_per_call(4, 0.01, |i| {
                std::hint::black_box(PolicySnapshot::compile(pm, (k * 64 + i) as u64));
            });
            compiles += published;
            compile_ns += *published as f64 * ns;
        }
    }
    let compile_us = compile_ns / compiles.max(1) as f64 / 1e3;
    // The controller's packet-in handling, on the same captures.
    let mut sim = Sim::new(seed);
    let ctrl = Controller::reactive();
    let null: ByteSink = Rc::new(|_, _| {});
    let sink = ctrl.connect(&mut sim, null);
    sim.run();
    let pins: Vec<Vec<u8>> = caps
        .iter()
        .map(|c| {
            OfMessage::new(
                3,
                Message::PacketIn(PacketIn::table_miss(c.in_port, 0, c.frame.clone())),
            )
            .encode()
        })
        .collect();
    let controller_us = time_per_call(2048, 0.1, |i| {
        sink(&mut sim, &pins[i % pins.len()]);
        sim.run();
    }) / 1e3;
    let insert_us = d.tb.dfi.with_pm(|pm| policy_insert_us(pm));

    let d_pins = m.packet_ins - m0.packet_ins;
    let d_misses = m.decision_cache_misses - m0.decision_cache_misses;
    let d_installs = m.flow_mods_batched - m0.flow_mods_batched;
    let d_spliced =
        (m.frames_spliced + m.frames_fallback) - (m0.frames_spliced + m0.frames_fallback);
    let allowed = m.allowed - m0.allowed;
    let row = |layer, calls: u64, per_call_ns: f64| LayerRow {
        layer,
        calls,
        self_ns: calls as f64 * per_call_ns,
        how: "replay",
    };
    let rows = [
        row("openflow.decode", d_pins, c.decode_ns),
        row("openflow.splice", d_spliced, c.splice_ns),
        row("packet.parse", d_pins, c.parse_ns),
        row("memo.probe", d_pins, c.memo_probe_ns),
        row("erm.resolve", d_misses, c.resolve_ns),
        row("policy.classify", d_misses, c.classify_ns),
        LayerRow {
            layer: "policy.compile",
            calls: compiles,
            self_ns: compile_ns,
            how: "replay",
        },
        row("openflow.encode", d_installs, c.encode_ns),
        row("dataplane.control", d_installs, c.dataplane_ns),
        row("controller.packet_in", allowed, controller_us * 1e3),
    ];
    let residual = trace::layer_table(
        r,
        &rows,
        traced.wall * 1e9,
        "traced simulated day 0 (one thread)",
    );
    r.table.push(format!(
        "tracing overhead: traced day 0 {:.4} s vs untraced {:.4} s ({:+.2}%)",
        traced.wall,
        base.wall,
        100.0 * overhead
    ));
    let flows = traced.decided.max(1) as f64;
    let updates = s.cycles.max(1) as f64;
    v.insert("openflow.decode_ns", c.decode_ns);
    v.insert("openflow.encode_ns", c.encode_ns);
    v.insert("packet.parse_ns", c.parse_ns);
    v.insert("openflow.ctrl_bytes_per_flow", c.ctrl_bytes_per_flow);
    v.insert("openflow.splice_ns", c.splice_ns);
    v.insert(
        "openflow.splice_fast_ratio",
        ratio(m.frames_spliced, m.frames_spliced + m.frames_fallback),
    );
    v.insert("controller.us_per_packet_in", controller_us);
    v.insert("erm.resolve_ns", c.resolve_ns);
    v.insert(
        "erm.bindings",
        d.tb.dfi.with_erm(|e| e.binding_count()) as f64,
    );
    v.insert("policy.classify_ns", c.classify_ns);
    v.insert("policy.compile_us", compile_us);
    v.insert("policy.insert_us", insert_us);
    v.insert(
        "policy.snapshots_per_update",
        s.cycle_snapshots as f64 / updates,
    );
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
        s.cycle_invalidations as f64 / updates,
    );
    v.insert("pcp.flowmods_per_flow", ratio(d_installs, d_pins));
    v.insert("pcp.install_retries", m.install_retries as f64);
    v.insert(
        "pool.reuse_ratio",
        ratio(m.pool_reused, m.pool_reused + m.pool_minted),
    );
    v.insert("alloc.per_flow", traced.allocs as f64 / flows);
    v.insert(
        "flush.flowmods_per_update",
        s.cycle_flowmods as f64 / updates,
    );
    v.insert("dataplane.control_us_per_flow", c.dataplane_ns / 1e3);
    v.insert(
        "dataplane.table0_rules",
        day.tb
            .switches
            .iter()
            .map(|sw| sw.table_len(0))
            .sum::<usize>() as f64,
    );
    v.insert("sim.events_per_flow", traced.events as f64 / flows);
    v.insert(
        "sim.ns_per_event",
        base.wall * 1e9 / base.events.max(1) as f64,
    );
    v.insert("sim.residual_share", residual);
    v.insert("model.ttfb_ms_p99", m.overall.percentile(0.99) * 1e3);
    v.insert("trace.overhead_share", overhead);
}
