//! `audit`: the operator's audit-and-repair loop on a seeded reach corpus
//! (`corpus::generate_reach` with planted defects; 8 spines × 192 leaves,
//! 150 hosts, 60 flows; one fixed site). Stages: a full `audit_world`, `Repairer` over
//! every finding, and `ReachAnalyzer` incremental rechecks over a mutation
//! sequence. Correctness: plan signatures equal `expected_repairs()`, the
//! applied plans re-audit clean, and the incremental findings equal a
//! from-scratch build.

use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::{Duration, Instant};

use dfi_analyze::corpus::generate_reach;
use dfi_analyze::{
    audit_world, Diagnostic, DiagnosticKind, ReachAnalyzer, RepairPlan, Repairer, World,
};
use dfi_core::{BindingBatch, Dfi, DfiConfig};
use dfi_dataplane::{ByteSink, Network, SwitchConfig};
use dfi_packet::headers::build;
use dfi_simnet::{Sim, SimRng};

use crate::layers::{policy_insert_us, push_host_bindings, replay_flow_layers, Capture};
use crate::metrics::Values;
use crate::report::{block_percentile, median, us_since, Report};
use crate::trace::{self, LayerRow};
use crate::Plant;

struct Shape {
    spines: u32,
    leaves: u32,
    hosts: u32,
    flows: usize,
}

fn shape(toy: bool) -> Shape {
    if toy {
        Shape {
            spines: 2,
            leaves: 6,
            hosts: 150,
            flows: 60,
        }
    } else {
        Shape {
            spines: 8,
            leaves: 192,
            hosts: 150,
            flows: 60,
        }
    }
}

/// Incremental rechecks per cycle: enough that rechecks are a steady
/// share of every stretch of the run.
const RECHECKS_PER_CYCLE: usize = 1000;
/// Rechecks per block of `block_percentile`.
const RECHECK_BLOCK: usize = 250;
/// Corpus generations timed per cycle (one is a millisecond or two).
const SETUPS_PER_CYCLE: usize = 2;
/// The corpus is one fixed site, as fleet's fabric is: plan synthesis
/// cost follows the fabric's paths, so a per-seed fabric would make the
/// repair metrics a property of the seed. `--seed` orders the recheck
/// mutations.
const SITE_SEED: u64 = 2019;
/// Nominal wall seconds of one repair pass (one cycle per finding) on the
/// reference machine; the pass count is `--seconds` divided by this.
const NOMINAL_PASS_S: f64 = 9.0;

struct Corpus {
    world: World,
    expected: Vec<String>,
}

fn generate(sh: &Shape, seed: u64) -> Corpus {
    let c = generate_reach(sh.spines, sh.leaves, sh.hosts, sh.flows, seed, true);
    let expected = c.expected_repairs();
    Corpus {
        world: World {
            pm: c.manager,
            snapshots: c.snapshots,
            spec: Some(c.spec),
            universe: None,
        },
        expected,
    }
}

fn kind_slug(k: DiagnosticKind) -> Option<&'static str> {
    match k {
        DiagnosticKind::ReachabilityViolation => Some("reachability"),
        DiagnosticKind::PolicyDataplaneDrift => Some("drift"),
        DiagnosticKind::IsolationBreach => Some("isolation"),
        DiagnosticKind::WaypointViolation => Some("waypoint"),
        _ => None,
    }
}

#[derive(Default)]
struct Samples {
    setup_s: Vec<f64>,
    audit_s: Vec<f64>,
    recheck_us: Vec<f64>,
    plan_us: Vec<f64>,
    per_kind_ms: BTreeMap<&'static str, Vec<f64>>,
    passes: usize,
    mutations: u64,
    classes: usize,
}

/// Correctness before numbers: audit, repair every finding, compare the
/// plan signatures with the planted ground truth, apply every plan and
/// re-audit. Returns the findings and their plans' signatures.
fn check(c: &Corpus, plant: Plant) -> Result<(Vec<Diagnostic>, Vec<String>), String> {
    let findings = audit_world(&c.world, None);
    let mut repairer = Repairer::new(&c.world, None);
    let mut plans: Vec<RepairPlan> = Vec::with_capacity(findings.len());
    for f in &findings {
        plans.push(
            repairer
                .repair(f)
                .ok_or_else(|| format!("audit: finding {:?} has no certified plan", f.kind))?,
        );
    }
    if plant == Plant::WrongPlan {
        if let Some(p) = plans.first_mut() {
            p.steps.pop();
        }
    }
    let sigs: Vec<String> = plans.iter().map(RepairPlan::signature).collect();
    let mut got = sigs.clone();
    let mut want = c.expected.clone();
    got.sort();
    want.sort();
    if got != want {
        return Err(format!(
            "audit: {} certified plan signatures differ from the {} planted ground-truth repairs",
            got.len(),
            want.len()
        ));
    }
    let mut fixed = c.world.clone();
    for p in &plans {
        fixed.apply(&p.steps);
    }
    let left = audit_world(&fixed, None);
    if !left.is_empty() {
        return Err(format!(
            "audit: {} findings remain after applying every plan",
            left.len()
        ));
    }
    Ok((findings, sigs))
}

/// The timed cycles, one per finding and pass. Each cycle runs a full
/// audit, one finding's plan synthesis (a fresh `Repairer` per pass) and a
/// run of incremental rechecks (each policy revoked, then re-inserted, in
/// turn, on a copy of the policy), and times corpus generations, so every
/// stage is sampled all through the run. Every audit must return the
/// checked findings and every plan the checked signature; the incremental
/// findings must equal a from-scratch build at the end.
fn cycles(
    c: &Corpus,
    sh: &Shape,
    seed: u64,
    (findings, sigs): (&[Diagnostic], &[String]),
    passes: usize,
    s: &mut Samples,
) -> Result<(), String> {
    let spec = c.world.spec.clone().expect("reach corpus has a spec");
    let mut pm = c.world.pm.clone();
    pm.enable_delta_journal();
    let _ = pm.take_deltas();
    let (mut ra, _) = ReachAnalyzer::new(spec.clone(), &pm, &c.world.snapshots);
    s.classes = ra.stats().classes_evaluated;
    let mut slots = pm.snapshot();
    let mut rng = SimRng::new(seed ^ 0x5107);
    for i in (1..slots.len()).rev() {
        slots.swap(i, rng.index(i + 1));
    }
    let mut repairer = Repairer::new(&c.world, None);
    for cycle in 0..passes * findings.len() {
        let i = cycle % findings.len();
        let t0 = Instant::now();
        let again = audit_world(&c.world, None);
        s.audit_s.push(t0.elapsed().as_secs_f64());
        if again != findings {
            return Err("audit: repeated audits of one world disagree".into());
        }

        if i == 0 {
            repairer = Repairer::new(&c.world, None);
        }
        let t = Instant::now();
        let plan = repairer.repair(&findings[i]);
        let us = us_since(t);
        s.plan_us.push(us);
        if let Some(k) = kind_slug(findings[i].kind) {
            s.per_kind_ms.entry(k).or_default().push(us / 1e3);
        }
        if plan.map(|p| p.signature()).as_ref() != Some(&sigs[i]) {
            return Err("audit: a repeated repair differs from the checked plan".into());
        }

        for _ in 0..RECHECKS_PER_CYCLE {
            let m = s.mutations as usize;
            let n = slots.len();
            let slot = &mut slots[(m / 2) % n];
            if m % 2 == 0 {
                let _ = pm.revoke(slot.id);
            } else {
                slot.id = pm.insert(slot.rule.clone(), slot.priority, &slot.pdp).0;
            }
            let t = Instant::now();
            for d in pm.take_deltas() {
                ra.apply(&d);
            }
            let _ = ra.recheck(&pm);
            s.recheck_us.push(us_since(t));
            s.mutations += 1;
        }

        for _ in 0..SETUPS_PER_CYCLE {
            let t0 = Instant::now();
            drop(generate(sh, SITE_SEED));
            s.setup_s.push(t0.elapsed().as_secs_f64());
        }
    }
    s.passes = passes;
    let (fresh, _) = ReachAnalyzer::new(spec, &pm, &c.world.snapshots);
    if ra.diagnostics() != fresh.diagnostics() {
        return Err("audit: incremental reach findings differ from a full rebuild".into());
    }
    Ok(())
}

pub fn run(
    seed: u64,
    seconds: f64,
    toy: bool,
    plant: Plant,
    r: &mut Report,
    v: &mut Values,
) -> Result<(), String> {
    let sh = shape(toy);
    let passes = ((seconds / NOMINAL_PASS_S).round() as usize).max(1);
    let mut s = Samples::default();
    let t0 = Instant::now();
    let c = generate(&sh, SITE_SEED);
    s.setup_s.push(t0.elapsed().as_secs_f64());
    let (findings, sigs) = check(&c, plant)?;
    cycles(&c, &sh, seed, (&findings, &sigs), passes, &mut s)?;

    r.attempted = (findings.len() * (passes + 1)) as u64 + s.mutations;
    r.failed = 0;
    r.prov("switches", sh.spines + sh.leaves);
    r.prov("hosts", sh.hosts);
    r.prov("flows", sh.flows);
    r.prov("findings", findings.len());
    r.prov("repair_passes", passes);
    r.prov("audit_s", format!("{:.6}", median(&mut s.audit_s.clone())));
    r.prov(
        "repair_s_per_pass",
        format!("{:.6}", s.plan_us.iter().sum::<f64>() / 1e6 / passes as f64),
    );
    r.sample_count("setup", s.setup_s.len());
    r.sample_count("audit", s.audit_s.len());
    r.sample_count("recheck", s.recheck_us.len());
    r.sample_count("repair_plan", s.plan_us.len());

    v.insert("setup_s", median(&mut s.setup_s.clone()));
    v.insert("bulk_rate", 1.0 / median(&mut s.audit_s.clone()));
    v.insert(
        "op_us_p50",
        block_percentile(&s.recheck_us, 0.50, RECHECK_BLOCK),
    );
    v.insert(
        "op_us_p90",
        block_percentile(&s.recheck_us, 0.90, RECHECK_BLOCK),
    );
    // Plan percentiles per repair pass (a block is one pass over every
    // finding), then the median over passes.
    let pass = findings.len().max(1);
    v.insert("update_us_p50", block_percentile(&s.plan_us, 0.50, pass));
    v.insert("update_us_p90", block_percentile(&s.plan_us, 0.90, pass));

    if trace::tracing() {
        trace_layers(r, v, &c, &s, seed);
    }
    Ok(())
}

/// Traced run: one more audit-and-repair with the allocator armed, per-kind
/// plan times, and the flow-setup layers replayed on the corpus's flows
/// against a `Dfi` loaded with its hosts and policy.
fn trace_layers(r: &mut Report, v: &mut Values, c: &Corpus, s: &Samples, seed: u64) {
    let spec = c.world.spec.clone().expect("reach corpus has a spec");
    let a0 = trace::allocs();
    let t0 = Instant::now();
    let findings = audit_world(&c.world, None);
    let audit_ns = t0.elapsed().as_nanos() as f64;
    let t1 = Instant::now();
    let mut repairer = Repairer::new(&c.world, None);
    let mut per_kind: BTreeMap<&'static str, (u64, f64)> = BTreeMap::new();
    for f in &findings {
        let t = Instant::now();
        let _plan = repairer.repair(f);
        let slot = per_kind
            .entry(kind_slug(f.kind).unwrap_or("other"))
            .or_default();
        slot.0 += 1;
        slot.1 += t.elapsed().as_nanos() as f64;
    }
    let repair_ns = t1.elapsed().as_nanos() as f64;
    let allocs = trace::allocs() - a0;
    let traced_wall = audit_ns + repair_ns;
    // The untraced baseline: one audit (median) plus one pass's repairs
    // (their mean total per pass).
    let untraced_wall = median(&mut s.audit_s.clone()) * 1e9
        + s.plan_us.iter().sum::<f64>() * 1e3 / s.passes.max(1) as f64;

    let mut rows = vec![LayerRow {
        layer: "audit_world (full)",
        calls: 1,
        self_ns: audit_ns,
        how: "direct",
    }];
    let names = [
        "repair.reachability",
        "repair.drift",
        "repair.isolation",
        "repair.waypoint",
        "repair.other",
    ];
    for (name, (calls, ns)) in names.iter().zip(
        ["reachability", "drift", "isolation", "waypoint", "other"]
            .map(|k| per_kind.get(k).copied().unwrap_or_default()),
    ) {
        rows.push(LayerRow {
            layer: name,
            calls,
            self_ns: ns,
            how: "direct",
        });
    }
    let residual = trace::layer_table(r, &rows, traced_wall, "traced audit + repair of one corpus");
    let overhead = traced_wall / untraced_wall - 1.0;
    r.table.push(format!(
        "tracing overhead: traced audit+repair {:.4} s vs untraced {:.4} s ({:+.2}%)",
        traced_wall / 1e9,
        untraced_wall / 1e9,
        100.0 * overhead
    ));

    // The flow-setup layers on the corpus's own hosts and policy.
    let (dfi, caps) = corpus_dfi(&spec, c, seed);
    let fl = replay_flow_layers(&dfi, &caps);
    let insert_us = policy_insert_us(&c.world.pm);

    v.insert("openflow.decode_ns", fl.decode_ns);
    v.insert("openflow.encode_ns", fl.encode_ns);
    v.insert("packet.parse_ns", fl.parse_ns);
    v.insert("openflow.ctrl_bytes_per_flow", fl.ctrl_bytes_per_flow);
    v.insert("openflow.splice_ns", fl.splice_ns);
    v.insert("erm.resolve_ns", fl.resolve_ns);
    v.insert("erm.bindings", dfi.with_erm(|e| e.binding_count()) as f64);
    v.insert("policy.classify_ns", fl.classify_ns);
    v.insert("policy.compile_us", fl.compile_us);
    v.insert("policy.insert_us", insert_us);
    v.insert("memo.probe_ns", fl.memo_probe_ns);
    v.insert("dataplane.control_us_per_flow", fl.dataplane_ns / 1e3);
    v.insert(
        "dataplane.table0_rules",
        c.world
            .snapshots
            .iter()
            .map(|t| t.rules.len())
            .sum::<usize>() as f64,
    );
    v.insert(
        "alloc.per_flow",
        allocs as f64 / findings.len().max(1) as f64,
    );
    v.insert("sim.residual_share", residual);
    for (k, name) in [
        ("reachability", "repair.plan_ms.reachability"),
        ("drift", "repair.plan_ms.drift"),
        ("isolation", "repair.plan_ms.isolation"),
        ("waypoint", "repair.plan_ms.waypoint"),
    ] {
        let mut ms = s.per_kind_ms.get(k).cloned().unwrap_or_default();
        v.insert(name, median(&mut ms));
    }
    v.insert("reach.classes", s.classes as f64);
    v.insert("trace.overhead_share", overhead);
}

/// A `Dfi` over the corpus fabric's switches, loaded with every host's
/// bindings and the corpus policy, plus one TCP punt per corpus host pair.
fn corpus_dfi(spec: &dfi_analyze::ReachSpec, c: &Corpus, seed: u64) -> (Dfi, Vec<Capture>) {
    let mut sim = Sim::new(seed);
    let mut net = Network::new();
    let dfi = Dfi::new(DfiConfig::default());
    let null: ByteSink = Rc::new(|_, _| {});
    let mut dpids: Vec<u64> = spec.hosts.iter().map(|h| h.dpid).collect();
    dpids.sort_unstable();
    dpids.dedup();
    for dpid in dpids {
        let sw = net.add_switch(SwitchConfig::new(dpid));
        let n = null.clone();
        dfi.interpose(&mut sim, &sw, move |_, _| n);
    }
    let mut ops = Vec::new();
    for h in &spec.hosts {
        push_host_bindings(
            &mut ops,
            &h.hostname,
            &h.users,
            h.ip,
            h.mac,
            (h.dpid, h.port),
        );
    }
    let _fresh = dfi.apply_binding_batch(&BindingBatch { epoch: 0, ops });
    for sp in c.world.pm.iter() {
        dfi.insert_policy(&mut sim, sp.rule.clone(), sp.priority, &sp.pdp);
    }
    sim.run_until(sim.now() + Duration::from_secs(1));
    let caps = spec
        .hosts
        .chunks_exact(2)
        .enumerate()
        .map(|(i, pair)| {
            let (a, b) = (&pair[0], &pair[1]);
            Capture {
                dpid: a.dpid,
                in_port: a.port,
                frame: build::tcp_syn(a.mac, b.mac, a.ip, b.ip, 40_000 + i as u16, 445),
            }
        })
        .collect();
    (dfi, caps)
}
