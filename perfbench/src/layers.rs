//! Per-layer replays: each layer's public entry point timed per call on
//! the workload's captured inputs, against a loaded unsharded oracle `Dfi`.

use std::net::Ipv4Addr;
use std::rc::Rc;
use std::time::Duration;

use dfi_core::erm::Binding;
use dfi_core::pdp::priority::QUARANTINE;
use dfi_core::policy::{EndpointPattern, FlowView, PolicyManager, PolicyRule, PolicySnapshot};
use dfi_core::rewrite::{rewrite_controller_frame_in_place, rewrite_switch_frame_in_place};
use dfi_core::{BindingOp, DecisionCache, Dfi, FlowKey};
use dfi_dataplane::{ByteSink, Switch, SwitchConfig};
use dfi_openflow::{FlowMod, Instruction, Match, Message, OfMessage, PacketIn};
use dfi_packet::headers::PacketHeaders;
use dfi_packet::MacAddr;
use dfi_simnet::Sim;

use crate::report::time_per_call;

/// One captured punt: the Ethernet frame and where it entered.
#[derive(Clone)]
pub struct Capture {
    pub dpid: u64,
    pub in_port: u32,
    pub frame: Vec<u8>,
}

/// Per-call costs of the flow-setup layers (nanoseconds unless named).
#[derive(Default, Clone, Copy)]
pub struct FlowLayerCosts {
    pub parse_ns: f64,
    pub decode_ns: f64,
    pub encode_ns: f64,
    pub splice_ns: f64,
    pub resolve_ns: f64,
    pub classify_ns: f64,
    pub memo_probe_ns: f64,
    pub dataplane_ns: f64,
    pub compile_us: f64,
    pub ctrl_bytes_per_flow: f64,
}

/// Minimum calls and seconds per replayed layer.
const CALLS: usize = 4096;
const SECS: f64 = 0.15;

/// Replays every flow-setup layer on `caps` against `dfi`.
pub fn replay_flow_layers(dfi: &Dfi, caps: &[Capture]) -> FlowLayerCosts {
    assert!(!caps.is_empty(), "layer replay needs captured flows");
    let n = caps.len();
    let headers: Vec<PacketHeaders> = caps
        .iter()
        .map(|c| PacketHeaders::parse(&c.frame).expect("captured frames parse"))
        .collect();
    let pin_frames: Vec<Vec<u8>> = caps
        .iter()
        .map(|c| {
            OfMessage::new(
                7,
                Message::PacketIn(PacketIn::table_miss(c.in_port, 0, c.frame.clone())),
            )
            .encode()
        })
        .collect();
    let installs: Vec<(OfMessage, OfMessage)> = caps
        .iter()
        .zip(&headers)
        .enumerate()
        .map(|(i, (c, h))| {
            let fm = FlowMod {
                cookie: 1 + i as u64,
                priority: 1000,
                mat: Match::exact_from_headers(c.in_port, h),
                instructions: vec![Instruction::GotoTable(1)],
                ..FlowMod::add()
            };
            (
                OfMessage::new(i as u32, Message::FlowMod(fm)),
                OfMessage::new(i as u32, Message::BarrierRequest),
            )
        })
        .collect();
    // The controller's own install for the same flow, in its table 0 (the
    // proxy shifts it into physical table 1).
    let ctrl_frames: Vec<Vec<u8>> = caps
        .iter()
        .zip(&headers)
        .map(|(c, h)| {
            let fm = FlowMod {
                priority: 10,
                mat: Match::exact_from_headers(c.in_port, h),
                ..FlowMod::add()
            };
            OfMessage::new(9, Message::FlowMod(fm)).encode()
        })
        .collect();
    let mut buf = Vec::with_capacity(512);
    let mut install_bytes = Vec::with_capacity(n);
    for (fm, barrier) in &installs {
        buf.clear();
        fm.encode_into(&mut buf);
        barrier.encode_into(&mut buf);
        install_bytes.push(buf.clone());
    }

    let parse_ns = time_per_call(CALLS, SECS, |i| {
        std::hint::black_box(PacketHeaders::parse(std::hint::black_box(&caps[i % n].frame)).ok());
    });
    let decode_ns = time_per_call(CALLS, SECS, |i| {
        std::hint::black_box(OfMessage::decode(std::hint::black_box(&pin_frames[i % n])).ok());
    });
    let encode_ns = time_per_call(CALLS, SECS, |i| {
        let (fm, barrier) = &installs[i % n];
        buf.clear();
        fm.encode_into(&mut buf);
        barrier.encode_into(&mut buf);
        std::hint::black_box(&buf);
    });
    let tables = SwitchConfig::new(1).n_tables;
    let splice_ns = time_per_call(CALLS, SECS, |i| {
        // One switch-side packet-in and one controller-side install per
        // call: the two frames a reactive flow setup splices.
        buf.clear();
        buf.extend_from_slice(&pin_frames[i % n]);
        std::hint::black_box(rewrite_switch_frame_in_place(&mut buf));
        buf.clear();
        buf.extend_from_slice(&ctrl_frames[i % n]);
        std::hint::black_box(rewrite_controller_frame_in_place(&mut buf, tables));
    }) / 2.0;
    let flows: Vec<FlowView> = caps
        .iter()
        .zip(&headers)
        .map(|(c, h)| {
            let (src, dst) = dfi.with_erm(|erm| erm.resolve_flow(h, c.dpid, c.in_port));
            FlowView {
                ethertype: h.ethertype.to_u16(),
                ip_proto: h.ip_proto.map(|p| p.0),
                src,
                dst,
            }
        })
        .collect();
    let resolve_ns = time_per_call(CALLS, SECS, |i| {
        let (c, h) = (&caps[i % n], &headers[i % n]);
        std::hint::black_box(dfi.with_erm(|erm| erm.resolve_flow(h, c.dpid, c.in_port)));
    });
    let snap = dfi.snapshot();
    let classify_ns = time_per_call(CALLS, SECS, |i| {
        std::hint::black_box(snap.classify(std::hint::black_box(&flows[i % n])));
    });
    let keys: Vec<FlowKey> = caps
        .iter()
        .zip(&headers)
        .map(|(c, h)| FlowKey::new(h, c.dpid, c.in_port))
        .collect();
    let mut memo = DecisionCache::with_capacity(2 * n + 16);
    for (k, f) in keys.iter().zip(&flows) {
        memo.insert(k.clone(), snap.classify(f), false, snap.epoch());
    }
    let memo_probe_ns = time_per_call(CALLS, SECS, |i| {
        std::hint::black_box(memo.lookup(std::hint::black_box(&keys[i % n])));
    });
    let mut sim = Sim::new(1);
    let sw = Switch::new(SwitchConfig::new(1));
    let null: ByteSink = Rc::new(|_, _| {});
    sw.connect_control(&mut sim, null);
    sim.run();
    let dataplane_ns = time_per_call(CALLS, SECS, |i| {
        sw.handle_control_bytes(&mut sim, &install_bytes[i % n]);
        if i % 256 == 255 {
            sim.run_until(sim.now() + Duration::from_millis(1));
        }
    });
    let compile_us = time_per_call(8, SECS, |i| {
        std::hint::black_box(dfi.with_pm(|pm| PolicySnapshot::compile(pm, 1 + i as u64)));
    }) / 1e3;
    let ctrl_bytes_per_flow = pin_frames
        .iter()
        .zip(&install_bytes)
        .map(|(p, i)| (p.len() + i.len()) as f64)
        .sum::<f64>()
        / n as f64;
    FlowLayerCosts {
        parse_ns,
        decode_ns,
        encode_ns,
        splice_ns,
        resolve_ns,
        classify_ns,
        memo_probe_ns,
        dataplane_ns,
        compile_us,
        ctrl_bytes_per_flow,
    }
}

/// `PolicyManager::insert` of a quarantine-style deny plus its revoke, in
/// a copy of `pm`: the policy layer's own cost, without flushes (µs per
/// call, the pair counted as two calls).
pub fn policy_insert_us(pm: &PolicyManager) -> f64 {
    let mut pm = pm.clone();
    time_per_call(64, 0.05, |i| {
        let (id, _flush) = pm.insert(
            PolicyRule::deny(
                EndpointPattern::host(&format!("nohost-{i}")),
                EndpointPattern::any(),
            ),
            QUARANTINE,
            "perfbench",
        );
        let _revoked = pm.revoke(id);
    }) / 2e3
}

/// `a / b`, 0 when nothing was attempted.
pub fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Every binding one host needs: IP↔MAC, host↔IP, user↔host per user, and
/// the MAC's attachment point.
pub fn push_host_bindings(
    ops: &mut Vec<BindingOp>,
    host: &str,
    users: &[String],
    ip: Ipv4Addr,
    mac: MacAddr,
    (dpid, port): (u64, u32),
) {
    ops.push(BindingOp::Bind(Binding::IpMac { ip, mac }));
    ops.push(BindingOp::Bind(Binding::HostIp {
        host: host.to_string(),
        ip,
    }));
    for u in users {
        ops.push(BindingOp::Bind(Binding::UserHost {
            user: u.clone(),
            host: host.to_string(),
        }));
    }
    ops.push(BindingOp::Bind(Binding::MacLocation { mac, dpid, port }));
}
