//! A reactive SDN controller (ONOS 1.13 surrogate) plus adversarial
//! variants used to demonstrate DFI's controller-obliviousness.
//!
//! The controller speaks real OpenFlow 1.3 bytes over its switch
//! connections. Its forwarding application is a classic reactive L2
//! learning switch, which is what the paper's testbed ran: on `Packet-In`
//! it learns the source MAC's port, installs a forwarding rule for known
//! destinations in *its* first table (the DFI Proxy transparently shifts
//! that to physical table 1), and packet-outs the triggering packet.
//!
//! Crucially, the controller is written with **no knowledge of DFI**: it
//! addresses tables starting at 0 and expects its rules to be matched
//! first. That it keeps working unmodified behind the proxy — and that its
//! malicious variants *cannot* affect Table 0 — is the controller-oblivious
//! property under test.

#![warn(missing_docs)]

pub mod topo;

pub use topo::TopologyController;

use dfi_dataplane::ByteSink;
use dfi_openflow::{
    port, Action, FlowMod, FlowModCommand, Instruction, Match, Message, OfMessage, PacketIn,
    PacketOut, NO_BUFFER,
};
use dfi_packet::{MacAddr, PacketHeaders};
use dfi_simnet::{Dist, Sim, Station, StationConfig};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::time::Duration;

/// Cookie value stamped on rules installed by the forwarding app.
pub const FWD_APP_COOKIE: u64 = 0x0F0D;

/// Cookie value stamped on rules installed by malicious behaviors.
pub const EVIL_COOKIE: u64 = 0xE711;

/// Misbehaviors an adversarial controller (or a compromised forwarding
/// app) can exhibit — the threats DFI's proxy interposition defends
/// against.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Misbehavior {
    /// After the handshake, install a maximum-priority allow-everything
    /// rule in the lowest table the controller can name, attempting to
    /// bypass access control.
    InstallAllowAll,
    /// After the handshake, delete every rule in every table it can name,
    /// attempting to flush DFI's access-control rules.
    DeleteAllRules,
    /// Read flow statistics from every table, trying to learn DFI's
    /// Table-0 contents.
    SnoopAllTables,
}

/// Controller configuration.
#[derive(Clone, Debug)]
pub struct ControllerConfig {
    /// Service-time distribution of packet-in processing (the forwarding
    /// app's compute cost).
    pub service_time: Dist,
    /// Worker parallelism of the packet-in pipeline.
    pub workers: usize,
    /// Bound on queued packet-ins.
    pub queue_capacity: usize,
    /// One-way latency for messages the controller sends to a switch.
    pub send_latency: Duration,
    /// Idle timeout (seconds) on installed forwarding rules; 0 = none.
    pub rule_idle_timeout: u16,
    /// Install flow-exact forwarding rules (selector includes L3/L4, as
    /// ONOS reactive forwarding does) instead of destination-MAC rules.
    pub exact_match_rules: bool,
    /// Optional adversarial behaviors to run after each handshake.
    pub misbehaviors: Vec<Misbehavior>,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            // ONOS-like reactive forwarding cost; with the surrounding
            // link/switch costs this lands the paper's 4–6 ms no-DFI TTFB.
            service_time: Dist::normal_ms(2.0, 0.4),
            workers: 32,
            queue_capacity: 4096,
            send_latency: Duration::from_micros(200),
            rule_idle_timeout: 0,
            exact_match_rules: true,
            misbehaviors: Vec::new(),
        }
    }
}

/// A packet-in the controller actually observed (used by the security
/// evaluation to prove denied flows never reach the controller).
#[derive(Clone, Debug)]
pub struct SeenPacketIn {
    /// Connection it arrived on.
    pub conn: usize,
    /// Table id as the controller saw it (post-proxy-rewrite).
    pub table_id: u8,
    /// Parsed headers of the carried packet, when parseable.
    pub headers: Option<PacketHeaders>,
}

struct Conn {
    to_switch: ByteSink,
    mac_table: HashMap<MacAddr, u32>,
    dpid: Option<u64>,
}

struct Inner {
    config: ControllerConfig,
    conns: Vec<Conn>,
    seen_packet_ins: Vec<SeenPacketIn>,
    seen_messages: Vec<(usize, Message)>,
    next_xid: u32,
    flow_mods_sent: u64,
    packet_outs_sent: u64,
}

/// A shared-handle reactive controller managing any number of switch
/// connections.
#[derive(Clone)]
pub struct Controller {
    inner: Rc<RefCell<Inner>>,
    station: Station,
}

impl Controller {
    /// Creates a controller.
    #[must_use]
    pub fn new(config: ControllerConfig) -> Controller {
        let station = Station::new(StationConfig {
            name: "controller".into(),
            workers: config.workers,
            queue_capacity: config.queue_capacity,
            service_time: config.service_time.clone(),
            contention: 0.0,
            load_inflation: 0.0,
            load_floor: 0.0,
            rate_window: Duration::from_millis(500),
        });
        Controller {
            inner: Rc::new(RefCell::new(Inner {
                config,
                conns: Vec::new(),
                seen_packet_ins: Vec::new(),
                seen_messages: Vec::new(),
                next_xid: 1000,
                flow_mods_sent: 0,
                packet_outs_sent: 0,
            })),
            station,
        }
    }

    /// A controller with default (benign) configuration.
    #[must_use]
    pub fn reactive() -> Controller {
        Controller::new(ControllerConfig::default())
    }

    /// A controller exhibiting the given misbehaviors.
    #[must_use]
    pub fn malicious(misbehaviors: Vec<Misbehavior>) -> Controller {
        Controller::new(ControllerConfig {
            misbehaviors,
            ..ControllerConfig::default()
        })
    }

    /// Opens a connection: `to_switch` carries controller→switch bytes;
    /// the returned sink accepts switch→controller bytes. Initiates the
    /// handshake (Hello + `FeaturesRequest`).
    pub fn connect(&self, sim: &mut Sim, to_switch: ByteSink) -> ByteSink {
        let conn = {
            let mut inner = self.inner.borrow_mut();
            inner.conns.push(Conn {
                to_switch,
                mac_table: HashMap::new(),
                dpid: None,
            });
            inner.conns.len() - 1
        };
        self.send(sim, conn, Message::Hello);
        self.send(sim, conn, Message::FeaturesRequest);
        let ctrl = self.clone();
        Rc::new(move |sim, bytes| ctrl.handle_bytes(sim, conn, bytes))
    }

    fn next_xid(&self) -> u32 {
        let mut inner = self.inner.borrow_mut();
        inner.next_xid += 1;
        inner.next_xid
    }

    fn send(&self, sim: &mut Sim, conn: usize, body: Message) {
        let (sink, latency) = {
            let mut inner = self.inner.borrow_mut();
            match &body {
                Message::FlowMod(_) => inner.flow_mods_sent += 1,
                Message::PacketOut(_) => inner.packet_outs_sent += 1,
                _ => {}
            }
            (
                inner.conns[conn].to_switch.clone(),
                inner.config.send_latency,
            )
        };
        let bytes = OfMessage::new(self.next_xid(), body).encode();
        sim.schedule_in(latency, move |sim| sink(sim, &bytes));
    }

    fn handle_bytes(&self, sim: &mut Sim, conn: usize, bytes: &[u8]) {
        let mut offset = 0;
        while offset < bytes.len() {
            let Some(len) = OfMessage::frame_length(&bytes[offset..]) else {
                break;
            };
            if len < 8 || offset + len > bytes.len() {
                break;
            }
            if let Ok(msg) = OfMessage::decode(&bytes[offset..offset + len]) {
                self.handle_message(sim, conn, msg.body);
            }
            offset += len;
        }
    }

    fn handle_message(&self, sim: &mut Sim, conn: usize, body: Message) {
        self.inner
            .borrow_mut()
            .seen_messages
            .push((conn, body.clone()));
        match body {
            Message::FeaturesReply(fr) => {
                self.inner.borrow_mut().conns[conn].dpid = Some(fr.datapath_id);
                self.run_misbehaviors(sim, conn);
            }
            Message::EchoRequest(data) => self.send(sim, conn, Message::EchoReply(data)),
            Message::PacketIn(pi) => {
                // Queue behind the forwarding app's worker pool, then react.
                let ctrl = self.clone();
                self.station.submit(sim, move |sim| {
                    ctrl.react_to_packet_in(sim, conn, &pi);
                });
            }
            _ => {}
        }
    }

    fn react_to_packet_in(&self, sim: &mut Sim, conn: usize, pi: &PacketIn) {
        let headers = PacketHeaders::parse(&pi.data).ok();
        self.inner.borrow_mut().seen_packet_ins.push(SeenPacketIn {
            conn,
            table_id: pi.table_id,
            headers: headers.clone(),
        });
        let Some(headers) = headers else { return };
        let Some(in_port) = pi.in_port() else { return };

        // Learn the source.
        self.inner.borrow_mut().conns[conn]
            .mac_table
            .insert(headers.eth_src, in_port);

        let out = if headers.eth_dst.is_multicast() {
            None
        } else {
            self.inner.borrow().conns[conn]
                .mac_table
                .get(&headers.eth_dst)
                .copied()
        };
        match out {
            Some(out_port) => {
                // Install a forwarding rule in the controller's first table
                // (which DFI's proxy maps to physical table 1), then release
                // the packet toward its destination.
                let (idle, exact) = {
                    let inner = self.inner.borrow();
                    (
                        inner.config.rule_idle_timeout,
                        inner.config.exact_match_rules,
                    )
                };
                let mat = if exact {
                    Match::exact_from_headers(in_port, &headers)
                } else {
                    Match {
                        eth_dst: Some(headers.eth_dst),
                        ..Match::default()
                    }
                };
                let fm = FlowMod {
                    table_id: 0,
                    command: FlowModCommand::Add,
                    priority: 10,
                    idle_timeout: idle,
                    cookie: FWD_APP_COOKIE,
                    mat,
                    instructions: vec![Instruction::ApplyActions(vec![Action::output(out_port)])],
                    ..FlowMod::add()
                };
                self.send(sim, conn, Message::FlowMod(fm));
                let po = PacketOut {
                    buffer_id: NO_BUFFER,
                    in_port,
                    actions: vec![Action::output(out_port)],
                    data: pi.data.clone(),
                };
                self.send(sim, conn, Message::PacketOut(po));
            }
            None => {
                // Unknown destination (or broadcast): flood.
                let po = PacketOut {
                    buffer_id: NO_BUFFER,
                    in_port,
                    actions: vec![Action::output(port::FLOOD)],
                    data: pi.data.clone(),
                };
                self.send(sim, conn, Message::PacketOut(po));
            }
        }
    }

    fn run_misbehaviors(&self, sim: &mut Sim, conn: usize) {
        let misbehaviors = self.inner.borrow().config.misbehaviors.clone();
        for m in misbehaviors {
            match m {
                Misbehavior::InstallAllowAll => {
                    let fm = FlowMod {
                        table_id: 0, // the lowest table the controller can name
                        command: FlowModCommand::Add,
                        priority: u16::MAX,
                        cookie: EVIL_COOKIE,
                        mat: Match::any(),
                        instructions: vec![Instruction::ApplyActions(vec![Action::output(
                            port::FLOOD,
                        )])],
                        ..FlowMod::add()
                    };
                    self.send(sim, conn, Message::FlowMod(fm));
                }
                Misbehavior::DeleteAllRules => {
                    let fm = FlowMod {
                        table_id: dfi_openflow::table::ALL,
                        command: FlowModCommand::Delete,
                        cookie: 0,
                        cookie_mask: 0,
                        mat: Match::any(),
                        ..FlowMod::add()
                    };
                    self.send(sim, conn, Message::FlowMod(fm));
                }
                Misbehavior::SnoopAllTables => {
                    self.send(
                        sim,
                        conn,
                        Message::MultipartRequest(dfi_openflow::MultipartRequest::all_flows()),
                    );
                }
            }
        }
    }

    /// Packet-ins the controller's forwarding app has observed.
    #[must_use]
    pub fn seen_packet_ins(&self) -> Vec<SeenPacketIn> {
        self.inner.borrow().seen_packet_ins.clone()
    }

    /// Every message observed, per connection (for snooping analysis).
    #[must_use]
    pub fn seen_messages(&self) -> Vec<(usize, Message)> {
        self.inner.borrow().seen_messages.clone()
    }

    /// Flow-mods sent so far.
    #[must_use]
    pub fn flow_mods_sent(&self) -> u64 {
        self.inner.borrow().flow_mods_sent
    }

    /// Packet-outs sent so far.
    #[must_use]
    pub fn packet_outs_sent(&self) -> u64 {
        self.inner.borrow().packet_outs_sent
    }

    /// The learned MAC table of a connection (diagnostics).
    #[must_use]
    pub fn mac_table(&self, conn: usize) -> HashMap<MacAddr, u32> {
        self.inner.borrow().conns[conn].mac_table.clone()
    }

    /// The datapath id learned during the handshake, if completed.
    #[must_use]
    pub fn dpid_of(&self, conn: usize) -> Option<u64> {
        self.inner.borrow().conns[conn].dpid
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfi_dataplane::{Network, SwitchConfig};
    use dfi_packet::headers::build;
    use std::net::Ipv4Addr;

    fn mac(i: u32) -> MacAddr {
        MacAddr::from_index(i)
    }

    fn syn(src: u32, dst: u32) -> Vec<u8> {
        build::tcp_syn(
            mac(src),
            mac(dst),
            Ipv4Addr::new(10, 0, 0, src as u8),
            Ipv4Addr::new(10, 0, 0, dst as u8),
            40_000,
            80,
        )
    }

    type HostLog = Rc<RefCell<Vec<Vec<u8>>>>;
    type TestRig = (
        Sim,
        dfi_dataplane::Switch,
        Controller,
        dfi_dataplane::Tx,
        dfi_dataplane::Tx,
        HostLog,
        HostLog,
    );

    /// One switch, two hosts, controller attached directly (no proxy).
    fn rig() -> TestRig {
        let mut sim = Sim::new(11);
        let mut net = Network::new();
        let sw = net.add_switch(SwitchConfig::new(1));
        let rx1 = Rc::new(RefCell::new(Vec::new()));
        let rx2 = Rc::new(RefCell::new(Vec::new()));
        let r1 = rx1.clone();
        let r2 = rx2.clone();
        let lat = Duration::from_micros(50);
        let tx1 = net.attach_host(
            &sw,
            1,
            lat,
            Rc::new(move |_, f: &[u8]| r1.borrow_mut().push(f.to_vec())),
        );
        let tx2 = net.attach_host(
            &sw,
            2,
            lat,
            Rc::new(move |_, f: &[u8]| r2.borrow_mut().push(f.to_vec())),
        );
        let ctrl = Controller::reactive();
        let from_switch = ctrl.connect(&mut sim, sw.control_ingress());
        sw.connect_control(&mut sim, from_switch);
        sim.run();
        (sim, sw, ctrl, tx1, tx2, rx1, rx2)
    }

    #[test]
    fn handshake_learns_dpid() {
        let (_sim, _sw, ctrl, ..) = rig();
        assert_eq!(ctrl.dpid_of(0), Some(1));
    }

    #[test]
    fn unknown_destination_is_flooded() {
        let (mut sim, _sw, ctrl, tx1, _tx2, rx1, rx2) = rig();
        tx1.send(&mut sim, syn(1, 2));
        sim.run();
        assert_eq!(rx2.borrow().len(), 1, "flood reaches host 2");
        assert_eq!(rx1.borrow().len(), 0, "not back out the ingress");
        assert_eq!(ctrl.mac_table(0).get(&mac(1)), Some(&1));
        assert_eq!(ctrl.packet_outs_sent(), 1);
        assert_eq!(ctrl.flow_mods_sent(), 0);
    }

    #[test]
    fn known_destination_gets_flow_rule_and_direct_delivery() {
        let (mut sim, sw, ctrl, tx1, tx2, rx1, rx2) = rig();
        // Prime: host1 → host2 (flood; learns host1).
        tx1.send(&mut sim, syn(1, 2));
        sim.run();
        // Reply: host2 → host1 (dst known → rule + packet-out).
        tx2.send(&mut sim, syn(2, 1));
        sim.run();
        assert_eq!(rx1.borrow().len(), 1);
        assert_eq!(ctrl.flow_mods_sent(), 1);
        assert_eq!(
            sw.table_len(0),
            1,
            "controller rule landed in table 0 (no proxy here)"
        );
        // Third packet host1→host2: dst now known → second rule.
        tx1.send(&mut sim, syn(1, 2));
        sim.run();
        assert_eq!(rx2.borrow().len(), 2);
        assert_eq!(ctrl.flow_mods_sent(), 2);
    }

    #[test]
    fn rule_matched_traffic_skips_controller() {
        let (mut sim, _sw, ctrl, tx1, tx2, _rx1, rx2) = rig();
        tx1.send(&mut sim, syn(1, 2));
        sim.run();
        tx2.send(&mut sim, syn(2, 1));
        sim.run();
        tx1.send(&mut sim, syn(1, 2)); // installs 1→2 rule
        sim.run();
        let before = ctrl.seen_packet_ins().len();
        tx1.send(&mut sim, syn(1, 2)); // should match in hardware
        sim.run();
        assert_eq!(ctrl.seen_packet_ins().len(), before);
        assert_eq!(rx2.borrow().len(), 3);
    }

    #[test]
    fn broadcast_is_flooded_not_learned_as_destination() {
        let (mut sim, _sw, ctrl, tx1, _tx2, _rx1, rx2) = rig();
        let frame = build::udp(
            mac(1),
            MacAddr::BROADCAST,
            Ipv4Addr::new(0, 0, 0, 0),
            Ipv4Addr::BROADCAST,
            68,
            67,
            vec![0; 8],
        );
        tx1.send(&mut sim, frame);
        sim.run();
        assert_eq!(rx2.borrow().len(), 1);
        assert_eq!(ctrl.flow_mods_sent(), 0);
    }

    #[test]
    fn malicious_allow_all_targets_lowest_visible_table() {
        let mut sim = Sim::new(3);
        let mut net = Network::new();
        let sw = net.add_switch(SwitchConfig::new(7));
        let ctrl = Controller::malicious(vec![Misbehavior::InstallAllowAll]);
        let from_switch = ctrl.connect(&mut sim, sw.control_ingress());
        sw.connect_control(&mut sim, from_switch);
        sim.run();
        // Without a proxy, the attack lands in physical table 0 — this is
        // the vulnerable baseline the DFI proxy exists to prevent.
        assert_eq!(sw.table_len(0), 1);
        assert_eq!(sw.table0_cookies(), vec![EVIL_COOKIE]);
    }

    #[test]
    fn malicious_delete_all_flushes_tables_without_proxy() {
        let mut sim = Sim::new(3);
        let mut net = Network::new();
        let sw = net.add_switch(SwitchConfig::new(7));
        sw.install(
            &mut sim,
            &dfi_dataplane::dfi_allow_rule(Match::any(), 0xD0F1, 100),
        );
        let ctrl = Controller::malicious(vec![Misbehavior::DeleteAllRules]);
        let from_switch = ctrl.connect(&mut sim, sw.control_ingress());
        sw.connect_control(&mut sim, from_switch);
        sim.run();
        assert_eq!(sw.table_len(0), 0, "unproxied controller wipes table 0");
    }

    #[test]
    fn garbage_bytes_are_tolerated() {
        let (mut sim, _sw, ctrl, ..) = rig();
        let sink = ctrl.connect(&mut sim, Rc::new(|_, _| {}));
        sink(&mut sim, &[0xFF, 0xFF]); // garbage
        sink(&mut sim, &[]);
        sim.run();
        assert!(ctrl.dpid_of(1).is_none());
    }
}
