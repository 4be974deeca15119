//! An OpenFlow 1.3 software switch (Open vSwitch surrogate).
//!
//! Implements the multi-table pipeline semantics DFI depends on: packets
//! enter Table 0, `goto_table` chains forward, a table miss punts the packet
//! to the control plane as a `Packet-In`, rules carry cookies and can be
//! flushed by cookie/mask, and flow/table statistics are served over
//! multipart messages. All control-channel traffic is real encoded OpenFlow
//! bytes, so the DFI Proxy genuinely parses and rewrites the wire format.

use crate::flow_table::{ExpiryKind, FlowTable};
use dfi_openflow::{
    port, table, Action, ErrorMsg, FeaturesReply, FlowMod, FlowModCommand, FlowRemoved,
    FlowRemovedReason, FlowStatsEntry, Instruction, Match, Message, MultipartReply,
    MultipartRequest, OfMessage, PacketIn, PacketOut, TableStatsEntry, FLAG_SEND_FLOW_REM,
};
use dfi_packet::PacketHeaders;
use dfi_simnet::{Sim, SimTime};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::time::Duration;

/// A callback delivering raw bytes (OpenFlow messages or Ethernet frames).
///
/// Sinks borrow the bytes: a sender that needs the buffer afterwards (for
/// retransmission or buffer pooling) keeps ownership, and a flooded frame
/// is shared by every port's delivery closure instead of being cloned per
/// port. Receivers that defer work copy exactly the bytes they keep.
pub type ByteSink = Rc<dyn Fn(&mut Sim, &[u8])>;

/// Switch configuration.
#[derive(Clone, Debug)]
pub struct SwitchConfig {
    /// Datapath id.
    pub dpid: u64,
    /// Number of pipeline tables.
    pub n_tables: u8,
    /// Rules per table (hardware switches: 512–8192).
    pub table_capacity: usize,
    /// Per-packet pipeline processing latency.
    pub forwarding_latency: Duration,
    /// One-way latency of the control channel to the control plane.
    pub control_latency: Duration,
}

impl SwitchConfig {
    /// A conventional software switch: 8 tables of 8192 rules, 20 µs
    /// pipeline latency, 200 µs control-channel latency.
    #[must_use]
    pub fn new(dpid: u64) -> SwitchConfig {
        SwitchConfig {
            dpid,
            n_tables: 8,
            table_capacity: 8192,
            forwarding_latency: Duration::from_micros(20),
            control_latency: Duration::from_micros(200),
        }
    }
}

/// Counters the experiments read.
#[derive(Clone, Copy, Debug, Default)]
pub struct SwitchStats {
    /// Frames received on data ports.
    pub frames_in: u64,
    /// Frames emitted on data ports.
    pub frames_out: u64,
    /// Frames dropped (no matching rule allows them, or unparseable).
    pub frames_dropped: u64,
    /// `Packet-In`s sent to the control plane.
    pub packet_ins: u64,
    /// Flow-mods applied.
    pub flow_mods: u64,
    /// Errors sent to the control plane.
    pub errors: u64,
}

struct Port {
    latency: Duration,
    peer: ByteSink,
}

struct Inner {
    config: SwitchConfig,
    tables: Vec<FlowTable>,
    ports: HashMap<u32, Port>,
    to_control: Option<ByteSink>,
    stats: SwitchStats,
    next_xid: u32,
    next_sweep: Option<SimTime>,
}

/// Shared handle to a switch; clones refer to the same switch.
#[derive(Clone)]
pub struct Switch {
    inner: Rc<RefCell<Inner>>,
}

impl Switch {
    /// Creates a switch.
    #[must_use]
    pub fn new(config: SwitchConfig) -> Switch {
        let tables = (0..config.n_tables)
            .map(|_| FlowTable::new(config.table_capacity))
            .collect();
        Switch {
            inner: Rc::new(RefCell::new(Inner {
                config,
                tables,
                ports: HashMap::new(),
                to_control: None,
                stats: SwitchStats::default(),
                next_xid: 1,
                next_sweep: None,
            })),
        }
    }

    /// The datapath id.
    #[must_use]
    pub fn dpid(&self) -> u64 {
        self.inner.borrow().config.dpid
    }

    /// Snapshot of counters.
    #[must_use]
    pub fn stats(&self) -> SwitchStats {
        self.inner.borrow().stats
    }

    /// Number of rules currently in `table_id`.
    #[must_use]
    pub fn table_len(&self, table_id: u8) -> usize {
        self.inner.borrow().tables[usize::from(table_id)].len()
    }

    /// Runs `f` over the entries of `table_id` (test/diagnostic hook).
    pub fn with_table<R>(&self, table_id: u8, f: impl FnOnce(&FlowTable) -> R) -> R {
        f(&self.inner.borrow().tables[usize::from(table_id)])
    }

    /// Attaches a data port: frames output on `port_no` are delivered to
    /// `peer` after `latency`.
    pub fn attach_port(&self, port_no: u32, latency: Duration, peer: ByteSink) {
        assert!(port_no > 0 && port_no < port::MAX, "invalid port number");
        self.inner
            .borrow_mut()
            .ports
            .insert(port_no, Port { latency, peer });
    }

    /// Returns a sink that injects frames into this switch at `port_no`
    /// (what a host NIC or the far end of a link holds).
    #[must_use]
    pub fn ingress(&self, port_no: u32) -> ByteSink {
        let sw = self.clone();
        Rc::new(move |sim, frame| sw.input_frame(sim, port_no, frame.to_vec()))
    }

    /// Connects the control channel and performs the switch's half of the
    /// handshake (sends `Hello`).
    pub fn connect_control(&self, sim: &mut Sim, to_control: ByteSink) {
        self.inner.borrow_mut().to_control = Some(to_control);
        self.send_control(sim, Message::Hello, None);
    }

    /// Returns a sink for bytes arriving *from* the control plane.
    #[must_use]
    pub fn control_ingress(&self) -> ByteSink {
        let sw = self.clone();
        Rc::new(move |sim, bytes| sw.handle_control_bytes(sim, bytes))
    }

    /// Handles an Ethernet frame arriving on `in_port`.
    pub fn input_frame(&self, sim: &mut Sim, in_port: u32, frame: Vec<u8>) {
        let delay = {
            let mut inner = self.inner.borrow_mut();
            inner.stats.frames_in += 1;
            inner.config.forwarding_latency
        };
        let sw = self.clone();
        sim.schedule_in(delay, move |sim| sw.run_pipeline(sim, in_port, frame, 0));
    }

    fn run_pipeline(&self, sim: &mut Sim, in_port: u32, frame: Vec<u8>, start_table: u8) {
        // Resolve the pipeline outcome with a single borrow, then perform
        // I/O (which re-enters the switch via closures) without the borrow.
        enum Outcome {
            Deliver(Vec<u32>),
            Punt(u8),
            Drop,
        }
        let Ok(headers) = PacketHeaders::parse(&frame) else {
            self.inner.borrow_mut().stats.frames_dropped += 1;
            return;
        };
        let now = sim.now();
        let outcome = {
            let mut inner = self.inner.borrow_mut();
            let mut t = start_table;
            let mut outputs: Vec<u32> = Vec::new();
            let mut action_set: Vec<Action> = Vec::new();
            loop {
                let hit = inner.tables[usize::from(t)].lookup(in_port, &headers, frame.len(), now);
                match hit {
                    None => {
                        // Table miss: punt to the control plane (the
                        // testbed's switches are configured miss→controller,
                        // which is what lets DFI see every new flow).
                        break Outcome::Punt(t);
                    }
                    Some(entry) => {
                        let mut next_table = None;
                        for inst in &entry.instructions {
                            match inst {
                                Instruction::ApplyActions(actions) => {
                                    for a in actions {
                                        if let Action::Output { port, .. } = a {
                                            outputs.push(*port);
                                        }
                                    }
                                }
                                Instruction::WriteActions(actions) => {
                                    action_set.extend(actions.iter().cloned());
                                }
                                Instruction::ClearActions => action_set.clear(),
                                Instruction::GotoTable(n) => next_table = Some(*n),
                                Instruction::Other { .. } => {}
                            }
                        }
                        match next_table {
                            Some(n) if n > t && usize::from(n) < inner.tables.len() => t = n,
                            Some(_) | None => {
                                // Pipeline ends: execute the action set.
                                for a in &action_set {
                                    if let Action::Output { port, .. } = a {
                                        outputs.push(*port);
                                    }
                                }
                                if outputs.is_empty() {
                                    break Outcome::Drop;
                                }
                                break Outcome::Deliver(outputs);
                            }
                        }
                    }
                }
            }
        };
        match outcome {
            Outcome::Deliver(outputs) => {
                for out in outputs {
                    self.output(sim, in_port, out, &frame);
                }
            }
            Outcome::Punt(table_id) => self.punt_packet_in(sim, in_port, table_id, frame),
            Outcome::Drop => {
                self.inner.borrow_mut().stats.frames_dropped += 1;
            }
        }
    }

    fn output(&self, sim: &mut Sim, in_port: u32, out_port: u32, frame: &[u8]) {
        match out_port {
            port::FLOOD | port::ALL => {
                let mut targets: Vec<u32> = self
                    .inner
                    .borrow()
                    .ports
                    .keys()
                    .copied()
                    .filter(|&p| p != in_port)
                    .collect();
                // Flood in port order: the port map iterates in an
                // arbitrary per-instance order, and emission order decides
                // same-instant event ordering downstream — left unsorted it
                // makes same-seed runs diverge.
                targets.sort_unstable();
                // One shared copy of the payload; every port's delivery
                // closure holds a reference instead of its own clone.
                let shared: Rc<[u8]> = Rc::from(frame);
                for p in targets {
                    self.output_physical(sim, p, Rc::clone(&shared));
                }
            }
            port::IN_PORT => self.output_physical(sim, in_port, Rc::from(frame)),
            port::CONTROLLER => {
                self.punt_packet_in_reason(
                    sim,
                    in_port,
                    0,
                    frame.to_vec(),
                    dfi_openflow::PacketInReason::Action,
                );
            }
            port::TABLE => {
                // Re-submit through the pipeline (valid from packet-out).
                let sw = self.clone();
                let frame = frame.to_vec();
                sim.schedule_now(move |sim| sw.run_pipeline(sim, in_port, frame, 0));
            }
            p if p < port::MAX => self.output_physical(sim, p, Rc::from(frame)),
            _ => {}
        }
    }

    fn output_physical(&self, sim: &mut Sim, port_no: u32, frame: Rc<[u8]>) {
        let (peer, latency) = {
            let mut inner = self.inner.borrow_mut();
            match inner
                .ports
                .get(&port_no)
                .map(|p| (p.peer.clone(), p.latency))
            {
                Some(out) => {
                    inner.stats.frames_out += 1;
                    out
                }
                None => {
                    inner.stats.frames_dropped += 1;
                    return;
                }
            }
        };
        sim.schedule_in(latency, move |sim| peer(sim, &frame));
    }

    fn punt_packet_in(&self, sim: &mut Sim, in_port: u32, table_id: u8, frame: Vec<u8>) {
        self.punt_packet_in_reason(
            sim,
            in_port,
            table_id,
            frame,
            dfi_openflow::PacketInReason::NoMatch,
        );
    }

    fn punt_packet_in_reason(
        &self,
        sim: &mut Sim,
        in_port: u32,
        table_id: u8,
        frame: Vec<u8>,
        reason: dfi_openflow::PacketInReason,
    ) {
        let connected = self.inner.borrow().to_control.is_some();
        if !connected {
            self.inner.borrow_mut().stats.frames_dropped += 1;
            return;
        }
        self.inner.borrow_mut().stats.packet_ins += 1;
        let mut pi = PacketIn::table_miss(in_port, table_id, frame);
        pi.reason = reason;
        self.send_control(sim, Message::PacketIn(pi), None);
    }

    fn send_control(&self, sim: &mut Sim, body: Message, reply_xid: Option<u32>) {
        let (sink, latency, xid) = {
            let mut inner = self.inner.borrow_mut();
            let sink = match &inner.to_control {
                Some(s) => s.clone(),
                None => return,
            };
            let xid = reply_xid.unwrap_or_else(|| {
                inner.next_xid += 1;
                inner.next_xid
            });
            (sink, inner.config.control_latency, xid)
        };
        let bytes = OfMessage::new(xid, body).encode();
        sim.schedule_in(latency, move |sim| sink(sim, &bytes));
    }

    /// Handles bytes arriving from the control plane (may contain several
    /// framed OpenFlow messages).
    pub fn handle_control_bytes(&self, sim: &mut Sim, bytes: &[u8]) {
        let mut offset = 0;
        while offset < bytes.len() {
            let Some(len) = OfMessage::frame_length(&bytes[offset..]) else {
                break;
            };
            if len < 8 || offset + len > bytes.len() {
                break;
            }
            match OfMessage::decode(&bytes[offset..offset + len]) {
                Ok(msg) => self.handle_control_message(sim, msg),
                Err(_) => {
                    let offending = bytes[offset..offset + len.min(64)].to_vec();
                    self.send_control(
                        sim,
                        Message::Error(ErrorMsg {
                            err_type: 1, // OFPET_BAD_REQUEST
                            code: 1,     // OFPBRC_BAD_TYPE
                            data: offending,
                        }),
                        None,
                    );
                    self.inner.borrow_mut().stats.errors += 1;
                }
            }
            offset += len;
        }
    }

    fn handle_control_message(&self, sim: &mut Sim, msg: OfMessage) {
        let xid = msg.xid;
        match msg.body {
            Message::EchoRequest(data) => {
                self.send_control(sim, Message::EchoReply(data), Some(xid));
            }
            Message::FeaturesRequest => {
                let (dpid, n_tables) = {
                    let inner = self.inner.borrow();
                    (inner.config.dpid, inner.config.n_tables)
                };
                let reply = FeaturesReply {
                    datapath_id: dpid,
                    n_buffers: 0, // we never buffer; packet-ins carry data
                    n_tables,
                    auxiliary_id: 0,
                    capabilities: 0x1 | 0x2 | 0x4, // FLOW_STATS|TABLE_STATS|PORT_STATS
                };
                self.send_control(sim, Message::FeaturesReply(reply), Some(xid));
            }
            Message::BarrierRequest => {
                self.send_control(sim, Message::BarrierReply, Some(xid));
            }
            Message::FlowMod(fm) => self.apply_flow_mod(sim, &fm),
            Message::PacketOut(po) => self.apply_packet_out(sim, &po),
            Message::MultipartRequest(req) => self.answer_multipart(sim, req, xid),
            // Hello completes the handshake; messages a switch does not
            // expect are ignored (a real OVS would error; silence keeps
            // adversarial-controller tests tidy).
            _ => {}
        }
    }

    fn apply_flow_mod(&self, sim: &mut Sim, fm: &FlowMod) {
        let now = sim.now();
        let mut removed: Vec<(u8, crate::flow_table::FlowEntry)> = Vec::new();
        let mut table_full = false;
        {
            let mut inner = self.inner.borrow_mut();
            inner.stats.flow_mods += 1;
            let n = inner.tables.len();
            let targets: Vec<usize> = if fm.table_id == table::ALL {
                (0..n).collect()
            } else if usize::from(fm.table_id) < n {
                vec![usize::from(fm.table_id)]
            } else {
                vec![]
            };
            match fm.command {
                FlowModCommand::Add => {
                    if let Some(&t) = targets.first() {
                        if inner.tables[t].add(fm, now).is_err() {
                            table_full = true;
                        }
                    }
                }
                FlowModCommand::Modify => {
                    for t in targets {
                        inner.tables[t].modify(fm, false);
                    }
                }
                FlowModCommand::ModifyStrict => {
                    for t in targets {
                        inner.tables[t].modify(fm, true);
                    }
                }
                FlowModCommand::Delete => {
                    for t in targets {
                        for e in inner.tables[t].delete(fm) {
                            removed.push((t as u8, e));
                        }
                    }
                }
                FlowModCommand::DeleteStrict => {
                    for t in targets {
                        for e in inner.tables[t].delete_strict(fm) {
                            removed.push((t as u8, e));
                        }
                    }
                }
            }
        }
        if table_full {
            self.inner.borrow_mut().stats.errors += 1;
            self.send_control(
                sim,
                Message::Error(ErrorMsg {
                    err_type: 5, // OFPET_FLOW_MOD_FAILED
                    code: 0,     // OFPFMFC_TABLE_FULL
                    data: Vec::new(),
                }),
                None,
            );
        }
        let now = sim.now();
        for (table_id, e) in removed {
            if e.flags & FLAG_SEND_FLOW_REM != 0 {
                self.send_flow_removed(sim, table_id, &e, FlowRemovedReason::Delete, now);
            }
        }
        self.reschedule_sweep(sim);
    }

    fn send_flow_removed(
        &self,
        sim: &mut Sim,
        table_id: u8,
        e: &crate::flow_table::FlowEntry,
        reason: FlowRemovedReason,
        now: SimTime,
    ) {
        let dur = now - e.installed_at;
        let fr = FlowRemoved {
            cookie: e.cookie,
            priority: e.priority,
            reason,
            table_id,
            duration_sec: dur.as_secs() as u32,
            duration_nsec: dur.subsec_nanos(),
            idle_timeout: e.idle_timeout,
            hard_timeout: e.hard_timeout,
            packet_count: e.packet_count,
            byte_count: e.byte_count,
            mat: e.mat.clone(),
        };
        self.send_control(sim, Message::FlowRemoved(fr), None);
    }

    fn reschedule_sweep(&self, sim: &mut Sim) {
        let deadline = {
            let inner = self.inner.borrow();
            inner
                .tables
                .iter()
                .filter_map(FlowTable::next_deadline)
                .min()
        };
        let Some(deadline) = deadline else { return };
        {
            let mut inner = self.inner.borrow_mut();
            if inner.next_sweep.is_some_and(|t| t <= deadline) {
                return; // an earlier-or-equal sweep is already scheduled
            }
            inner.next_sweep = Some(deadline);
        }
        let sw = self.clone();
        sim.schedule_at(deadline, move |sim| sw.run_sweep(sim));
    }

    fn run_sweep(&self, sim: &mut Sim) {
        let now = sim.now();
        let mut expired: Vec<(u8, crate::flow_table::FlowEntry, ExpiryKind)> = Vec::new();
        {
            let mut inner = self.inner.borrow_mut();
            inner.next_sweep = None;
            for (t, table) in inner.tables.iter_mut().enumerate() {
                for (e, kind) in table.sweep_expired(now) {
                    expired.push((t as u8, e, kind));
                }
            }
        }
        for (table_id, e, kind) in expired {
            if e.flags & FLAG_SEND_FLOW_REM != 0 {
                let reason = match kind {
                    ExpiryKind::Idle => FlowRemovedReason::IdleTimeout,
                    ExpiryKind::Hard => FlowRemovedReason::HardTimeout,
                };
                self.send_flow_removed(sim, table_id, &e, reason, now);
            }
        }
        self.reschedule_sweep(sim);
    }

    fn apply_packet_out(&self, sim: &mut Sim, po: &PacketOut) {
        let in_port = if po.in_port >= port::MAX {
            0
        } else {
            po.in_port
        };
        for a in &po.actions {
            if let Action::Output { port, .. } = a {
                self.output(sim, in_port, *port, &po.data);
            }
        }
    }

    fn answer_multipart(&self, sim: &mut Sim, req: MultipartRequest, xid: u32) {
        let reply = {
            let inner = self.inner.borrow();
            match req {
                MultipartRequest::Flow {
                    table_id,
                    out_port,
                    out_group: _,
                    cookie,
                    cookie_mask,
                    mat,
                } => {
                    let now_entries: Vec<FlowStatsEntry> = inner
                        .tables
                        .iter()
                        .enumerate()
                        .filter(|(t, _)| table_id == table::ALL || *t == usize::from(table_id))
                        .flat_map(|(t, tbl)| {
                            tbl.iter()
                                .filter(|e| {
                                    e.mat.is_subset_of(&mat)
                                        && (cookie_mask == 0
                                            || (e.cookie & cookie_mask) == (cookie & cookie_mask))
                                        && (out_port == port::ANY || {
                                            e.instructions.iter().any(|i| match i {
                                                Instruction::ApplyActions(actions)
                                                | Instruction::WriteActions(actions) => {
                                                    actions.iter().any(|a| {
                                                        matches!(a, Action::Output { port: p, .. } if *p == out_port)
                                                    })
                                                }
                                                _ => false,
                                            })
                                        })
                                })
                                .map(move |e| FlowStatsEntry {
                                    table_id: t as u8,
                                    duration_sec: 0,
                                    duration_nsec: 0,
                                    priority: e.priority,
                                    idle_timeout: e.idle_timeout,
                                    hard_timeout: e.hard_timeout,
                                    flags: e.flags,
                                    cookie: e.cookie,
                                    packet_count: e.packet_count,
                                    byte_count: e.byte_count,
                                    mat: e.mat.clone(),
                                    instructions: e.instructions.clone(),
                                })
                                .collect::<Vec<_>>()
                        })
                        .collect();
                    MultipartReply::Flow(now_entries)
                }
                MultipartRequest::Table => MultipartReply::Table(
                    inner
                        .tables
                        .iter()
                        .enumerate()
                        .map(|(t, tbl)| TableStatsEntry {
                            table_id: t as u8,
                            active_count: tbl.len() as u32,
                            lookup_count: tbl.lookup_count,
                            matched_count: tbl.matched_count,
                        })
                        .collect(),
                ),
                MultipartRequest::PortDesc => {
                    let mut ports: Vec<u32> = inner.ports.keys().copied().collect();
                    ports.sort_unstable();
                    MultipartReply::PortDesc(
                        ports
                            .into_iter()
                            .map(|p| dfi_openflow::PortDescEntry {
                                port_no: p,
                                hw_addr: [0x02, 0xFE, 0, 0, 0, p as u8],
                                name: format!("port{p}"),
                            })
                            .collect(),
                    )
                }
                MultipartRequest::Other { kind, .. } => MultipartReply::Other {
                    kind,
                    body: Vec::new(),
                },
            }
        };
        self.send_control(sim, Message::MultipartReply(reply), Some(xid));
    }

    /// Installs a flow-mod directly (bypassing the control channel); used
    /// by tests and by in-process harnesses that do not need wire fidelity.
    pub fn install(&self, sim: &mut Sim, fm: &FlowMod) {
        self.apply_flow_mod(sim, fm);
    }

    /// A convenience accessor: every cookie currently installed in table 0
    /// (DFI's table), for consistency assertions in tests.
    #[must_use]
    pub fn table0_cookies(&self) -> Vec<u64> {
        self.inner.borrow().tables[0]
            .iter()
            .map(|e| e.cookie)
            .collect()
    }
}

/// Builds the exact-match *allow* rule DFI installs: match the flow
/// precisely, tag with the policy cookie, and hand allowed packets to the
/// controller's first table.
#[must_use]
pub fn dfi_allow_rule(mat: Match, cookie: u64, priority: u16) -> FlowMod {
    FlowMod {
        cookie,
        priority,
        table_id: 0,
        instructions: vec![Instruction::GotoTable(1)],
        ..FlowMod::add()
    }
    .with_match(mat)
}

/// Builds the exact-match *deny* rule DFI installs: match precisely, no
/// instructions — the packet dies at the end of Table 0.
#[must_use]
pub fn dfi_deny_rule(mat: Match, cookie: u64, priority: u16) -> FlowMod {
    FlowMod {
        cookie,
        priority,
        table_id: 0,
        instructions: vec![],
        ..FlowMod::add()
    }
    .with_match(mat)
}

/// Small builder helper for [`FlowMod`].
trait WithMatch {
    fn with_match(self, mat: Match) -> Self;
}

impl WithMatch for FlowMod {
    fn with_match(mut self, mat: Match) -> Self {
        self.mat = mat;
        self
    }
}
