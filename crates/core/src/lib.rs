//! Dynamic Flow Isolation (DFI): controller-oblivious, event-driven,
//! fine-grained network access control for OpenFlow 1.3 SDNs.
//!
//! This crate is the paper's primary contribution — a faithful
//! reimplementation of the DSN 2019 system *"Controller-Oblivious Dynamic
//! Access Control in Software-Defined Networks"*:
//!
//! * [`policy`] — rules over high-level identifiers (usernames, hostnames,
//!   …) with wildcards; the Policy Manager with insert-time conflict
//!   detection and revocation.
//! * [`erm`] — the Entity Resolution Manager: the four identifier-binding
//!   classes, fed only by authoritative sources, resolved *upward* at
//!   flow-decision time; anti-spoofing consistency checks.
//! * [`pdp`] — Policy Decision Points: baseline, S-RBAC, AT-RBAC
//!   (authentication-triggered, the policy DFI uniquely enables), and
//!   quarantine.
//! * [`rewrite`] — the table-id shifting that hides Table 0 from the
//!   controller.
//! * [`Dfi`] — the assembled control plane: the proxy that interposes
//!   between switches and the controller, and the Policy Compilation Point
//!   that turns packet-ins into exact-match, cookie-tagged Table-0 rules.
//! * [`events`] — sensor events and message-bus wiring.
//! * [`par`] — the per-dpid sharded front-end ([`ParallelShardedDfi`])
//!   scaling the proxy to fleet-sized fabrics over one worker thread per
//!   shard, with epoch-barrier snapshot fanout and epoch-stamped
//!   cross-shard binding batches.
//!
//! # Quick start
//!
//! ```
//! use dfi_core::{Dfi, DfiConfig};
//! use dfi_core::policy::{PolicyRule, EndpointPattern};
//! use dfi_core::pdp::priority;
//! use dfi_simnet::Sim;
//!
//! let mut sim = Sim::new(1);
//! let dfi = Dfi::with_defaults();
//! // "Any machine Alice is using may talk to any machine Bob is using."
//! dfi.insert_policy(
//!     &mut sim,
//!     PolicyRule::allow(EndpointPattern::user("alice"), EndpointPattern::user("bob")),
//!     priority::AT_RBAC,
//!     "example-pdp",
//! );
//! assert_eq!(dfi.with_pm(|pm| pm.len()), 1);
//! ```

#![warn(missing_docs)]

mod dfi;
pub mod erm;
pub mod events;
pub mod par;
pub mod pdp;
pub mod policy;
pub mod rewrite;

pub use dfi::{
    binding_op_of_event, BindingBatch, BindingOp, BufPool, Dfi, DfiConfig, DfiMetrics, SnapshotGate,
};
pub use par::{
    CookieSets, DrainReport, FleetReport, HostDeliveries, ObserveFn, Outbox, ParSnapshotGate,
    ParallelShardedDfi, RelayFrame, ShardFanoutMetrics, WorkerWorld, WorldBuilder,
    SNAPSHOT_RETENTION,
};
// Exported for the criterion bench harness; not part of the stable API.
#[doc(hidden)]
pub use dfi::{CachedDecision, DecisionCache, FlowKey};
