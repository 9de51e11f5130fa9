//! The traced fleet drive loop: [`vampos_cluster::Fleet::run`]'s event loop
//! rebuilt step by step from the cluster crate's public drive API
//! ([`Fleet::begin_front`], [`vampos_cluster::FrontDrive`],
//! [`EventHeap`]), with a span around every call into the crate.
//!
//! Popping events in the same heap order and making the same calls
//! reproduces [`Fleet::run`] exactly; the benchmark checks that the two
//! reports are equal, so the traced run measures the same program as the
//! untraced one.

use vampos_cluster::{EventClass, EventHeap, Fleet, FleetRunReport, Policy};
use vampos_ukernel::OsError;

use crate::spans::Tracer;
use crate::stats::Samples;
use crate::workload::Spec;

/// What the step-wise drive loop counted at the cluster boundary.
#[derive(Debug, Clone, Default)]
pub struct StepStats {
    /// Host time of every `FrontDrive::dispatch` call.
    pub dispatch: Samples,
    /// Heap allocations made inside `dispatch` calls.
    pub dispatch_allocs: u64,
    /// Events popped off the heap.
    pub heap_events: u64,
    /// Maintenance ops fired through `FrontDrive::fire_op`.
    pub plan_ops: u64,
    /// Summed host time of those `fire_op` calls.
    pub fire_op_ns: u64,
}

/// Runs `spec`'s load and plan on `fleet` step by step.
///
/// # Errors
///
/// Propagates unrecovered simulated failures, like [`Fleet::run`].
pub fn run(
    fleet: &mut Fleet,
    spec: &Spec,
    tr: &mut Tracer,
) -> Result<(FleetRunReport, StepStats), OsError> {
    let load = spec.load();
    let mut st = StepStats::default();
    let mut drive = tr.span("cluster.begin_front", || {
        fleet.begin_front(&load, Policy::RecoveryAware)
    });
    let started = drive.started();
    let ops = spec.fleet_plan().into_firing_order();

    let mut heap = EventHeap::default();
    tr.begin("cluster.heap_seed");
    // Plan events first, in firing order, then one arrival per client:
    // the push order Fleet::run uses, which fixes the sequence tiebreak.
    for op in &ops {
        heap.push(started + op.at, EventClass::Plan, op.instance as u64);
    }
    if load.requests_per_client > 0 {
        for i in 0..drive.client_count() {
            heap.push(drive.first_due(i), EventClass::Arrival, i as u64);
        }
    }
    tr.end();

    let mut op_idx = 0;
    while let Some(ev) = tr.span("cluster.heap_pop", || heap.pop()) {
        st.heap_events += 1;
        match ev.class {
            EventClass::Plan => {
                let op = &ops[op_idx];
                op_idx += 1;
                tr.begin("cluster.fire_op");
                let fired = drive.fire_op(fleet, op);
                st.fire_op_ns += tr.end().ns;
                st.plan_ops += 1;
                if let Some(close) = fired? {
                    tr.span("cluster.heap_push", || {
                        heap.push(close, EventClass::Window, op.instance as u64)
                    });
                }
            }
            EventClass::Arrival => {
                let idx = ev.actor as usize;
                tr.begin("cluster.dispatch");
                let dispatched = drive.dispatch(fleet, idx, ev.at);
                let closed = tr.end();
                st.dispatch.push(closed.ns);
                st.dispatch_allocs += closed.allocs;
                dispatched?;
                // Open loop: the request completes in the arrival arm and
                // the client's next request is due on its grid.
                drive.note_completed();
                let sent = drive.sent(idx);
                if sent < load.requests_per_client {
                    let next = load.shape.next_due(ev.at, started, sent, load.think_time);
                    tr.span("cluster.heap_push", || {
                        heap.push(next, EventClass::Arrival, ev.actor)
                    });
                }
            }
            EventClass::Completion => {
                unreachable!("open-loop workloads schedule no completion events")
            }
            EventClass::Window => tr.span("cluster.window_close", || {
                fleet.note_window_close(ev.actor as usize, ev.at)
            }),
        }
    }
    let report = tr.span("cluster.finish", || drive.finish(fleet));
    Ok((report, st))
}
