//! Property tests for the host substrate: the virtio queues and the TCP
//! peer must stay internally consistent under arbitrary input sequences.

use proptest::prelude::*;

use vampos_host::{Frame, HostNetwork, Payload, TcpFlags, VirtQueue};

#[derive(Debug, Clone)]
enum QueueOp {
    Submit(u32),
    Service,
    Complete,
    GuestReset,
    HostReset,
}

fn queue_op() -> impl Strategy<Value = QueueOp> {
    prop_oneof![
        4 => any::<u32>().prop_map(QueueOp::Submit),
        3 => Just(QueueOp::Service),
        3 => Just(QueueOp::Complete),
        1 => Just(QueueOp::GuestReset),
        1 => Just(QueueOp::HostReset),
    ]
}

proptest! {
    /// Completions come back FIFO with matching ids — as long as no
    /// one-sided (guest) reset has happened. A guest reset *poisons* the
    /// queue: stale completions may be misattributed to new requests (the
    /// very §VIII hazard the model exists to exhibit), and only a host
    /// device reset restores trustworthy service.
    #[test]
    fn virtqueue_completions_are_fifo(ops in proptest::collection::vec(queue_op(), 1..80)) {
        let mut q: VirtQueue<u32, u64> = VirtQueue::new(8);
        let mut inflight: std::collections::VecDeque<(u64, u32)> =
            std::collections::VecDeque::new();
        let mut poisoned = false;
        for op in ops {
            match op {
                QueueOp::Submit(v) => {
                    if let Ok(id) = q.guest_submit(v) {
                        inflight.push_back((id, v));
                    }
                }
                QueueOp::Service => {
                    q.host_service(|req| req as u64 * 3);
                    if q.is_desynced() {
                        inflight.clear(); // lost I/O
                    }
                }
                QueueOp::Complete => {
                    let completion = q.guest_complete();
                    if poisoned {
                        continue; // misattribution is expected while poisoned
                    }
                    if let Some((id, resp)) = completion {
                        if let Some((want_id, want_req)) = inflight.pop_front() {
                            prop_assert_eq!(id, want_id);
                            prop_assert_eq!(resp, want_req as u64 * 3);
                        }
                    }
                }
                QueueOp::GuestReset => {
                    // With any prior traffic, guest and host disagree from
                    // here on — exactly why VIRTIO is unrebootable alone.
                    if q.kicks() > 0 {
                        poisoned = true;
                    }
                    q.guest_reset();
                    inflight.clear();
                }
                QueueOp::HostReset => {
                    q.host_device_reset();
                    inflight.clear();
                    poisoned = false;
                }
            }
        }
        // A host device reset always restores a working queue.
        q.host_device_reset();
        let id = q.guest_submit(7).unwrap();
        q.host_service(|req| req as u64 * 3);
        prop_assert_eq!(q.guest_complete(), Some((id, 21)));
    }

    /// The TCP peer never panics and never delivers bytes it was not sent,
    /// no matter what (possibly garbage) frames the guest produces.
    #[test]
    fn netpeer_is_robust_to_arbitrary_guest_frames(
        frames in proptest::collection::vec(
            (any::<u16>(), any::<u16>(), any::<u32>(), any::<u32>(),
             any::<bool>(), any::<bool>(), any::<bool>(), any::<bool>(),
             proptest::collection::vec(any::<u8>(), 0..32)),
            1..60,
        )
    ) {
        let mut net = HostNetwork::new();
        let conn = net.connect(80);
        for (src, dst, seq, ack, syn, ackf, fin, rst, payload) in frames {
            net.deliver_from_guest(Frame {
                src_port: src,
                dst_port: dst,
                seq,
                ack,
                flags: TcpFlags { syn, ack: ackf, fin, rst },
                payload: Payload::from(payload),
            });
            // Drain so the wire queue stays bounded.
            while net.take_frame_for_guest().is_some() {}
        }
        // The connection ended in *some* coherent state and recv still works.
        let _ = net.state(conn).unwrap();
        let _ = net.recv(conn).unwrap();
    }
}
