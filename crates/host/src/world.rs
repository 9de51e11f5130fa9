//! [`HostWorld`]: the bundle of host-side state one guest attaches to.

use std::cell::RefCell;
use std::rc::Rc;

use crate::netpeer::{Frame, HostNetwork};
use crate::ninep::{NinePRequest, NinePResponse, NinePServer};
use crate::virtio::{RingGlitch, VirtQueue, VirtQueueError};

/// Default depth of each virtio ring.
pub const DEFAULT_RING_DEPTH: usize = 256;

/// Everything on the host side of the VM boundary: the 9P file server, the
/// external network, and the virtio queues connecting them to the guest.
///
/// The guest's VIRTIO component is the *only* guest code that should touch
/// the `*_transact`/`net_*` methods — exactly as in a real unikernel, where
/// other components reach the host only through the virtio driver.
#[derive(Debug)]
pub struct HostWorld {
    ninep: NinePServer,
    network: HostNetwork,
    ninep_queue: VirtQueue<NinePRequest, NinePResponse>,
    net_tx_queue: VirtQueue<Frame, ()>,
    net_rx_queue: VirtQueue<(), Option<Frame>>,
}

impl Default for HostWorld {
    fn default() -> Self {
        Self::new()
    }
}

impl HostWorld {
    /// Creates a fresh host world with empty filesystem and network.
    pub fn new() -> Self {
        HostWorld {
            ninep: NinePServer::new(),
            network: HostNetwork::new(),
            ninep_queue: VirtQueue::new(DEFAULT_RING_DEPTH),
            net_tx_queue: VirtQueue::new(DEFAULT_RING_DEPTH),
            net_rx_queue: VirtQueue::new(DEFAULT_RING_DEPTH),
        }
    }

    /// Performs one 9P transaction through the virtio ring.
    ///
    /// # Errors
    ///
    /// Ring errors ([`VirtQueueError`]) when the queue is full or
    /// desynchronised; protocol errors travel inside the
    /// [`NinePResponse::Err`] variant.
    pub fn ninep_transact(&mut self, req: NinePRequest) -> Result<NinePResponse, VirtQueueError> {
        self.ninep_queue.guest_submit(req)?;
        let server = &mut self.ninep;
        self.ninep_queue.host_service(|r| server.handle(r));
        match self.ninep_queue.guest_complete() {
            Some((_, resp)) => Ok(resp),
            None => Err(VirtQueueError::Desynchronized {
                expected: 0,
                got: 0,
            }),
        }
    }

    /// Transmits one frame from the guest onto the network.
    ///
    /// # Errors
    ///
    /// Ring errors when the TX queue is full or desynchronised.
    pub fn net_send(&mut self, frame: Frame) -> Result<(), VirtQueueError> {
        self.net_tx_queue.guest_submit(frame)?;
        let network = &mut self.network;
        self.net_tx_queue
            .host_service(|f| network.deliver_from_guest(f));
        // Drain the () completion so the ring does not fill up.
        let _ = self.net_tx_queue.guest_complete();
        if self.net_tx_queue.is_desynced() {
            return Err(VirtQueueError::Desynchronized {
                expected: 0,
                got: 0,
            });
        }
        Ok(())
    }

    /// Polls the RX ring for one frame addressed to the guest.
    ///
    /// # Errors
    ///
    /// Ring errors when the RX queue is full or desynchronised.
    pub fn net_recv(&mut self) -> Result<Option<Frame>, VirtQueueError> {
        self.net_rx_queue.guest_submit(())?;
        let network = &mut self.network;
        self.net_rx_queue
            .host_service(|()| network.take_frame_for_guest());
        match self.net_rx_queue.guest_complete() {
            Some((_, frame)) => Ok(frame),
            None => Err(VirtQueueError::Desynchronized {
                expected: 0,
                got: 0,
            }),
        }
    }

    /// Guest-side ring reset: what a naive VIRTIO component reboot does.
    /// After prior traffic, the next transaction on any ring desynchronises.
    pub fn guest_reset_rings(&mut self) {
        self.ninep_queue.guest_reset();
        self.net_tx_queue.guest_reset();
        self.net_rx_queue.guest_reset();
    }

    /// Host-side device reset: recovers desynchronised rings (requires
    /// host/hypervisor cooperation, which VampOS does not have — exposed for
    /// the §VIII discussion experiments).
    pub fn host_device_reset(&mut self) {
        self.ninep_queue.host_device_reset();
        self.net_tx_queue.host_device_reset();
        self.net_rx_queue.host_device_reset();
    }

    /// True when any ring is desynchronised.
    pub fn rings_desynced(&self) -> bool {
        self.ninep_queue.is_desynced()
            || self.net_tx_queue.is_desynced()
            || self.net_rx_queue.is_desynced()
    }

    /// Arms a one-shot peer-side glitch on the 9P virtio ring (chaos fault
    /// injection): the device peer drops or double-fetches the next
    /// descriptor, leaving the ring ids skewed until a host device reset.
    pub fn inject_ninep_ring_glitch(&mut self, glitch: RingGlitch) {
        self.ninep_queue.inject_glitch(glitch);
    }

    /// The 9P file server (host-side access for fixtures and assertions).
    pub fn ninep(&self) -> &NinePServer {
        &self.ninep
    }

    /// Mutable 9P server access.
    pub fn ninep_mut(&mut self) -> &mut NinePServer {
        &mut self.ninep
    }

    /// The external network (client API for workloads).
    pub fn network(&self) -> &HostNetwork {
        &self.network
    }

    /// Mutable network access.
    pub fn network_mut(&mut self) -> &mut HostNetwork {
        &mut self.network
    }
}

/// A shared, cheaply cloneable handle to a [`HostWorld`].
///
/// The simulation is single-threaded; `Rc<RefCell<…>>` keeps host state
/// shareable between the guest's VIRTIO component and the workload clients.
///
/// # Example
///
/// ```
/// use vampos_host::HostHandle;
///
/// let host = HostHandle::new();
/// host.with(|w| w.ninep_mut().put_file("/www/index.html", b"<html/>"));
/// let conn = host.with(|w| w.network_mut().connect(80));
/// # let _ = conn;
/// ```
#[derive(Debug, Clone, Default)]
pub struct HostHandle(Rc<RefCell<HostWorld>>);

impl HostHandle {
    /// Creates a fresh host world and returns a handle to it.
    pub fn new() -> Self {
        HostHandle(Rc::new(RefCell::new(HostWorld::new())))
    }

    /// Runs `f` with mutable access to the world.
    ///
    /// # Panics
    ///
    /// Panics if called re-entrantly (the world is already borrowed).
    pub fn with<T>(&self, f: impl FnOnce(&mut HostWorld) -> T) -> T {
        f(&mut self.0.borrow_mut())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netpeer::TcpFlags;
    use crate::ninep::Fid;
    use crate::payload::Payload;

    #[test]
    fn ninep_transactions_flow_through_the_ring() {
        let mut w = HostWorld::new();
        w.ninep_mut().put_file("/f", b"data");
        let resp = w
            .ninep_transact(NinePRequest::Attach { fid: Fid(0) })
            .unwrap();
        assert!(matches!(resp, NinePResponse::Qid(_)));
    }

    #[test]
    fn net_send_and_recv_round_trip() {
        let mut w = HostWorld::new();
        let _conn = w.network_mut().connect(7);
        // Client SYN is queued; the guest polls it off the RX ring.
        let syn = w.net_recv().unwrap().expect("frame");
        assert_eq!(syn.flags, TcpFlags::SYN);
        // Guest answers; the frame reaches the network peer.
        w.net_send(Frame {
            src_port: 7,
            dst_port: syn.src_port,
            seq: 100,
            ack: syn.seq + 1,
            flags: TcpFlags::SYN_ACK,
            payload: Payload::new(),
        })
        .unwrap();
        assert_eq!(w.network().frames_from_guest(), 1);
    }

    #[test]
    fn empty_rx_poll_returns_none() {
        let mut w = HostWorld::new();
        assert_eq!(w.net_recv().unwrap(), None);
    }

    #[test]
    fn guest_ring_reset_after_traffic_breaks_the_device() {
        let mut w = HostWorld::new();
        w.ninep_transact(NinePRequest::Attach { fid: Fid(0) })
            .unwrap();
        w.guest_reset_rings();
        let err = w.ninep_transact(NinePRequest::Stat { fid: Fid(0) });
        assert!(err.is_err() || w.rings_desynced());
    }

    #[test]
    fn host_device_reset_restores_service() {
        let mut w = HostWorld::new();
        w.ninep_transact(NinePRequest::Attach { fid: Fid(0) })
            .unwrap();
        w.guest_reset_rings();
        let _ = w.ninep_transact(NinePRequest::Attach { fid: Fid(1) });
        assert!(w.rings_desynced());
        w.host_device_reset();
        assert!(!w.rings_desynced());
        // Fid table survived on the server; use a fresh fid.
        let resp = w
            .ninep_transact(NinePRequest::Attach { fid: Fid(2) })
            .unwrap();
        assert!(matches!(resp, NinePResponse::Qid(_)));
    }

    #[test]
    fn handle_shares_one_world() {
        let h = HostHandle::new();
        let h2 = h.clone();
        h.with(|w| w.ninep_mut().put_file("/x", b"1"));
        let data = h2.with(|w| w.ninep().read_file("/x"));
        assert_eq!(data, Some(b"1".to_vec()));
    }
}
